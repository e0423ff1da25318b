"""Tests for the shared signal-processing helpers."""

import numpy as np
import pytest

from polphase import dsp

RNG = np.random.default_rng(1964)


def test_vertex_is_exact_on_a_sampled_parabola():
    x = np.arange(12.0)
    y = 0.7 * (x - 5.3) ** 2 - 2.0
    position, value = dsp.vertex(y, 5)
    assert position == pytest.approx(5.3, abs=1e-12)
    assert value == pytest.approx(-2.0, abs=1e-12)


def test_vertex_wraps_around_the_ends():
    y = np.cos(2 * np.pi * (np.arange(64) + 0.2) / 64)  # maximum between samples 63 and 0
    position, value = dsp.vertex(y, 0)
    assert position == pytest.approx(-0.2, abs=1e-3)
    assert value == pytest.approx(1.0, abs=1e-5)


def test_vertex_keeps_the_sample_of_a_flat_triple():
    position, value = dsp.vertex(np.array([1.0, 2.0, 3.0, 4.0]), 1)
    assert (position, value) == (1.0, 2.0)


def test_vertex_stacks_and_several_positions_match_single_calls():
    values = RNG.normal(size=(3, 20))
    rows = dsp.vertex(values, np.argmax(values, axis=-1))
    several = dsp.vertex(values, np.array([[0, 7], [3, 19], [11, 12]]))
    for r in range(3):
        single = dsp.vertex(values[r], np.argmax(values[r]))
        np.testing.assert_array_equal([a[r] for a in rows], single)
        for c, i in enumerate(([0, 7], [3, 19], [11, 12])[r]):
            np.testing.assert_array_equal([a[r, c] for a in several], dsp.vertex(values[r], i))


def test_circular_savitzky_golay_is_the_centre_filter_on_a_periodic_scan():
    # on one period of a periodic signal the wrapped filter equals the plain
    # filter run over three periods, read off the middle one
    y = RNG.normal(size=50)
    tripled = dsp.savitzky_golay(np.tile(y, 3), 11, 3)
    np.testing.assert_allclose(dsp.circular_savitzky_golay(y, 11, 3), tripled[50:100], rtol=0, atol=1e-12)


@pytest.mark.parametrize("window, order", [(10, 3), (0, 0), (51, 3), (5, 5)])
def test_circular_savitzky_golay_refuses_unusable_windows(window, order):
    # an even window used to be widened by one sample without a word
    with pytest.raises(ValueError):
        dsp.circular_savitzky_golay(np.zeros(50), window, order)


def test_circular_savitzky_golay_filters_each_row_of_a_stack():
    y = RNG.normal(size=(2, 3, 40))
    stacked = dsp.circular_savitzky_golay(y, 9, 3)
    for index in np.ndindex(2, 3):
        np.testing.assert_array_equal(stacked[index], dsp.circular_savitzky_golay(y[index], 9, 3))
