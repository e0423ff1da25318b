"""Tests for the shared signal-processing helpers."""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polphase import dsp, polarimetry, su2

RNG = np.random.default_rng(1964)


def test_vertex_is_exact_on_a_sampled_parabola():
    x = np.arange(12.0)
    y = 0.7 * (x - 5.3) ** 2 - 2.0
    assert dsp.vertex(y, 5) == pytest.approx(5.3, abs=1e-12)
    np.testing.assert_allclose(dsp.vertex(y, np.array([4, 5, 6])), 5.3, rtol=0, atol=1e-12)


def test_vertex_keeps_the_sample_of_a_flat_triple():
    assert dsp.vertex(np.array([1.0, 2.0, 3.0, 4.0]), 1) == 1.0


# ---------------------------------------------------------------------------
# the harmonic least-squares fit

COEFFICIENT = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def grids(draw):
    """Uniform whole-period, uniform partial-period and random non-uniform grids."""
    kind = draw(st.sampled_from(["whole", "partial", "random"]))
    n = draw(st.integers(32, 512))
    if kind == "whole":
        return np.linspace(0.0, 2 * np.pi * draw(st.integers(1, 3)), n, endpoint=False)
    if kind == "partial":
        return draw(st.floats(-np.pi, np.pi)) + np.linspace(0.0, 2 * np.pi * draw(st.floats(0.5, 2.5)), n)
    return np.sort(np.random.default_rng(draw(st.integers(0, 2**32))).uniform(0.0, 2 * np.pi, n))


@settings(deadline=None, max_examples=200)
@given(COEFFICIENT, COEFFICIENT, COEFFICIENT, st.sampled_from([1, 2]), grids())
def test_harmonic_fit_recovers_the_coefficients(offset, re, im, k, phi):
    # on a partial or random grid the k-th harmonic spans phi * k, so a k = 2
    # fit sees the half-length grid as a whole turn or more
    phi = phi / k if k == 2 and phi[-1] - phi[0] < 2 * np.pi else phi
    values = offset + re * np.cos(k * phi) + im * np.sin(k * phi)
    got_offset, got_amplitude = dsp.harmonic_fit(values, phi, k)
    assert abs(got_offset - offset) < 1e-12
    assert abs(got_amplitude - complex(re, im)) < 1e-12


def test_harmonic_fit_of_a_stack_equals_the_fits_of_its_rows_bit_for_bit():
    phi = np.sort(RNG.uniform(0.0, 2 * np.pi, 200))
    values = RNG.normal(size=(3, 4, 200))
    offsets, amplitudes = dsp.harmonic_fit(values, phi, 2)
    assert offsets.shape == amplitudes.shape == (3, 4)
    for index in np.ndindex(3, 4):
        assert dsp.harmonic_fit(values[index], phi, 2) == (offsets[index], amplitudes[index])


@pytest.mark.parametrize("grid", ["uniform", "sorted"])
def test_one_scan_fits_to_a_float_and_a_complex_with_the_bits_of_its_stack_row(grid):
    # one scan's 3x3 tail is Python float arithmetic, the stack's numpy's: the same floats, zero signs too
    phi = {"uniform": np.linspace(0.0, 2 * np.pi, 4096, endpoint=False),
           "sorted": np.sort(RNG.uniform(0.0, 2 * np.pi, 500))}[grid]
    stack = np.vstack([RNG.normal(size=(3, len(phi))), np.zeros((1, len(phi)))])
    for k in (1, 2):
        offsets, amplitudes = dsp.harmonic_fit(stack, phi, k)
        sweep = polarimetry.PolarimetricSweep(phi, np.clip(stack, 0.0, 1.0), None)
        low, high = polarimetry.sweep_extrema(sweep)
        for row in range(len(stack)):
            offset, amplitude = dsp.harmonic_fit(stack[row], phi, k)
            assert type(offset) is float and type(amplitude) is complex
            assert np.float64(offset).tobytes() == offsets[row].tobytes()
            assert np.complex128(amplitude).tobytes() == amplitudes[row].tobytes()
            one = polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(phi, sweep.intensities[row], None))
            assert [type(v) for v in one] == [float, float]
            assert np.array(one).tobytes() == np.array([low[row], high[row]]).tobytes()


def _fit_with_fresh_products(values, phi, k):
    """harmonic_fit with a new array for each product, as it was first written."""
    c, s, (a00, a01, a02, a11, a12, a22), det = dsp._terms(phi, k)
    r0, r1, r2 = values.sum(-1), (values * c).sum(-1), (values * s).sum(-1)
    offset = (a00 * r0 + a01 * r1 + a02 * r2) / det
    return offset, (a01 * r0 + a11 * r1 + a12 * r2) / det + 1j * ((a02 * r0 + a12 * r1 + a22 * r2) / det)


@pytest.mark.parametrize("k", [1, 2])
def test_harmonic_fit_leaves_its_inputs_and_the_cached_terms_untouched(k):
    phi = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    stack = RNG.normal(size=(64, 4096))
    cached = [term.copy() for term in dsp.harmonics(phi, k)]
    for values in (stack, stack[5], stack[::3, :], np.asfortranarray(stack), stack[:, None, :]):
        kept, grid = values.copy(), phi.copy()
        got = dsp.harmonic_fit(values, phi, k)
        np.testing.assert_array_equal(values, kept, strict=True)
        np.testing.assert_array_equal(phi, grid, strict=True)
        # one product buffer for both sums: the same floats as a new array for each
        for part, want in zip(got, _fit_with_fresh_products(values, phi, k)):
            np.testing.assert_array_equal(part, want, strict=True)
    for term, copy in zip(dsp.harmonics(phi, k), cached):
        np.testing.assert_array_equal(term, copy, strict=True)


@pytest.mark.parametrize("rows, n", [(0, 4096), (1, 10), (64, 4096), (67, 4096), (301, 640), (3, 40000), (5, 0)])
def test_row_blocks_cover_every_row_once_within_one_block(rows, n):
    blocks = dsp._row_blocks(rows, n)
    assert [row for block in blocks for row in range(rows)[block]] == list(range(rows))
    # at most _BLOCK elements, or one row that is longer
    assert all(1 <= len(range(rows)[block]) <= max(1, dsp._BLOCK // max(n, 1)) for block in blocks)


@pytest.mark.parametrize("layout", ["C", "row-strided", "column-strided", "fortran", "3-D"])
@pytest.mark.parametrize("k", [1, 2])
def test_harmonic_fit_across_row_blocks_gives_the_floats_of_fresh_products(layout, k):
    # 67 scans of 4096 span eight row blocks and end in a ragged one; strided and
    # Fortran stacks must give the sums of their own layout, blocked or not
    phi = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    wide = RNG.normal(size=(201, 8192))
    values = {"C": wide[:67, :4096].copy(), "row-strided": wide[::3, :4096], "column-strided": wide[:67, ::2],
              "fortran": np.asfortranarray(wide[:67, :4096]), "3-D": wide[::3, None, :4096]}[layout]
    assert values.size > dsp._BLOCK
    for part, want in zip(dsp.harmonic_fit(values, phi, k), _fit_with_fresh_products(values, phi, k)):
        np.testing.assert_array_equal(part, want, strict=True)


@pytest.mark.parametrize("phi, k", [
    (np.array([]), 1),
    (np.array([0.4, 1.1]), 1),
    (np.array([0.0, 1.0, 0.0, 1.0, 1.0]), 2),  # two distinct phases
    (np.array([0.0, np.pi, 2 * np.pi, 3 * np.pi]), 1),  # two distinct phases mod 2 pi
    (np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]), 2),  # two distinct phases mod pi
    (np.linspace(0.0, 1e-3, 64), 1),  # a sliver of the period
])
def test_harmonic_fit_refuses_grids_that_cannot_resolve_the_harmonic(phi, k):
    with pytest.raises(dsp.UnresolvableGrid, match="cannot separate an offset from harmonic"):
        dsp.harmonic_fit(np.ones(len(phi)), phi, k)
    assert issubclass(dsp.UnresolvableGrid, ValueError)


def test_harmonic_fit_needs_values_along_the_grid():
    with pytest.raises(ValueError, match="do not lie along a grid"):
        dsp.harmonic_fit(np.ones((3, 10)), np.linspace(0.0, 6.0, 9), 1)


def _with(array, index, value):
    array = array.copy()
    array[index] = value
    return array


PHI_64 = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)


@pytest.mark.parametrize("values, phi, message", [
    (_with(np.full(64, 0.5), 3, np.inf), PHI_64, "values must be finite, got 1 of 64 values"),
    (_with(np.full(64, 0.5), 3, -np.inf), PHI_64, "values must be finite, got 1 of 64 values"),
    # one infinite row refuses the stack; a NaN beside the inf is counted with it
    (_with(_with(np.full((2, 64), 0.5), (1, 0), np.inf), (0, 5), np.nan), PHI_64,
     "values must be finite, got 2 of 128 values"),
    (np.inf, np.array([0.0]), "values must be finite, got inf"),
    (np.full(64, 0.5), _with(PHI_64, 5, np.nan), "phi must be finite, got 1 of 64 values"),
    (np.full(64, 0.5), _with(PHI_64, 5, -np.inf), "phi must be finite, got 1 of 64 values"),
])
@pytest.mark.parametrize("k", [1, 2])
def test_harmonic_fit_refuses_an_infinite_value_and_a_non_finite_phase(values, phi, message, k):
    # an inf used to give a NaN offset and amplitude, and a NaN or infinite phase an UnresolvableGrid
    with pytest.raises(su2.NonFiniteInput, match=f"^{re.escape(message)}$"):
        dsp.harmonic_fit(values, phi, k)


def test_sweep_extrema_inherits_the_refusals_of_harmonic_fit():
    with pytest.raises(su2.NonFiniteInput, match=r"^values must be finite, got 1 of 64 values$"):
        polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(PHI_64, _with(np.full(64, 0.5), 9, np.inf), None))
    with pytest.raises(su2.NonFiniteInput, match=r"^phi must be finite, got 1 of 64 values$"):
        polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(_with(PHI_64, 0, np.nan), np.full(64, 0.5), None))


@pytest.mark.parametrize("k", [np.array([1, 2]), np.array([2]), [1, 2]], ids=["two", "one", "list"])
def test_an_array_harmonic_is_refused_by_name(k):
    # two harmonics failed inside numpy with an ambiguous truth value, and one in an array was taken as k
    message = f"^k must be an integer, got {re.escape(repr(k))}$"
    with pytest.raises(ValueError, match=message):
        dsp.harmonic_fit(np.ones(64), PHI_64, k)
    with pytest.raises(ValueError, match=message):
        dsp.harmonics(PHI_64, k)
    # one integer is k, whatever holds it
    for one in (np.int64(2), np.array(2)):
        assert [term.tobytes() for term in dsp.harmonics(PHI_64, one)] == \
            [term.tobytes() for term in dsp.harmonics(PHI_64, 2)]


@pytest.mark.parametrize("k", [1.5, np.float64(2.5), np.array(0.5), np.nan, np.inf, 1j, "2", 2.0, np.float32(2.0)])
def test_a_harmonic_that_is_not_an_integer_is_refused_by_name(k):
    # a non-integer harmonic was fitted, and a 0-d array could not key the grid cache; 2.0 was taken as 2,
    # but a float is not an integer, whatever its value (su2._scalar's rule)
    message = f"^k must be an integer, got {re.escape(repr(k))}$"
    with pytest.raises(ValueError, match=message):
        dsp.harmonic_fit(np.ones(64), np.linspace(0, 6, 64), k)
    with pytest.raises(ValueError, match=message):
        dsp.harmonics(PHI_64, k)
    # an integer in any holder is the key of the same entry
    first = dsp.harmonics(PHI_64, 2)
    for one in (np.int64(2), np.array(2)):
        assert all(got is want for got, want in zip(dsp.harmonics(PHI_64, one), first))


@pytest.mark.parametrize("k", [1, 2])
def test_a_nan_value_leaves_its_row_fits_nan_and_the_other_rows_their_own(k):
    # harmonic_fit refuses a NaN value as it refuses an infinite one; its kernel, which
    # measure_phase calls on the scan it renders, still leaves only a NaN row's fits NaN
    values = np.cos(k * PHI_64) * np.arange(1.0, 4.0)[:, None] + 0.25
    values[1, 7] = np.nan
    with pytest.raises(su2.NonFiniteInput, match="^values must be finite, got 1 of 192 values$"):
        dsp.harmonic_fit(values, PHI_64, k)
    with pytest.raises(su2.NonFiniteInput, match="^values must be finite, got nan$"):
        dsp.harmonic_fit(np.nan, np.array([0.0]), k)
    offset, amplitude = dsp._fit(values, dsp._terms(PHI_64, k), k)
    assert np.isnan(offset[1]) and np.isnan(amplitude[1])
    for row in (0, 2):
        assert (offset[row], amplitude[row]) == dsp.harmonic_fit(values[row], PHI_64, k)


# ---------------------------------------------------------------------------
# the grid cache behind harmonics and harmonic_fit: one entry per (n, k), the uniform grid
# np.linspace(0, 2 pi, n, endpoint=False) and its terms; a cached pair is the same read-only
# arrays on every call, so ``is`` tells a cache hit from a computation

def _count_computations(monkeypatch) -> list:
    """The k of every grid whose terms are computed from here on."""
    calls, design = [], dsp._design
    monkeypatch.setattr(dsp, "_design", lambda phi, k: calls.append(k) or design(phi, k))
    return calls


def _turn(n: int) -> np.ndarray:
    """The uniform grid of n points over one turn, the grid the cache holds."""
    return np.linspace(0.0, 2 * np.pi, n, endpoint=False)


@pytest.mark.parametrize("k", [1, 2])
def test_harmonics_are_numpys_cos_and_sin_on_first_and_repeat_calls(k, monkeypatch):
    phi = _turn(777)
    dsp._uniform.cache_clear()
    calls = _count_computations(monkeypatch)
    first = dsp.harmonics(phi, k)
    for c, s in (first, dsp.harmonics(phi, k), dsp.harmonics(phi.copy(), k), dsp.harmonics(list(phi), k)):
        np.testing.assert_array_equal(c, np.cos(k * phi), strict=True)
        np.testing.assert_array_equal(s, np.sin(k * phi), strict=True)
        # one computation per length and k, then hits, whatever holds the grid's bytes
        assert c is first[0] and s is first[1]
    assert calls == [k]
    assert dsp.harmonics(phi, 3 - k)[0] is not first[0]
    assert calls == [k, 3 - k]
    # any other grid gets numpy's floats too, computed on each call
    other = np.sort(RNG.uniform(-3.0, 9.0, 777))
    pairs = [dsp.harmonics(other, k) for _ in range(2)]
    for c, s in pairs:
        np.testing.assert_array_equal(c, np.cos(k * other), strict=True)
        np.testing.assert_array_equal(s, np.sin(k * other), strict=True)
    assert pairs[1][0] is not pairs[0][0]
    assert calls == [k, 3 - k, k, k]


def _fill_the_cache(k: int) -> list:
    """Cache as many uniform grids of new lengths as the cache holds; their (grid, cos) pairs."""
    grids = [_turn(n) for n in range(1100, 1100 + dsp._uniform.cache_info().maxsize)]
    return [(phi, dsp.harmonics(phi, k)[0]) for phi in grids]


def _all_held(pairs, k: int) -> bool:
    return all(dsp.harmonics(phi, k)[0] is c for phi, c in pairs)


def test_harmonics_of_other_shapes_are_computed_directly():
    held = _fill_the_cache(2)
    mesh = RNG.uniform(0.0, 6.0, (5, 7))
    for phi in (mesh, _turn(64)[None], 0.3, np.float64(-2.5)):
        c, s = dsp.harmonics(phi, 2)
        np.testing.assert_array_equal(c, np.cos(2 * np.asarray(phi)))
        np.testing.assert_array_equal(s, np.sin(2 * np.asarray(phi)))
    # nothing was cached: every grid cached before is still held
    assert _all_held(held, 2)


def test_cached_harmonics_are_read_only():
    c, s = dsp.harmonics(_turn(64), 2)
    for term in (c, s):
        with pytest.raises(ValueError, match="read-only"):
            term[0] = 1.0


def test_the_cache_is_keyed_by_the_grid_contents():
    phi = np.linspace(0.0, 2 * np.pi, 300, endpoint=False)
    values = RNG.normal(size=(2, 300))
    dsp.harmonic_fit(values, phi, 1)
    phi *= 1.5  # changed in place after its fit was cached
    values = 0.2 + 0.3 * np.cos(phi) - 0.4 * np.sin(phi) + np.zeros((2, 1))
    offsets, amplitudes = dsp.harmonic_fit(values, phi, 1)
    np.testing.assert_allclose(offsets, 0.2, rtol=0, atol=1e-12)
    np.testing.assert_allclose(amplitudes, 0.3 - 0.4j, rtol=0, atol=1e-12)
    for row in range(2):
        assert dsp.harmonic_fit(values[row], phi.copy(), 1) == (offsets[row], amplitudes[row])
    np.testing.assert_array_equal(dsp.harmonics(phi)[0], np.cos(phi))


def test_a_cached_unresolvable_grid_is_refused_on_every_call(monkeypatch):
    phi = _turn(4)  # 2 phi takes two distinct phases mod 2 pi: sin 2 phi vanishes
    dsp._uniform.cache_clear()
    calls = _count_computations(monkeypatch)
    for _ in range(3):
        with pytest.raises(dsp.UnresolvableGrid):
            dsp.harmonic_fit(np.ones(4), phi, 2)
    # computed once: the second and third refusals read the cached determinant
    assert calls == [2]


def test_the_cache_is_bounded(monkeypatch):
    size = dsp._uniform.cache_info().maxsize
    assert size == 8
    grids = [_turn(n) for n in range(64, 64 + 2 * size)]
    for phi in grids:
        dsp.harmonic_fit(np.ones(len(phi)), phi, 2)
        assert dsp._uniform.cache_info().currsize <= size
    # the last `size` grids are held, the one before them is not
    held = [(phi, dsp.harmonics(phi, 2)[0]) for phi in grids[size:]]
    assert _all_held(held, 2)
    # a grid longer than the cached ones is computed on each call, to the same floats,
    # and evicts nothing
    calls = _count_computations(monkeypatch)
    phi = _turn(dsp._CACHED_POINTS + 1)
    first = dsp.harmonics(phi, 2)[1]
    np.testing.assert_array_equal(first, np.sin(2 * phi))
    assert dsp.harmonics(phi, 2)[1] is not first
    assert calls == [2, 2]
    assert _all_held(held, 2)
    # the grid before them was evicted: its terms are computed again
    dsp.harmonics(grids[size - 1], 2)
    assert calls == [2, 2, 2]


def test_threads_sharing_the_cache_get_numpys_terms_and_keep_its_bound():
    size = dsp._uniform.cache_info().maxsize
    grids = [_turn(n) for n in range(200, 200 + 3 * size)]
    errors = []

    def scan(offset):
        try:
            for i in range(300):
                phi = grids[(offset + 7 * i) % len(grids)]
                k = 1 + i % 2
                c, s = dsp.harmonics(phi, k)
                if not (np.array_equal(c, np.cos(k * phi)) and np.array_equal(s, np.sin(k * phi))):
                    errors.append(f"wrong terms for {len(phi)} points, k = {k}")
                if dsp._uniform.cache_info().currsize > size:
                    errors.append(f"{dsp._uniform.cache_info().currsize} entries")
        except Exception as exc:
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scan, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert dsp._uniform.cache_info().currsize == size
