"""Tests for synthetic interferograms and the two shift estimators."""

import contextlib
import dataclasses
import gc
import hashlib
import os
import re
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize_scalar

from polphase import dsp, fringes, interferometer, su2
from polphase.fringes import Region

RNG = np.random.default_rng(55667788)


# ---------------------------------------------------------------------------
# generator

def test_generate_zero_delta_halves_identical():
    img = fringes.generate(0.0, 0.3, 0.2, size=(64, 128))
    np.testing.assert_allclose(img.pixels[:32], img.pixels[32:], atol=1e-15)


def test_generate_flat_at_beta_half_pi():
    img = fringes.generate(0.4, np.pi / 2, 0.2, size=(64, 128))
    np.testing.assert_allclose(img.pixels, 0.5, atol=1e-12)


def test_generate_halves_are_shifted_copies():
    # the generator is its own oracle: the circular cross-correlation of the
    # two half profiles peaks at 2*delta/k0 pixels
    delta, k0 = 0.5, 0.2
    img = fringes.generate(delta, 0.0, k0, size=(64, 256))
    up = img.pixels[0]
    low = img.pixels[-1]
    corr = np.fft.irfft(np.conj(np.fft.rfft(low - low.mean()))
                        * np.fft.rfft(up - up.mean()), 256)
    lag = int(np.argmax(corr))
    expected = 2 * delta / k0  # = 5 px
    assert min(abs(lag - expected), abs(lag - 256 - expected)) <= 0.5


def test_generate_validation():
    with pytest.raises(ValueError):
        fringes.generate(0.1, 0.1, 3.5)  # above Nyquist
    with pytest.raises(ValueError):
        fringes.generate(0.1, 0.1, 0.0)
    with pytest.raises(ValueError):
        fringes.generate(0.1, 0.1, 0.2, size=(8, 8))
    with pytest.raises(ValueError):
        fringes.generate(0.1, 0.1, 0.2, noise_sigma=-1.0)
    with pytest.raises(ValueError):
        fringes.generate(0.1, 0.1, 0.2, size=(64, 64), split_row=64)


@pytest.mark.parametrize("name", ["delta", "beta", "phi0", "noise_sigma", "envelope_width"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generate_rejects_non_finite_parameters(name, bad):
    kwargs = {"delta": 0.1, "beta": 0.2, "k0": 0.3, "size": (32, 64), name: bad}
    with pytest.raises(su2.NonFiniteInput, match=f"^{name} must be finite"):
        fringes.generate(**kwargs)


@pytest.mark.parametrize("name", ["delta", "beta", "phi0"])
@pytest.mark.parametrize("bad", [np.array([0.1, 0.2]), [[0.1], [0.2]]])
def test_generate_refuses_a_non_scalar_angle_by_name(name, bad):
    # an array delta or beta used to render a (32, 2, 64) image that retrieval could not
    # unpack, and an array phi0 failed in numpy's broadcast
    kwargs = {"delta": 0.1, "beta": 0.2, "k0": 0.3, "size": (32, 64), name: bad}
    shape = np.shape(bad)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a scalar angle, got an array of shape {shape}")):
        fringes.generate(**kwargs)
    # a zero-dimensional array is a scalar angle
    kwargs[name] = np.array(0.1)
    assert fringes.generate(**kwargs).shape == (32, 64)


@pytest.mark.parametrize("kwargs, error, message", [
    # these failed inside numpy, unlabelled, or (a one-element array) were taken as the scalar
    ({"k0": np.array([0.2, 0.3])}, ValueError, "k0 must be a scalar, got an array of shape (2,)"),
    ({"k0": np.array([0.3])}, ValueError, "k0 must be a scalar, got an array of shape (1,)"),
    ({"k0": 0.3 + 0j}, su2.ComplexInput, "k0 must be real, got (0.3+0j)"),
    ({"k0": np.nan}, su2.NonFiniteInput, "k0 must be finite, got nan"),
    ({"noise_sigma": np.array([0.1, 0.2])}, ValueError, "noise_sigma must be a scalar, got an array of shape (2,)"),
    ({"noise_sigma": np.array([0.1])}, ValueError, "noise_sigma must be a scalar, got an array of shape (1,)"),
    ({"envelope_width": np.array([10.0, 20.0])}, ValueError,
     "envelope_width must be a scalar, got an array of shape (2,)"),
    ({"size": (32.5, 64)}, ValueError, "height must be an integer, got 32.5"),
    ({"size": (32, 64.0)}, ValueError, "width must be an integer, got 64.0"),
    ({"noise_sigma": 0.1, "seed": 0.5}, ValueError, "seed must be an integer, got 0.5"),
    ({"noise_sigma": 0.1, "seed": np.float64(2.0)}, ValueError, f"seed must be an integer, got {np.float64(2.0)!r}"),
    ({"noise_sigma": 0.1, "seed": np.array(0.5)}, ValueError, "seed must be an integer, got array(0.5)"),
])
def test_generate_refuses_a_parameter_that_is_not_one_number_by_name(kwargs, error, message):
    call = {"delta": 0.1, "beta": 0.2, "k0": 0.3, "size": (32, 64), **kwargs}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        fringes.generate(**call)


def test_generate_takes_numpy_scalars_and_integers_with_the_bits_of_python_ones():
    want = fringes.generate(0.1, 0.2, 0.3, size=(32, 64), noise_sigma=0.05, seed=3, envelope_width=20.0)
    got = fringes.generate(0.1, 0.2, np.array(0.3), size=(np.int64(32), np.int32(64)), noise_sigma=np.float64(0.05),
                           seed=np.int64(3), envelope_width=np.array(20.0))
    assert got.pixels.tobytes() == want.pixels.tobytes() and got.shape == (32, 64)
    # a noise-free image draws nothing, so its seed is not read
    assert fringes.generate(0.1, 0.2, 0.3, size=(32, 64), seed=0.5).pixels.tobytes() == \
        fringes.generate(0.1, 0.2, 0.3, size=(32, 64)).pixels.tobytes()


def generate_reference(delta, beta, k0, size, noise_sigma, seed, **kwargs):
    """The noise-free image plus default_rng(seed).normal(0.0, noise_sigma, size) in one draw, clipped."""
    clean = fringes.generate(delta, beta, k0, size=size, **kwargs).pixels
    return np.clip(clean + np.random.default_rng(seed).normal(0.0, noise_sigma, size), 0.0, 1.0)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 987654321])
@pytest.mark.parametrize("envelope_width", [None, 25.0])
def test_generate_noise_is_numpys_normal_draw_bit_for_bit(seed, envelope_width):
    # 96 x 640 pixels are drawn in two row blocks from one generator: the stream of one draw
    for sigma in (0.02, 0.3):
        got = fringes.generate(0.4, 0.3, 0.25, size=(96, 640), noise_sigma=sigma, seed=seed,
                               envelope_width=envelope_width)
        want = generate_reference(0.4, 0.3, 0.25, (96, 640), sigma, seed, envelope_width=envelope_width)
        assert got.pixels.tobytes() == want.tobytes()


def test_generate_takes_a_zero_dimensional_seed_as_the_number_it_holds():
    # it failed inside numpy with `len() of unsized object`
    kwargs = {"size": (32, 64), "noise_sigma": 0.1}
    assert fringes.generate(0.1, 0.2, 0.3, seed=np.array(5), **kwargs).pixels.tobytes() == \
        fringes.generate(0.1, 0.2, 0.3, seed=5, **kwargs).pixels.tobytes()


def test_generate_envelope_attenuates_edges():
    img = fringes.generate(0.0, np.pi / 2, 0.2, size=(64, 64), envelope_width=20.0)
    # flat fringe pattern (0.5 everywhere) times the Gaussian beam profile
    assert img.pixels[32, 32] == pytest.approx(0.5, abs=0.01)
    assert img.pixels[0, 0] < 0.05


def test_generate_deterministic_per_seed():
    a = fringes.generate(0.2, 0.5, 0.3, size=(32, 64), noise_sigma=0.05, seed=9)
    b = fringes.generate(0.2, 0.5, 0.3, size=(32, 64), noise_sigma=0.05, seed=9)
    c = fringes.generate(0.2, 0.5, 0.3, size=(32, 64), noise_sigma=0.05, seed=10)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert np.any(a.pixels != c.pixels)


def test_interferogram_metadata():
    img = fringes.generate(0.7, 0.2, 0.25, size=(32, 64))
    assert img.true_delta == 0.7
    assert img.k0 == 0.25
    assert img.half_split_row == 16


# ---------------------------------------------------------------------------
# column averaging

def test_column_average_constant_image():
    img = fringes.Interferogram(np.full((32, 48), 0.25), 16)
    up, low = fringes.column_average(img, Region(0, 48, 0, 32))
    np.testing.assert_allclose(up, 0.25)
    np.testing.assert_allclose(low, 0.25)


def test_column_average_recovers_generating_cosines():
    delta, beta, k0, phi0 = 0.4, 0.6, 0.21, 1.1
    img = fringes.generate(delta, beta, k0, size=(64, 200), phi0=phi0)
    up, low = fringes.column_average(img, Region(0, 200, 0, 64))
    x = np.arange(200)
    np.testing.assert_allclose(
        up, 0.5 * (1 - np.cos(beta) * np.cos(k0 * x + phi0 - delta)), atol=1e-12
    )
    np.testing.assert_allclose(
        low, 0.5 * (1 - np.cos(beta) * np.cos(k0 * x + phi0 + delta)), atol=1e-12
    )


def test_column_average_variance_reduction():
    # averaging N rows shrinks the noise variance by about N
    sigma = 0.05
    img = fringes.generate(0.0, np.pi / 3, 0.2, size=(200, 384),
                           noise_sigma=sigma, seed=4)
    clean = fringes.generate(0.0, np.pi / 3, 0.2, size=(200, 384))
    region = Region(0, 384, 0, 200)
    up, _ = fringes.column_average(img, region)
    up_clean, _ = fringes.column_average(clean, region)
    residual_var = np.var(up - up_clean)
    expected = sigma**2 / 100  # 100 rows in the upper half
    assert 0.6 * expected < residual_var < 1.6 * expected


def test_column_average_region_must_straddle():
    img = fringes.generate(0.1, 0.1, 0.2, size=(64, 64))
    with pytest.raises(ValueError):
        fringes.column_average(img, Region(0, 64, 0, 16))  # upper half only
    with pytest.raises(ValueError):
        fringes.column_average(img, Region(0, 128, 0, 64))  # out of bounds


def test_region_validation():
    with pytest.raises(ValueError):
        Region(10, 10, 0, 5)
    with pytest.raises(ValueError):
        Region(-1, 10, 0, 5)


def test_default_regions_straddle_and_nest():
    img = fringes.generate(0.1, 0.1, 0.2, size=(480, 640))
    regions = fringes.default_regions(img)
    assert len(regions) == 4
    for r in regions:
        assert r.row_start < img.half_split_row < r.row_end
        assert r.col_start == 128 and r.col_end == 512
    assert regions[-1].row_start == 0 and regions[-1].row_end == 480
    assert regions == _nested_regions(img, 4)


# ---------------------------------------------------------------------------
# Savitzky-Golay filter

def test_savgol_constant_unchanged():
    profile = np.full(50, 3.7)
    np.testing.assert_allclose(fringes.savitzky_golay(profile), profile)


def test_savgol_polynomial_exact_everywhere():
    # degree <= order polynomials pass through untouched, endpoints included
    # (truncated-window least squares, no padding)
    x = np.linspace(-2, 2, 60)
    poly = 0.3 - 1.2 * x + 0.5 * x**2 + 0.05 * x**3
    smoothed = fringes.savitzky_golay(poly)
    np.testing.assert_allclose(smoothed, poly, atol=1e-10)


def test_savgol_noise_reduction():
    x = np.arange(400)
    clean = np.cos(0.15 * x)
    rng = np.random.default_rng(77)
    rms_in, rms_out = [], []
    for _ in range(10):
        noisy = clean + rng.normal(0, 0.05, len(x))
        smoothed = fringes.savitzky_golay(noisy)
        rms_in.append(np.sqrt(np.mean((noisy - clean) ** 2)))
        rms_out.append(np.sqrt(np.mean((smoothed - clean) ** 2)))
    assert np.mean(rms_in) / np.mean(rms_out) >= 2.0


def test_savgol_parameter_validation():
    with pytest.raises(ValueError, match="^window 11 longer than profile 10$"):
        fringes.savitzky_golay(np.zeros(10))


# ---------------------------------------------------------------------------
# carrier estimation

def test_estimate_carrier_pure_cosine():
    x = np.arange(384)
    for k0 in (0.11, 0.2337, 0.49):
        profile = 0.5 + 0.3 * np.cos(k0 * x + 0.7)
        assert abs(fringes.estimate_carrier(profile) - k0) < 1e-4


def test_estimate_carrier_no_carrier_cases():
    with pytest.raises(fringes.NoCarrier):
        fringes.estimate_carrier(np.full(128, 0.5))
    with pytest.raises(fringes.NoCarrier):
        # pure envelope, no fringes: spectrum is all low-frequency shoulder
        x = np.arange(256)
        fringes.estimate_carrier(np.exp(-0.5 * ((x - 128) / 40.0) ** 2))


def test_estimate_carrier_refuses_an_overflowing_transform():
    # the windowed transform of this profile overflows to inf, and its three-bin
    # vertex to NaN, which used to be returned as the carrier
    rng = np.random.default_rng(4)
    y = (0.5 - 0.4 * np.cos(rng.uniform(0.0, np.pi) * np.arange(51)) + rng.normal(0.0, 3.0, 51)) * 1e307
    with pytest.raises(fringes.NoCarrier, match="^the windowed transform overflows$"):
        fringes.estimate_carrier(y)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5), st.integers(8, 300), st.sampled_from([1.0, 1e-300, 1e300, 1e307]),
    st.sampled_from([0.0, 0.01, 0.3, 3.0]), st.integers(0, 2**32 - 1),
)
def test_every_carrier_not_refused_is_finite_and_below_nyquist(count, n, scale, sigma, seed):
    # the shift kernels read _carriers' k0 unchecked: a row it does not refuse
    # must carry a finite k0 in (0, pi), also where a huge profile's transform overflows
    rng = np.random.default_rng(seed)
    k = rng.uniform(0.0, np.pi, (count, 1))
    phase = rng.uniform(-np.pi, np.pi, (count, 1))
    profiles = (0.5 - 0.4 * np.cos(k * np.arange(n) + phase) + rng.normal(0.0, sigma, (count, n))) * scale
    carriers, errors = fringes._carriers(profiles)
    for k0, error in zip(carriers, errors):
        assert 0.0 < k0 < np.pi if error is None else np.isnan(k0)


def test_retrieve_phase_on_huge_intensities():
    # 1e300 leaves every sum finite and is retrieved; at 1e307 the column sums
    # overflow to inf and every region is refused
    img = fringes.generate(0.5, 0.4, 0.25, size=(64, 128), seed=1)
    want = fringes.retrieve_phase(img).estimate
    huge = fringes.Interferogram(img.pixels * 1e300, img.half_split_row)
    assert abs(fringes.retrieve_phase(huge).estimate - want) < 1e-9
    with pytest.raises(fringes.NoCarrier):
        fringes.retrieve_phase(fringes.Interferogram(img.pixels * 1e307, img.half_split_row))



@pytest.mark.parametrize("scale", [1e-13, 1e-100, 1e-300])
def test_retrieve_phase_on_tiny_intensities(scale):
    # flatness is relative to the profile's magnitude, so a small intensity
    # scale is retrieved as the unscaled image is, not refused as flat
    img = fringes.generate(0.4, 0.3, 0.25, size=(64, 128), noise_sigma=0.01, seed=3)
    want = fringes.retrieve_phase(img).estimate
    tiny = fringes.Interferogram(img.pixels * scale, img.half_split_row)
    assert abs(fringes.retrieve_phase(tiny).estimate - want) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("imaginary", [0.1j, 0j])
def test_estimate_carrier_refuses_a_complex_profile_by_name(imaginary):
    # the imaginary part used to be dropped, with only numpy's ComplexWarning
    y = 0.5 - 0.4 * np.cos(0.3 * np.arange(200))
    with pytest.raises(su2.ComplexInput, match="^profile must be real, got 200 complex values$"):
        fringes.estimate_carrier(y + imaginary)
    # a real profile, as an array, a list or integers, keeps its carrier's bits
    want = fringes.estimate_carrier(y)
    assert fringes.estimate_carrier(y.tolist()) == want
    assert fringes.estimate_carrier(np.asarray(y, dtype=np.float32)) == fringes.estimate_carrier(
        np.asarray(y, dtype=np.float32).astype(float))
    assert fringes.estimate_carrier(np.round(1000 * y).astype(int)) == fringes.estimate_carrier(np.round(1000 * y))


def test_a_non_finite_profile_is_refused_as_not_finite():
    for bad in (np.inf, -np.inf, np.nan):
        y = 0.5 - 0.4 * np.cos(0.3 * np.arange(64))
        y[10] = bad
        with pytest.raises(fringes.NoCarrier, match="^profile is not finite$"):
            fringes.estimate_carrier(y)
    # the column sums of this image overflow to inf
    img = fringes.generate(0.5, 0.4, 0.25, size=(64, 128), seed=1)
    with pytest.raises(fringes.NoCarrier, match="^profile is not finite$"):
        fringes.retrieve_phase(fringes.Interferogram(img.pixels * 1e307, img.half_split_row))


def test_a_lower_half_near_the_float_limit_is_refused_not_read_as_nan():
    # the lower half's column sums stay finite but its Fourier terms overflow:
    # the Fourier estimate is refused, under either method, the minima cross-check still read
    img = fringes.generate(0.4, 0.3, 0.25, size=(64, 128), noise_sigma=0.01, seed=3)
    pixels = img.pixels * 1e300
    pixels[img.half_split_row:] *= 1e7
    huge = fringes.Interferogram(pixels, img.half_split_row)
    region = fringes.default_regions(huge)[0]
    with pytest.raises(fringes.NoCarrier, match="^the windowed transform overflows$"):
        fringes.shift_by_fourier(*fringes.column_average(huge, region))
    for method in ("fourier", "both"):
        with pytest.raises(fringes.NoCarrier):
            fringes.retrieve_phase(huge, method=method)
    _, (minima, fourier), errors = fringes._analyse_regions(huge, [region], "both")
    assert abs(minima[0] - 0.8) < 0.01 and np.isnan(fourier[0])
    assert str(errors[0]) == "the windowed transform overflows"


def test_the_shift_estimators_refuse_a_non_finite_profile():
    up, low = make_profiles(0.2, 0.4, 0.2, 300)
    low[7] = np.nan
    for shift in (fringes.shift_by_minima, fringes.shift_by_fourier):
        with pytest.raises(su2.NonFiniteInput, match="^lower profile must be finite"):
            shift(up, low, 0.2)


@pytest.mark.parametrize("k0", [np.array([0.2, 0.3]), np.array([0.2])])
def test_the_shift_estimators_refuse_an_array_carrier_by_name(k0):
    # an array k0 used to fail inside numpy (an ambiguous truth value, a broadcast, an index)
    up, low = make_profiles(0.2, 0.4, 0.2, 300)
    for shift in (fringes.shift_by_minima, fringes.shift_by_fourier):
        with pytest.raises(ValueError, match=f"^k0 must be a scalar, got an array of shape {re.escape(str(k0.shape))}$"):
            shift(up, low, k0)
        assert shift(up, low, np.array(0.2)) == shift(up, low, 0.2)


# ---------------------------------------------------------------------------
# minima estimator

def make_profiles(delta, beta, k0, width, phi0=0.0):
    x = np.arange(width)
    up = 0.5 * (1 - np.cos(beta) * np.cos(k0 * x + phi0 - delta))
    low = 0.5 * (1 - np.cos(beta) * np.cos(k0 * x + phi0 + delta))
    return up, low


def test_shift_by_minima_identical_profiles():
    up, _ = make_profiles(0.0, 0.5, 0.2, 300)
    assert abs(fringes.shift_by_minima(up, up, 0.2)) < 1e-12


def test_shift_by_minima_known_shift():
    up, low = make_profiles(0.5, 0.0, 0.2, 384)
    got = fringes.shift_by_minima(up, low, 0.2)
    assert abs(got - 1.0) < 1e-3


def test_shift_by_minima_near_half_period():
    # a shift right at half a period is the worst case for pairing; the
    # periodic nearest-match convention returns the +pi representative
    for two_delta in (np.pi - 0.05, np.pi, -np.pi + 0.05):
        up, low = make_profiles(two_delta / 2, 0.3, 0.25, 384)
        got = fringes.shift_by_minima(up, low, 0.25)
        assert abs(su2.wrap_angle(got - two_delta)) < 2e-3


def test_shift_by_minima_too_few():
    up, low = make_profiles(0.2, 0.0, 0.2, 40)  # just over one fringe
    with pytest.raises(fringes.TooFewMinima):
        fringes.shift_by_minima(up, low, 0.2)


def test_shift_by_minima_ambiguous_pairing():
    # profiles with different carriers cannot be paired consistently
    x = np.arange(384)
    up = 0.5 - 0.4 * np.cos(0.2 * x)
    low = 0.5 - 0.4 * np.cos(0.26 * x + 1.0)
    with pytest.raises(fringes.AmbiguousPairing):
        fringes.shift_by_minima(up, low, 0.2)


def test_shift_by_minima_refuses_profiles_of_unequal_length():
    up, _ = make_profiles(0.0, 0.5, 0.2, 300)
    with pytest.raises(ValueError, match="^profile lengths differ: 300 vs 299$"):
        fringes.shift_by_minima(up, up[:-1], 0.2)


@pytest.mark.parametrize("k0", [-0.5, 2 * np.pi - 0.5, 4.0, np.pi, 0.0, -0.0])
def test_the_shift_estimators_refuse_a_carrier_outside_nyquist(k0):
    # on fringes of carrier 0.5, -0.5 and 2 pi - 0.5 read 2 delta = 0.8 as -0.8 (fourier), and 4.0 as 2.58 (minima)
    img = fringes.generate(0.4, 0.0, 0.5, size=(64, 256))
    up, low = fringes.column_average(img, fringes.Region(0, 256, 0, 64))
    assert abs(fringes.shift_by_fourier(up, low, 0.5) - 0.8) < 1e-3
    for shift in (fringes.shift_by_fourier, fringes.shift_by_minima):
        with pytest.raises(ValueError, match=rf"^k0 must lie in \(0, pi\), got {re.escape(str(float(k0)))}$"):
            shift(up, low, k0)


def test_shift_by_minima_k0_validation():
    up, low = make_profiles(0.2, 0.0, 0.2, 300)
    with pytest.raises(ValueError, match=r"^k0 must lie in \(0, pi\), got 0.0$"):
        fringes.shift_by_minima(up, low, 0.0)
    for k0 in (np.nan, np.inf, -np.inf):  # k0 <= 0 alone lets NaN and inf through, to a NaN shift
        with pytest.raises(su2.NonFiniteInput, match="^k0 must be finite"):
            fringes.shift_by_minima(up, low, k0)


def _in_error_state(state: str, call):
    """call() in numpy's default error state, with RuntimeWarnings as errors, or raising on all."""
    with warnings.catch_warnings():
        if state == "warnings-as-errors":
            warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(all="raise") if state == "raise-all" else contextlib.nullcontext():
            return call()


@pytest.mark.parametrize("scale, k0", [(1e306, 0.01), (0.8e308, 0.3)])
def test_shift_by_minima_with_overflowing_vertex_terms_is_one_float_in_every_error_state(scale, k0):
    # the harmonic vertex's p and q overflow: to inf at 1e306 and a small carrier, to
    # inf - inf = NaN near the float limit; both vertices fall back to the parabola,
    # silently and alike under strict floating point, and the shift is finite
    rng = np.random.default_rng(1)
    x = np.arange(200)
    up = (1.05 + 0.1 * np.cos(0.3 * x + 0.3) + 0.01 * rng.normal(size=200)) * scale
    low = (1.05 + 0.1 * np.cos(0.3 * x - 0.3) + 0.01 * rng.normal(size=200)) * scale
    shifts = [_in_error_state(state, lambda: fringes.shift_by_minima(up, low, k0))
              for state in ("default", "warnings-as-errors", "raise-all")]
    assert type(shifts[0]) is float and np.isfinite(shifts[0])
    assert shifts[1:] == shifts[:1] * 2
    if k0 == 0.3:  # the profiles' own carrier: the estimate of the unscaled profiles
        assert abs(shifts[0] - fringes.shift_by_minima(up / scale, low / scale, k0)) < 0.01


# ---------------------------------------------------------------------------
# Fourier estimator

def test_shift_by_fourier_identical_profiles():
    up, _ = make_profiles(0.0, 0.5, 0.2, 300)
    assert fringes.shift_by_fourier(up, up) == 0.0


def test_shift_by_fourier_pure_cosines_exact_bin():
    # carrier on an exact transform bin: the zero-frequency and image terms
    # vanish at the evaluation bin and the recovery is exact
    n = 256
    x = np.arange(n)
    for m in (5, 12, 31):
        k0 = 2 * np.pi * m / n
        for offset in (0.3, 1.7, -2.2, 3.0):
            up = np.cos(k0 * x + 0.4)
            low = np.cos(k0 * x + 0.4 + offset)
            got = fringes.shift_by_fourier(up, low)
            assert abs(su2.wrap_angle(got - offset)) < 1e-6


def test_shift_by_fourier_flat_raises():
    with pytest.raises(fringes.NoCarrier):
        fringes.shift_by_fourier(np.full(200, 0.5), np.full(200, 0.5))


def test_shift_by_fourier_length_mismatch():
    with pytest.raises(ValueError):
        fringes.shift_by_fourier(np.zeros(100), np.zeros(101))


def test_shift_by_fourier_refusal_order():
    # lengths first, then a flat pair (whatever k0 is), then a non-finite k0
    up, low = make_profiles(0.2, 0.4, 0.2, 300)
    with pytest.raises(ValueError, match="^profile lengths differ: 100 vs 101$"):
        fringes.shift_by_fourier(np.full(100, 0.5), np.full(101, 0.5), np.nan)
    for flat_up, flat_low in ((np.full(300, 0.5), low), (up, np.full(300, 0.5)), (np.full(6, 0.5), np.full(6, 0.5))):
        for k0 in (np.nan, None):
            with pytest.raises(fringes.NoCarrier, match="^profile is flat$"):
                fringes.shift_by_fourier(flat_up, flat_low, k0)
    for k0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(su2.NonFiniteInput, match="^k0 must be finite"):
            fringes.shift_by_fourier(up, low, k0)


@pytest.mark.parametrize("k0", [0.237, 0.5, 1.3])
def test_shift_by_fourier_off_bin_carrier(k0):
    # carriers between transform bins: the transforms are read at the
    # estimated carrier itself, not at the nearest bin
    for phi0 in (0.0, 1.1, -2.4):
        for shift in np.linspace(-np.pi, np.pi, 25)[1:]:
            up, low = make_profiles(shift / 2, 0.4, k0, 384, phi0=phi0)
            got = fringes.shift_by_fourier(up, low)
            assert abs(su2.wrap_angle(got - shift)) < 1e-5


def test_estimators_agree_on_noisy_profiles():
    rng = np.random.default_rng(31)
    for trial in range(10):
        delta = rng.uniform(-1.2, 1.2)
        k0 = rng.uniform(0.12, 0.45)
        up, low = make_profiles(delta, 0.4, k0, 384, phi0=rng.uniform(0, 6))
        up = up + rng.normal(0, 0.01, 384)
        low = low + rng.normal(0, 0.01, 384)
        mi = fringes.shift_by_minima(fringes.savitzky_golay(up), fringes.savitzky_golay(low),
                                     fringes.estimate_carrier(up))
        fo = fringes.shift_by_fourier(up, low)
        assert abs(su2.wrap_angle(mi - fo)) < 0.05


def test_common_phase_offset_cancels():
    # the estimators see only the relative shift: a phase offset common to
    # both halves drops out.  Carrier on an exact bin makes the cancellation
    # exact for the Fourier route; for the minima route the offset is applied
    # in whole pixels so the sampled fringe shapes are identical.
    n = 384
    k0 = 2 * np.pi * 12 / n  # exact bin, 32 px period
    base_up, base_low = make_profiles(0.35, 0.4, k0, n)
    f_ref = fringes.shift_by_fourier(base_up, base_low)
    m_ref = fringes.shift_by_minima(base_up, base_low, k0)
    for phi0 in (0.37, 1.9, 5.1):
        up, low = make_profiles(0.35, 0.4, k0, n, phi0=phi0)
        assert abs(fringes.shift_by_fourier(up, low) - f_ref) < 1e-9
    for pixels in (3, 17, 40):
        up, low = make_profiles(0.35, 0.4, k0, n, phi0=k0 * pixels)
        assert abs(fringes.shift_by_minima(up, low, k0) - m_ref) < 1e-9


# ---------------------------------------------------------------------------
# whole-image retrieval

def test_retrieve_phase_noiseless_four_regions():
    img = fringes.generate(0.6, 0.4, 0.2, size=(480, 640))
    result = fringes.retrieve_phase(img, method="both")
    assert len(result.region_estimates) == 4
    assert abs(su2.wrap_angle(result.estimate - 1.2)) < 1e-3
    assert result.uncertainty is not None and result.uncertainty < 1e-3
    assert result.method_disagreement is not None
    assert result.failed_regions == 0


def test_retrieve_phase_round_trip_random():
    # 50 random noiseless synthetics across the full parameter box: both
    # estimators individually land within 1e-3 of the encoded shift, the
    # minima cross-check in every region of a method="both" read
    rng = np.random.default_rng(123)
    for trial in range(50):
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        beta = rng.uniform(0, np.pi / 3)
        k0 = rng.uniform(0.1, 0.5)
        img = fringes.generate(delta, beta, k0, size=(480, 640),
                               phi0=rng.uniform(0, 2 * np.pi))
        for method in ("fourier", "both"):
            result = fringes.retrieve_phase(img, method=method)
            err = abs(su2.wrap_angle(result.estimate - 2 * delta))
            assert err < 1e-3, (method, delta, beta, k0, err)
        minima = fringes._analyse_regions(img, fringes.default_regions(img), "both")[1][0]
        err = np.abs(su2.wrap_angle(minima - 2 * delta)).max()
        assert err < 1e-3, ("minima", delta, beta, k0, err)


def test_method_agreement_noiseless_and_noisy():
    rng = np.random.default_rng(9)
    for trial in range(8):
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        k0 = rng.uniform(0.1, 0.5)
        clean = fringes.generate(delta, 0.5, k0, size=(480, 640),
                                 phi0=rng.uniform(0, 2 * np.pi))
        assert fringes.retrieve_phase(clean, method="both").method_disagreement < 0.05
        noisy = fringes.generate(delta, 0.5, k0, size=(480, 640),
                                 noise_sigma=0.05, seed=trial)
        assert fringes.retrieve_phase(noisy, method="both").method_disagreement < 0.1


def test_retrieve_phase_single_region_uncertainty_undefined():
    img = fringes.generate(0.3, 0.2, 0.2, size=(480, 640))
    result = fringes.retrieve_phase(img, regions=[Region(100, 540, 100, 380)])
    assert result.uncertainty is None
    assert len(result.region_estimates) == 1


def test_retrieve_phase_noisy():
    rng = np.random.default_rng(77)
    for trial in range(6):
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        img = fringes.generate(delta, 0.4, 0.25, size=(480, 640),
                               noise_sigma=0.02, seed=trial)
        result = fringes.retrieve_phase(img)
        assert abs(su2.wrap_angle(result.estimate - 2 * delta)) < 0.05


def test_retrieve_phase_enveloped_fast_carriers():
    # a 300 px beam envelope raises a low-frequency shoulder in the spectrum;
    # fast carriers must still stand out of it, and retrieval must succeed
    rng = np.random.default_rng(41)
    for k0 in np.linspace(0.6, 1.0, 9):
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        img = fringes.generate(delta, rng.uniform(0.0, np.pi / 3), k0, size=(480, 640),
                               noise_sigma=0.02, envelope_width=300.0, seed=int(k0 * 100),
                               phi0=rng.uniform(0.0, 2 * np.pi))
        result = fringes.retrieve_phase(img, method="both")
        assert abs(su2.wrap_angle(result.estimate - 2 * delta)) < 0.05, k0


def test_retrieve_phase_all_regions_fail_raises():
    img = fringes.generate(0.2, np.pi / 2, 0.2, size=(64, 64))  # flat image
    with pytest.raises(fringes.NoCarrier):
        fringes.retrieve_phase(img)


# the Fourier read alone, recorded to 12 digits when it was method="fourier" and the default was "both"
FOURIER_READS = {
    None: ["1.40220318286", "0.000418005174307", "1.40225319818", "1.40271907589", "1.401701812",
           "1.40213864537", "0.399967308693"],
    300.0: ["1.39958554307", "0.000491464532774", "1.39991069368", "1.39970262293", "1.39886074258",
            "1.39986811305", "0.400004990825"],
}


@pytest.mark.parametrize("envelope", sorted(FOURIER_READS, key=str))
def test_the_default_method_is_the_fourier_read_alone(envelope):
    img = fringes.generate(0.7, 0.3, 0.4, size=(120, 256), noise_sigma=0.02, envelope_width=envelope,
                           seed=2 if envelope else 1)
    result = fringes.retrieve_phase(img)
    assert repr(result) == repr(fringes.retrieve_phase(img, method="fourier"))
    assert result.method_disagreement is None
    got = (result.estimate, result.uncertainty, *result.region_estimates, result.carrier)
    assert ["%.12g" % v for v in got] == FOURIER_READS[envelope]


def test_retrieve_phase_method_validation():
    img = fringes.generate(0.2, 0.2, 0.2, size=(64, 64))
    with pytest.raises(ValueError):
        fringes.retrieve_phase(img, method="magic")
    # minima matching runs only as method="both"'s cross-check
    with pytest.raises(ValueError, match="^unknown method 'minima': expected 'fourier' or 'both'$"):
        fringes.retrieve_phase(img, method="minima")
    with pytest.raises(ValueError):
        fringes.retrieve_phase(img, regions=[])


# ---------------------------------------------------------------------------
# visibility

def test_measure_visibility_noiseless():
    img = fringes.generate(0.0, np.pi / 3, 0.2, size=(480, 640))
    region = Region(50, 590, 0, 230)
    got = fringes.measure_visibility(img, region)
    assert abs(got - 0.5) < 1e-3


def test_measure_visibility_noise_floor_bias():
    # full-contrast fringes with noise: the generator clips the noise to
    # [0, 1], which lifts the dark fringes and dims the bright ones, so the
    # measured visibility sits just below 1
    img = fringes.generate(0.0, 0.0, 0.2, size=(480, 640), noise_sigma=0.02, seed=3)
    got = fringes.measure_visibility(img, Region(50, 590, 0, 230))
    assert 0.9 < got < 1.0


def test_measure_visibility_gaussian_envelope_near_axis():
    beta = 0.8
    img = fringes.generate(0.0, beta, 0.2, size=(480, 640), envelope_width=800.0)
    # horizontally centred region hugging the split from above: the envelope
    # is flat there by construction
    got = fringes.measure_visibility(img, Region(220, 420, 190, 240))
    assert abs(got - np.cos(beta)) < 0.02 * max(np.cos(beta), 1.0)


@pytest.mark.parametrize("noise_sigma, envelope_width", [(0.0, None), (0.02, None), (0.0, 300.0), (0.02, 300.0)])
def test_measure_visibility_across_carriers(noise_sigma, envelope_width):
    # fast carriers included: the contrast is read at the carrier, unsmoothed
    for i, k0 in enumerate(np.linspace(0.1, 1.0, 10)):
        beta = 0.5 if i % 2 else 1.1
        img = fringes.generate(0.3, beta, k0, size=(480, 640), noise_sigma=noise_sigma,
                               envelope_width=envelope_width, seed=i, phi0=0.7 * i)
        for region in (Region(50, 590, 0, 230), Region(50, 590, 250, 480)):
            got = fringes.measure_visibility(img, region)
            assert abs(got - np.cos(beta)) < 0.02, (k0, region, got)


def test_measure_visibility_region_must_stay_in_one_half():
    img = fringes.generate(0.0, 0.3, 0.2, size=(64, 128))
    with pytest.raises(ValueError):
        fringes.measure_visibility(img, Region(0, 128, 10, 50))


def test_measure_visibility_region_must_lie_inside_the_image():
    img = fringes.generate(0.0, 0.3, 0.2, size=(64, 128))
    for region in (Region(0, 129, 0, 32), Region(100, 140, 0, 32), Region(0, 128, 32, 65)):
        with pytest.raises(ValueError, match="outside image 64x128"):
            fringes.measure_visibility(img, region)


def test_measure_visibility_refuses_overflowing_column_sums_in_every_error_state():
    # the half's column sums overflow to inf and are refused as retrieval refuses
    # them; its own mean(axis=0) warned, or raised FloatingPointError
    img = fringes.generate(0.3, 0.2, 0.25, size=(64, 128))
    huge = fringes.Interferogram(img.pixels * 1e307, img.half_split_row)
    for state in ("default", "warnings-as-errors", "raise-all"):
        with pytest.raises(fringes.NoCarrier, match="^profile is not finite$"):
            _in_error_state(state, lambda: fringes.measure_visibility(huge, Region(0, 128, 0, 32)))


def test_a_finite_profile_whose_windowed_mean_overflows_is_refused_as_an_overflow():
    # every bin of the spectrum came out NaN, and the profile was called constant
    img = fringes.generate(0.3, 0.2, 0.25, size=(64, 128))
    huge = fringes.Interferogram(img.pixels * 3e306, img.half_split_row)
    up, _ = fringes.column_average(huge, Region(0, 128, 16, 48))
    assert np.isfinite(up).all()
    with pytest.raises(fringes.NoCarrier, match="^the windowed transform overflows$"):
        fringes.estimate_carrier(up)
    with pytest.raises(fringes.NoCarrier, match="^the windowed transform overflows$"):
        fringes.retrieve_phase(huge, [Region(0, 128, 16, 48)])
    rows = np.tile(1e307 * (1.0 + 1e-3 * np.cos(0.4 * np.arange(128))), (32, 1))
    with pytest.raises(fringes.NoCarrier, match="^the windowed transform overflows$"):
        fringes.measure_visibility(fringes.Interferogram(rows, 16), Region(0, 128, 0, 1))


def test_measure_visibility_too_few_extrema():
    img = fringes.generate(0.0, 0.3, 0.05, size=(64, 64))  # < 1 fringe in frame
    with pytest.raises(fringes.NoCarrier):
        fringes.measure_visibility(img, Region(0, 64, 0, 32))


# ---------------------------------------------------------------------------
# image I/O

def test_pgm_round_trip(tmp_path):
    img = fringes.generate(0.45, 0.5, 0.3, size=(48, 64), noise_sigma=0.01, seed=2)
    path = tmp_path / "test.pgm"
    fringes.save_interferogram(img, path, extra={"seed": 2})
    loaded, meta = fringes.load_interferogram(path)
    assert loaded.half_split_row == img.half_split_row
    assert loaded.true_delta == pytest.approx(0.45)
    assert loaded.k0 == pytest.approx(0.3)
    assert meta["seed"] == 2
    # 16-bit quantization: half a level of error at most
    assert np.max(np.abs(loaded.pixels - img.pixels)) <= 0.5 / 65535 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(16, 40), st.integers(16, 40), st.integers(0, 2**32 - 1),
    st.floats(0.01, 3.0), st.floats(-np.pi, np.pi), st.data(),
)
def test_pgm_save_load_round_trip_property(tmp_path_factory, height, width, seed, k0, delta, data):
    # pixels come back on the 16-bit grid (half a level at most, out-of-range
    # values clipped), metadata exactly, and a second save writes the same bytes
    pixels = np.random.default_rng(seed).uniform(0.0, 1.2, (height, width))
    split = data.draw(st.integers(1, height - 1))
    img = fringes.Interferogram(pixels, split, k0=k0, true_delta=delta)
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    fringes.save_interferogram(img, path, extra={"seed": seed})
    loaded, meta = fringes.load_interferogram(path)
    assert loaded.shape == (height, width)
    assert (loaded.half_split_row, loaded.k0, loaded.true_delta, meta["seed"]) == (split, k0, delta, seed)
    assert np.max(np.abs(loaded.pixels - np.clip(pixels, 0.0, 1.0))) <= 0.5 / 65535 + 1e-12
    again = path.with_name("again.pgm")
    fringes.save_interferogram(loaded, again, extra={"seed": seed})
    assert again.read_bytes() == path.read_bytes()
    assert Path(f"{again}.meta").read_text() == Path(f"{path}.meta").read_text()


def test_pgm_sidecar_keeps_the_sign_of_a_zero(tmp_path):
    # %.17g writes -0.0 as "-0", which an int cast would read back as 0
    img = fringes.Interferogram(np.zeros((16, 16)), 8, k0=1.0, true_delta=-0.0)
    path = tmp_path / "zero.pgm"
    fringes.save_interferogram(img, path, extra={"seed": 0})
    loaded, meta = fringes.load_interferogram(path)
    assert np.copysign(1.0, loaded.true_delta) == -1.0 and (loaded.k0, meta["seed"]) == (1, 0)
    fringes.save_interferogram(loaded, tmp_path / "again.pgm", extra={"seed": 0})
    assert (tmp_path / "again.pgm.meta").read_text() == Path(f"{path}.meta").read_text()


@pytest.mark.parametrize("text", ["31.7", "32.5", "nan", "inf", "1e400", "half"])
def test_load_refuses_a_non_integral_split_row(tmp_path, text):
    # int() truncated 31.7 to row 31 and split the wrong halves; NaN failed unlabelled
    path = tmp_path / "split.pgm"
    fringes.save_interferogram(fringes.generate(0.3, 0.2, 0.4, size=(64, 96)), path)
    sidecar = Path(f"{path}.meta")
    sidecar.write_text(sidecar.read_text().replace("split_row=32\n", f"split_row={text}\n"))
    with pytest.raises(ValueError, match="^split_row must be an integer, got "):
        fringes.load_interferogram(path)


def test_load_refuses_a_split_row_written_as_a_float(tmp_path):
    # 30.0 used to be read as row 30; save_interferogram writes an int, so only a hand-edited sidecar has one
    path = tmp_path / "split.pgm"
    fringes.save_interferogram(fringes.generate(0.3, 0.2, 0.4, size=(64, 96)), path)
    sidecar = Path(f"{path}.meta")
    sidecar.write_text(sidecar.read_text().replace("split_row=32\n", "split_row=30.0\n"))
    with pytest.raises(ValueError, match="^split_row must be an integer, got 30.0$"):
        fringes.load_interferogram(path)


@pytest.mark.parametrize("key, text", [("k0", "inf"), ("k0", "nan"), ("true_delta", "inf"), ("true_delta", "-inf"),
                                       ("true_delta", "nan")])
def test_load_refuses_a_non_finite_k0_or_true_delta_by_its_key(tmp_path, key, text):
    # they were read as floats: a true_delta of inf made fringe analyze report an error of nan, and exit 0
    path = tmp_path / "meta.pgm"
    fringes.save_interferogram(fringes.generate(0.3, 0.2, 0.4, size=(64, 96)), path)
    sidecar = Path(f"{path}.meta")
    sidecar.write_text(re.sub(f"(?m)^{key}=.*$", f"{key}={text}", sidecar.read_text()))
    with pytest.raises(su2.NonFiniteInput, match=f"^sidecar {key} must be finite, got {text}$"):
        fringes.load_interferogram(path)
    # a finite value, an integer included, is still read as written
    sidecar.write_text(re.sub(f"(?m)^{key}=.*$", f"{key}=1", sidecar.read_text()))
    img, meta = fringes.load_interferogram(path)
    assert getattr(img, key) == meta[key] == 1 and type(meta[key]) is int


@pytest.mark.parametrize("key", ["k0", "true_delta"])
@pytest.mark.parametrize("text", ["abc", "0x1p-2"])
def test_load_refuses_a_text_k0_or_true_delta_by_its_key(tmp_path, key, text):
    # true_delta=abc was kept as text, and fringe analyze failed on float('abc') after printing its estimate
    path = tmp_path / "meta.pgm"
    fringes.save_interferogram(fringes.generate(0.3, 0.2, 0.4, size=(64, 96)), path)
    sidecar = Path(f"{path}.meta")
    sidecar.write_text(re.sub(f"(?m)^{key}=.*$", f"{key}={text}", sidecar.read_text()))
    with pytest.raises(ValueError, match=f"^sidecar {key} must be a scalar, got '{text}'$"):
        fringes.load_interferogram(path)


@pytest.mark.parametrize("split", [31.7, np.nan, np.inf])
def test_constructors_refuse_a_non_integral_split_row(split):
    # Interferogram took 31.7 and retrieve_phase then failed on negative region
    # bounds; generate split at row 31; NaN failed unlabelled in int()
    with pytest.raises(ValueError, match="^split_row must be an integer, got "):
        fringes.Interferogram(np.zeros((64, 96)), split)
    with pytest.raises(ValueError, match="^split_row must be an integer, got "):
        fringes.generate(0.3, 0.2, 0.4, size=(64, 96), split_row=split)


def test_constructors_store_an_integral_split_row_as_an_int():
    images = [fringes.Interferogram(np.zeros((64, 96)), np.array(30)),
              fringes.Interferogram(np.zeros((64, 96)), np.int64(30)),
              fringes.generate(0.3, 0.2, 0.4, size=(64, 96), split_row=np.array(30))]
    for img in images:
        assert type(img.half_split_row) is int and img.half_split_row == 30
    np.testing.assert_array_equal(images[2].pixels, fringes.generate(0.3, 0.2, 0.4, size=(64, 96), split_row=30).pixels)


@pytest.mark.parametrize("split", [30.0, np.float64(30.0), np.array(30.0)], ids=["float", "float64", "0-d"])
def test_constructors_refuse_a_float_split_row_even_when_integral(split):
    # 30.0 used to be taken as row 30: a float is not an integer, whatever its value (su2._scalar's rule)
    message = f"^split_row must be an integer, got {re.escape(repr(split))}$"
    with pytest.raises(ValueError, match=message):
        fringes.Interferogram(np.zeros((64, 96)), split)
    with pytest.raises(ValueError, match=message):
        fringes.generate(0.3, 0.2, 0.4, size=(64, 96), split_row=split)


def test_interferogram_refuses_one_dimensional_pixels():
    with pytest.raises(ValueError, match="^pixels must be a 2-d array$"):
        fringes.Interferogram(np.zeros(64), 32)


@pytest.mark.parametrize("split", [-1, 0, 64, 100])
def test_interferogram_refuses_a_split_row_outside_the_image(split):
    with pytest.raises(ValueError, match=re.escape(f"half_split_row {split} outside (0, 64)")):
        fringes.Interferogram(np.zeros((64, 96)), split)


@pytest.mark.parametrize("size", [(480, -5), (8, 8), (-4, 64)])
def test_generate_refuses_an_image_below_16x16_with_the_interferogram_message(size):
    # generate checked only its split row before allocating: a negative width
    # failed in numpy with "negative dimensions are not allowed"
    with pytest.raises(ValueError, match=re.escape(f"image must be at least 16x16, got {size[0]}x{size[1]}")):
        fringes.generate(0.3, 0.2, 0.25, size=size)


def test_an_interferogram_is_read_only_but_its_pixels_are_writable():
    # a split row assigned after construction skipped its check: 31.7 made
    # retrieve_phase fail later on negative region bounds
    img = fringes.generate(0.3, 0.2, 0.4, size=(64, 96))
    for name, value in (("half_split_row", 31.7), ("pixels", np.zeros((64, 96))), ("k0", 0.5)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(img, name, value)
    img.pixels[40:] = 0.5
    assert img.half_split_row == 32 and (img.pixels[40:] == 0.5).all()


@pytest.mark.parametrize("width", [0.0, -0.0, -5.0])
def test_generate_refuses_a_non_positive_envelope_width(width):
    with pytest.raises(ValueError, match="^envelope_width must be positive$"):
        fringes.generate(0.3, 0.2, 0.4, size=(32, 64), envelope_width=width)


def test_load_refuses_a_payload_cut_short_on_a_pipe():
    # a pipe has no size to check before the payload is read: the short read itself is refused
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader, os.fdopen(write_end, "wb") as writer:
        writer.write(b"P5\n16 16\n65535\n" + bytes(100))
        writer.close()
        with pytest.raises(ValueError, match="^truncated PGM payload$"):
            fringes.load_interferogram(f"/dev/fd/{reader.fileno()}")


def test_load_skips_a_sidecar_line_without_an_equals_sign(tmp_path):
    path = tmp_path / "note.pgm"
    fringes.save_interferogram(fringes.generate(0.3, 0.2, 0.4, size=(64, 96)), path)
    sidecar = Path(f"{path}.meta")
    sidecar.write_text("a note without a value\n" + sidecar.read_text())
    img, meta = fringes.load_interferogram(path)
    assert sorted(meta) == ["k0", "split_row", "true_delta"]
    assert (img.half_split_row, img.k0, img.true_delta) == (32, 0.4, 0.3)


def test_pgm_payload_format(tmp_path):
    img = fringes.generate(0.0, 0.0, 0.2, size=(16, 16))
    path = tmp_path / "fmt.pgm"
    fringes.save_interferogram(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n16 16\n65535\n")
    assert len(raw) == len(b"P5\n16 16\n65535\n") + 16 * 16 * 2


def _generate_with_fresh_arrays(delta, beta, k0, size, noise_sigma, envelope_width, seed):
    """generate with a new array for every step, its rows the overlap law's."""
    h, w = size
    x = np.arange(w, dtype=float)
    u = su2.from_zyz(beta, 0.0, delta)
    pixels = np.empty((h, w))
    pixels[:h // 2] = interferometer.output_intensity("V", u, k0 * x)
    pixels[h // 2:] = interferometer.output_intensity("H", u, k0 * x)
    if envelope_width is not None:
        dx, dy = x - (w - 1) / 2.0, np.arange(h, dtype=float) - (h - 1) / 2.0
        pixels *= np.exp(-0.5 * (dx * dx + (dy * dy)[:, None]) / (envelope_width * envelope_width))
    if noise_sigma > 0.0:
        pixels = pixels + np.random.default_rng(seed).normal(0.0, noise_sigma, pixels.shape)
    return np.clip(pixels, 0.0, 1.0)


@pytest.mark.parametrize("noise_sigma, envelope_width", [(0.0, None), (0.3, None), (0.3, 120.0)])
def test_generate_in_place_gives_the_floats_of_fresh_arrays(noise_sigma, envelope_width):
    args = (0.4, 0.2, 0.3, (96, 160), noise_sigma, envelope_width, 11)
    img = fringes.generate(*args[:4], noise_sigma=noise_sigma, envelope_width=envelope_width, seed=11)
    np.testing.assert_array_equal(img.pixels, _generate_with_fresh_arrays(*args), strict=True)
    assert img.pixels.flags.owndata and img.pixels.flags.writeable


@pytest.mark.parametrize("noise_sigma, envelope_width", [(0.3, None), (0.3, 120.0)])
@pytest.mark.parametrize("size", [(301, 640), (16, 33001)])
def test_generate_across_row_blocks_gives_the_floats_of_fresh_arrays(size, noise_sigma, envelope_width):
    # 301 rows of 640 span several row blocks and end in a ragged one; a row of
    # 33001 pixels is longer than a block and makes a block of its own
    args = (0.4, 0.2, 0.3, size, noise_sigma, envelope_width, 11)
    img = fringes.generate(*args[:4], noise_sigma=noise_sigma, envelope_width=envelope_width, seed=11)
    assert img.pixels.size > dsp._BLOCK
    np.testing.assert_array_equal(img.pixels, _generate_with_fresh_arrays(*args), strict=True)


_ANGLES = st.floats(-2 * np.pi, 2 * np.pi)
_CARRIERS = st.floats(0.0, np.pi, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(_ANGLES, _ANGLES, _CARRIERS, st.floats(-100.0, 100.0), st.integers(16, 40), st.integers(16, 256),
       st.integers(1, 39))
def test_noise_free_rows_are_the_overlap_law_of_the_transformation(delta, beta, k0, phi0, h, w, split):
    split = min(split, h - 1)
    img = fringes.generate(delta, beta, k0, size=(h, w), phi0=phi0, split_row=split)
    u, phase = su2.from_zyz(beta, 0.0, delta), k0 * np.arange(w, dtype=float) + phi0
    want = np.empty((h, w))
    want[:split] = interferometer.output_intensity("V", u, phase)
    want[split:] = interferometer.output_intensity("H", u, phase)
    np.testing.assert_array_equal(img.pixels, np.clip(want, 0.0, 1.0), strict=True)


@settings(max_examples=200, deadline=None)
@given(_ANGLES, _ANGLES, _CARRIERS, st.floats(-100.0, 100.0), st.integers(16, 256))
def test_the_rendered_rows_stay_within_rounding_of_the_cosine_form(delta, beta, k0, phi0, w):
    # the law as first written, (1/2)[1 - cos(beta) cos(k0 x + phi0 -+ delta)], rounds
    # its argument once more than the overlap law does, by at most half a unit in the
    # argument's last place: one such unit of the largest argument, plus a few
    # epsilons of the products, bounds the difference of the rows
    img = fringes.generate(delta, beta, k0, size=(16, w), phi0=phi0)
    phase = k0 * np.arange(w, dtype=float) + phi0
    tolerance = np.spacing(np.abs(phase).max() + abs(delta)) + 8 * np.finfo(float).eps
    for row, sign in ((img.pixels[0], -1.0), (img.pixels[-1], 1.0)):
        old = 0.5 * (1.0 - np.cos(beta) * np.cos(phase + sign * delta))
        assert np.abs(row - old).max() <= tolerance


def test_the_fringe_chain_reads_the_transformation_split_beam_shift_reads():
    # a transformation from its y-z-y angles, its z-y-z angles rendered as an image,
    # and the image's 2 delta and visibility read back: they agree with the scanned
    # interferometer's 2 delta and with the closed-form visibility within criterion
    # 6's bound (0.05 rad) and 0.02
    rng = np.random.default_rng(2026)
    grid = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    checked = 0
    while checked < 20:
        xi, eta, zeta = rng.uniform(-np.pi, np.pi, 3)
        u = su2.from_yzy(xi, eta, zeta)
        zyz = su2.to_zyz(u)
        if np.cos(zyz.beta) ** 2 < 0.25:
            continue
        img = fringes.generate(zyz.delta, zyz.beta, rng.uniform(0.1, 0.5), noise_sigma=0.02, seed=checked)
        shift = fringes.retrieve_phase(img).estimate
        assert abs(su2.wrap_angle(shift - interferometer.split_beam_shift(u, grid))) <= 0.05
        upper = Region(128, 512, 40, img.half_split_row - 40)
        visibility = fringes.measure_visibility(img, upper)
        assert abs(visibility - interferometer.visibility_yzy(xi, eta, zeta)) <= 0.02
        checked += 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -5e-324,
                                 pytest.param(np.copysign(np.nan, -1.0), id="nan-with-its-sign-bit")])
def test_interferogram_refuses_a_non_finite_or_negative_pixel(bad):
    pixels = np.full((16, 16), 0.5)
    pixels[3, 7] = bad
    with pytest.raises(ValueError, match="^pixel intensities must be finite and nonnegative$"):
        fringes.Interferogram(pixels, 8)
    # zero, negative zero and the largest float are finite and nonnegative
    pixels[3, 7], pixels[0, 0], pixels[-1, -1] = 0.0, -0.0, np.finfo(float).max
    fringes.Interferogram(pixels, 8)


def test_interferogram_refuses_metadata_that_is_not_one_number_by_name():
    # both were stored unchecked, while load_interferogram refuses the same values by key
    for kwargs, message in [({"k0": "abc", "true_delta": [1, 2]}, "k0 must be a scalar, got 'abc'"),
                            ({"true_delta": [1, 2]}, "true_delta must be a scalar, got an array of shape (2,)"),
                            ({"k0": np.nan}, "k0 must be finite, got nan")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fringes.Interferogram(np.zeros((64, 96)), 32, **kwargs)
    # a number is stored as given
    img = fringes.Interferogram(np.zeros((64, 96)), 32, k0=np.float32(0.25), true_delta=1)
    assert type(img.k0) is np.float32 and img.true_delta == 1 and type(img.true_delta) is int


@pytest.mark.parametrize("pixels, error, message", [
    (np.full((16, 16), "0.5"), ValueError, "pixels must be numbers, got an array of dtype <U3"),
    (np.full((16, 16), 0.5 + 0j), su2.ComplexInput, "pixels must be real, got 256 complex values"),
])
def test_interferogram_refuses_text_or_complex_pixels_by_name(pixels, error, message):
    # both were converted: text parsed, and complex values cut to their real parts with a ComplexWarning
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        fringes.Interferogram(pixels, 8)


def _accepted(pixels) -> bool:
    try:
        fringes.Interferogram(pixels, 8)
    except ValueError as exc:
        assert str(exc) == "pixel intensities must be finite and nonnegative"
        return False
    return True


def _two_reductions(pixels) -> bool:
    """The check as first written: min() >= 0 and max() < inf of the float64 pixels."""
    pixels = np.asarray(pixels, dtype=float)
    return bool(pixels.min() >= 0.0 and pixels.max() < np.inf)


#: float64 values around the edges of "finite and nonnegative", NaNs of both signs
#: and with payloads among them
SPECIAL_PIXELS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, np.finfo(float).max, -5e-324, -1e-300, -1.0,
    np.inf, -np.inf, np.nan, -np.nan, np.copysign(np.nan, -1.0),
    np.uint64(0x7FF0000000000001).view(float), np.uint64(0xFFFFFFFFFFFFFFFF).view(float),
]


@pytest.mark.parametrize("layout", ["fortran", "strided", "float32", "float32-strided"])
def test_the_pixel_check_reads_any_layout_as_before(layout):
    base = np.random.default_rng(6).uniform(0.0, 1.0, (40, 48))
    for value in SPECIAL_PIXELS:
        pixels = base.copy()
        pixels[4, 6] = value  # inside every view below
        pixels[1, 1] = np.nan  # outside the strided views
        if layout == "fortran":
            pixels = np.asfortranarray(pixels)
        elif layout.endswith("strided"):
            pixels = pixels[2::2, ::3]
        if layout.startswith("float32"):
            with np.errstate(over="ignore", invalid="ignore"):  # NaN payloads and values beyond float32
                pixels = pixels.astype(np.float32)
        assert _accepted(pixels) == _two_reductions(pixels), (layout, value)


def test_save_leaves_the_image_and_its_caller_array_untouched(tmp_path):
    pixels = np.random.default_rng(3).uniform(0.0, 1.3, (24, 40))  # above 1 is clipped on save
    kept = pixels.copy()
    img = fringes.Interferogram(pixels, 12, k0=0.5, true_delta=0.1)
    fringes.save_interferogram(img, tmp_path / "img.pgm")
    np.testing.assert_array_equal(pixels, kept, strict=True)
    assert img.pixels is pixels
    # one scaled buffer, rounded in place: the 16-bit levels of the out-of-place expression
    payload = (tmp_path / "img.pgm").read_bytes()[len(b"P5\n40 24\n65535\n"):]
    assert payload == np.round(np.clip(kept, 0.0, 1.0) * 65535).astype(">u2").tobytes()


@pytest.mark.parametrize("layout", ["C", "fortran", "strided"])
def test_save_across_row_blocks_writes_the_levels_of_the_whole_image(tmp_path, layout):
    # 301 rows of 640 span several row blocks and end in a ragged one; images of any
    # layout, Fortran order included, are written in row order
    kept = np.random.default_rng(5).uniform(0.0, 1.3, (301, 640))  # above 1 is clipped on save
    wide = np.zeros((301, 1280))
    wide[:, ::2] = kept
    pixels = {"C": kept.copy(), "fortran": np.asfortranarray(kept), "strided": wide[:, ::2]}[layout]
    fringes.save_interferogram(fringes.Interferogram(pixels, 150), tmp_path / "img.pgm")
    payload = (tmp_path / "img.pgm").read_bytes()[len(b"P5\n640 301\n65535\n"):]
    assert payload == np.round(np.clip(kept, 0.0, 1.0) * 65535).astype(">u2").tobytes()


# generate -> save -> load at two seeds, plain and under an envelope: SHA-256 of the
# PGM file and of the pixels read back.  The 16-bit levels do not move with the last
# bit of cos/exp, which can differ between CPUs; the floats are pinned against the
# out-of-place expression above instead.
IMAGE_DIGESTS = {
    (7, None): ("ca9ac82366966b23e9a4cbe05d1741187d01cd7119c63cb2efd4121edc930d71",
                "accaada315acfd9b4ce023fbfef7f913597ba83abef1a7d1299b817c8109697b"),
    (7, 300.0): ("186bea7e4a205b3e4fdb73d5fdb6cfd0d7d0d900eba884f6a2b1e69821a5bccf",
                 "52f46ac93b91bfaaa3fd407564df253c776c09632347c91f985164b21dd669bf"),
    (8, None): ("a5be2c7cf35879a47e3c006633a7fe28e941c10501a57e718c2ad94719d08d0e",
                "707757a21a149767405f8260d87dfaf6cea506af90a9be343faf00f7eb4d6c4e"),
    (8, 300.0): ("48adfae52083e619775ef8c088a3caccfc73acd20506b32f0fd373139fcd0126",
                 "cf46efe7fa8bc69a2cdbac359bc753d6ac9ed4ea839f4da166e64e86e962ec6d"),
}


@pytest.mark.parametrize("seed, envelope_width", sorted(IMAGE_DIGESTS, key=str))
def test_generated_images_keep_their_bytes(seed, envelope_width, tmp_path):
    img = fringes.generate(0.5, 0.4, 0.25, noise_sigma=0.02, envelope_width=envelope_width, seed=seed)
    path = tmp_path / "img.pgm"
    fringes.save_interferogram(img, path)
    loaded, _ = fringes.load_interferogram(path)
    digests = (hashlib.sha256(path.read_bytes()).hexdigest(), hashlib.sha256(loaded.pixels.tobytes()).hexdigest())
    assert digests == IMAGE_DIGESTS[seed, envelope_width]
    # the reader divides in place: the floats of level / 65535
    levels = np.frombuffer(path.read_bytes()[-2 * 480 * 640:], dtype=">u2").reshape(480, 640)
    np.testing.assert_array_equal(loaded.pixels, levels.astype(float) / 65535, strict=True)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n4 4\n255\n" + b"0" * 32)
    with pytest.raises(ValueError):
        fringes.load_interferogram(path)


@pytest.mark.parametrize("header", [
    b"", b"P5", b"P5\n640", b"P5\n640 480", b"P5\n640 480 ", b"P5\n640 480\n# no newline",
    b"P5 # a comment that never ends",
])
def test_pgm_rejects_a_truncated_header(tmp_path, header):
    path = tmp_path / "short.pgm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match="^truncated PGM header$"):
        fringes.load_interferogram(path)


@pytest.mark.parametrize("payload", [0, 1, 2 * 16 * 16 - 1, 2 * 16 * 16 - 2])
def test_pgm_rejects_a_truncated_payload(tmp_path, payload):
    # an odd byte count too: the length is checked before the words are read
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n16 16\n65535\n" + b"\x01" * payload)
    with pytest.raises(ValueError, match="^truncated PGM payload$"):
        fringes.load_interferogram(path)


def test_pgm_payload_is_decoded_to_the_floats_of_astype_then_divide(tmp_path):
    words = np.arange(65536, dtype=">u2")
    path = tmp_path / "all.pgm"
    path.write_bytes(b"P5\n256 256\n65535\n" + words.tobytes() + b"trailing bytes are ignored")
    pixels = fringes.load_interferogram(path)[0].pixels
    want = words.reshape(256, 256).astype(float)
    want /= 65535
    assert pixels.dtype == want.dtype and pixels.tobytes() == want.tobytes()
    assert pixels.flags.writeable and pixels.flags.c_contiguous


@pytest.mark.parametrize("header, field", [
    (b"P5\nabc 4 65535\n", "width"),  # used to leak int()'s "invalid literal"
    (b"P5\n-4 -4 65535\n", "width"),  # used to reach reshape with negative sizes
    (b"P5\n0 4 65535\n", "width"),
    (b"P5\n4 0x4 65535\n", "height"),
    (b"P5\n4 4 +65535\n", "maxval"),
])
def test_pgm_rejects_a_malformed_header(tmp_path, header, field):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(32))
    with pytest.raises(ValueError, match=f"^malformed PGM header: {field} b'.*' is not a positive integer$"):
        fringes.load_interferogram(path)


def _read_pgm_from_bytes(raw: bytes) -> np.ndarray:
    """The reader as first written, over the whole file's bytes: the oracle of
    the reader that parses the header from the open file."""
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos == len(raw):
            raise ValueError("truncated PGM header")
        if raw[pos:pos + 1] == b"#":
            pos = raw.find(b"\n", pos) + 1 or len(raw)
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
    for name, text in zip(("width", "height", "maxval"), fields[1:]):
        if not text.isdigit() or int(text) == 0:
            raise ValueError(f"malformed PGM header: {name} {text!r} is not a positive integer")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 65535:
        raise ValueError(f"expected 16-bit graymap (maxval 65535), got {maxval}")
    if len(raw) - pos < 2 * w * h:
        raise ValueError("truncated PGM payload")
    return np.frombuffer(raw[pos:pos + 2 * w * h], dtype=">u2").reshape(h, w) / 65535.0


_WHITESPACE = [b" ", b"\t", b"\n", b"\r\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def _pgm_files(draw):
    """(file bytes, header length, words) of a PGM with a varied header and trailing bytes."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    words = draw(hnp.arrays(np.dtype(">u2"), (h, w), elements=st.integers(0, 65535)))

    def gap(leading=False):
        # whitespace (none before the magic), with comments where a field could start
        parts = [] if leading else [draw(st.sampled_from(_WHITESPACE))]
        for _ in range(draw(st.integers(0, 2))):
            size = draw(st.sampled_from([0, 1, 6, 80, 8193, 20000]))
            parts.append(b"#" + b"c #\t\r" * (size // 5) + b"x" * (size % 5) + b"\n")
            parts.append(draw(st.sampled_from([b""] + _WHITESPACE)))
        return b"".join(parts)

    header = (gap(leading=True) + b"P5" + gap() + str(w).encode() + gap() + str(h).encode() + gap()
              + b"65535" + draw(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])))
    trailing = draw(st.binary(max_size=40))
    return header + words.tobytes() + trailing, len(header), words


@settings(max_examples=150, deadline=None)
@given(_pgm_files(), st.lists(st.floats(0.0, 1.0), max_size=8))
def test_pgm_reader_matches_the_whole_file_formula_and_its_refusals(tmp_path_factory, pgm, cuts):
    # any header (comments, tabs, CRLF, long comments, odd lengths) and trailing
    # bytes: the words / 65535 of the old formula, bit for bit; every prefix of the
    # file is refused with the message the whole-file reader gave it, or read alike
    raw, header_length, words = pgm
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    path.write_bytes(raw)
    pixels = fringes._read_pgm(path)
    np.testing.assert_array_equal(pixels, np.frombuffer(words.tobytes(), ">u2").reshape(words.shape) / 65535.0,
                                  strict=True)
    assert pixels.flags.c_contiguous and pixels.flags.writeable
    ends = {0, 1, header_length - 1, header_length, header_length + 1, header_length + words.nbytes - 1}
    for end in sorted(ends | {int(f * len(raw)) for f in cuts}):
        if not 0 <= end < len(raw):
            continue
        path.write_bytes(raw[:end])
        try:
            want = _read_pgm_from_bytes(raw[:end])
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                fringes._read_pgm(path)
        else:
            np.testing.assert_array_equal(fringes._read_pgm(path), want, strict=True)


def test_pgm_header_fields_cut_by_the_reader_chunks_are_read_whole(tmp_path):
    # the header is read in chunks of 256, 512, 1024... bytes: move every byte of
    # "4 4 65535\n" across each of the first three chunk ends
    words = (np.arange(16) * 4000).astype(">u2").reshape(4, 4)
    path = tmp_path / "img.pgm"
    for end in (256, 512, 1024):
        for pad in range(end - 30, end + 1):
            path.write_bytes(b"P5\n#" + b"x" * pad + b"\n4 4 65535\n" + words.tobytes())
            np.testing.assert_array_equal(fringes._read_pgm(path), words / 65535.0, strict=True)


def test_pgm_header_claiming_more_than_the_file_holds_is_refused_before_allocating(tmp_path):
    # 2e16 bytes of words: refused from the file's length, as the whole-file reader did
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P5\n99999999 99999999 65535\n" + bytes(64))
    with pytest.raises(ValueError, match="^truncated PGM payload$"):
        fringes.load_interferogram(path)


def test_pgm_is_read_from_a_pipe(tmp_path):
    # a file without a length (a FIFO, a shell's <(...)) is read to its end
    img = fringes.generate(0.3, 0.2, 0.4, size=(40, 64), noise_sigma=0.1, seed=5)
    fringes.save_interferogram(img, tmp_path / "img.pgm")
    raw = (tmp_path / "img.pgm").read_bytes()
    fifo = tmp_path / "pipe.pgm"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
    writer.start()
    try:
        pixels = fringes._read_pgm(fifo)
    finally:
        writer.join()
    np.testing.assert_array_equal(pixels, _read_pgm_from_bytes(raw), strict=True)


def test_load_without_a_sidecar_reads_an_empty_record_and_a_directory_sidecar_raises(tmp_path):
    path = tmp_path / "img.pgm"
    fringes.save_interferogram(fringes.generate(0.3, 0.2, 0.4, size=(40, 64)), path)
    Path(f"{path}.meta").unlink()
    img, meta = fringes.load_interferogram(path)
    assert meta == {} and img.half_split_row == 20 and img.k0 is None
    Path(f"{path}.meta").mkdir()
    with pytest.raises(IsADirectoryError):
        fringes.load_interferogram(path)


def test_analyze_after_save_round_trip(tmp_path):
    img = fringes.generate(0.55, 0.3, 0.22, size=(480, 640))
    path = tmp_path / "rt.pgm"
    fringes.save_interferogram(img, path)
    loaded, _ = fringes.load_interferogram(path)
    result = fringes.retrieve_phase(loaded)
    assert abs(su2.wrap_angle(result.estimate - 1.1)) < 1.5e-3


def _freed_without_gc(call, make_image):
    # the image must be released by reference counting alone once the call
    # is over: no reference cycle through a kept exception may pin it
    enabled = gc.isenabled()
    gc.disable()
    try:
        img = make_image()
        ref = weakref.ref(img)
        call(img)
        del img
        return ref() is None
    finally:
        if enabled:
            gc.enable()


def _retrieve_refused(img):
    try:
        fringes.retrieve_phase(img)
    except fringes.NoCarrier as exc:
        assert "profile is flat" in str(exc)
    else:
        raise AssertionError("a flat image must be refused")


def test_retrieve_phase_all_regions_failed_frees_the_image():
    assert _freed_without_gc(_retrieve_refused, lambda: fringes.Interferogram(np.full((64, 128), 0.5), 32))


def test_retrieve_phase_partial_failure_frees_the_image():
    regions = [Region(0, 256, 0, 64), Region(0, 20, 0, 64)]

    def call(img):
        assert fringes.retrieve_phase(img, regions).failed_regions == 1

    assert _freed_without_gc(call, lambda: fringes.generate(0.3, 0.2, 0.3, size=(64, 256), seed=1))


# ---------------------------------------------------------------------------
# array code against the per-sample references it replaced

def _savgol_reference(y, window, order):
    """Centre taps plus one pinv refit per edge sample on its truncated window."""
    n, half = len(y), window // 2
    t = np.arange(-half, half + 1, dtype=float)
    centre = np.linalg.pinv(np.vander(t, order + 1, increasing=True))[0]
    out = np.empty(n)
    out[half:n - half] = np.convolve(y, centre[::-1], mode="valid")
    for i in range(half):
        for idx, lo, hi in ((i, 0, i + half + 1), (n - 1 - i, n - i - half - 1, n)):
            t = np.arange(lo, hi, dtype=float) - idx
            deg = min(order, hi - lo - 1)
            out[idx] = np.linalg.pinv(np.vander(t, deg + 1, increasing=True))[0] @ y[lo:hi]
    return out


def _extrema_reference(y, carrier=None):
    """One minimum at a time: harmonic vertex fit, parabola fallback."""
    idx = np.nonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:]))[0] + 1
    positions = []
    for i in idx:
        ym, y0, yp = y[i - 1], y[i], y[i + 1]
        offset = None
        if carrier is not None and carrier > 1e-3:
            p = (yp + ym - 2.0 * y0) / (2.0 * (np.cos(carrier) - 1.0))
            q = (yp - ym) / (2.0 * np.sin(carrier))
            offset = float(-su2.wrap_angle(np.arctan2(-q, p) - np.pi) / carrier)
            if abs(offset) > 1.0:
                offset = None
        if offset is None:
            denom = ym - 2.0 * y0 + yp
            offset = 0.5 * (ym - yp) / denom if denom != 0.0 else 0.0
        positions.append(i + offset)
    return np.array(positions)


def _carrier_reference(y):
    """Bounded scalar search for the peak of the windowed transform magnitude."""
    n = len(y)
    centred = y - y.mean()
    windowed = centred * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    kbins, (refusal,) = fringes._peak_bins(np.abs(np.fft.rfft(windowed))[None], np.zeros(1, dtype=bool))
    if refusal is not None:
        raise refusal
    kbin = int(kbins[0])
    dk = 2.0 * np.pi / n
    x = np.arange(n)
    res = minimize_scalar(
        lambda k: -abs(np.sum(windowed * np.exp(-1j * k * x))) ** 2,
        bounds=(max(0.5 * dk, (kbin - 1.5) * dk), min(np.pi - 1e-12, (kbin + 1.5) * dk)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x)


@settings(max_examples=200, deadline=None)
@given(st.integers(11, 51).flatmap(lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
def test_savitzky_golay_matches_per_sample_refits(values):
    y = np.array(values)
    np.testing.assert_allclose(fringes.savitzky_golay(y), _savgol_reference(y, 11, 3), rtol=0, atol=1e-12)


def test_savitzky_golay_window_spans_profile():
    y = np.cos(0.7 * np.arange(11)) + 0.1 * np.arange(11)
    np.testing.assert_allclose(fringes.savitzky_golay(y), _savgol_reference(y, 11, 3),
                               rtol=0, atol=1e-12)


def test_savgol_coefficients_returns_a_private_copy():
    taps = fringes.savgol_coefficients()
    before = taps.copy()
    taps[:] = 0.0
    np.testing.assert_array_equal(fringes.savgol_coefficients(), before)
    profile = np.cos(0.3 * np.arange(64))
    np.testing.assert_allclose(fringes.savitzky_golay(profile),
                               _savgol_reference(profile, 11, 3), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=80),
    st.one_of(st.none(), st.floats(0.0, 3.0)),
)
def test_subpixel_extrema_matches_scalar_loop(values, carrier):
    y = np.array(values)
    got = fringes._minimum_positions(y[None], np.array([0.0 if carrier is None else carrier]))[1]
    want = _extrema_reference(y, carrier=carrier)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-1.0, 1.0),
    st.floats(0.05, 0.9),
    st.booleans(),
)
def test_subpixel_extrema_on_noisy_fringes_matches_scalar_loop(phase, k0, with_carrier):
    rng = np.random.default_rng(abs(hash((phase, k0))) % 2**32)
    y = 0.5 - 0.4 * np.cos(k0 * np.arange(200) + phase) + rng.normal(0.0, 0.01, 200)
    carrier = k0 if with_carrier else None
    got = fringes._minimum_positions(y[None], np.array([0.0 if carrier is None else carrier]))[1]
    np.testing.assert_array_equal(got, _extrema_reference(y, carrier=carrier))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(64, 512),
    st.floats(0.0, 1.0),
    st.floats(-np.pi, np.pi),
    st.floats(0.0, 0.1),
    st.integers(0, 2**32 - 1),
)
def test_estimate_carrier_matches_bounded_search(n, k_fraction, phase, sigma, seed):
    # carriers from 3 bins up to 0.9 of Nyquist, noise up to a quarter of the fringe amplitude
    dk = 2.0 * np.pi / n
    k0 = 3 * dk + k_fraction * (0.9 * np.pi - 3 * dk)
    x = np.arange(n)
    y = 0.5 - 0.4 * np.cos(k0 * x + phase) + np.random.default_rng(seed).normal(0.0, sigma, n)
    try:
        want = _carrier_reference(y)
    except fringes.NoCarrier:
        with pytest.raises(fringes.NoCarrier):
            fringes.estimate_carrier(y)
        return
    assert abs(fringes.estimate_carrier(y) - want) <= 1e-7


def test_estimate_carrier_matches_bounded_search_on_retrieval_profiles():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        img = fringes.generate(rng.uniform(-1.5, 1.5), rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0),
                               noise_sigma=0.02, seed=seed,
                               envelope_width=300.0 if seed % 2 else None)
        up, _ = fringes.column_average(img, fringes.default_regions(img)[0])
        # the raw profile retrieve_phase reads, and a smoothed one
        for profile in (up, fringes.savitzky_golay(up)[5:-5]):
            try:
                want = _carrier_reference(profile)
            except fringes.NoCarrier:
                with pytest.raises(fringes.NoCarrier):
                    fringes.estimate_carrier(profile)
                continue
            assert abs(fringes.estimate_carrier(profile) - want) <= 1e-7



# ---------------------------------------------------------------------------
# retrieve_phase stacks its regions; every number and every refusal is still
# that of the one-profile functions composed region by region

def _retrieve_region_by_region(img, regions, method):
    """retrieve_phase's result as (estimate, uncertainty, region estimates,
    disagreement, carrier, failed regions, region indices), built from the
    public one-profile functions: the Fourier read gives every estimate and
    refusal, and under "both" minima matching, where it reads a kept region,
    only adds it to the disagreement; raises the last region's error when every
    region fails."""
    per_region, indices, minima, fourier, carriers, errors = [], [], [], [], [], []
    for index, region in enumerate(regions):
        try:
            up, low = fringes.column_average(img, region)
            k0 = fringes.estimate_carrier(up)
            shift = fringes.shift_by_fourier(up, low, k0)
        except ValueError as exc:
            errors.append(exc)
            continue
        carriers.append(k0)
        per_region.append(fringes._circular_mean(np.array([shift])))
        indices.append(index)
        if method == "both":
            try:
                up_s, low_s = fringes.savitzky_golay(up), fringes.savitzky_golay(low)
                if len(up_s) > 66:
                    up_s, low_s = up_s[5:-5], low_s[5:-5]
                minima.append(fringes.shift_by_minima(up_s, low_s, k0))
            except ValueError:  # a region minima matching cannot read stays in, out of the disagreement
                continue
            fourier.append(shift)
    if not per_region:
        raise errors[-1]
    estimate = fringes._circular_mean(np.array(per_region))
    uncertainty = None
    if len(per_region) >= 2:
        uncertainty = float(np.std(su2.wrap_angle(np.asarray(per_region) - estimate), ddof=1))
    disagreement = None
    if minima:
        disagreement = abs(su2.wrap_angle(fringes._circular_mean(np.array(minima))
                                          - fringes._circular_mean(np.array(fourier))))
    return (estimate, uncertainty, per_region, disagreement, float(np.mean(carriers)),
            len(errors), indices)


@st.composite
def stacked_retrievals(draw):
    """A small noisy image and 1-6 regions of mixed widths: some fit, some are
    too narrow for a carrier, the smoothing window or two minima, some leave
    the image or stay within one half."""
    h, w = draw(st.integers(48, 112)), draw(st.integers(96, 224))
    img = fringes.generate(
        draw(st.floats(-1.5, 1.5)), draw(st.floats(0.0, 1.4)), draw(st.floats(0.05, 2.5)), size=(h, w),
        noise_sigma=draw(st.sampled_from([0.0, 0.02, 0.2])),
        envelope_width=draw(st.sampled_from([None, None, 30.0, 80.0])), seed=draw(st.integers(0, 2**16)),
    )
    regions = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.sampled_from([5, 9, 12, 14, 16, 24, 40, 70, 100, w]))
        c0 = draw(st.integers(0, max(0, w - width) + 8))  # the last 8 starts leave the image
        r0 = draw(st.integers(0, h // 2 - 1))
        # one region in five may end in the upper half
        r1 = draw(st.integers(r0 + 1, h) if draw(st.integers(0, 4)) == 0 else st.integers(h // 2 + 1, h))
        regions.append(Region(c0, c0 + width, r0, r1))
    return img, regions, draw(st.sampled_from(["fourier", "both"]))


@settings(max_examples=150, deadline=None)
@given(stacked_retrievals())
def test_stacked_retrieval_is_the_region_by_region_composition_bit_for_bit(case):
    img, regions, method = case
    try:
        want = _retrieve_region_by_region(img, regions, method)
    except ValueError as exc:
        with pytest.raises(type(exc)) as refused:
            fringes.retrieve_phase(img, regions, method=method)
        assert type(refused.value) is type(exc) and str(refused.value) == str(exc)
        return
    result = fringes.retrieve_phase(img, regions, method=method)
    got = (result.estimate, result.uncertainty, result.region_estimates, result.method_disagreement,
           result.carrier, result.failed_regions, result.region_indices)
    assert got == want


def test_stacked_retrieval_keeps_each_refusal_of_its_region():
    # one region per refusal, among regions that succeed: every failure is
    # counted, and each estimate keeps the index of its own region; two regions
    # minima matching refuses stay in, for the Fourier read alone decides
    img = fringes.generate(0.4, 0.3, 2.4, size=(96, 200), noise_sigma=0.02, seed=4)
    regions = {
        Region(20, 180, 10, 86): None,
        Region(10, 15, 10, 86): (fringes.NoCarrier, "profile too short"),
        Region(18, 30, 30, 70): None,
        Region(150, 250, 10, 86): (ValueError, "outside image"),
        Region(40, 140, 30, 70): None,
        Region(3, 15, 30, 70): None,
        Region(20, 180, 60, 90): (ValueError, "does not intersect both halves"),
    }
    for region, refusal in regions.items():
        if refusal is not None:
            for method in ("fourier", "both"):
                with pytest.raises(refusal[0], match=refusal[1]):
                    fringes.retrieve_phase(img, [region], method=method)
    # minima matching refuses these two regions itself, and the disagreement leaves them out
    for region, (error_type, message) in ((Region(18, 30, 30, 70), (fringes.TooFewMinima, "got 2 and 1")),
                                          (Region(3, 15, 30, 70), (fringes.AmbiguousPairing, "inconsistent"))):
        up, low = fringes.column_average(img, region)
        with pytest.raises(error_type, match=message):
            fringes.shift_by_minima(fringes.savitzky_golay(up), fringes.savitzky_golay(low), fringes.estimate_carrier(up))
        assert fringes.retrieve_phase(img, [region], method="both").method_disagreement is None
    want = _retrieve_region_by_region(img, list(regions), "both")
    result = fringes.retrieve_phase(img, list(regions), method="both")
    assert result.region_indices == [0, 2, 4, 5] == want[-1]
    assert result.failed_regions == 3
    assert (result.estimate, result.region_estimates, result.method_disagreement, result.carrier) == (
        want[0], want[2], want[3], want[4])
    read = fringes.retrieve_phase(img, [list(regions)[0], list(regions)[4]], method="both")
    assert result.method_disagreement == read.method_disagreement


# the per-profile code the stacked kernels replaced, kept as their oracle

def _hann(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _carrier_by_profile(y):
    """estimate_carrier of a profile that has a carrier, one profile at a time."""
    n = len(y)
    windowed = (y - y.mean()) * _hann(n)
    mags = np.abs(np.fft.rfft(windowed))
    kbin = int(np.argmax(mags[1:]) + 1)
    dk = 2.0 * np.pi / n
    lo = max(0.5 * dk, (kbin - 1.5) * dk)
    hi = min(np.pi - 1e-12, (kbin + 1.5) * dk)
    peak = kbin
    if kbin + 1 < len(mags):
        ym, y0, yp = mags[kbin - 1], mags[kbin], mags[kbin + 1]
        peak = float(kbin + 0.5 * (ym - yp) / (ym - 2.0 * y0 + yp))
    k = min(max(peak * dk, lo), hi)
    x = np.arange(n) - (n - 1) / 2.0
    weights = np.stack([windowed, -1j * x * windowed, -(x * x) * windowed])
    for _ in range(8):
        value, slope, bend = weights @ np.exp(-1j * k * x)
        gradient = (value.conjugate() * slope).real
        curvature = (slope.conjugate() * slope).real + (value.conjugate() * bend).real
        if not curvature < 0.0:
            break
        step = min(max(k - gradient / curvature, lo), hi) - k
        k += step
        if abs(step) < 1e-13:
            break
    return float(k)


def _savgol_by_profile(y, window=11):
    fits = dsp._savgol_fits()
    half, n = window // 2, len(y)
    out = np.empty(n)
    out[half:n - half] = np.convolve(y, fits[half, ::-1], mode="valid")
    out[:half] = fits[:half] @ y[:window]
    out[n - half:] = (fits[:half] @ y[::-1][:window])[::-1]
    return out


def _fringe_terms_by_pair(up, low, k0):
    kernel = _hann(len(up)) * np.exp(-1j * k0 * np.arange(len(up)))
    y = np.stack([up, low])
    return (y - y.mean(axis=-1, keepdims=True)) @ kernel


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(16, 400), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
def test_stacked_kernels_give_the_bits_of_the_per_profile_code(count, n, sigma, seed):
    rng = np.random.default_rng(seed)
    k0 = rng.uniform(4.0 * np.pi / n, 0.95 * np.pi, (count, 1))
    phase = rng.uniform(-np.pi, np.pi, (2, count, 1))
    up, low = 0.5 - 0.4 * np.cos(k0 * np.arange(n) + phase) + rng.normal(0.0, sigma, (2, count, n))
    carriers, errors = fringes._carriers(up)
    for row, k, error in zip(up, carriers, errors):
        assert k == _carrier_by_profile(row) if error is None else np.isnan(k)
    smooth = fringes.savitzky_golay(np.stack([up, low]))
    for row, got in zip(np.concatenate([up, low]), smooth.reshape(2 * count, n)):
        np.testing.assert_array_equal(got, _savgol_by_profile(row))
    terms = fringes._fringe_terms(np.stack([up, low], axis=1), k0[:, 0])
    for u, v, k, got in zip(up, low, k0[:, 0], terms):
        np.testing.assert_array_equal(got, _fringe_terms_by_pair(u, v, float(k)))


def test_column_average_is_the_mean_of_each_half():
    img = fringes.generate(0.3, 0.2, 0.4, size=(64, 96), noise_sigma=0.05, seed=2)
    for region in (Region(0, 96, 0, 64), Region(7, 90, 20, 33), Region(31, 32, 31, 33)):
        up, low = fringes.column_average(img, region)
        np.testing.assert_array_equal(up, img.pixels[region.row_start:32, region.col_start:region.col_end].mean(axis=0))
        np.testing.assert_array_equal(low, img.pixels[32:region.row_end, region.col_start:region.col_end].mean(axis=0))


# ---------------------------------------------------------------------------
# a region's bounds are integers

@pytest.mark.parametrize("field, bound", [("col_start", 10.0), ("row_start", np.nan), ("col_end", np.float64(80.0)),
                                          ("row_end", np.array([60, 61])), ("col_start", "10"), ("row_end", None)])
def test_a_region_refuses_a_bound_that_is_not_an_integer(field, bound):
    bounds = {"col_start": 10, "col_end": 80, "row_start": 5, "row_end": 60}
    bounds[field] = bound
    with pytest.raises(ValueError, match=f"^region {field} must be an integer, got "):
        Region(**bounds)


def test_a_region_stores_integral_numpy_bounds_as_ints():
    region = Region(np.int64(10), np.int32(80), np.uint8(5), np.array(60))
    assert region == Region(10, 80, 5, 60) and hash(region) == hash(Region(10, 80, 5, 60))
    assert all(type(bound) is int for bound in dataclasses.astuple(region))


# ---------------------------------------------------------------------------
# the pair-by-pair pairing of minima and the list-based aggregation that the
# stacked code replaced, kept as its oracles

def _minima_shifts_by_pair(pairs, k0):
    """_minima_shifts one pair at a time: the nearest lower minimum of each upper
    one, and the circular mean of their phase differences."""
    rows, positions = fringes._minimum_positions(pairs.reshape(-1, pairs.shape[-1]), np.repeat(k0, 2))
    minima = [positions[rows == r] for r in range(2 * len(k0))]
    shifts = np.full(len(k0), np.nan)
    errors = [None] * len(k0)
    for r, (pos_up, pos_low) in enumerate(zip(minima[::2], minima[1::2])):
        if len(pos_up) < 2 or len(pos_low) < 2:
            errors[r] = fringes.TooFewMinima(
                f"need >= 2 interior minima per profile, got {len(pos_up)} and {len(pos_low)}")
            continue
        partner = pos_low[np.argmin(np.abs(pos_low - pos_up[:, None]), axis=1)]
        resultant = np.mean(np.exp(1j * su2.wrap_angle(k0[r] * (pos_up - partner))))
        if abs(resultant) < 0.5:
            errors[r] = fringes.AmbiguousPairing(
                f"per-minimum shifts are inconsistent (resultant {abs(resultant):.2f})")
        else:
            shifts[r] = np.angle(resultant)
    return shifts, errors


def _list_circular_mean(angles):
    return float(np.angle(np.mean(np.exp(1j * np.asarray(angles)))))


def _aggregate_by_lists(carriers, shifts, errors, method):
    """retrieve_phase's result tuple from _analyse_regions' arrays, one list at a time:
    the Fourier row gives the estimates, and the minima row, where it is read, only
    the disagreement; raises the last region's error when every region failed."""
    kept = [i for i, error in enumerate(errors) if error is None]
    if not kept:
        raise errors[-1]
    per_region = np.angle(np.exp(1j * shifts[1, kept])).tolist()
    estimate = _list_circular_mean(per_region)
    uncertainty = None
    if len(per_region) >= 2:
        uncertainty = float(np.std(su2.wrap_angle(np.asarray(per_region) - estimate), ddof=1))
    read = [i for i in kept if not np.isnan(shifts[0, i])]
    disagreement = None
    if read:
        disagreement = abs(su2.wrap_angle(_list_circular_mean(shifts[0, read]) - _list_circular_mean(shifts[1, read])))
    return (estimate, uncertainty, per_region, disagreement, float(np.mean(carriers[kept])),
            len(errors) - len(kept), kept)


def _outcomes(shifts, errors):
    # repr keeps the sign of a zero and every digit; a NaN is one NaN
    return [repr(v) for v in shifts.tolist()], [(type(e), str(e)) for e in errors]


def _minima_stack(rng, count, n, sigma, scale, monotonic):
    """count noisy (upper, lower) fringe pairs of n samples at carriers up to near
    Nyquist; the (pair, half) profiles in ``monotonic`` have no interior minimum."""
    k0 = rng.uniform(0.02, 3.1, count)
    pairs = 0.5 - 0.4 * np.cos(k0[:, None, None] * np.arange(n) + rng.uniform(-np.pi, np.pi, (count, 2, 1)))
    pairs += rng.normal(0.0, sigma, pairs.shape)
    for r, half in monotonic:
        pairs[r % count, half] = np.linspace(0.0, 1.0, n)
    return pairs * scale, k0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(3, 160), st.sampled_from([0.0, 0.02, 0.3, 3.0]),
       st.sampled_from([1.0, 1e-300, 1e300, 1e307]), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)),
                                                             max_size=3), st.integers(0, 2**32 - 1))
def test_the_stacked_pairing_gives_the_bits_and_refusals_of_the_pair_loop(count, n, sigma, scale, monotonic, seed):
    pairs, k0 = _minima_stack(np.random.default_rng(seed), count, n, sigma, scale, monotonic)
    with np.errstate(all="ignore"):  # profiles near the float limit overflow alike in both
        assert _outcomes(*fringes._minima_shifts(pairs, k0)) == _outcomes(*_minima_shifts_by_pair(pairs, k0))


def test_the_pairing_oracle_sees_every_outcome():
    seen = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        pairs, k0 = _minima_stack(rng, 6, int(rng.integers(3, 160)), [0.02, 0.3, 3.0][seed % 3], 1.0,
                                  [(seed, seed % 2)])
        got = _outcomes(*fringes._minima_shifts(pairs, k0))
        assert got == _outcomes(*_minima_shifts_by_pair(pairs, k0))
        seen.update(error_type for error_type, _ in got[1])
    assert seen == {type(None), fringes.TooFewMinima, fringes.AmbiguousPairing}


def _nested_regions(img, count):
    """count bands of growing height about the split row over the centred 0.6 of the columns:
    default_regions' layout, which has four."""
    h, w = img.shape
    c0 = int(round((1.0 - 0.6) / 2.0 * w))
    reach = min(img.half_split_row, h - img.half_split_row)
    return [Region(c0, w - c0, img.half_split_row - (half := max(2, int(round(k / count * reach)))),
                   img.half_split_row + half) for k in range(1, count + 1)]


@st.composite
def many_region_retrievals(draw):
    """A noisy image read with 1-16 nested regions, so that the circular means
    and the spread run over more regions than a pairwise sum's first block."""
    img = fringes.generate(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 1.4)), draw(st.floats(0.05, 3.0)),
                           size=(draw(st.integers(48, 112)), draw(st.integers(64, 224))),
                           noise_sigma=draw(st.sampled_from([0.0, 0.02, 0.2])),
                           envelope_width=draw(st.sampled_from([None, 40.0])), seed=draw(st.integers(0, 2**16)))
    return img, _nested_regions(img, draw(st.integers(1, 16))), draw(st.sampled_from(["fourier", "both"]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(stacked_retrievals(), many_region_retrievals()))
def test_the_stacked_aggregation_gives_the_bits_and_refusals_of_the_list_code(case):
    img, regions, method = case
    try:
        want = _aggregate_by_lists(*fringes._analyse_regions(img, regions, method), method)
    except ValueError as exc:
        with pytest.raises(type(exc)) as refused:
            fringes.retrieve_phase(img, regions, method=method)
        assert str(refused.value) == str(exc)
        return
    result = fringes.retrieve_phase(img, regions, method=method)
    got = (result.estimate, result.uncertainty, result.region_estimates, result.method_disagreement,
           result.carrier, result.failed_regions, result.region_indices)
    assert repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(st.one_of(stacked_retrievals(), many_region_retrievals()))
def test_both_methods_give_the_fourier_read_bit_for_bit_but_the_disagreement(case):
    # minima matching never votes and never refuses: "both" is the default read,
    # method_disagreement aside, and a call every region fails refuses alike
    img, regions, _ = case
    try:
        want = fringes.retrieve_phase(img, regions)
    except ValueError as exc:
        with pytest.raises(type(exc)) as refused:
            fringes.retrieve_phase(img, regions, method="both")
        assert type(refused.value) is type(exc) and str(refused.value) == str(exc)
        return
    got = fringes.retrieve_phase(img, regions, method="both")
    assert want.method_disagreement is None
    assert repr(dataclasses.replace(got, method_disagreement=None)) == repr(want)


# ---------------------------------------------------------------------------
# images valid by construction skip the pixel scan; the Newton phasors of half
# the symmetric axis are mirrored into the other half

def _assert_same_fields(got: fringes.Interferogram, want: fringes.Interferogram) -> None:
    assert type(got) is type(want) is fringes.Interferogram
    for spec in dataclasses.fields(fringes.Interferogram):
        a, b = getattr(got, spec.name), getattr(want, spec.name)
        if spec.name == "pixels":
            assert (a.dtype, a.shape, a.flags.c_contiguous, a.flags.writeable) == \
                (b.dtype, b.shape, b.flags.c_contiguous, b.flags.writeable)
            assert a.tobytes() == b.tobytes()
        else:
            assert (type(a), repr(a)) == (type(b), repr(b))
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.half_split_row = 3


@pytest.mark.parametrize("kwargs", [
    {}, {"noise_sigma": 0.3, "seed": 4}, {"envelope_width": 40.0, "noise_sigma": 0.02, "split_row": 20},
    {"envelope_width": 1e200, "size": (17, 17)}, {"envelope_width": 1e-200, "size": (18, 32)},
    {"noise_sigma": 1e308, "size": (20, 20), "split_row": np.int64(7)},
])
def test_generated_and_loaded_images_equal_the_public_constructors(kwargs, tmp_path):
    args = {"size": (48, 96)} | kwargs
    with np.errstate(divide="ignore"):  # a width whose square underflows to 0
        img = fringes.generate(0.3, 0.4, 0.5, **args)
    split = args.get("split_row", args["size"][0] // 2)
    _assert_same_fields(img, fringes.Interferogram(img.pixels.copy(), split, k0=0.5, true_delta=0.3))
    path = tmp_path / "img.pgm"
    fringes.save_interferogram(img, path)
    for sidecar in (None, "split_row=11\nk0=-0\ntrue_delta=-1\n", ""):
        if sidecar is not None:
            Path(f"{path}.meta").write_text(sidecar)
        loaded, meta = fringes.load_interferogram(path)
        levels = np.frombuffer(path.read_bytes()[-2 * img.pixels.size:], dtype=">u2").reshape(img.shape)
        want = fringes.Interferogram(levels / 65535, meta.get("split_row", img.shape[0] // 2),
                                     k0=meta.get("k0"), true_delta=meta.get("true_delta"))
        _assert_same_fields(loaded, want)


@pytest.mark.parametrize("split", [0, 32, -1, 31.5, np.nan, np.inf])
def test_a_loaded_split_row_is_refused_as_the_public_constructor_refuses_it(split, tmp_path):
    path = tmp_path / "img.pgm"
    fringes.save_interferogram(fringes.generate(0.3, 0.4, 0.5, size=(32, 32)), path)
    Path(f"{path}.meta").write_text(f"split_row={split}\n")
    with pytest.raises(ValueError) as public:
        fringes.Interferogram(np.zeros((32, 32)), split)
    with pytest.raises(ValueError, match=f"^{re.escape(str(public.value))}$"):
        fringes.load_interferogram(path)


def test_a_generated_image_that_is_not_finite_is_still_scanned_and_refused():
    # a width whose square underflows to 0 makes 0/0 at an odd image's centre pixel
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^pixel intensities must be finite and nonnegative$"):
        fringes.generate(0.3, 0.2, 0.4, size=(17, 33), envelope_width=1e-200)


def test_a_phase_whose_difference_with_delta_overflows_renders_flat_rows():
    # k0 x + phi0 - delta overflowed in the law as first written (cos gave NaN, and the
    # image was refused); the overlap law reads delta through e^{i delta} alone
    img = fringes.generate(-1.7e308, 0.2, 0.4, size=(20, 24), phi0=1.7e308)
    assert np.isfinite(img.pixels).all() and (img.pixels == img.pixels[:, :1]).all()
    u, phase = su2.from_zyz(0.2, 0.0, -1.7e308), 0.4 * np.arange(24.0) + 1.7e308
    assert img.pixels[0].tobytes() == interferometer.output_intensity("V", u, phase).tobytes()
    assert img.pixels[-1].tobytes() == interferometer.output_intensity("H", u, phase).tobytes()
    # delta = 0 at the same phi0 rendered flat rows before, and still gives their bits
    flat = fringes.generate(0.0, 0.2, 0.4, size=(20, 24), phi0=1.7e308).pixels
    assert (flat == 0.5 * (1.0 - np.cos(0.2) * np.cos(1.7e308))).all()


def test_a_pgm_of_the_extreme_levels_loads_to_exactly_zero_and_one(tmp_path):
    words = (RNG.random((20, 24)) < 0.5).astype(">u2") * 65535
    path = tmp_path / "binary.pgm"
    path.write_bytes(b"P5\n24 20\n65535\n" + words.tobytes())
    img, _ = fringes.load_interferogram(path)
    assert set(np.unique(img.pixels).tolist()) == {0.0, 1.0}
    np.testing.assert_array_equal(img.pixels, np.where(words == 65535, 1.0, 0.0), strict=True)
    assert not np.signbit(img.pixels).any()


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 4096), hnp.arrays(float, st.integers(1, 5), elements=st.floats(
    0.0, np.pi, exclude_min=True, exclude_max=True)))
def test_the_mirrored_newton_phasors_are_the_bits_of_numpys_exp(n, k):
    minus_x = fringes._newton_axis(n)[0]
    x = np.arange(n) - (n - 1) / 2.0
    got = fringes._mirrored_phasors(k, minus_x)
    assert got.tobytes() == fringes._phasors(k, minus_x).tobytes()
    # from the Newton search's least carrier, half a bin, up: below about 1e-323 a k x
    # rounds to zero, and numpy's complex product gives it a sign of its own
    k = np.maximum(k, np.pi / n)
    assert fringes._mirrored_phasors(k, minus_x).tobytes() == np.exp(-1j * k[:, None] * x).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(8, 4096), hnp.arrays(float, st.integers(1, 5), elements=st.floats(
    0.0, np.pi, exclude_min=True, exclude_max=True)))
def test_numpys_cos_is_even_and_sin_odd_bit_for_bit(n, k):
    # the mirror rests on this: a platform whose cos or sin is not symmetric fails here
    angle = k[:, None] * fringes._newton_axis(n)[0]
    assert np.cos(-angle).tobytes() == np.cos(angle).tobytes()
    assert np.sin(-angle).tobytes() == (-np.sin(angle)).tobytes()


def test_numpys_cos_is_even_and_sin_odd_on_a_million_angles():
    angle = np.random.default_rng(7).uniform(0.0, 1e5, 1 << 20)
    assert np.cos(-angle).tobytes() == np.cos(angle).tobytes()
    assert np.sin(-angle).tobytes() == (-np.sin(angle)).tobytes()


@pytest.mark.parametrize("method", ["both", "fourier"])
def test_one_pass_of_flags_keeps_the_refusal_order(method):
    # four regions of one width in one stack: a non-finite upper half is refused before
    # a flat lower one, a flat upper half before a non-finite lower one, and a flat lower
    # half at the carrier stage under every method (the minima estimator used to pair
    # the smoothed flat half's rounding ripples); each as the region alone is refused
    pixels = np.tile(0.5 - 0.4 * np.cos(0.8 * np.arange(128)), (64, 1))
    pixels[24:32, :32] = pixels[32:40, 32:96] = 1e308  # column sums of 8 such rows overflow
    pixels[24:32, 32:64] = pixels[32:40, :32] = pixels[32:40, 96:] = 0.5
    img = fringes.Interferogram(pixels, 32)
    regions = [Region(c, c + 32, 24, 40) for c in (0, 32, 64, 96)]
    _, _, errors = fringes._analyse_regions(img, regions, method)
    want = [(fringes.NoCarrier, "profile is not finite"), (fringes.NoCarrier, "profile is flat"),
            (fringes.NoCarrier, "profile is not finite"), (fringes.NoCarrier, "profile is flat")]
    assert [(type(error), str(error)) for error in errors] == want
    for region, (error_type, message) in zip(regions, want):
        with pytest.raises(error_type, match=f"^{re.escape(message)}$"):
            fringes.retrieve_phase(img, [region], method=method)
