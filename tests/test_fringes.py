"""Tests for synthetic interferograms and the two shift estimators."""

import gc
import hashlib
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from polphase import dsp, fringes, su2
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


# ---------------------------------------------------------------------------
# Savitzky-Golay filter

def test_savgol_constant_unchanged():
    profile = np.full(50, 3.7)
    np.testing.assert_allclose(fringes.savitzky_golay(profile, 11, 3), profile)


def test_savgol_polynomial_exact_everywhere():
    # degree <= order polynomials pass through untouched, endpoints included
    # (truncated-window least squares, no padding)
    x = np.linspace(-2, 2, 60)
    poly = 0.3 - 1.2 * x + 0.5 * x**2 + 0.05 * x**3
    smoothed = fringes.savitzky_golay(poly, 11, 3)
    np.testing.assert_allclose(smoothed, poly, atol=1e-10)


def test_savgol_noise_reduction():
    x = np.arange(400)
    clean = np.cos(0.15 * x)
    rng = np.random.default_rng(77)
    rms_in, rms_out = [], []
    for _ in range(10):
        noisy = clean + rng.normal(0, 0.05, len(x))
        smoothed = fringes.savitzky_golay(noisy, 11, 3)
        rms_in.append(np.sqrt(np.mean((noisy - clean) ** 2)))
        rms_out.append(np.sqrt(np.mean((smoothed - clean) ** 2)))
    assert np.mean(rms_in) / np.mean(rms_out) >= 2.0


def test_savgol_parameter_validation():
    profile = np.zeros(20)
    with pytest.raises(ValueError):
        fringes.savitzky_golay(profile, 10, 3)  # even window
    with pytest.raises(ValueError):
        fringes.savitzky_golay(profile, 11, 11)  # order >= window
    with pytest.raises(ValueError):
        fringes.savitzky_golay(profile, 21, 3)  # window > profile


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


def test_shift_by_minima_k0_validation():
    up, low = make_profiles(0.2, 0.0, 0.2, 300)
    with pytest.raises(ValueError, match="^k0 must be positive$"):
        fringes.shift_by_minima(up, low, 0.0)
    for k0 in (np.nan, np.inf, -np.inf):  # k0 <= 0 alone lets NaN and inf through, to a NaN shift
        with pytest.raises(su2.NonFiniteInput, match="^k0 must be finite"):
            fringes.shift_by_minima(up, low, k0)


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
    result = fringes.retrieve_phase(img)
    assert len(result.region_estimates) == 4
    assert abs(su2.wrap_angle(result.estimate - 1.2)) < 1e-3
    assert result.uncertainty is not None and result.uncertainty < 1e-3
    assert result.method_disagreement is not None
    assert result.failed_regions == 0


def test_retrieve_phase_round_trip_random():
    # 50 random noiseless synthetics across the full parameter box: both
    # estimators individually land within 1e-3 of the encoded shift
    rng = np.random.default_rng(123)
    for trial in range(50):
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        beta = rng.uniform(0, np.pi / 3)
        k0 = rng.uniform(0.1, 0.5)
        img = fringes.generate(delta, beta, k0, size=(480, 640),
                               phi0=rng.uniform(0, 2 * np.pi))
        for method in ("minima", "fourier"):
            result = fringes.retrieve_phase(img, method=method)
            err = abs(su2.wrap_angle(result.estimate - 2 * delta))
            assert err < 1e-3, (method, delta, beta, k0, err)


def test_method_agreement_noiseless_and_noisy():
    rng = np.random.default_rng(9)
    for trial in range(8):
        delta = rng.uniform(-np.pi / 2, np.pi / 2)
        k0 = rng.uniform(0.1, 0.5)
        clean = fringes.generate(delta, 0.5, k0, size=(480, 640),
                                 phi0=rng.uniform(0, 2 * np.pi))
        assert fringes.retrieve_phase(clean).method_disagreement < 0.05
        noisy = fringes.generate(delta, 0.5, k0, size=(480, 640),
                                 noise_sigma=0.05, seed=trial)
        assert fringes.retrieve_phase(noisy).method_disagreement < 0.1


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


def test_retrieve_phase_method_validation():
    img = fringes.generate(0.2, 0.2, 0.2, size=(64, 64))
    with pytest.raises(ValueError):
        fringes.retrieve_phase(img, method="magic")
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


def test_pgm_payload_format(tmp_path):
    img = fringes.generate(0.0, 0.0, 0.2, size=(16, 16))
    path = tmp_path / "fmt.pgm"
    fringes.save_interferogram(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n16 16\n65535\n")
    assert len(raw) == len(b"P5\n16 16\n65535\n") + 16 * 16 * 2


def _generate_with_fresh_arrays(delta, beta, k0, size, noise_sigma, envelope_width, seed):
    """generate with a new array for every step, as it was first written."""
    h, w = size
    x = np.arange(w, dtype=float)
    pixels = np.empty((h, w))
    pixels[:h // 2] = 0.5 * (1.0 - np.cos(beta) * np.cos(k0 * x - delta))
    pixels[h // 2:] = 0.5 * (1.0 - np.cos(beta) * np.cos(k0 * x + delta))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_interferogram_refuses_a_non_finite_or_negative_pixel(bad):
    pixels = np.full((16, 16), 0.5)
    pixels[3, 7] = bad
    with pytest.raises(ValueError, match="^pixel intensities must be finite and nonnegative$"):
        fringes.Interferogram(pixels, 8)
    # zero, negative zero and the largest float are finite and nonnegative
    pixels[3, 7], pixels[0, 0], pixels[-1, -1] = 0.0, -0.0, np.finfo(float).max
    fringes.Interferogram(pixels, 8)


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


@st.composite
def sg_cases(draw, min_order=0, max_order=3):
    window = 2 * draw(st.integers(min_order // 2, 12)) + 1
    order = draw(st.integers(min_order, min(window - 1, max_order)))
    n = draw(st.integers(window, window + 40))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return np.array(values), window, order


@settings(max_examples=200, deadline=None)
@given(sg_cases())
def test_savitzky_golay_matches_per_sample_refits(case):
    y, window, order = case
    np.testing.assert_allclose(fringes.savitzky_golay(y, window, order),
                               _savgol_reference(y, window, order), rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(sg_cases(min_order=4, max_order=6))
def test_savitzky_golay_high_orders_match_per_sample_refits(case):
    # the right edge reuses the left-edge fits on the reversed profile; from
    # order 4 the Vandermonde pseudo-inverses of both fits round at 1e-12 to
    # 5e-10 over these windows (orders 0-3 stay below 2e-13)
    y, window, order = case
    np.testing.assert_allclose(fringes.savitzky_golay(y, window, order),
                               _savgol_reference(y, window, order), rtol=0, atol=1e-9)


def test_savitzky_golay_window_spans_profile():
    y = np.cos(0.7 * np.arange(11)) + 0.1 * np.arange(11)
    np.testing.assert_allclose(fringes.savitzky_golay(y, 11, 3), _savgol_reference(y, 11, 3),
                               rtol=0, atol=1e-12)


def test_savgol_coefficients_returns_a_private_copy():
    taps = fringes.savgol_coefficients(11, 3)
    before = taps.copy()
    taps[:] = 0.0
    np.testing.assert_array_equal(fringes.savgol_coefficients(11, 3), before)
    profile = np.cos(0.3 * np.arange(64))
    np.testing.assert_allclose(fringes.savitzky_golay(profile, 11, 3),
                               _savgol_reference(profile, 11, 3), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=80),
    st.one_of(st.none(), st.floats(0.0, 3.0)),
)
def test_subpixel_extrema_matches_scalar_loop(values, carrier):
    y = np.array(values)
    got = fringes._subpixel_extrema(y, carrier=carrier)
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
    np.testing.assert_array_equal(fringes._subpixel_extrema(y, carrier=carrier),
                                  _extrema_reference(y, carrier=carrier))


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
    public one-profile functions; raises the last region's error when every
    region fails."""
    per_region, indices, minima, fourier, carriers, errors = [], [], [], [], [], []
    for index, region in enumerate(regions):
        try:
            up, low = fringes.column_average(img, region)
            k0 = fringes.estimate_carrier(up)
            values = []
            if method in ("minima", "both"):
                up_s, low_s = fringes.savitzky_golay(up, 11), fringes.savitzky_golay(low, 11)
                if len(up_s) > 66:
                    up_s, low_s = up_s[5:-5], low_s[5:-5]
                values.append(fringes.shift_by_minima(up_s, low_s, k0))
                minima.append(values[-1])
            if method in ("fourier", "both"):
                values.append(fringes.shift_by_fourier(up, low, k0))
                fourier.append(values[-1])
        except ValueError as exc:
            errors.append(exc)
            continue
        carriers.append(k0)
        per_region.append(fringes._circular_mean(values))
        indices.append(index)
    if not per_region:
        raise errors[-1]
    estimate = fringes._circular_mean(per_region)
    uncertainty = None
    if len(per_region) >= 2:
        uncertainty = float(np.std(su2.wrap_angle(np.asarray(per_region) - estimate), ddof=1))
    disagreement = None
    if method == "both":
        disagreement = abs(su2.wrap_angle(fringes._circular_mean(minima) - fringes._circular_mean(fourier)))
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
    return img, regions, draw(st.sampled_from(["minima", "fourier", "both"]))


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
    # counted, and each estimate keeps the index of its own region
    img = fringes.generate(0.4, 0.3, 2.4, size=(96, 200), noise_sigma=0.02, seed=4)
    regions = {
        Region(20, 180, 10, 86): None,
        Region(10, 15, 10, 86): (fringes.NoCarrier, "profile too short"),
        Region(18, 30, 30, 70): (fringes.TooFewMinima, "got 2 and 1"),
        Region(150, 250, 10, 86): (ValueError, "outside image"),
        Region(40, 140, 30, 70): None,
        Region(3, 15, 30, 70): (fringes.AmbiguousPairing, "inconsistent"),
        Region(20, 180, 60, 90): (ValueError, "does not intersect both halves"),
    }
    for region, refusal in regions.items():
        if refusal is not None:
            with pytest.raises(refusal[0], match=refusal[1]):
                fringes.retrieve_phase(img, [region])
    want = _retrieve_region_by_region(img, list(regions), "both")
    result = fringes.retrieve_phase(img, list(regions), method="both")
    assert result.region_indices == [0, 4] == want[-1]
    assert result.failed_regions == 5
    assert (result.estimate, result.region_estimates, result.carrier) == (want[0], want[2], want[4])


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


def _savgol_by_profile(y, window=11, order=3):
    fits = dsp._savgol_fits(window, order)
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
