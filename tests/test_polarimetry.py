"""Tests for the rotating-array (single-beam) phase measurement."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polphase import plates, polarimetry, su2

RNG = np.random.default_rng(2718281)


def test_intensity_identity_params_is_one():
    for phi in np.linspace(0, 2 * np.pi, 23):
        assert polarimetry.polarimetric_intensity(0.0, 0.0, 0.0, phi) == pytest.approx(1.0)


def test_intensity_adjustment_configuration_constant():
    values = polarimetry.polarimetric_intensity(
        -np.pi, 0.0, np.pi, np.linspace(0, 2 * np.pi, 64)
    )
    np.testing.assert_allclose(values, values[0], atol=1e-14)


def test_intensity_matches_plate_route():
    for _ in range(500):
        xi, eta, zeta, phi = RNG.uniform(-2 * np.pi, 2 * np.pi, 4)
        m = plates.compose(plates.polarimetric_array(xi, eta, zeta, phi))
        route = abs(m[0, 0]) ** 2
        formula = polarimetry.polarimetric_intensity(xi, eta, zeta, phi)
        assert abs(formula - route) < 1e-10


def test_intensity_zyz_form():
    # the same scan intensity written in the z-y-z angles of the operator:
    # I = cos^2(beta) cos^2(delta) + sin^2(beta) cos^2(gamma + phi)
    for _ in range(300):
        xi, eta, zeta, phi = RNG.uniform(-2 * np.pi, 2 * np.pi, 4)
        z = su2.yzy_to_zyz(xi, eta, zeta)
        zyz_form = (
            np.cos(z.beta) ** 2 * np.cos(z.delta) ** 2
            + np.sin(z.beta) ** 2 * np.cos(z.gamma + phi) ** 2
        )
        got = polarimetry.polarimetric_intensity(xi, eta, zeta, phi)
        assert abs(got - zyz_form) < 1e-12


def test_intensity_xi_minus_pi_zeta_zero():
    for eta, phi in RNG.uniform(-np.pi, np.pi, (20, 2)):
        got = polarimetry.intensity_xi_minus_pi(eta, 0.0, phi)
        assert got == pytest.approx(np.cos((eta - 2 * phi) / 2) ** 2, abs=1e-14)


def test_intensity_xi_minus_pi_zeta_pi_constant():
    eta = 0.8
    values = polarimetry.intensity_xi_minus_pi(eta, np.pi, np.linspace(0, 7, 50))
    np.testing.assert_allclose(values, np.cos(eta / 2) ** 2, atol=1e-14)


def test_intensity_xi_minus_pi_cross_checks():
    for _ in range(300):
        eta, zeta, phi = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        direct = polarimetry.intensity_xi_minus_pi(eta, zeta, phi)
        general = polarimetry.polarimetric_intensity(-np.pi, eta, zeta, phi)
        assert abs(direct - general) < 1e-12
        m = plates.compose(plates.reduced_array_xi_minus_pi(eta, zeta, phi))
        assert abs(direct - abs(m[0, 0]) ** 2) < 1e-12


def test_scan_plate_array_matches_closed_form():
    # scanning the built-in five-plate array reproduces the intensity law
    xi, eta, zeta = 0.9, -1.4, 2.2
    array = plates.polarimetric_array(xi, eta, zeta, 0.0)
    phis = np.linspace(0, 2 * np.pi, 48, endpoint=False)
    got = polarimetry.scan_plate_array(array, phis)
    want = polarimetry.polarimetric_intensity(xi, eta, zeta, phis)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_scan_plate_array_identity_plate():
    # identity-compiling array transmits everything at any scan angle offset 0
    array = plates.decompose_qhq(0.0, 0.0, 0.0)
    got = polarimetry.scan_plate_array(array, [0.0])
    assert got[0] == pytest.approx(1.0)


def test_extract_cos2_phase_from_model_extrema():
    # I_min = cos^2(beta) cos^2(delta), I_max = I_min + sin^2(beta)
    for _ in range(200):
        beta = RNG.uniform(0.0, np.pi / 2 - 0.05)
        delta = RNG.uniform(-np.pi, np.pi)
        i_min = np.cos(beta) ** 2 * np.cos(delta) ** 2
        i_max = i_min + np.sin(beta) ** 2
        got = polarimetry.extract_cos2_phase(i_min, i_max)
        assert abs(got - np.cos(delta) ** 2) < 1e-12


def test_extract_cos2_phase_beta_zero():
    value = np.cos(0.7) ** 2
    assert polarimetry.extract_cos2_phase(value, value) == pytest.approx(value)


def test_extract_cos2_phase_degenerate_denominator():
    with pytest.raises(polarimetry.DegenerateDenominator):
        polarimetry.extract_cos2_phase(0.0, 1.0)


def test_extract_cos2_phase_invalid_ordering():
    with pytest.raises(polarimetry.InvalidExtrema):
        polarimetry.extract_cos2_phase(0.8, 0.2)
    with pytest.raises(polarimetry.InvalidExtrema):
        polarimetry.extract_cos2_phase(-0.1, 0.5)
    with pytest.raises(polarimetry.InvalidExtrema):
        polarimetry.extract_cos2_phase(0.2, 1.2)


def test_extract_cos2_phase_clamps_slack():
    # slack-level ordering inversions are tolerated, and a ratio marginally
    # above 1 is clamped rather than rejected
    assert polarimetry.extract_cos2_phase(0.5 + 5e-10, 0.5) == pytest.approx(0.5)
    assert polarimetry.extract_cos2_phase(1.0, 1.0 + 5e-10) == pytest.approx(1.0)


def test_sweep_container_invariants():
    sweep = polarimetry.polarimetric_sweep(1.0, 0.5, -0.7, n_grid=256,
                                           noise_sigma=0.05, seed=11)
    assert len(sweep.phi_grid) == len(sweep.intensities) == 256
    assert np.all(sweep.intensities >= 0.0) and np.all(sweep.intensities <= 1.0)
    assert sweep.params == su2.YzyParams(1.0, 0.5, -0.7)


def test_sweep_reproducible_with_seed():
    a = polarimetry.polarimetric_sweep(0.3, 1.1, 0.2, 128, 0.02, seed=5)
    b = polarimetry.polarimetric_sweep(0.3, 1.1, 0.2, 128, 0.02, seed=5)
    np.testing.assert_array_equal(a.intensities, b.intensities)


def test_measure_phase_requires_dense_grid():
    with pytest.raises(ValueError):
        polarimetry.measure_phase(0.1, 0.2, 0.3, n_grid=32)


def test_measure_phase_zeta_2pi_mode():
    # fixing zeta = 2 pi: cos^2(phase) = cos^2(eta/2) for any xi
    for xi in (0.0, 0.8, np.pi / 2):
        for eta in np.linspace(0.1, 2 * np.pi - 0.1, 9):
            got = polarimetry.measure_phase(xi, eta, 2 * np.pi)
            assert abs(got - np.cos(eta / 2) ** 2) < 1e-6


def test_measure_phase_xi_minus_pi_mode():
    # fixing xi = -pi: same curve, this time for any zeta
    for zeta in (np.pi / 2, np.pi, 2.0):
        for eta in np.linspace(0.1, 2 * np.pi - 0.1, 9):
            got = polarimetry.measure_phase(-np.pi, eta, zeta)
            assert abs(got - np.cos(eta / 2) ** 2) < 1e-6


def test_measure_phase_random_params_against_conversion():
    checked = 0
    while checked < 60:
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        zyz = su2.yzy_to_zyz(xi, eta, zeta)
        if zyz.beta > np.pi / 2 - 0.01:
            continue
        got = polarimetry.measure_phase(xi, eta, zeta, n_grid=4096)
        assert abs(got - np.cos(zyz.delta) ** 2) < 1e-6
        checked += 1


@settings(deadline=None, max_examples=50)
@given(
    st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False),
    st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False),
    st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False),
)
def test_noiseless_measure_phase_is_the_extremum_ratio_identity(xi, eta, zeta):
    # I_min / (1 - I_max + I_min) = cos^2 delta, delta from the z-y-z angles
    zyz = su2.to_zyz(su2.from_yzy(xi, eta, zeta))
    assume(np.cos(zyz.beta) ** 2 >= 0.01)
    assert abs(polarimetry.measure_phase(xi, eta, zeta) - np.cos(zyz.delta) ** 2) < 1e-6


def test_measure_phase_degenerate_at_beta_half_pi():
    # xi = -pi with zeta = 0 puts beta at pi/2: denominator collapses
    with pytest.raises(polarimetry.DegenerateDenominator):
        polarimetry.measure_phase(-np.pi, 1.0, 0.0)


def test_measure_phase_noise_robustness():
    # sigma = 0.01 with a smoothed sweep stays within 0.05 of the truth for
    # moderate beta (the denominator cos^2 beta amplifies noise near pi/2)
    checked = 0
    trial = 0
    while checked < 40:
        trial += 1
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        zyz = su2.yzy_to_zyz(xi, eta, zeta)
        if zyz.beta > np.pi / 3:
            continue
        got = polarimetry.measure_phase(
            xi, eta, zeta, n_grid=4096, noise_sigma=0.01, seed=trial
        )
        assert abs(got - np.cos(zyz.delta) ** 2) < 0.05
        checked += 1


# ---------------------------------------------------------------------------
# the broadcast plate scan

ANGLE = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@settings(deadline=None, max_examples=50)
@given(ANGLE, ANGLE, ANGLE)
def test_scan_of_five_plate_array_matches_closed_form(xi, eta, zeta):
    phis = np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False)
    got = polarimetry.scan_plate_array(plates.polarimetric_array(xi, eta, zeta, 0.0), phis)
    np.testing.assert_allclose(got, polarimetry.polarimetric_intensity(xi, eta, zeta, phis), rtol=0, atol=1e-12)


def test_scan_single_phi_matches_rotated_compose():
    array = plates.polarimetric_array(0.4, -1.1, 2.0, 0.0)
    rotated = [plates.WavePlate(p.kind, p.axis - 0.35) for p in array]
    got = polarimetry.scan_plate_array(array, 0.7)
    assert got.shape == (1,)
    assert abs(got[0] - abs(plates.compose(rotated)[0, 0]) ** 2) < 1e-12


def test_scan_empty_array_and_empty_grid():
    np.testing.assert_array_equal(polarimetry.scan_plate_array([], np.linspace(0, 1, 5)), np.ones(5))
    array = plates.polarimetric_array(0.4, -1.1, 2.0, 0.0)
    assert polarimetry.scan_plate_array(array, np.array([])).shape == (0,)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.sampled_from("QH"), ANGLE), max_size=7),
       st.lists(ANGLE, min_size=1, max_size=16))
def test_scan_law_matches_composing_the_rotated_array(array, phis):
    # rotating every axis by -phi/2 conjugates the composed matrix, so the
    # closed form equals composing the rotated array at each grid point
    kinds = "".join(kind for kind, _ in array)
    axes = np.array([axis for _, axis in array], dtype=float).reshape(len(array))
    phis = np.array(phis)
    rotated = plates.compose(kinds, axes[None, :] - phis[:, None] / 2.0)
    want = np.abs(rotated[:, 0, 0]) ** 2
    got = polarimetry.scan_plate_array([plates.WavePlate(k, a) for k, a in array], phis)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_scan_plate_array_names_a_non_finite_grid():
    array = plates.polarimetric_array(0.4, -1.1, 2.0, 0.0)
    with pytest.raises(su2.NonFiniteInput, match="^phi_grid must be finite"):
        polarimetry.scan_plate_array(array, np.array([0.0, np.inf]))
    with pytest.raises(su2.NonFiniteInput, match="^phi_grid must be finite"):
        polarimetry.scan_plate_array([], np.nan)


def test_closed_forms_refuse_non_finite_angles():
    with pytest.raises(su2.NonFiniteInput):
        polarimetry.polarimetric_intensity(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(su2.NonFiniteInput):
        polarimetry.measure_phase(0.0, np.inf, 0.0)
    with pytest.raises(su2.NonFiniteInput):
        polarimetry.intensity_xi_minus_pi(0.0, 0.0, np.array([0.0, np.nan]))


@pytest.mark.parametrize("name", ["xi", "eta", "zeta"])
def test_measure_phase_names_the_non_finite_angle(name):
    angles = {"xi": 0.3, "eta": 0.5, "zeta": -0.2, name: np.inf}
    with pytest.raises(su2.NonFiniteInput, match=f"^{name} must be finite, got inf$"):
        polarimetry.measure_phase(**angles)


# ---------------------------------------------------------------------------
# a whole eta curve as one stack of scans

@settings(deadline=None, max_examples=30)
@given(ANGLE, ANGLE, st.floats(0.0, 0.05), st.integers(0, 2**32))
def test_stacked_sweep_equals_per_eta_measure_phase_bit_for_bit(xi, zeta, noise, seed):
    etas = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    n_grid = 256
    window = polarimetry.smoothing_window(n_grid, noise)
    stack = polarimetry.polarimetric_sweep(xi, etas, zeta, n_grid, noise, seed)
    i_min, i_max = polarimetry.sweep_extrema(stack, window)
    assert stack.intensities.shape == (6, n_grid) and i_min.shape == i_max.shape == (6,)
    for k, eta in enumerate(etas):
        # row k is the scan made on its own with seed + k
        single = polarimetry.polarimetric_sweep(xi, eta, zeta, n_grid, noise, seed + k)
        np.testing.assert_array_equal(stack.intensities[k], single.intensities)
        assert polarimetry.sweep_extrema(single, window) == (i_min[k], i_max[k])
        try:
            expected = polarimetry.measure_phase(xi, eta, zeta, n_grid, noise, seed + k)
        except polarimetry.DegenerateDenominator:
            with pytest.raises(polarimetry.DegenerateDenominator):
                polarimetry.extract_cos2_phase(i_min[k], i_max[k])
        else:
            assert polarimetry.extract_cos2_phase(i_min[k], i_max[k]) == expected


def test_scan_noise_seeds():
    clean = np.full((3, 64), 0.5)
    # a single scan takes any seed numpy does; a list is one generator's entropy
    np.testing.assert_array_equal(
        polarimetry.add_scan_noise(clean[0], 0.1, [3, 4]),
        np.clip(0.5 + np.random.default_rng([3, 4]).normal(0.0, 0.1, 64), 0.0, 1.0),
    )
    # row k of a stack draws from seed + k, so it needs an integer seed
    stack = polarimetry.add_scan_noise(clean, 0.1, 9)
    for k in range(3):
        np.testing.assert_array_equal(stack[k], polarimetry.add_scan_noise(clean[k], 0.1, 9 + k))
    with pytest.raises(TypeError):
        polarimetry.add_scan_noise(clean, 0.1, [3, 4])
    assert polarimetry.add_scan_noise(clean, 0.0, [3, 4]) is clean


def test_smoothing_window_only_for_noisy_scans():
    assert polarimetry.smoothing_window(4096, 0.0) is None
    assert polarimetry.smoothing_window(4096, 0.01) == 129
    assert polarimetry.smoothing_window(64, 0.01) == 5
