"""Tests for the rotating-array (single-beam) phase measurement."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polphase import dsp, fringes, plates, polarimetry, su2

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


def intensity_xi_minus_pi(eta, zeta, phi):
    """Reference: the scan law of the three-plate xi = -pi reduction,
    I = cos^2(zeta/2) cos^2((eta - 2 phi)/2) + sin^2(zeta/2) cos^2(eta/2)."""
    return (np.cos(zeta / 2) ** 2 * np.cos((eta - 2 * phi) / 2) ** 2
            + np.sin(zeta / 2) ** 2 * np.cos(eta / 2) ** 2)


def test_intensity_xi_minus_pi_zeta_zero():
    for eta, phi in RNG.uniform(-np.pi, np.pi, (20, 2)):
        got = polarimetry.polarimetric_intensity(-np.pi, eta, 0.0, phi)
        assert got == pytest.approx(np.cos((eta - 2 * phi) / 2) ** 2, abs=1e-14)


def test_intensity_xi_minus_pi_zeta_pi_constant():
    eta = 0.8
    values = polarimetry.polarimetric_intensity(-np.pi, eta, np.pi, np.linspace(0, 7, 50))
    np.testing.assert_allclose(values, np.cos(eta / 2) ** 2, atol=1e-14)


def test_intensity_xi_minus_pi_cross_checks():
    # the general law at xi = -pi, its three-plate reduction and the reduced law agree
    for _ in range(300):
        eta, zeta, phi = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        general = polarimetry.polarimetric_intensity(-np.pi, eta, zeta, phi)
        assert abs(general - intensity_xi_minus_pi(eta, zeta, phi)) < 1e-12
        m = plates.compose(plates.reduced_array_xi_minus_pi(eta, zeta, phi))
        assert abs(general - abs(m[0, 0]) ** 2) < 1e-12


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


def test_extract_cos2_phase_keeps_the_sign_of_a_zero_ratio():
    # np.clip(-0.0, 0.0, 1.0) is -0.0, and so is the clamp that replaced it
    assert math.copysign(1.0, polarimetry.extract_cos2_phase(-0.0, 0.5)) == -1.0
    assert math.copysign(1.0, polarimetry.extract_cos2_phase(0.0, 0.5)) == 1.0


@settings(deadline=None, max_examples=500)
@given(st.floats(-2e-9, 1.0), st.floats(-2e-9, 1.0 + 2e-9))
def test_extract_cos2_phase_clamps_to_the_floats_of_np_clip(i_min, i_max):
    try:
        got = polarimetry.extract_cos2_phase(i_min, i_max)
    except (polarimetry.InvalidExtrema, polarimetry.DegenerateDenominator):
        return
    assert got.hex() == float(np.clip(i_min / (1.0 - i_max + i_min), 0.0, 1.0)).hex()


def test_extract_cos2_phase_refuses_a_ratio_beyond_the_slack():
    # an I_max a hair above 1 shrinks the denominator below I_min: a ratio of about 1.001
    with pytest.raises(polarimetry.InvalidExtrema, match=r"^ratio 1\.001\d* outside \[0, 1\] beyond slack$"):
        polarimetry.extract_cos2_phase(1e-6, 1 + 1e-9)


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


def test_the_closed_form_takes_angles_that_broadcast_against_phi_and_refuses_others_by_shape():
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    etas = np.array([[0.2], [0.5]])
    column = polarimetry.polarimetric_intensity(0.1, etas, 0.3, phi)
    assert column.shape == (2, 64)
    for row, eta in zip(column, etas[:, 0]):
        np.testing.assert_array_equal(row, polarimetry.polarimetric_intensity(0.1, eta, 0.3, phi))
    assert polarimetry.polarimetric_intensity(np.array([0.1]), 0.2, 0.3, phi).shape == (64,)
    # these failed inside numpy: "operands could not be broadcast together"
    for angles, shapes in [((np.array([0.1, 0.2]), 0.2, 0.3), "(2,), () and ()"),
                           ((0.1, 0.2, np.zeros(3)), "(), () and (3,)"),
                           ((np.zeros((2, 1)), np.zeros((3, 1)), 0.3), "(2, 1), (3, 1) and ()")]:
        with pytest.raises(ValueError, match=re.escape(f"xi, eta and zeta of shapes {shapes} do not broadcast "
                                                       f"against phi of shape (64,)")):
            polarimetry.polarimetric_intensity(*angles, phi)


def test_closed_forms_refuse_non_finite_angles():
    with pytest.raises(su2.NonFiniteInput):
        polarimetry.polarimetric_intensity(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(su2.NonFiniteInput):
        polarimetry.measure_phase(0.0, np.inf, 0.0)
    with pytest.raises(su2.NonFiniteInput, match="^phi must be finite"):
        polarimetry.polarimetric_intensity(-np.pi, 0.0, 0.0, np.array([0.0, np.nan]))


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
    stack = polarimetry.polarimetric_sweep(xi, etas, zeta, n_grid, noise, seed)
    i_min, i_max = polarimetry.sweep_extrema(stack)
    assert stack.intensities.shape == (6, n_grid) and i_min.shape == i_max.shape == (6,)
    for k, eta in enumerate(etas):
        # row k is the scan made on its own with seed + k
        single = polarimetry.polarimetric_sweep(xi, eta, zeta, n_grid, noise, seed + k)
        np.testing.assert_array_equal(stack.intensities[k], single.intensities)
        assert polarimetry.sweep_extrema(single) == (i_min[k], i_max[k])
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
    with pytest.raises(ValueError, match=r"^seed must be an integer, got \[3, 4\]$"):
        polarimetry.add_scan_noise(clean, 0.1, [3, 4])
    assert polarimetry.add_scan_noise(clean, 0.0, [3, 4]) is clean


def test_scan_noise_leaves_its_input_and_the_cached_grid_terms_untouched():
    phi = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    cached = [term.copy() for term in dsp.harmonics(phi)]
    clean = polarimetry.polarimetric_intensity(0.3, np.linspace(0.0, 6.0, 8)[:, None], -1.2, phi)
    kept = clean.copy()
    for intensity, seed in ((clean, 4), (clean[2], 4), (clean[::2, ::3], None)):
        noisy = polarimetry.add_scan_noise(intensity, 0.3, seed)
        assert noisy is not intensity and not np.shares_memory(noisy, clean)
        np.testing.assert_array_equal(clean, kept, strict=True)
    # the noise buffer takes the sum in place: the floats of a fresh sum, clipped
    noise = np.random.default_rng(4).normal(0.0, 0.3, 4096)
    np.testing.assert_array_equal(polarimetry.add_scan_noise(clean[2], 0.3, 4),
                                  np.clip(clean[2] + noise, 0.0, 1.0), strict=True)
    for term, copy in zip(dsp.harmonics(phi), cached):
        np.testing.assert_array_equal(term, copy, strict=True)


def _intensity_with_fresh_arrays(xi, eta, zeta, phi):
    """polarimetric_intensity with a new array for every step, as it was first written."""
    ce, se, cs = np.cos(eta / 2.0), np.sin(eta / 2.0), np.cos((xi + zeta) / 2.0)
    swing = ce * np.sin((xi + zeta) / 2.0) * np.cos(phi) + se * np.sin((xi - zeta) / 2.0) * np.sin(phi)
    return ce * ce * (cs * cs) + swing * swing


def test_intensity_built_in_place_is_the_closed_form_bit_for_bit():
    phi = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    etas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)[:, None]
    cached = [term.copy() for term in dsp.harmonics(phi)]
    for xi, eta, zeta, grid in ((0.3, etas, 2 * np.pi, phi), (-np.pi, 0.4, 0.5, phi),
                                (np.array([[0.1], [2.0]]), 0.7, -1.0, phi), (1.0, etas, -2.0, 0.25)):
        np.testing.assert_array_equal(polarimetry.polarimetric_intensity(xi, eta, zeta, grid),
                                      _intensity_with_fresh_arrays(xi, eta, zeta, grid))
    assert isinstance(polarimetry.polarimetric_intensity(0.3, 0.4, 0.5, 0.6), float)
    for term, copy in zip(dsp.harmonics(phi), cached):
        np.testing.assert_array_equal(term, copy, strict=True)


@pytest.mark.parametrize("noise", [0.0, 0.05])
@pytest.mark.parametrize("shape", [(67,), (3, 5)])
def test_sweep_across_row_blocks_is_the_closed_form_and_the_stack_of_its_scans(shape, noise):
    # 67 scans of 4096 span eight row blocks and end in a ragged one; the blocks
    # of a (3, 5) eta cut across its rows
    phi = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    etas = np.linspace(0.0, 2 * np.pi, math.prod(shape), endpoint=False).reshape(shape)
    stack = polarimetry.polarimetric_sweep(0.3, etas, -1.2, 4096, noise, 40)
    assert stack.intensities.shape == shape + (4096,) and stack.intensities.size > dsp._BLOCK
    if noise == 0.0:
        np.testing.assert_array_equal(stack.intensities, _intensity_with_fresh_arrays(0.3, etas[..., None], -1.2, phi),
                                      strict=True)
    for k, index in enumerate(np.ndindex(shape)):
        # row k of the flattened eta is the scan made on its own with seed + k
        single = polarimetry.polarimetric_sweep(0.3, etas[index], -1.2, 4096, noise, 40 + k)
        np.testing.assert_array_equal(stack.intensities[index], single.intensities, strict=True)


@pytest.mark.parametrize("seed", [[3, 4], 4.0, np.array([3, 4])], ids=["list", "float", "array"])
def test_a_stacked_sweep_refuses_a_non_integer_seed_before_drawing_a_row(seed, monkeypatch):
    # row k draws from seed + k, so a stack's seed is one integer, by su2._scalar's rule
    message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        polarimetry.add_scan_noise(np.full((67, 64), 0.5), 0.1, seed)
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: drawn.append(args))
    for etas in (np.linspace(0.0, 6.0, 67), np.zeros((3, 5)), np.array([0.5])):
        with pytest.raises(ValueError, match=message):
            polarimetry.polarimetric_sweep(0.3, etas, -1.2, 4096, 0.1, seed)
    assert drawn == []


def test_a_stacked_sweep_takes_a_0d_integer_seed_as_measure_phase_does():
    # a stack refused np.array(4), a seed one scan takes: its rows now draw from 4 + k
    etas = np.array([0.5, -0.7, 1.9])
    stack = polarimetry.polarimetric_sweep(0.3, etas, -1.2, 256, 0.1, np.array(4))
    want = polarimetry.polarimetric_sweep(0.3, etas, -1.2, 256, 0.1, 4)
    np.testing.assert_array_equal(stack.intensities, want.intensities, strict=True)
    for k, eta in enumerate(etas):
        single = polarimetry.polarimetric_sweep(0.3, eta, -1.2, 256, 0.1, np.array(4 + k))
        np.testing.assert_array_equal(stack.intensities[k], single.intensities, strict=True)
    # the first row is the scan measure_phase reads from seed 4, which a 0-d array gives it too
    one = polarimetry.polarimetric_sweep(0.3, 0.5, -1.2, 256, 0.1, 4)
    assert polarimetry.measure_phase(0.3, 0.5, -1.2, 256, 0.1, np.array(4)) == \
        polarimetry.extract_cos2_phase(*polarimetry.sweep_extrema(one))


def test_a_single_scan_sweep_takes_any_seed_numpy_does():
    sweep = polarimetry.polarimetric_sweep(0.3, 0.5, -1.2, 64, 0.1, [3, 4])
    clean = polarimetry.polarimetric_sweep(0.3, 0.5, -1.2, 64)
    np.testing.assert_array_equal(
        sweep.intensities, np.clip(clean.intensities + np.random.default_rng([3, 4]).normal(0.0, 0.1, 64), 0.0, 1.0),
        strict=True)


@pytest.mark.parametrize("sigma, error, message", [
    (np.inf, su2.NonFiniteInput, "^noise_sigma must be finite, got inf$"),
    (np.nan, su2.NonFiniteInput, "^noise_sigma must be finite, got nan$"),
    (-0.5, ValueError, "^noise_sigma must be nonnegative$"),
])
def test_scan_noise_refuses_a_non_finite_or_negative_sigma(sigma, error, message):
    # an infinite sigma would clip every sample to 0 or 1; NaN and negative ones
    # would run noise-free while the caller believes otherwise
    with pytest.raises(error, match=message):
        polarimetry.add_scan_noise(np.full(64, 0.5), sigma, 1)
    with pytest.raises(error, match=message):
        polarimetry.measure_phase(0.3, 0.5, -0.2, noise_sigma=sigma, seed=1)
    with pytest.raises(error, match=message):
        polarimetry.polarimetric_sweep(0.3, np.array([0.1, 0.5]), -0.2, 64, sigma, 1)


@pytest.mark.parametrize("sigma", [np.array([0.1, 0.2]), np.array([0.1]), [[0.1]]], ids=["two", "one", "nested"])
def test_scan_noise_refuses_a_sigma_that_is_not_a_scalar(sigma):
    # two sigmas failed inside numpy with an ambiguous truth value, and one in an array was taken as the scalar
    message = f"^noise_sigma must be a scalar, got an array of shape {re.escape(str(np.shape(sigma)))}$"
    for call in (lambda: polarimetry.add_scan_noise(np.full(64, 0.5), sigma, 1),
                 lambda: polarimetry.polarimetric_sweep(0.3, 0.5, -0.2, 64, sigma, 1),
                 lambda: polarimetry.measure_phase(0.3, 0.5, -0.2, 64, sigma, 1)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("seed", [0.0, 0.5, np.float64(4.0), 1 + 0j, np.array(0.5), np.array(4.0), np.array(1 + 0j)])
def test_a_single_scan_refuses_a_seed_that_is_one_number_but_not_an_integer(seed):
    # numpy's SeedSequence used to refuse it, unlabelled; a noise-free scan draws nothing and reads no seed
    message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    for call in (lambda: polarimetry.add_scan_noise(np.full(64, 0.5), 0.1, seed),
                 lambda: polarimetry.polarimetric_sweep(0.3, 0.5, -0.2, 64, 0.1, seed),
                 lambda: polarimetry.measure_phase(0.3, 0.5, -0.2, 64, 0.1, seed)):
        with pytest.raises(ValueError, match=message):
            call()
    assert polarimetry.add_scan_noise(np.full(64, 0.5), 0.0, seed).tobytes() == np.full(64, 0.5).tobytes()
    assert polarimetry.measure_phase(0.3, 0.5, -0.2, 64, 0.1, np.int64(4)) == \
        polarimetry.measure_phase(0.3, 0.5, -0.2, 64, 0.1, 4)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be non-negative, got -1"),
    (np.int64(-3), "seed must be non-negative, got -3"),
    (np.array(-2), "seed must be non-negative, got -2"),
    ([3, -1], "seed must be a sequence of non-negative integers, got [3, -1]"),
    ((-1,), "seed must be a sequence of non-negative integers, got (-1,)"),
    (np.array([3, -1]), "seed must be a sequence of non-negative integers, got array([ 3, -1])"),
], ids=["int", "int64", "0-d", "list", "tuple", "array"])
def test_a_negative_seed_is_refused_by_name_before_any_draw(seed, message):
    # numpy refused it unlabelled: `expected non-negative integer`
    calls = [lambda: polarimetry.add_scan_noise(np.full(64, 0.5), 0.1, seed),
             lambda: polarimetry.polarimetric_sweep(0.3, 0.5, -0.2, 64, 0.1, seed),
             lambda: polarimetry.measure_phase(0.3, 0.5, -0.2, 64, 0.1, seed),
             lambda: fringes.generate(0.1, 0.2, 0.3, size=(32, 64), noise_sigma=0.1, seed=seed)]
    if isinstance(seed, (int, np.integer)):
        # a stack of scans, which takes an integer seed, draws row k from seed + k: row 1 of -1 would draw from 0
        calls.append(lambda: polarimetry.polarimetric_sweep(0.1, np.array([0.2, 0.3]), 0.3, 64, 0.1, seed))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_an_accepted_seed_keeps_its_draws():
    for seed in (0, 7, np.int64(2**63 - 1), 2**70, [0, 2**40]):
        want = np.clip(0.5 + np.random.default_rng(seed).normal(0.0, 0.1, 64), 0.0, 1.0)
        assert polarimetry.add_scan_noise(np.full(64, 0.5), 0.1, seed).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [[0.5], (3, 4.0), np.array([0.5]), [np.array(5)], [[1, 2], [0.5]]],
                         ids=["list", "tuple", "array", "0-d-entry", "nested"])
def test_a_sequence_seed_whose_entries_are_not_integers_is_refused_by_name(seed):
    # numpy's SeedSequence refused it, unlabelled: `seed must be integer` or `len() of unsized object`
    message = f"^seed must be an integer or a sequence of integers, got {re.escape(repr(seed))}$"
    for call in (lambda: polarimetry.add_scan_noise(np.full(64, 0.5), 0.1, seed),
                 lambda: polarimetry.polarimetric_sweep(0.3, 0.5, -0.2, 64, 0.1, seed),
                 lambda: polarimetry.measure_phase(0.3, 0.5, -0.2, 64, 0.1, seed),
                 lambda: fringes.generate(0.1, 0.2, 0.3, size=(32, 64), noise_sigma=0.1, seed=seed)):
        with pytest.raises(ValueError, match=message):
            call()
    # an integer sequence is still the entropy of one generator, drawing what numpy draws from it
    for entropy in ([3, 4], (3, 4), np.array([3, 4]), [[1, 2], [3]], []):
        want = np.clip(0.5 + np.random.default_rng(entropy).normal(0.0, 0.1, 64), 0.0, 1.0)
        assert polarimetry.add_scan_noise(np.full(64, 0.5), 0.1, entropy).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# extrema from the fitted second harmonic

@settings(deadline=None, max_examples=100)
@given(ANGLE, ANGLE, ANGLE, st.integers(64, 1024))
def test_noiseless_measure_phase_is_exact_to_rounding(xi, eta, zeta, n_grid):
    zyz = su2.to_zyz(su2.from_yzy(xi, eta, zeta))
    assume(np.cos(zyz.beta) ** 2 >= 0.01)
    assert abs(polarimetry.measure_phase(xi, eta, zeta, n_grid) - np.cos(zyz.delta) ** 2) < 1e-12


@pytest.mark.parametrize("phi_grid", [
    np.linspace(0.0, 0.7 * np.pi, 300),  # 0.7 of the law's period pi
    np.linspace(0.0, 2.3 * np.pi, 300),
    np.sort(np.random.default_rng(8).uniform(0.0, 2 * np.pi, 64)),
])
def test_sweep_extrema_on_partial_and_non_uniform_grids(phi_grid):
    xi, eta, zeta = 0.9, -1.4, 2.2
    zyz = su2.yzy_to_zyz(xi, eta, zeta)
    sweep = polarimetry.PolarimetricSweep(phi_grid, polarimetry.polarimetric_intensity(xi, eta, zeta, phi_grid),
                                          su2.YzyParams(xi, eta, zeta))
    i_min, i_max = polarimetry.sweep_extrema(sweep)
    assert abs(i_min - np.cos(zyz.beta) ** 2 * np.cos(zyz.delta) ** 2) < 1e-12
    assert abs(i_max - i_min - np.sin(zyz.beta) ** 2) < 1e-12


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.sampled_from("QH"), ANGLE), max_size=7))
def test_every_plate_array_scan_is_an_offset_plus_a_second_harmonic(array):
    # unit-determinant plates make <V|U(phi)|V> = a + b cos phi + c sin phi with
    # a real and b, c imaginary, so the scan has no first harmonic and the
    # k = 2 fit reads the extrema of any plate file's scan
    phis = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    scan = polarimetry.scan_plate_array([plates.WavePlate(k, a) for k, a in array], phis)
    _, first = dsp.harmonic_fit(scan, phis, 1)
    offset, second = dsp.harmonic_fit(scan, phis, 2)
    assert abs(first) < 1e-12
    np.testing.assert_allclose(scan, offset + second.real * np.cos(2 * phis) + second.imag * np.sin(2 * phis),
                               rtol=0, atol=1e-12)


def test_sweep_extrema_refuses_a_grid_without_the_second_harmonic():
    # phases 0 and pi/2 apart only: cos 2 phi takes two values, sin 2 phi none
    phi = np.tile([0.0, np.pi / 2], 40)
    sweep = polarimetry.PolarimetricSweep(phi, polarimetry.polarimetric_intensity(0.3, 0.2, 0.1, phi),
                                          su2.YzyParams(0.3, 0.2, 0.1))
    with pytest.raises(polarimetry.UnresolvableGrid):
        polarimetry.sweep_extrema(sweep)


# ---------------------------------------------------------------------------
# the one-scan path of measure_phase and sweep_extrema against the stack path

def outcome(f, *args):
    """repr of f's result, which is exact to the bit (-0.0 included), or its refusal's type and message."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


def stack_path_phase(*args):
    """measure_phase as a sweep, then its extrema, then the ratio."""
    return polarimetry.extract_cos2_phase(*polarimetry.sweep_extrema(polarimetry.polarimetric_sweep(*args)))


@settings(deadline=None, max_examples=60)
@given(ANGLE, ANGLE, ANGLE, st.sampled_from([64, 1000, 4096]), st.one_of(st.just(0.0), st.floats(1e-4, 0.3)),
       st.integers(0, 2**32), st.integers(0, 2))
def test_measure_phase_is_the_stack_path_bit_for_bit(xi, eta, zeta, n_grid, noise, seed, k):
    direct = outcome(polarimetry.measure_phase, xi, eta, zeta, n_grid, noise, seed + k)
    assert direct == outcome(stack_path_phase, xi, eta, zeta, n_grid, noise, seed + k)
    # and row k of a stack of scans seeded seed
    etas = np.array([0.4, -1.3, 2.2])
    etas[k] = eta
    i_min, i_max = polarimetry.sweep_extrema(polarimetry.polarimetric_sweep(xi, etas, zeta, n_grid, noise, seed))
    assert direct == outcome(polarimetry.extract_cos2_phase, float(i_min[k]), float(i_max[k]))


@pytest.mark.parametrize("n_grid", [np.int64(128), np.array(128), 70000])
def test_measure_phase_takes_the_grid_lengths_numpy_does(n_grid):
    # 0-d arrays and numpy integers as np.linspace takes them; a grid too long to keep is made on each call
    for noise, seed in ((0.0, None), (0.05, 9)):
        assert outcome(polarimetry.measure_phase, 0.7, -1.1, 0.4, n_grid, noise, seed) == \
            outcome(stack_path_phase, 0.7, -1.1, 0.4, n_grid, noise, seed)


@pytest.mark.parametrize("args, error, message", [
    ((np.nan, 0.2, 0.3), su2.NonFiniteInput, "xi must be finite, got nan"),
    ((0.1, np.nan, np.nan), su2.NonFiniteInput, "eta must be finite, got nan"),
    ((0.1, 0.2, 0.3, 4096, np.nan, 1), su2.NonFiniteInput, "noise_sigma must be finite, got nan"),
    ((0.1, 0.2, 0.3, 63), ValueError, "n_grid must be at least 64, got 63"),
    ((np.nan, 0.2, 0.3, 63, np.nan), ValueError, "n_grid must be at least 64, got 63"),
    ((0.1, 0.2, 0.3, 64.5), ValueError, "n_grid must be an integer, got 64.5"),
    # an array failed inside numpy with an ambiguous truth value or a TypeError, text with a bare comparison error
    ((0.1, 0.2, 0.3, np.array([64, 65])), ValueError, "n_grid must be an integer, got array([64, 65])"),
    ((0.1, 0.2, 0.3, np.array([128])), ValueError, "n_grid must be an integer, got array([128])"),
    ((0.1, 0.2, 0.3, [128]), ValueError, "n_grid must be an integer, got [128]"),
    ((0.1, 0.2, 0.3, "128"), ValueError, "n_grid must be an integer, got '128'"),
    ((0.1, 0.2, 0.3, b"128"), ValueError, "n_grid must be an integer, got b'128'"),
])
def test_measure_phase_refuses_as_the_stack_path_does(args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        polarimetry.measure_phase(*args)
    assert outcome(stack_path_phase, *args) == (error, message)


@pytest.mark.parametrize("name", ["xi", "eta", "zeta"])
@pytest.mark.parametrize("angle", [np.array([0.1, 0.2]), np.array([0.1]), [[0.3]]], ids=["two", "one", "nested"])
def test_measure_phase_refuses_an_angle_that_is_not_a_scalar(name, angle):
    angles = {"xi": 0.3, "eta": 0.5, "zeta": -0.2, name: angle}
    with pytest.raises(ValueError, match=f"^{name} must be a scalar angle, got an array of shape "
                                         f"{re.escape(str(np.shape(angle)))}$"):
        polarimetry.measure_phase(**angles)


def test_a_sweep_grid_is_the_callers_own():
    first = polarimetry.polarimetric_sweep(0.3, 1.1, -0.4, 256)
    first.phi_grid[:] = 0.0
    again = polarimetry.polarimetric_sweep(0.3, 1.1, -0.4, 256)
    np.testing.assert_array_equal(again.phi_grid, np.linspace(0.0, 2 * np.pi, 256, endpoint=False), strict=True)
    assert again.phi_grid.flags.writeable and not np.shares_memory(again.phi_grid, first.phi_grid)
    assert polarimetry.measure_phase(0.3, 1.1, -0.4, 256) == stack_path_phase(0.3, 1.1, -0.4, 256)


def test_the_grid_held_by_its_length_is_read_only_and_a_sweep_gets_a_writable_copy():
    phi, law, fit = polarimetry._scan_grid(320)
    assert not phi.flags.writeable and not law[0].flags.writeable and not fit[1].flags.writeable
    assert phi.tobytes() == np.linspace(0.0, 2 * np.pi, 320, endpoint=False).tobytes()
    assert polarimetry._scan_grid(np.int64(320))[0] is phi  # looked up by n, not built again
    with pytest.raises(ValueError, match="read-only"):
        phi[0] = 1.0
    noisy = [polarimetry.measure_phase(0.3, 1.1, -0.4, 320, noise, 7) for noise in (0.0, 0.05)]
    sweep = polarimetry.polarimetric_sweep(0.3, 1.1, -0.4, 320)
    assert sweep.phi_grid.flags.writeable and not np.shares_memory(sweep.phi_grid, phi)
    sweep.phi_grid[:] = np.nan
    assert [polarimetry.measure_phase(0.3, 1.1, -0.4, 320, noise, 7) for noise in (0.0, 0.05)] == noisy
    assert polarimetry._scan_grid(320)[0] is phi


def test_a_cached_grid_length_builds_no_grid(monkeypatch):
    polarimetry.measure_phase(0.3, 1.1, -0.4, 328, 0.01, 2)
    built = []
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: built.append(args))
    polarimetry.measure_phase(0.3, 1.1, -0.4, 328, 0.01, 2)
    polarimetry.polarimetric_sweep(0.3, np.array([1.1, 0.2]), -0.4, 328, 0.01, 2)
    assert built == []



# ---------------------------------------------------------------------------
# the noise draws: numpy's normal(0.0, sigma) draw, bit for bit

def normal_reference(clean, sigma, seed):
    """clean + default_rng(seed).normal(0.0, sigma, ...), clipped: one scan, or row k of a stack with seed + k."""
    rows = []
    for k, row in enumerate(np.atleast_2d(clean)):
        draws = np.random.default_rng(seed if clean.ndim == 1 else seed + k).normal(0.0, sigma, row.shape)
        rows.append(np.clip(row + draws, 0.0, 1.0))
    return np.stack(rows).reshape(clean.shape)


@pytest.mark.parametrize("seed", [0, 1, 17, 2**31 - 1, 123456789])
@pytest.mark.parametrize("sigma", [0.01, 0.3, 2.5])
def test_every_scan_noise_is_numpys_normal_draw_bit_for_bit(seed, sigma):
    phi = np.linspace(0.0, 2 * np.pi, 1000, endpoint=False)
    etas = np.linspace(-2.0, 2.0, 5)
    clean = polarimetry.polarimetric_intensity(0.4, etas[:, None], -1.3, phi)
    assert polarimetry.add_scan_noise(clean[1], sigma, seed).tobytes() == \
        normal_reference(clean[1], sigma, seed).tobytes()
    assert polarimetry.add_scan_noise(clean, sigma, seed).tobytes() == normal_reference(clean, sigma, seed).tobytes()
    sweep = polarimetry.polarimetric_sweep(0.4, etas, -1.3, 1000, sigma, seed)
    assert sweep.intensities.tobytes() == normal_reference(clean, sigma, seed).tobytes()
    one = polarimetry.PolarimetricSweep(phi, normal_reference(clean[3], sigma, seed), None)
    extrema = polarimetry.sweep_extrema(one)
    want = outcome(polarimetry.extract_cos2_phase, *extrema)
    # measure_phase writes the same scan into its own buffer and fits it
    assert outcome(polarimetry.measure_phase, 0.4, etas[3], -1.3, 1000, sigma, seed) == want


def test_a_negative_zero_intensity_meets_a_zero_draw_as_numpys_normal_made_it():
    # numpy's draw is 0.0 + sigma z: a draw that underflows to -0.0 is +0.0 there, and -0.0 + +0.0 is +0.0
    clean = np.full(256, -0.0)
    for seed in range(4):
        want = normal_reference(clean, 5e-324, seed)
        assert polarimetry.add_scan_noise(clean, 5e-324, seed).tobytes() == want.tobytes()
    assert np.signbit(clean).all()


@pytest.mark.parametrize("zero_d, number", [(np.array(5), 5), (np.array(np.int64(2**40)), 2**40),
                                            (np.array(np.uint8(7)), 7)])
def test_a_zero_dimensional_seed_is_the_number_it_holds(zero_d, number):
    # it failed inside numpy with `len() of unsized object`
    clean = np.full(64, 0.5)
    assert polarimetry.add_scan_noise(clean, 0.1, zero_d).tobytes() == \
        polarimetry.add_scan_noise(clean, 0.1, number).tobytes()
    assert polarimetry.polarimetric_sweep(0.3, 0.5, -0.2, 64, 0.1, zero_d).intensities.tobytes() == \
        polarimetry.polarimetric_sweep(0.3, 0.5, -0.2, 64, 0.1, number).intensities.tobytes()
    assert polarimetry.measure_phase(0.3, 0.5, -0.2, 64, 0.1, zero_d) == \
        polarimetry.measure_phase(0.3, 0.5, -0.2, 64, 0.1, number)



def clipped_extrema(intensities, phi):
    """sweep_extrema with np.clip, the stack path's clip, on a scan or a stack of scans."""
    offset, amplitude = dsp.harmonic_fit(intensities, phi, 2)
    swing = np.abs(amplitude)
    i_min, i_max = np.clip(offset - swing, 0.0, 1.0), np.clip(offset + swing, 0.0, 1.0)
    return (float(i_min), float(i_max)) if np.ndim(i_min) == 0 else (i_min, i_max)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([64, 1000]), st.floats(0.3, 0.7), st.floats(0.75, 3.0), ANGLE)
def test_one_scan_extrema_are_np_clip_on_saturated_scans(n_grid, offset, amplitude, shift):
    # offset -+ amplitude lie beyond [0, 1] at both ends, so both extrema are clipped
    phi = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    scans = np.stack([offset + amplitude * np.cos(2.0 * (phi - shift)), 1.0 - offset + amplitude * np.sin(2.0 * phi)])
    stacked = polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(phi, scans, None))
    for k, scan in enumerate(scans):
        got = polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(phi, scan, None))
        assert repr(got) == repr(clipped_extrema(scan, phi)) == repr((0.0, 1.0))
        assert got == (stacked[0][k], stacked[1][k])


@pytest.mark.parametrize("fill", [0.0, -0.0, 1.0, np.nan])
def test_one_scan_extrema_keep_np_clip_on_flat_and_not_a_number_scans(fill):
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    scan = np.full(64, fill)
    if np.isnan(fill):
        # harmonic_fit refuses a NaN scan; the extrema of a NaN fit are still np.clip's
        with pytest.raises(su2.NonFiniteInput, match="^values must be finite, got 64 of 64 values$"):
            polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(phi, scan, None))
        offset, amplitude = dsp._fit(scan, dsp._terms(phi, 2), 2)
        swing = np.abs(amplitude)
        want = tuple(float(np.clip(v, 0.0, 1.0)) for v in (offset - swing, offset + swing))
        assert np.isnan(offset) and repr(polarimetry._extrema(offset, amplitude)) == repr(want)
        return
    assert repr(polarimetry.sweep_extrema(polarimetry.PolarimetricSweep(phi, scan, None))) == \
        repr(clipped_extrema(scan, phi))
