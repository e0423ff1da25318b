"""Tests for the Mach-Zehnder overlap law and the visibility formulas.

The overlap law of interferometer.output_intensity is checked against the
two-qubit model it comes from: the full 4x4 operator product over the
polarization x path basis {|VX>, |VY>, |HX>, |HY>} (polarization index
major), kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polphase import interferometer as itf
from polphase import su2

RNG = np.random.default_rng(31415)
ANGLE = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)

KET_VX = np.array([1, 0, 0, 0], dtype=complex)
KET_VY = np.array([0, 1, 0, 0], dtype=complex)


# ---------------------------------------------------------------------------
# reference: the two-qubit (polarization x path) operator model

_PATH_X = np.diag([1.0, 0.0]).astype(complex)
_PATH_Y = np.diag([0.0, 1.0]).astype(complex)


def beam_splitter() -> np.ndarray:
    """Symmetric 50:50 beam splitter: transmit 1, reflect i, on either side."""
    bs = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
    return np.kron(su2.IDENTITY2, bs)


def mirror() -> np.ndarray:
    """Folding mirrors: swap the two paths with a -i reflection phase each."""
    m = np.array([[0.0, -1.0j], [-1.0j, 0.0]], dtype=complex)
    return np.kron(su2.IDENTITY2, m)


def phase_shifter(arm: str, phi: float) -> np.ndarray:
    """Phase e^{i phi} on the selected arm ('X' or 'Y')."""
    if arm == "X":
        p = np.diag([np.exp(1j * phi), 1.0])
    elif arm == "Y":
        p = np.diag([1.0, np.exp(1j * phi)])
    else:
        raise ValueError(f"arm must be 'X' or 'Y', got {arm!r}")
    return np.kron(su2.IDENTITY2, p.astype(complex))


def arm_unitary(u: np.ndarray, arm: str) -> np.ndarray:
    """Polarization transformation u applied in one arm, identity in the other."""
    u = np.asarray(u, dtype=complex)
    if arm == "X":
        return np.kron(u, _PATH_X) + np.kron(su2.IDENTITY2, _PATH_Y)
    if arm == "Y":
        return np.kron(u, _PATH_Y) + np.kron(su2.IDENTITY2, _PATH_X)
    raise ValueError(f"arm must be 'X' or 'Y', got {arm!r}")


def mach_zehnder(u: np.ndarray, phi: float, u_arm: str = "Y", phase_arm: str = "X") -> np.ndarray:
    """Total operator of the interferometer pass (retarders default to arm Y)."""
    return beam_splitter() @ mirror() @ phase_shifter(phase_arm, phi) @ arm_unitary(u, u_arm) @ beam_splitter()


def _input_ket(input_pol: str) -> np.ndarray:
    if input_pol not in ("V", "H"):
        raise ValueError(f"input_pol must be 'V' or 'H', got {input_pol!r}")
    return np.eye(4, dtype=complex)[0 if input_pol == "V" else 2]  # |VX> or |HX>


def reference_intensity(input_pol: str, u: np.ndarray, phi, complementary: bool = False) -> np.ndarray:
    """Port intensity from the full 4x4 product, one (u, phi) pair at a time,
    shaped like output_intensity's result."""
    u, phi = np.asarray(u, dtype=complex), np.asarray(phi, dtype=float)
    ports = (0, 2) if complementary else (1, 3)  # |VX>, |HX> or |VY>, |HY>
    out = np.empty(u.shape[:-2] + phi.shape)
    for i in np.ndindex(u.shape[:-2]):
        for j in np.ndindex(phi.shape):
            amplitudes = mach_zehnder(u[i], phi[j]) @ _input_ket(input_pol)
            out[i + j] = sum(abs(amplitudes[p]) ** 2 for p in ports)
    return out


def random_su2():
    return su2.from_yzy(*RNG.uniform(-2 * np.pi, 2 * np.pi, 3))


def test_beam_splitter_twice_is_i_times_swap():
    # direct 4x4 product oracle: BS^2 sends |VX> to i |VY>
    bs2 = beam_splitter() @ beam_splitter()
    np.testing.assert_allclose(bs2 @ KET_VX, 1j * KET_VY, atol=1e-15)
    swap = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    np.testing.assert_allclose(bs2, 1j * swap, atol=1e-15)


def test_beam_splitter_splits_fifty_fifty():
    out = beam_splitter() @ KET_VX
    assert abs(out[0]) ** 2 == pytest.approx(0.5)
    assert abs(out[1]) ** 2 == pytest.approx(0.5)


def test_beam_splitter_leaves_polarization_alone():
    bs = beam_splitter()
    # no element couples V to H
    assert np.all(bs[:2, 2:] == 0) and np.all(bs[2:, :2] == 0)


def test_mirror_action():
    np.testing.assert_allclose(mirror() @ KET_VX, -1j * KET_VY, atol=1e-15)


def test_mirror_squared_is_minus_identity():
    m = mirror()
    np.testing.assert_allclose(m @ m, -np.eye(4), atol=1e-15)
    assert np.all(m[:2, 2:] == 0) and np.all(m[2:, :2] == 0)


def test_phase_shifter_zero_is_identity():
    np.testing.assert_allclose(phase_shifter("X", 0.0), np.eye(4))


def test_phase_shifter_pi_flips_x_only():
    p = phase_shifter("X", np.pi)
    state = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    out = p @ state
    np.testing.assert_allclose(out, [-0.5, 0.5, -0.5, 0.5], atol=1e-15)


def test_phase_shifter_composition_law():
    a, b = 0.7, -1.9
    np.testing.assert_allclose(
        phase_shifter("Y", a) @ phase_shifter("Y", b),
        phase_shifter("Y", a + b),
        atol=1e-15,
    )


def test_phase_shifter_bad_arm():
    with pytest.raises(ValueError):
        phase_shifter("Z", 0.0)


def test_arm_unitary_identity():
    np.testing.assert_allclose(arm_unitary(np.eye(2), "X"), np.eye(4))


def test_arm_unitary_acts_on_chosen_arm_only():
    u = random_su2()
    op = arm_unitary(u, "X")
    # Y amplitudes untouched
    np.testing.assert_allclose(op @ KET_VY, KET_VY, atol=1e-15)
    out = op @ KET_VX
    np.testing.assert_allclose(out[0::2], u @ np.array([1, 0]), atol=1e-15)


def test_arm_unitary_unitary():
    for _ in range(100):
        op = arm_unitary(random_su2(), "Y")
        np.testing.assert_allclose(op.conj().T @ op, np.eye(4), atol=su2.EPS_MAT)


def test_mach_zehnder_empty_instrument_is_identity():
    # closed form for U = 1, phi = 0, checked against the explicit product
    got = mach_zehnder(np.eye(2), 0.0)
    np.testing.assert_allclose(got, np.eye(4), atol=1e-15)
    product = beam_splitter() @ mirror() @ beam_splitter()
    np.testing.assert_allclose(got, product, atol=1e-15)


def test_mach_zehnder_unitary_and_power_conserving():
    for _ in range(500):
        u = random_su2()
        phi = RNG.uniform(-np.pi, np.pi)
        ut = mach_zehnder(u, phi)
        np.testing.assert_allclose(ut.conj().T @ ut, np.eye(4), atol=su2.EPS_MAT)
        total = itf.output_intensity("V", u, phi) + itf.output_intensity(
            "V", u, phi, complementary=True
        )
        assert abs(total - 1.0) < 1e-12


def test_mach_zehnder_arms_configurable():
    # retarders on arm X with the scan on arm Y give the same detector fringe
    for _ in range(50):
        u = random_su2()
        phi = RNG.uniform(-np.pi, np.pi)
        swapped = mach_zehnder(u, phi, u_arm="X", phase_arm="Y")
        np.testing.assert_allclose(
            swapped.conj().T @ swapped, np.eye(4), atol=su2.EPS_MAT
        )
        out = swapped @ KET_VX
        i_dark = abs(out[1]) ** 2 + abs(out[3]) ** 2
        assert abs(i_dark - itf.output_intensity("V", u, phi)) < 1e-12


def test_output_intensity_empty_instrument():
    phis = np.linspace(0, 2 * np.pi, 37)
    for phi in phis:
        assert itf.output_intensity("V", np.eye(2), phi) == pytest.approx(
            0.5 * (1 - np.cos(phi)), abs=1e-12
        )


def test_output_intensity_zyz_form():
    # I = (1/2)[1 - cos(beta) cos(phi - delta)] for V input, +delta for H
    for _ in range(300):
        u = random_su2()
        p = su2.to_zyz(u)
        phi = RNG.uniform(-2 * np.pi, 2 * np.pi)
        iv = itf.output_intensity("V", u, phi)
        ih = itf.output_intensity("H", u, phi)
        assert abs(iv - 0.5 * (1 - np.cos(p.beta) * np.cos(phi - p.delta))) < 1e-12
        assert abs(ih - 0.5 * (1 - np.cos(p.beta) * np.cos(phi + p.delta))) < 1e-12


def test_output_intensity_yzy_form():
    # same intensity written in the y-z-y angles
    for _ in range(300):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        phi = RNG.uniform(-2 * np.pi, 2 * np.pi)
        iv = itf.output_intensity("V", su2.from_yzy(xi, eta, zeta), phi)
        expected = 0.5 * (
            1
            - np.cos(eta / 2) * np.cos((xi + zeta) / 2) * np.cos(phi)
            - np.sin(eta / 2) * np.cos((xi - zeta) / 2) * np.sin(phi)
        )
        assert abs(iv - expected) < 1e-12


def test_half_fringes_shifted_by_two_delta():
    for _ in range(200):
        u = random_su2()
        p = su2.to_zyz(u)
        phi = RNG.uniform(-np.pi, np.pi)
        iv_shifted = itf.output_intensity("V", u, phi + 2 * p.delta)
        ih = itf.output_intensity("H", u, phi)
        assert abs(ih - iv_shifted) < 1e-12


@settings(deadline=None, max_examples=100)
@given(st.tuples(ANGLE, ANGLE, ANGLE), st.lists(ANGLE, min_size=1, max_size=16))
def test_h_fringe_is_the_v_fringe_shifted_by_two_delta(angles, phis):
    # I_H(phi) = I_V(phi + 2 delta), over arrays of phi
    u = su2.from_yzy(*angles)
    phi = np.array(phis)
    delta = su2.to_zyz(u).delta
    np.testing.assert_allclose(itf.output_intensity("H", u, phi),
                               itf.output_intensity("V", u, phi + 2 * delta), rtol=0, atol=1e-12)


def test_split_beam_shift_known_delta():
    u = su2.from_zyz(np.pi / 4, 0.3, 0.9)
    grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    got = itf.split_beam_shift(u, grid)
    assert abs(su2.wrap_angle(got - 1.8)) < 2 * np.pi / 4096


def test_split_beam_shift_identity_is_zero():
    grid = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    assert abs(itf.split_beam_shift(np.eye(2), grid)) < 1e-9


def test_split_beam_shift_random_recovery():
    grid = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    for _ in range(100):
        beta = RNG.uniform(0, np.pi / 3)
        delta = RNG.uniform(-np.pi, np.pi)
        u = su2.from_zyz(beta, RNG.uniform(-np.pi, np.pi), delta)
        got = itf.split_beam_shift(u, grid)
        assert abs(su2.wrap_angle(got - 2 * delta)) < 2 * np.pi / 1024


def test_split_beam_shift_zero_visibility():
    with pytest.raises(itf.ZeroVisibility):
        itf.split_beam_shift(
            su2.from_zyz(np.pi / 2, 0.1, 0.4),
            np.linspace(0, 2 * np.pi, 64, endpoint=False),
        )


def test_split_beam_shift_grid_validation():
    u = np.eye(2)
    with pytest.raises(ValueError):
        itf.split_beam_shift(u, np.linspace(0, 2 * np.pi, 8, endpoint=False))
    with pytest.raises(ValueError):
        itf.split_beam_shift(u, np.linspace(0, np.pi, 64, endpoint=False))
    with pytest.raises(ValueError):
        itf.split_beam_shift(u, np.sort(RNG.uniform(0, 2 * np.pi, 64)))


def test_visibility_yzy_special_cases():
    assert itf.visibility_yzy(0.0, 1.3, 0.0) == pytest.approx(1.0)
    assert itf.visibility_yzy(np.pi, 0.7, np.pi) == pytest.approx(1.0)


def test_visibility_yzy_matches_matrix_element():
    for _ in range(1000):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        u = su2.from_yzy(xi, eta, zeta)
        assert abs(itf.visibility_yzy(xi, eta, zeta) - abs(u[0, 0])) < 1e-12


def test_visibility_equals_numeric_contrast():
    # (I_max - I_min) / (I_max + I_min) from a dense sweep, quadratically
    # interpolated around the best samples
    phis = np.linspace(0, 2 * np.pi, 8192, endpoint=False)
    for _ in range(25):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        u = su2.from_yzy(xi, eta, zeta)
        intensity = itf.output_intensity("V", u, phis)

        def refined(idx, sign):
            ym = intensity[(idx - 1) % len(phis)]
            y0 = intensity[idx]
            yp = intensity[(idx + 1) % len(phis)]
            den = ym - 2 * y0 + yp
            off = 0.5 * (ym - yp) / den if den != 0 else 0.0
            return y0 - 0.25 * (ym - yp) * off

        i_max = refined(int(np.argmax(intensity)), +1)
        i_min = refined(int(np.argmin(intensity)), -1)
        contrast = (i_max - i_min) / (i_max + i_min)
        assert abs(itf.visibility_yzy(xi, eta, zeta) - contrast) < 1e-9


def test_visibility_plates_identity_array():
    assert itf.visibility_plates(np.pi / 4, -np.pi / 4, np.pi / 4) == pytest.approx(1.0)


def test_visibility_plates_matches_matrix_route():
    from polphase import plates

    for _ in range(1000):
        t1, t2, t3 = RNG.uniform(-np.pi, np.pi, 3)
        u = plates.compose(
            [plates.quarter_wave(t1), plates.half_wave(t2), plates.quarter_wave(t3)]
        )
        assert abs(itf.visibility_plates(t1, t2, t3) - abs(u[0, 0])) < 1e-12


def test_visibility_plates_theta2_slice_shape():
    # fixing theta1 and theta3 and sweeping theta2 keeps the closed form in
    # lockstep with the matrix route across the slice
    from polphase import plates

    t1, t3 = 0.3, -0.9
    for t2 in np.linspace(-np.pi, np.pi, 41):
        u = plates.compose(
            [plates.quarter_wave(t1), plates.half_wave(t2), plates.quarter_wave(t3)]
        )
        assert abs(itf.visibility_plates(t1, t2, t3) - abs(u[0, 0])) < 1e-12


@pytest.mark.parametrize("periods", [1.5, 2.3])
def test_split_beam_shift_refuses_partial_periods(periods):
    # a circular correlation over a partial period wraps it onto the start;
    # such grids used to return a silently wrong shift (off by radians)
    u = su2.from_yzy(0.9, 1.2, -0.4)
    grid = np.arange(1024) * (2 * np.pi * periods / 1024)
    with pytest.raises(itf.IncompletePeriod):
        itf.split_beam_shift(u, grid)


def test_split_beam_shift_exact_on_two_whole_periods():
    u = su2.from_yzy(0.9, 1.2, -0.4)
    expected = su2.wrap_angle(2 * su2.to_zyz(u).delta)
    got = itf.split_beam_shift(u, np.linspace(0, 4 * np.pi, 2048, endpoint=False))
    assert abs(su2.wrap_angle(got - expected)) < 1e-6


def test_intensity_sweep_broadcasts_over_operator_stacks():
    stack = np.array([random_su2() for _ in range(4)])
    phis = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    det, comp = (itf.output_intensity("V", stack, phis, complementary=c) for c in (False, True))
    assert det.shape == (4, 32)
    for k in range(4):
        d1, c1 = (itf.output_intensity("V", stack[k], phis, complementary=c) for c in (False, True))
        np.testing.assert_allclose(det[k], d1, atol=1e-14)
        np.testing.assert_allclose(comp[k], c1, atol=1e-14)


def test_visibility_formulas_broadcast():
    t = np.linspace(-1.0, 1.0, 7)
    np.testing.assert_allclose(
        itf.visibility_plates(t, 0.3, -t), [itf.visibility_plates(a, 0.3, -a) for a in t], atol=1e-15
    )
    np.testing.assert_allclose(
        itf.visibility_yzy(t, 0.3, -t), [itf.visibility_yzy(a, 0.3, -a) for a in t], atol=1e-15
    )


def test_visibility_formulas_refuse_non_finite_angles():
    with pytest.raises(su2.NonFiniteInput):
        itf.visibility_plates(np.nan, 0.0, 0.0)
    with pytest.raises(su2.NonFiniteInput):
        itf.visibility_yzy(0.0, np.array([0.0, np.inf]), 0.0)


# ---------------------------------------------------------------------------
# the overlap law against the 4x4 reference, and its input checks

PHIS = st.one_of(ANGLE, st.lists(ANGLE, min_size=0, max_size=12).map(np.array))


@st.composite
def su2_stacks(draw):
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    angles = draw(st.lists(st.tuples(ANGLE, ANGLE, ANGLE), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    xi, eta, zeta = np.array(angles, dtype=float).reshape(shape + (3,)).transpose(-1, *range(len(shape)))
    return su2.from_yzy(xi, eta, zeta)


@settings(deadline=None, max_examples=100)
@given(su2_stacks(), PHIS, st.sampled_from("VH"), st.booleans())
def test_overlap_law_matches_the_two_qubit_reference(u, phi, input_pol, complementary):
    got = itf.output_intensity(input_pol, u, phi, complementary=complementary)
    want = reference_intensity(input_pol, u, phi, complementary=complementary)
    assert np.shape(got) == want.shape == u.shape[:-2] + np.shape(phi)
    if want.ndim == 0:
        assert isinstance(got, float)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=50)
@given(su2_stacks(), PHIS, st.sampled_from("VH"), st.booleans())
def test_stacked_output_intensity_equals_single_calls_bit_for_bit(u, phi, input_pol, complementary):
    stack = np.asarray(itf.output_intensity(input_pol, u, phi, complementary=complementary))
    for index in np.ndindex(u.shape[:-2]):
        single = itf.output_intensity(input_pol, u[index], phi, complementary=complementary)
        np.testing.assert_array_equal(stack[index], single)


def test_output_intensity_names_a_non_finite_phi():
    with pytest.raises(su2.NonFiniteInput, match="^phi must be finite"):
        itf.output_intensity("V", np.eye(2), np.nan)
    with pytest.raises(su2.NonFiniteInput, match="^phi must be finite"):
        itf.output_intensity("H", np.eye(2), np.array([0.0, np.inf]))


def test_output_intensity_names_a_non_finite_matrix():
    u = np.eye(2, dtype=complex)
    u[1, 1] = np.nan
    with pytest.raises(su2.NonFiniteInput, match="^u must be finite"):
        itf.output_intensity("H", u, 0.3)


@pytest.mark.parametrize("shape", [(3, 3), (2,), (), (4, 2, 3)])
def test_output_intensity_names_the_expected_shape(shape):
    with pytest.raises(ValueError, match=r"\(\.\.\., 2, 2\)"):
        itf.output_intensity("V", np.ones(shape), np.linspace(0.0, 1.0, 4))


def test_output_intensity_refuses_an_unknown_input():
    with pytest.raises(ValueError, match="input_pol"):
        itf.output_intensity("D", np.eye(2), 0.0)
