"""Tests for retarder Jones matrices, compilation and reduction identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from polphase import plates, su2
from polphase.plates import half_wave, quarter_wave

RNG = np.random.default_rng(987654)


def mod_pi_close(a, b, tol=1e-12):
    d = abs(su2.wrap_angle(a - b))
    return min(d, np.pi - d) < tol


def test_half_wave_squares_to_minus_identity():
    for theta in (-1.0, 0.0, 0.37, np.pi / 3):
        h = plates.jones(half_wave(theta))
        np.testing.assert_allclose(h @ h, -np.eye(2), atol=1e-15)


def test_quarter_squared_is_half():
    q = plates.jones(quarter_wave(np.pi / 4))
    np.testing.assert_allclose(q @ q, plates.jones(half_wave(np.pi / 4)), atol=1e-15)


def test_quarter_at_45_deg_is_x_rotation():
    expected = expm(-0.25j * np.pi * su2.PAULI_X)
    np.testing.assert_allclose(plates.jones(quarter_wave(np.pi / 4)), expected, atol=1e-14)


def test_jones_su2_properties():
    for _ in range(1000):
        kind = "Q" if RNG.integers(2) else "H"
        m = plates.jones(plates.WavePlate(kind, RNG.uniform(-4.0, 4.0)))
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=su2.EPS_MAT)
        assert abs(np.linalg.det(m) - 1.0) < su2.EPS_MAT


def test_axis_periodicity_and_normalization():
    plate = plates.WavePlate("Q", 5 * np.pi / 4)
    assert -np.pi / 2 < plate.axis <= np.pi / 2
    assert plate.axis == pytest.approx(np.pi / 4)
    np.testing.assert_allclose(
        plates.jones(plate), plates.jones(quarter_wave(np.pi / 4)), atol=1e-14
    )


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        plates.WavePlate("X", 0.0)


def test_compose_empty_is_identity():
    np.testing.assert_allclose(plates.compose([]), np.eye(2))


def test_compose_single_plate():
    p = half_wave(0.3)
    np.testing.assert_allclose(plates.compose([p]), plates.jones(p))


def test_compose_identity_array():
    array = [quarter_wave(np.pi / 4), half_wave(-np.pi / 4), quarter_wave(np.pi / 4)]
    np.testing.assert_allclose(plates.compose(array), np.eye(2), atol=1e-15)


def test_euler_plate_identity():
    # Q(t3) H(t2) Q(t1) against the exponential oracle, 100 random triples
    for _ in range(100):
        t1, t2, t3 = RNG.uniform(-np.pi, np.pi, 3)
        lhs = plates.compose([quarter_wave(t1), half_wave(t2), quarter_wave(t3)])
        rhs = (
            expm(-1j * (t3 + 3 * np.pi / 4) * su2.PAULI_Y)
            @ expm(1j * (t1 - 2 * t2 + t3) * su2.PAULI_Z)
            @ expm(1j * (t1 - np.pi / 4) * su2.PAULI_Y)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_decompose_identity_angles():
    array = plates.decompose_qhq(0.0, 0.0, 0.0)
    assert [p.kind for p in array] == ["Q", "H", "Q"]
    # raw compilation angles are (pi/4, -pi/4, -3pi/4); the third axis is the
    # same mounting line as pi/4
    for plate, raw in zip(array, (np.pi / 4, -np.pi / 4, -3 * np.pi / 4)):
        assert mod_pi_close(plate.axis, raw)
    # exact identity, not merely up to sign
    np.testing.assert_allclose(plates.compose(array), np.eye(2), atol=1e-14)


def test_decompose_round_trip_exact():
    # strict SU(2) equality: any residual global sign would be a convention bug
    for _ in range(1000):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        got = plates.compose(plates.decompose_qhq(xi, eta, zeta))
        np.testing.assert_allclose(got, su2.from_yzy(xi, eta, zeta), atol=su2.EPS_MAT)


def test_simplify_qh_swap_identity():
    for alpha, beta in [(0.3, -0.8), (0.0, 0.0), (1.2, 1.2)]:
        pair = [quarter_wave(alpha), half_wave(beta)]
        swapped = plates.simplify_qh(*pair)
        assert [p.kind for p in swapped] == ["H", "Q"]
        assert mod_pi_close(swapped[1].axis, 2 * beta - alpha)
        np.testing.assert_allclose(
            plates.compose(swapped), plates.compose(pair), atol=1e-14
        )


def test_simplify_qh_random():
    for _ in range(200):
        alpha, beta = RNG.uniform(-np.pi, np.pi, 2)
        pair = [quarter_wave(alpha), half_wave(beta)]
        np.testing.assert_allclose(
            plates.compose(plates.simplify_qh(*pair)), plates.compose(pair),
            atol=su2.EPS_MAT,
        )


def test_simplify_qh_kind_check():
    with pytest.raises(ValueError):
        plates.simplify_qh(half_wave(0.0), half_wave(0.0))


def test_merge_qhh_zero_angles():
    triple = [quarter_wave(0.0), half_wave(0.0), half_wave(0.0)]
    merged = plates.merge_qhh(*triple)
    assert [p.kind for p in merged] == ["Q", "H"]
    assert mod_pi_close(merged[0].axis, np.pi / 2)
    assert mod_pi_close(merged[1].axis, -np.pi / 2)
    np.testing.assert_allclose(plates.compose(merged), plates.compose(triple), atol=1e-14)


def test_merge_qhh_equal_half_axes_consistent_with_hh_minus_one():
    # H(b) H(b) = -1, so [Q(a), H(b), H(b)] composes to -Q(a); the merged
    # two-plate form must reproduce that same matrix
    for a, b in [(0.2, 0.9), (-1.1, 0.4)]:
        triple = [quarter_wave(a), half_wave(b), half_wave(b)]
        np.testing.assert_allclose(
            plates.compose(triple), -plates.jones(quarter_wave(a)), atol=1e-14
        )
        np.testing.assert_allclose(
            plates.compose(plates.merge_qhh(*triple)), plates.compose(triple), atol=1e-14
        )


def test_merge_qhh_random():
    for _ in range(200):
        a, b, g = RNG.uniform(-np.pi, np.pi, 3)
        triple = [quarter_wave(a), half_wave(b), half_wave(g)]
        np.testing.assert_allclose(
            plates.compose(plates.merge_qhh(*triple)), plates.compose(triple),
            atol=su2.EPS_MAT,
        )


def test_merge_qhh_kind_check():
    with pytest.raises(ValueError):
        plates.merge_qhh(quarter_wave(0.0), quarter_wave(0.0), half_wave(0.0))


def seven_plate_target(u, phi):
    """The frame-conjugation product built plate by plate (independent route)."""
    return (
        plates.jones(half_wave(-np.pi / 4))
        @ plates.jones(half_wave((phi + np.pi) / 4))
        @ plates.jones(quarter_wave(-np.pi / 4))
        @ u
        @ plates.jones(quarter_wave(np.pi / 4))
        @ plates.jones(half_wave((phi - np.pi) / 4))
        @ plates.jones(half_wave(np.pi / 4))
    )


def test_polarimetric_array_matches_conjugated_target_exactly():
    # Finding recorded here: the five-plate reduction equals V^dag U V
    # EXACTLY, with no residual global sign.
    for _ in range(500):
        xi, eta, zeta, phi = RNG.uniform(-2 * np.pi, 2 * np.pi, 4)
        u = su2.from_yzy(xi, eta, zeta)
        composed = plates.compose(plates.polarimetric_array(xi, eta, zeta, phi))
        np.testing.assert_allclose(composed, plates.polarimetric_target(u, phi), atol=1e-10)
        np.testing.assert_allclose(composed, seven_plate_target(u, phi), atol=1e-10)


def test_polarimetric_array_identity_params():
    composed = plates.compose(plates.polarimetric_array(0.0, 0.0, 0.0, 0.7))
    np.testing.assert_allclose(composed, np.eye(2), atol=1e-13)


def test_polarimetric_array_common_rotation():
    base = plates.polarimetric_array(1.0, -0.5, 2.0, 0.4)
    dphi = 0.62
    moved = plates.polarimetric_array(1.0, -0.5, 2.0, 0.4 + dphi)
    for p0, p1 in zip(base, moved):
        assert p0.kind == p1.kind
        assert mod_pi_close(p1.axis, p0.axis - dphi / 2.0)


def test_reduced_zeta_2pi_matches_full_array():
    # scan-angle redefinition: phi_reduced = (-3 pi - 2 phi_full) / 4
    for _ in range(100):
        xi, eta, phi_full = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        phi_reduced = (-3 * np.pi - 2 * phi_full) / 4.0
        got = plates.compose(plates.reduced_array_zeta_2pi(xi, eta, phi_reduced))
        want = plates.compose(plates.polarimetric_array(xi, eta, 2 * np.pi, phi_full))
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_reduced_zeta_2pi_zero_case():
    array = plates.reduced_array_zeta_2pi(0.0, 0.0, 0.0)
    assert [p.kind for p in array] == ["H", "Q", "Q"]
    for p in array:
        assert mod_pi_close(p.axis, 0.0)


def test_reduced_zeta_2pi_unitary():
    for _ in range(100):
        xi, eta, phi = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        m = plates.compose(plates.reduced_array_zeta_2pi(xi, eta, phi))
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=su2.EPS_MAT)
        assert abs(np.linalg.det(m) - 1.0) < su2.EPS_MAT


def test_reduced_xi_minus_pi_matches_full_array():
    # same scan angle as the five-plate form, no redefinition
    for _ in range(100):
        eta, zeta, phi = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        got = plates.compose(plates.reduced_array_xi_minus_pi(eta, zeta, phi))
        want = plates.compose(plates.polarimetric_array(-np.pi, eta, zeta, phi))
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_reduced_xi_minus_pi_axes_at_phi_zero():
    eta, zeta = 0.8, -1.3
    array = plates.reduced_array_xi_minus_pi(eta, zeta, 0.0)
    assert [p.kind for p in array] == ["Q", "H", "Q"]
    assert mod_pi_close(array[0].axis, -np.pi / 4)
    assert mod_pi_close(array[1].axis, (-4 * np.pi + zeta + eta) / 4.0)
    assert mod_pi_close(array[2].axis, (3 * np.pi + 2 * eta) / 4.0)


def test_reduced_xi_minus_pi_adjustment_case_constant():
    # eta = 0, zeta = pi: transmitted intensity independent of the scan angle
    values = []
    for phi in np.linspace(0.0, 2 * np.pi, 17):
        m = plates.compose(plates.reduced_array_xi_minus_pi(0.0, np.pi, phi))
        values.append(abs(m[0, 0]) ** 2)
    np.testing.assert_allclose(values, values[0], atol=1e-12)


def test_plate_serialization_round_trip():
    array = plates.decompose_qhq(1.1, -0.3, 2.7) + plates.polarimetric_array(
        0.5, 0.5, 0.5, 0.1
    )
    text = plates.format_plate_array(array)
    parsed = plates.parse_plate_array(text)
    assert len(parsed) == len(array)
    for a, b in zip(array, parsed):
        assert a.kind == b.kind
        assert a.axis == b.axis  # .17g round-trips doubles exactly


def test_plate_format_shape():
    text = plates.format_plate_array([quarter_wave(np.pi / 4)])
    kind, value = text.strip().split()
    assert kind == "Q"
    assert float(value) == pytest.approx(np.pi / 4)


def test_parse_plate_array_rejects_garbage():
    with pytest.raises(ValueError):
        plates.parse_plate_array("Q 0.5\nZ 1.0\n")
    with pytest.raises(ValueError):
        plates.parse_plate_array("Q\n")
    # comments and blank lines are fine
    assert plates.parse_plate_array("# comment\n\nH 0.25\n")[0].kind == "H"


# ---------------------------------------------------------------------------
# broadcasting: (kinds, axes) stacks equal the WavePlate calls element by element

AXIS = st.floats(-4.0, 4.0, allow_nan=False)


@settings(deadline=None)
@given(st.sampled_from("QH"), st.lists(AXIS, min_size=1, max_size=12))
def test_batched_jones_matches_scalar_calls(kind, axes):
    got = plates.jones(kind, np.array(axes))
    assert got.shape == (len(axes), 2, 2)
    for k, axis in enumerate(axes):
        np.testing.assert_allclose(got[k], plates.jones(plates.WavePlate(kind, axis)), rtol=0, atol=1e-12)


@settings(deadline=None)
@given(st.data())
def test_batched_compose_matches_scalar_calls(data):
    kinds = data.draw(st.lists(st.sampled_from("QH"), max_size=6))
    rows = data.draw(st.lists(st.lists(AXIS, min_size=len(kinds), max_size=len(kinds)),
                              min_size=1, max_size=8))
    got = plates.compose(kinds, np.array(rows).reshape(len(rows), len(kinds)))
    assert got.shape == (len(rows), 2, 2)
    for k, row in enumerate(rows):
        single = [plates.WavePlate(kind, axis) for kind, axis in zip(kinds, row)]
        np.testing.assert_allclose(got[k], plates.compose(single), rtol=0, atol=1e-12)


def test_compose_empty_stacks():
    assert plates.compose("QHQ", np.empty((0, 3))).shape == (0, 2, 2)
    np.testing.assert_array_equal(plates.compose("", np.empty((4, 0))), np.broadcast_to(np.eye(2), (4, 2, 2)))


def test_compose_rejects_mismatched_axes_and_kinds():
    with pytest.raises(ValueError):
        plates.compose("QH", np.zeros((5, 3)))
    with pytest.raises(ValueError):
        plates.compose("QX", np.zeros(2))


def test_non_finite_axes_raise():
    with pytest.raises(su2.NonFiniteInput):
        plates.WavePlate("Q", np.nan)
    with pytest.raises(su2.NonFiniteInput):
        plates.decompose_qhq(np.nan, 0.0, 0.0)
    with pytest.raises(su2.NonFiniteInput):
        plates.compose("QH", np.array([[0.0, np.inf]]))


@pytest.mark.parametrize("name", ["xi", "eta", "zeta"])
def test_non_finite_euler_angle_is_named(name):
    angles = {"xi": 0.3, "eta": 0.1, "zeta": -0.4, name: np.nan}
    with pytest.raises(su2.NonFiniteInput, match=f"^{name} must be finite"):
        plates.decompose_qhq(**angles)
    with pytest.raises(su2.NonFiniteInput, match=f"^{name} must be finite"):
        plates.polarimetric_array(**angles, phi=0.2)
    with pytest.raises(su2.NonFiniteInput, match="^phi must be finite"):
        plates.polarimetric_array(0.3, 0.1, -0.4, np.inf)


# ---------------------------------------------------------------------------
# the paper's plate identities, over Hypothesis-drawn angles

ANGLE = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)


@settings(deadline=None, max_examples=100)
@given(ANGLE, ANGLE, ANGLE)
def test_decompose_qhq_rests_on_the_plate_euler_identity(xi, eta, zeta):
    # Q(t3) H(t2) Q(t1) = exp(-i(t3 + 3pi/4) sy) exp(+i(t1 - 2 t2 + t3) sz) exp(+i(t1 - pi/4) sy)
    array = plates.decompose_qhq(xi, eta, zeta)
    t1, t2, t3 = (p.axis for p in array)
    euler = (
        expm(-1j * (t3 + 3 * np.pi / 4) * su2.PAULI_Y)
        @ expm(1j * (t1 - 2 * t2 + t3) * su2.PAULI_Z)
        @ expm(1j * (t1 - np.pi / 4) * su2.PAULI_Y)
    )
    composed = plates.compose(array)
    np.testing.assert_allclose(composed, euler, rtol=0, atol=1e-12)
    np.testing.assert_allclose(composed, su2.from_yzy(xi, eta, zeta), rtol=0, atol=su2.EPS_MAT)


@settings(deadline=None, max_examples=100)
@given(ANGLE, ANGLE)
def test_simplify_qh_preserves_the_composed_matrix(a, b):
    pair = [quarter_wave(a), half_wave(b)]
    np.testing.assert_allclose(plates.compose(plates.simplify_qh(*pair)), plates.compose(pair),
                               rtol=0, atol=su2.EPS_MAT)


@settings(deadline=None, max_examples=100)
@given(ANGLE, ANGLE, ANGLE)
def test_merge_qhh_preserves_the_composed_matrix(a, b, g):
    triple = [quarter_wave(a), half_wave(b), half_wave(g)]
    np.testing.assert_allclose(plates.compose(plates.merge_qhh(*triple)), plates.compose(triple),
                               rtol=0, atol=su2.EPS_MAT)


@settings(deadline=None, max_examples=100)
@given(ANGLE, ANGLE, ANGLE, ANGLE)
def test_five_plate_array_composes_to_the_conjugated_target(xi, eta, zeta, phi):
    composed = plates.compose(plates.polarimetric_array(xi, eta, zeta, phi))
    target = plates.polarimetric_target(su2.from_yzy(xi, eta, zeta), phi)
    np.testing.assert_allclose(composed, target, rtol=0, atol=su2.EPS_MAT)
