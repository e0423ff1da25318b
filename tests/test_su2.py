"""Tests for the SU(2) construction/conversion layer."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from polphase import su2

RNG = np.random.default_rng(20240612)


def expm_yzy(xi, eta, zeta):
    """Independent oracle: build the operator with scipy's matrix exponential."""
    return (
        expm(-0.5j * xi * su2.PAULI_Y)
        @ expm(0.5j * eta * su2.PAULI_Z)
        @ expm(-0.5j * zeta * su2.PAULI_Y)
    )


def test_from_yzy_identity():
    np.testing.assert_allclose(su2.from_yzy(0.0, 0.0, 0.0), np.eye(2), atol=1e-15)


def test_from_yzy_pure_z_rotation():
    eta = 1.234
    expected = np.diag([np.exp(0.5j * eta), np.exp(-0.5j * eta)])
    np.testing.assert_allclose(su2.from_yzy(0.0, eta, 0.0), expected, atol=1e-15)


def test_from_yzy_quarter_angles_matches_exponential_oracle():
    # frozen value computed with the expm oracle: [[i, -1], [1, -i]] / sqrt(2)
    got = su2.from_yzy(np.pi / 2, np.pi / 2, np.pi / 2)
    frozen = np.array([[1j, -1.0], [1.0, -1j]]) / np.sqrt(2.0)
    np.testing.assert_allclose(got, frozen, atol=1e-15)
    np.testing.assert_allclose(got, expm_yzy(np.pi / 2, np.pi / 2, np.pi / 2), atol=1e-13)


def test_from_yzy_agrees_with_oracle_at_random_angles():
    for _ in range(100):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        np.testing.assert_allclose(
            su2.from_yzy(xi, eta, zeta), expm_yzy(xi, eta, zeta), atol=1e-13
        )


def test_from_yzy_unitary_unit_determinant():
    for _ in range(1000):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        u = su2.from_yzy(xi, eta, zeta)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=su2.EPS_MAT)
        assert abs(np.linalg.det(u) - 1.0) < su2.EPS_MAT


def test_from_zyz_beta_zero_is_diagonal():
    for gamma in (0.0, 0.4, -2.0):
        u = su2.from_zyz(0.0, gamma, 0.7)
        expected = np.diag([np.exp(0.7j), np.exp(-0.7j)])
        np.testing.assert_allclose(u, expected, atol=1e-15)


def test_from_zyz_beta_half_pi_is_off_diagonal():
    u = su2.from_zyz(np.pi / 2, 0.0, 0.3)
    assert abs(u[0, 0]) < 1e-15 and abs(u[1, 1]) < 1e-15
    assert abs(abs(u[0, 1]) - 1.0) < 1e-15


def test_from_zyz_m11_magnitude_is_cos_beta():
    for _ in range(50):
        beta = RNG.uniform(0.0, np.pi / 2)
        gamma, delta = RNG.uniform(-np.pi, np.pi, 2)
        u = su2.from_zyz(beta, gamma, delta)
        assert abs(abs(u[0, 0]) - np.cos(beta)) < 1e-14


def test_to_zyz_identity_flags_gamma():
    p = su2.to_zyz(np.eye(2))
    assert p.beta == 0.0
    assert p.delta == 0.0 and p.delta_defined
    assert not p.gamma_defined


def test_to_zyz_pure_phase():
    p = su2.to_zyz(np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)]))
    assert abs(p.beta) < 1e-15
    assert abs(p.delta - np.pi / 3) < 1e-15
    assert not p.gamma_defined


def test_to_zyz_round_trip():
    for _ in range(1000):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        u = su2.from_yzy(xi, eta, zeta)
        p = su2.to_zyz(u)
        assert 0.0 <= p.beta <= np.pi / 2
        np.testing.assert_allclose(
            su2.from_zyz(p.beta, p.gamma, p.delta), u, atol=su2.EPS_MAT
        )


def test_round_trip_named_example():
    u = su2.from_yzy(1.0, 0.7, -0.4)
    p = su2.to_zyz(u)
    np.testing.assert_allclose(su2.from_zyz(p.beta, p.gamma, p.delta), u, atol=su2.EPS_MAT)


def mod_pi_distance(a, b):
    d = abs(su2.wrap_angle(a - b))
    return min(d, np.pi - d)


def test_yzy_to_zyz_pure_z():
    p = su2.yzy_to_zyz(0.0, np.pi / 2, 0.0)
    assert abs(p.beta) < 1e-15
    assert abs(p.delta - np.pi / 4) < 1e-15


def test_yzy_to_zyz_zeta_zero_gives_half_eta():
    # with zeta = 0 the conversion collapses to delta = eta/2 (mod pi),
    # independent of xi; checked against the matrix route
    for xi in (-2.0, 0.0, 0.9, 2.5):
        for eta0 in (0.3, 1.1, -2.2):
            p = su2.yzy_to_zyz(xi, eta0, 0.0)
            if p.delta_defined:
                assert mod_pi_distance(p.delta, eta0 / 2.0) < 1e-12


def test_yzy_to_zyz_tan_relation():
    # tan(delta) = tan(eta/2) cos((xi-zeta)/2) / cos((xi+zeta)/2)
    checked = 0
    for _ in range(1000):
        xi, eta, zeta = RNG.uniform(-2 * np.pi, 2 * np.pi, 3)
        if abs(np.cos((xi + zeta) / 2.0)) <= 1e-6:
            continue
        p = su2.yzy_to_zyz(xi, eta, zeta)
        if p.beta >= np.pi / 2 - 1e-6:
            continue
        expected = np.tan(eta / 2.0) * np.cos((xi - zeta) / 2.0) / np.cos((xi + zeta) / 2.0)
        assert abs(np.tan(p.delta) - expected) < 1e-9 * max(1.0, abs(expected))
        checked += 1
    assert checked > 500


def test_yzy_to_zyz_mixed_angles_cross_check():
    xi, eta, zeta = np.pi, np.pi / 2, np.pi / 2
    p = su2.yzy_to_zyz(xi, eta, zeta)
    lhs = np.tan(p.delta)
    rhs = np.tan(eta / 2.0) * np.cos((xi - zeta) / 2.0) / np.cos((xi + zeta) / 2.0)
    assert abs(lhs - rhs) < 1e-9


def test_pancharatnam_phase_same_state_is_zero():
    state = np.array([0.6, 0.8j])
    assert su2.pancharatnam_phase(state, state) == 0.0


def test_pancharatnam_phase_equals_delta():
    for _ in range(300):
        beta = RNG.uniform(0.0, np.pi / 2 - 1e-3)
        gamma = RNG.uniform(-np.pi, np.pi)
        delta = RNG.uniform(-np.pi, np.pi)
        f = su2.apply(su2.from_zyz(beta, gamma, delta), su2.KET_V)
        assert abs(su2.pancharatnam_phase(su2.KET_V, f) - delta) < 1e-12


def test_pancharatnam_phase_orthogonal_raises():
    with pytest.raises(su2.OrthogonalStates):
        su2.pancharatnam_phase(su2.KET_V, su2.KET_H)


def test_apply_identity_and_sigma_x():
    s = np.array([0.3 + 0.1j, 0.2 - 0.5j])
    np.testing.assert_allclose(su2.apply(np.eye(2), s), s)
    np.testing.assert_allclose(su2.apply(su2.PAULI_X, su2.KET_V), su2.KET_H)


def test_apply_preserves_norm():
    for _ in range(200):
        u = su2.from_yzy(*RNG.uniform(-np.pi, np.pi, 3))
        s = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        s /= np.linalg.norm(s)
        assert abs(np.linalg.norm(su2.apply(u, s)) - 1.0) < su2.EPS_MAT


def test_anticommutation_phase_is_pi():
    assert abs(su2.anticommutation_phase() - np.pi) < 1e-12


def test_anticommutation_phase_symmetric_in_order():
    a = su2.apply(su2.PAULI_Y @ su2.PAULI_X, su2.KET_V)
    b = su2.apply(su2.PAULI_X @ su2.PAULI_Y, su2.KET_V)
    assert abs(abs(su2.pancharatnam_phase(a, b)) - np.pi) < 1e-12


def test_same_product_phase_is_zero():
    a = su2.apply(su2.PAULI_X @ su2.PAULI_X, su2.KET_V)
    assert su2.pancharatnam_phase(a, a) == 0.0


def test_wrap_angle_branch():
    assert su2.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert su2.wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert su2.wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert su2.wrap_angle(0.1 - 2 * np.pi) == pytest.approx(0.1)
    np.testing.assert_allclose(
        su2.wrap_angle(np.array([0.0, 2 * np.pi, -0.3])), [0.0, 0.0, -0.3], atol=1e-12
    )


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                 st.sampled_from([np.pi, -np.pi, 3 * np.pi, 2 * np.pi, -2 * np.pi, 0.0, -0.0, -1e-300])))
def test_wrap_angle_lands_in_the_half_open_branch(angle):
    wrapped = su2.wrap_angle(angle)
    assert -np.pi < wrapped <= np.pi
    if abs(angle) == np.pi:
        assert wrapped == np.pi
    # the same direction: a whole number of turns away
    assert abs(np.sin(wrapped) - np.sin(angle)) < 1e-9 and abs(np.cos(wrapped) - np.cos(angle)) < 1e-9
    np.testing.assert_array_equal(su2.wrap_angle(np.array([angle])), [wrapped])


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@settings(deadline=None, max_examples=1000)
@given(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.pi, -np.pi, 3 * np.pi, -3 * np.pi, 2 * np.pi,
                                                1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308])))
def test_a_float_wraps_to_the_bits_of_the_array_path(angle):
    # a finite float takes Python's float %, every other value the numpy path; both give
    # np.remainder + np.where's floats, the sign of a zero included
    with np.errstate(invalid="ignore"):  # inf wraps to NaN, with numpy's warning
        scalar = su2.wrap_angle(angle)
        array = su2.wrap_angle(np.array([angle]))[0]
        numpy_scalar = su2.wrap_angle(np.float64(angle))
    assert type(scalar) is float and type(numpy_scalar) is float
    assert _bits(scalar) == _bits(array) == _bits(numpy_scalar) or np.isnan(scalar) and np.isnan(array)


def test_a_non_finite_float_keeps_the_numpy_path():
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert np.isnan(su2.wrap_angle(float("inf")))
    assert np.isnan(su2.wrap_angle(float("nan")))


# ---------------------------------------------------------------------------
# broadcasting: a batched call equals the scalar call element by element

ANGLE = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
#: mixes in the exact angles where gamma or delta is undefined
ANGLE_OR_SPECIAL = st.one_of(st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi]), ANGLE)
TRIPLES = st.lists(st.tuples(ANGLE_OR_SPECIAL, ANGLE_OR_SPECIAL, ANGLE_OR_SPECIAL),
                   min_size=1, max_size=12)


@settings(deadline=None)
@given(TRIPLES)
def test_batched_from_yzy_matches_scalar_calls(rows):
    xi, eta, zeta = np.array(rows).T
    got = su2.from_yzy(xi, eta, zeta)
    assert got.shape == (len(rows), 2, 2)
    for k, row in enumerate(rows):
        np.testing.assert_allclose(got[k], su2.from_yzy(*row), rtol=0, atol=1e-12)


@settings(deadline=None)
@given(TRIPLES)
def test_batched_from_zyz_matches_scalar_calls(rows):
    beta, gamma, delta = np.array(rows).T
    got = su2.from_zyz(beta, gamma, delta)
    assert got.shape == (len(rows), 2, 2)
    for k, row in enumerate(rows):
        np.testing.assert_allclose(got[k], su2.from_zyz(*row), rtol=0, atol=1e-12)


@settings(deadline=None)
@given(TRIPLES)
def test_batched_to_zyz_matches_scalar_calls(rows):
    stack = np.array([su2.from_yzy(*row) for row in rows])
    got = su2.to_zyz(stack)
    assert got.beta.shape == (len(rows),)
    for k in range(len(rows)):
        one = su2.to_zyz(stack[k])
        assert got.gamma_defined[k] == one.gamma_defined
        assert got.delta_defined[k] == one.delta_defined
        for field in ("beta", "gamma", "delta"):
            assert abs(getattr(got, field)[k] - getattr(one, field)) <= 1e-12


@settings(deadline=None)
@given(TRIPLES)
def test_batched_yzy_to_zyz_matches_scalar_calls(rows):
    xi, eta, zeta = np.array(rows).T
    got = su2.yzy_to_zyz(xi, eta, zeta)
    for k, row in enumerate(rows):
        one = su2.yzy_to_zyz(*row)
        assert got.delta_defined[k] == one.delta_defined
        assert abs(got.delta[k] - one.delta) <= 1e-12
        assert abs(got.beta[k] - one.beta) <= 1e-12


def test_angles_broadcast_against_each_other():
    xi = np.array([0.1, 0.7, -2.0])[:, None]
    eta = np.array([0.3, 1.9])[None, :]
    got = su2.from_yzy(xi, eta, 0.4)
    assert got.shape == (3, 2, 2, 2)
    for i in range(3):
        for j in range(2):
            np.testing.assert_allclose(got[i, j], su2.from_yzy(xi[i, 0], eta[0, j], 0.4), atol=1e-12)
    assert su2.rot_y(np.zeros((4, 5))).shape == (4, 5, 2, 2)
    assert su2.rot_z(np.zeros(0)).shape == (0, 2, 2)


def test_scalar_calls_keep_their_types():
    assert su2.from_yzy(0.1, 0.2, 0.3).shape == (2, 2)
    assert su2.rot_y(0.5).shape == (2, 2) and su2.rot_z(0.5).shape == (2, 2)
    p = su2.yzy_to_zyz(0.1, 0.2, 0.3)
    assert all(type(v) is float for v in (p.beta, p.gamma, p.delta))
    assert type(p.gamma_defined) is bool and type(p.delta_defined) is bool


def test_to_zyz_rejects_wrong_shape():
    with pytest.raises(ValueError):
        su2.to_zyz(np.eye(3))


# ---------------------------------------------------------------------------
# non-finite inputs are refused, not reported as degeneracies

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angles_raise(bad):
    with pytest.raises(su2.NonFiniteInput):
        su2.yzy_to_zyz(bad, 0.0, 0.0)
    with pytest.raises(su2.NonFiniteInput):
        su2.from_yzy(0.0, bad, 0.0)
    with pytest.raises(su2.NonFiniteInput):
        su2.from_zyz(0.0, 0.0, bad)
    with pytest.raises(su2.NonFiniteInput):
        su2.from_yzy(np.array([0.0, bad]), 0.0, 0.0)


def test_non_finite_matrix_raises():
    u = np.eye(2, dtype=complex)
    u[1, 0] = np.nan
    with pytest.raises(su2.NonFiniteInput):
        su2.to_zyz(u)
    with pytest.raises(su2.NonFiniteInput):
        su2.to_zyz(np.stack([np.eye(2), u]))


@pytest.mark.parametrize("value, shown", [
    (float("nan"), "nan"), (np.float64(np.inf), "inf"), (np.float32(-np.inf), "-inf"),
    (np.array(np.nan), "nan"), (np.array([0.0, np.nan, np.inf]), "2 of 3 values"),
    # a one-element array shows its value, whatever its shape
    (np.array([np.nan]), "nan"), ([[-np.inf]], "-inf"), (np.full((1, 1, 1), np.inf), "inf"),
])
def test_finite_names_the_value_it_refuses(value, shown):
    with pytest.raises(su2.NonFiniteInput, match=f"^angle must be finite, got {shown}$"):
        su2.finite("angle", value)


@pytest.mark.parametrize("value", [0.25, -3, True, np.float64(1.5), np.float32(0.5), np.int64(7),
                                   np.array(2.0), [1.0, 2.0]])
def test_finite_returns_the_value_as_a_float_array(value):
    out = su2.finite("angle", value)
    assert isinstance(out, np.ndarray) and out.dtype == float
    np.testing.assert_array_equal(out, np.asarray(value, dtype=float))


@pytest.mark.parametrize("value, shown", [
    (0.3 + 0j, "(0.3+0j)"), (np.complex128(0.3 + 1j), "(0.3+1j)"), (np.array([0.3 + 0j]), "(0.3+0j)"),
    ([0.3, 1j], "2 complex values"), (np.zeros(3, dtype=np.complex64), "3 complex values"),
])
def test_a_complex_angle_is_refused_by_name(value, shown):
    # from_yzy(0.3 + 0j, ...) used to fail inside numpy with a TypeError, and a complex
    # array to lose its imaginary part with only a ComplexWarning
    with pytest.raises(su2.ComplexInput, match=f"^xi must be real, got {re.escape(shown)}$"):
        su2.from_yzy(value, 1.1, -0.7)
    with pytest.raises(su2.ComplexInput, match=f"^angle must be real, got {re.escape(shown)}$"):
        su2.finite("angle", value)
    assert issubclass(su2.ComplexInput, ValueError)


def test_a_complex_dtype_still_takes_complex_values():
    u = su2.from_yzy(0.3, 1.1, -0.7)
    np.testing.assert_array_equal(su2.finite("u", u, dtype=complex), u, strict=True)
    assert su2.to_zyz(u) == su2.to_zyz(u.tolist())
