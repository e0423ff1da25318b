"""SU(2) algebra for polarization transformations and the Pancharatnam phase.

Conventions used throughout the package:

* Jones vectors live in the basis {|V>, |H>}, with the vertical state as the
  FIRST component.  |V> plays the role of the spin-up state |+>_z and |H> the
  role of |->_z, so the usual Pauli matrices apply unchanged.
* Operators are unit-determinant (SU(2), not merely unitary): a retarder
  splits its retardance symmetrically between the two axes.
* All angles are radians.
* Everything broadcasts over leading axes: angles may be arrays of any
  mutually broadcastable shapes, matrices may be ``(..., 2, 2)`` stacks, and
  the result has the broadcast shape in front.  A call with scalar angles
  returns a single ``(2, 2)`` matrix, and to_zyz of a single matrix returns a
  ZyzParams of Python floats and bools.  NaN or infinite inputs raise
  NonFiniteInput.  Every operator is built from its element formulas, by
  ``matrix`` (by np.array for from_yzy of three floats); products of plate
  operators are formed by plates.compose.
* The scalar contract: ``finite``, the one check of a real input, gives one
  real number back as a Python float and an array (a 0-d one included) as a
  float array.  A one-matrix call therefore does its angle arithmetic on
  floats and numpy scalars (from_yzy on math and cmath), which give the bits
  of the same arithmetic on 0-d arrays at a fraction of its cost.  Its
  complex products are float x complex ones; a complex x complex product
  (plates.compose's fold) stays an array operation, since numpy's loop
  fuses multiply-adds that Python's complex product rounds apart.  One-element arrays give the same bits but for the sign of a zero,
  which numpy's scalar and array complex products can set apart.
* One parameter rule: a one-number parameter passes _scalar (a seed _seed).
  An integer is what operator.index takes, so a float is refused even when
  integral; a real is one finite real number.  Text, any array but a 0-d one,
  a complex number and None are refused by the parameter's name.  An array
  input passes _array, which refuses text (an array-like of text or objects
  too) by name before numpy can parse it.
* The canonical ZYZ branch puts beta in [0, pi/2], so cos(beta) >= 0 and the
  fringe visibility cos(beta) is nonnegative.  Any sign of cos(beta) is
  absorbed into delta, which is therefore defined modulo pi.

The two Euler factorizations are

    yzy:  U(xi, eta, zeta) = exp(-i xi sigma_y / 2) exp(+i eta sigma_z / 2)
                             exp(-i zeta sigma_y / 2)

    zyz:  U(beta, gamma, delta) = [[ e^{+i delta} cos(beta), -e^{+i gamma} sin(beta)],
                                   [ e^{-i gamma} sin(beta),  e^{-i delta} cos(beta)]]

and the Pancharatnam phase of |i> relative to |f> is arg<i|f>.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

# Tolerances: EPS_MAT for exact-algebra checks (double precision composition
# of at most ~10 matrices), EPS_DEGENERATE for detecting undefined angles.
EPS_MAT = 1e-12
EPS_DEGENERATE = 1e-9

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

#: |V> = |+>_z and |H> = |->_z
KET_V = np.array([1.0, 0.0], dtype=complex)
KET_H = np.array([0.0, 1.0], dtype=complex)


class OrthogonalStates(ValueError):
    """The two states are orthogonal; their relative phase is undefined."""


class NonFiniteInput(ValueError):
    """An angle or matrix element is NaN or infinite."""


class ComplexInput(ValueError):
    """A real angle, phase or value is complex; numpy would drop its imaginary part."""


@dataclass(frozen=True)
class YzyParams:
    """Euler angles (xi, eta, zeta) of the y-z-y factorization."""

    xi: float
    eta: float
    zeta: float


@dataclass(frozen=True)
class ZyzParams:
    """Euler angles (beta, gamma, delta) of the z-y-z factorization.

    beta is kept on the canonical branch [0, pi/2].  When the matrix element
    fixing gamma or delta vanishes, the corresponding angle is reported as 0
    and the matching ``*_defined`` flag is cleared instead of raising.  Read
    off a single matrix the fields are Python floats and bools; read off a
    ``(..., 2, 2)`` stack they are arrays of the stack's leading shape.
    """

    beta: float | np.ndarray
    gamma: float | np.ndarray
    delta: float | np.ndarray
    gamma_defined: bool | np.ndarray = True
    delta_defined: bool | np.ndarray = True


def wrap_angle(angle):
    """Wrap an angle (scalar or array) to (-pi, pi]; a non-finite scalar raises NonFiniteInput, an array keeps NaN
    and its float dtype.  Text, complex or object values are refused by name, as _array refuses them."""
    if isinstance(angle, float) and math.isfinite(angle):
        # a float's % is np.remainder's: fmod, moved to the sign of 2 pi, +0.0 for a zero
        wrapped = float(angle) % (2.0 * math.pi)
        return wrapped - 2.0 * math.pi if wrapped > math.pi else wrapped
    array = _numbers("angle", angle)  # text refused by name; an array keeps its dtype, float32 too, and NaN
    wrapped = np.remainder(array if array.ndim else finite("angle", angle), 2.0 * np.pi)
    out = np.where(wrapped > np.pi, wrapped - 2.0 * np.pi, wrapped)
    return out if out.ndim else float(out)


_REAL_SCALARS = (float, int, np.floating, np.integer)


def finite(name: str, value, dtype=float):
    """``value`` as a float or an array of ``dtype``; raises NonFiniteInput on NaN or infinity.

    The one finiteness check of the package: every broadcast constructor
    passes its inputs through here, so a NaN is refused at the boundary
    instead of surfacing later as a fake degeneracy.  One real number (a
    Python or numpy int or float, not an array) comes back as a Python float,
    the value np.asarray(value, dtype=float) holds, or for another dtype as a
    0-d array of it; anything else comes back as an array of ``dtype``.  A
    complex value for a real dtype raises ComplexInput, and text ValueError
    (see _array).
    """
    if isinstance(value, _REAL_SCALARS):
        # one math.isfinite call instead of three array operations
        if not math.isfinite(value):
            raise NonFiniteInput(f"{name} must be finite, got {float(value)}")
        return float(value) if dtype is float else np.asarray(value, dtype=dtype)
    array = _array(name, value, dtype)
    bad = ~np.isfinite(array)
    if bad.any():
        shown = array.item() if array.size == 1 else f"{int(bad.sum())} of {array.size} values"
        raise NonFiniteInput(f"{name} must be finite, got {shown}")
    return array


def _scalar(name: str, value, kind: str = "scalar"):
    """The one gate of a parameter that must be a single number, refused by name (ValueError).

    For kind "integer", operator.index(value) (an int, a numpy integer, a 0-d integer array), so a float
    is refused even when it is integral.  For any other kind, finite(name, value) as a Python float, a 0-d
    array's too, refused as finite refuses; text or an array of any other shape is not a ``kind``.
    """
    if kind == "integer":
        try:
            return operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if type(value) is float and math.isfinite(value):  # finite's float, without its checks
        return value
    if isinstance(value, (str, bytes)):  # numpy would parse "0.1"
        raise ValueError(f"{name} must be a {kind}, got {value!r}")
    value = finite(name, value)
    if type(value) is not float and value.ndim:
        raise ValueError(f"{name} must be a {kind}, got an array of shape {value.shape}")
    return float(value)


def _seed(seed):
    """A noise seed: None, a SeedSequence, a generator, or a list, tuple or non-0-d array that SeedSequence takes
    as entropy (else ValueError), as given; anything else as _scalar's integer, refused unless non-negative."""
    if isinstance(seed, (list, tuple)) or isinstance(seed, np.ndarray) and seed.ndim:
        try:
            np.random.SeedSequence(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer or a sequence of integers, got {seed!r}") from None
        except ValueError:  # numpy's "expected non-negative integer"
            raise ValueError(f"seed must be a sequence of non-negative integers, got {seed!r}") from None
    elif seed is not None and not isinstance(seed, (np.random.SeedSequence, np.random.BitGenerator,
                                                    np.random.Generator)):
        if (seed := _scalar("seed", seed, "integer")) < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _array(name: str, value, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``, numpy's conversion of its numbers.  Text, which numpy would parse
    ("0.1" as 0.1), is refused by name (ValueError): a str or bytes, or an array-like whose dtype is text or
    object.  A complex value for a real dtype raises ComplexInput instead of losing its imaginary part."""
    return np.asarray(_numbers(name, value, dtype), dtype=dtype)


def _numbers(name: str, value, dtype=float) -> np.ndarray:
    """np.asarray(value), in its own dtype, after _array's refusals for ``dtype``."""
    array = np.asarray(value)
    if array.dtype.kind in "OSU":
        shown = repr(value) if array.ndim == 0 else f"an array of dtype {array.dtype}"
        raise ValueError(f"{name} must be numbers, got {shown}")
    if array.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        shown = array.item() if array.size == 1 else f"{array.size} complex values"
        raise ComplexInput(f"{name} must be real, got {shown}")
    return array


def matrix(m11, m12, m21, m22) -> np.ndarray:
    """Stack four broadcastable element arrays into a ``(..., 2, 2)`` complex array."""
    out = np.empty(np.broadcast(m11, m12, m21, m22).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = m11
    out[..., 0, 1] = m12
    out[..., 1, 0] = m21
    out[..., 1, 1] = m22
    return out


def rot_y(angle) -> np.ndarray:
    """exp(-i angle sigma_y / 2), a real rotation in the {|V>,|H>} plane."""
    half = finite("angle", angle) / 2.0
    c, s = np.cos(half), np.sin(half)
    return matrix(c, -s, s, c)


def rot_z(angle) -> np.ndarray:
    """exp(+i angle sigma_z / 2) = diag(e^{i angle/2}, e^{-i angle/2})."""
    half = finite("angle", angle) / 2.0
    return matrix(np.exp(1j * half), 0.0, 0.0, np.exp(-1j * half))


def from_yzy(xi, eta, zeta) -> np.ndarray:
    """Build the SU(2) operator from its y-z-y Euler angles.

    The element formulas of rot_y(xi) rot_z(eta) rot_y(zeta), evaluated once
    over the broadcast shape of the three angles.  Three finite Python floats
    run on math and cmath, whose cos, sin and exp give numpy's floats for one
    number, and on Python's float x complex products: the bits of the numpy
    scalar arithmetic (the scalar contract) at a third of its cost.
    """
    # a NaN or infinite angle makes the sum so; finite angles whose sum overflows take the numpy path
    if type(xi) is float and type(eta) is float and type(zeta) is float and math.isfinite(xi + eta + zeta):
        ca, sa = math.cos(xi / 2.0), math.sin(xi / 2.0)
        cc, sc = math.cos(zeta / 2.0), math.sin(zeta / 2.0)
        ep = cmath.exp(0.5j * eta)
        em = ep.conjugate()
        return np.array([[ca * ep * cc - sa * em * sc, -ca * ep * sc - sa * em * cc],
                         [sa * ep * cc + ca * em * sc, -sa * ep * sc + ca * em * cc]])
    half_xi, half_zeta = finite("xi", xi) / 2.0, finite("zeta", zeta) / 2.0
    ca, sa = np.cos(half_xi), np.sin(half_xi)
    cc, sc = np.cos(half_zeta), np.sin(half_zeta)
    ep = np.exp(0.5j * finite("eta", eta))
    em = np.conj(ep)
    return matrix(
        ca * ep * cc - sa * em * sc,
        -ca * ep * sc - sa * em * cc,
        sa * ep * cc + ca * em * sc,
        -sa * ep * sc + ca * em * cc,
    )


def from_zyz(beta, gamma, delta) -> np.ndarray:
    """Build the SU(2) operator from its z-y-z Euler angles (explicit form)."""
    beta = finite("beta", beta)
    cb, sb = np.cos(beta), np.sin(beta)
    eg, ed = np.exp(1j * finite("gamma", gamma)), np.exp(1j * finite("delta", delta))
    return matrix(ed * cb, -eg * sb, np.conj(eg) * sb, np.conj(ed) * cb)


def to_zyz(u) -> ZyzParams:
    """Read the z-y-z Euler angles off an SU(2) matrix or a ``(..., 2, 2)`` stack.

    beta = arccos|u11| lies on [0, pi/2]; delta = arg(u11) and
    gamma = -arg(u21) wherever the corresponding element is nonzero.  Near
    beta = 0 the angle gamma is undefined (and near beta = pi/2, delta); the
    defined angles are still returned, with the degeneracy flagged.
    """
    u = finite("matrix element", u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"expected a (..., 2, 2) array, got shape {u.shape}")
    m11, m21 = u[..., 0, 0], u[..., 1, 0]
    a11, a21 = np.abs(m11), np.abs(m21)
    beta = np.arccos(np.minimum(a11, 1.0))
    delta_defined = a11 > EPS_DEGENERATE
    gamma_defined = a21 > EPS_DEGENERATE
    delta = np.where(delta_defined, np.angle(m11), 0.0)
    gamma = np.where(gamma_defined, -np.angle(m21), 0.0)
    if u.ndim == 2:
        return ZyzParams(float(beta), float(gamma), float(delta), bool(gamma_defined), bool(delta_defined))
    return ZyzParams(beta, gamma, delta, gamma_defined, delta_defined)


def yzy_to_zyz(xi, eta, zeta) -> ZyzParams:
    """Convert y-z-y angles to z-y-z angles, elementwise over broadcast arrays.

    Goes through the matrix rather than through trigonometric identities,
    which avoids quadrant and branch mistakes; the identity
    tan(delta) = tan(eta/2) cos((xi-zeta)/2) / cos((xi+zeta)/2) is kept as a
    test oracle only.
    """
    return to_zyz(from_yzy(xi, eta, zeta))


def apply(u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply an operator to a Jones vector; either given as text raises ValueError (see _array)."""
    return _array("u", u, complex) @ _array("state", state, complex)


def pancharatnam_phase(initial: np.ndarray, final: np.ndarray) -> float:
    """Pancharatnam's relative phase arg<i|f>, in (-pi, pi].

    Raises OrthogonalStates when |<i|f>| is below the degeneracy threshold,
    since the phase of a vanishing inner product carries no information.
    """
    ip = np.vdot(finite("initial", initial, dtype=complex), finite("final", final, dtype=complex))
    if abs(ip) <= EPS_DEGENERATE:
        raise OrthogonalStates(
            f"inner product magnitude {abs(ip):.3e} below {EPS_DEGENERATE:g}"
        )
    return float(np.angle(ip))


def anticommutation_phase() -> float:
    """Relative phase between (sigma_x sigma_y)|V> and (sigma_y sigma_x)|V>.

    The two products differ by a sign, so the phase is exactly pi.
    """
    a = apply(PAULI_X @ PAULI_Y, KET_V)
    b = apply(PAULI_Y @ PAULI_X, KET_V)
    return pancharatnam_phase(a, b)
