"""Jones matrices of wave-plate retarders and SU(2) gate compilation.

A retarder with its major axis at angle theta from the vertical is the
unit-determinant matrix

    R(theta) diag(e^{-i Gamma/2}, e^{+i Gamma/2}) R(-theta)

with Gamma = pi/2 for a quarter-wave plate Q and Gamma = pi for a half-wave
plate H, and R the real 2x2 rotation.  The symmetric e^{-+ i Gamma/2} split is
what makes plate products match SU(2) Euler products exactly, with no stray
global phase.

Plate arrays are stored in TRAVERSAL order: ``plates[0]`` is the first plate
the light meets, so composing multiplies the Jones matrices right-to-left.
A plate axis is a line, not a direction; axes are normalized modulo pi into
(-pi/2, pi/2], which leaves every Jones matrix unchanged.

Besides a list of WavePlates, jones and compose take a plate array as
``(kinds, axes)``: one kind letter per plate and an ``axes`` array of shape
``(..., n_plates)``.  The leading axes broadcast, so a whole stack of arrays
sharing their kinds (a rotation scan, a grid of plate angles) composes in one
call into a ``(..., 2, 2)`` stack of Jones matrices.  A list is the stack with
no leading axes: both go through compose's one fold, in which each plate
costs two ufunc calls whatever the stack's size.  numpy's matmul would run a
small-matrix loop per stacked pair, an order of magnitude slower on long
stacks, and the eight element products written out one by one would take
some thirty numpy operations per plate, which is what a single matrix costs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .su2 import IDENTITY2, _array, _scalar, finite, matrix, rot_z

QUARTER_RETARDANCE = np.pi / 2.0
HALF_RETARDANCE = np.pi
_RETARDANCE = {"Q": QUARTER_RETARDANCE, "H": HALF_RETARDANCE}

PlateKind = Literal["Q", "H"]


@dataclass(frozen=True)
class WavePlate:
    """A quarter- or half-wave plate with axis angle measured from vertical."""

    kind: PlateKind
    axis: float

    def __post_init__(self):
        if self.kind not in ("Q", "H"):
            raise ValueError(f"plate kind must be 'Q' or 'H', got {self.kind!r}")
        # canonical mounting angle: axes are pi-periodic; a float's % gives the floats of np.remainder
        axis = self.axis
        if type(axis) is not float or not math.isfinite(axis):  # su2._scalar's refusal, or its float
            axis = _scalar("plate axis", axis, "scalar angle")
        axis %= np.pi
        if axis > np.pi / 2.0:
            axis -= np.pi
        object.__setattr__(self, "axis", axis)


def quarter_wave(axis: float) -> WavePlate:
    return WavePlate("Q", axis)


def half_wave(axis: float) -> WavePlate:
    return WavePlate("H", axis)


def _retarder(retardance, axis) -> np.ndarray:
    """R(axis) diag(e^{-i Gamma/2}, e^{+i Gamma/2}) R(-axis), broadcast over both inputs.

    Multiplied out this is cos(Gamma/2) I - i sin(Gamma/2) M(2 axis), with
    M(t) = [[cos t, sin t], [sin t, -cos t]] the reflection about the axis.
    """
    return _rotated(_half_turn(retardance), finite("plate axis", axis))


def _half_turn(retardance) -> tuple:
    """cos(Gamma/2) and -i sin(Gamma/2) of retardances Gamma."""
    half = np.asarray(retardance, dtype=float) / 2.0
    return np.cos(half), -1j * np.sin(half)


@functools.lru_cache(maxsize=64)
def _kind_half_turns(kinds: tuple) -> tuple:
    """_half_turn of the retardances of a tuple of plate kinds, read-only, since it is shared."""
    terms = _half_turn(_retardances(kinds))
    for term in terms:
        term.flags.writeable = False
    return terms


def _rotated(half_turn: tuple, axis: np.ndarray) -> np.ndarray:
    """_retarder of a _half_turn and a checked axis."""
    cos_half, minus_i_sin_half = half_turn
    double = 2.0 * axis
    diagonal = minus_i_sin_half * np.cos(double)
    off_diagonal = minus_i_sin_half * np.sin(double)
    return matrix(cos_half + diagonal, off_diagonal, off_diagonal, cos_half - diagonal)


def _retardances(kinds) -> np.ndarray:
    try:
        return np.array([_RETARDANCE[kind] for kind in kinds], dtype=float)
    except KeyError as exc:
        raise ValueError(f"plate kind must be 'Q' or 'H', got {exc.args[0]!r}") from None


def jones(plate: WavePlate | str, axis=None) -> np.ndarray:
    """Jones matrix of a single plate (unit determinant).

    ``jones(plate)`` takes a WavePlate and returns a (2, 2) matrix;
    ``jones(kind, axis)`` takes a kind letter and an axis array and returns
    the (..., 2, 2) stack over the axis array's shape.
    """
    if axis is None:
        plate, axis = plate.kind, plate.axis
    return _retarder(_retardances([plate])[0], axis)


def compose(plates: Sequence[WavePlate] | Sequence[str], axes=None) -> np.ndarray:
    """Jones matrix of a plate array, applied in traversal order.

    ``compose(plates)`` takes a sequence of WavePlates and returns a (2, 2)
    matrix.  ``compose(kinds, axes)`` takes the kind letters of the plates
    (e.g. ``"QHQ"``) and an axis array of shape (..., n_plates), and returns
    the (..., 2, 2) stack.  Both go through one fold: every Jones matrix comes
    from one broadcast _retarder expression, laid out matrix indices first
    (its kind terms computed once per sequence of kinds, and the axes checked
    unless they are those of WavePlates, which checked them), and each
    plate then costs two ufunc calls over the whole stack, the eight element
    products ``m[i, j] * out[j, l]`` and the sums ``out[i, l] = p[i, 0, l] +
    p[i, 1, l]``, in the order of the 2x2 product's element formulas.  An
    empty array composes to the identity.
    """
    if axes is None:
        plates = list(plates)
        kinds, axes = [p.kind for p in plates], [p.axis for p in plates]
        checked = all(type(p) is WavePlate for p in plates)
    else:
        kinds, checked = list(plates), False
    axes = np.asarray(axes, dtype=float) if checked else _array("plate axis", axes)
    if axes.ndim == 0 or axes.shape[-1] != len(kinds):
        raise ValueError(f"axes of shape {axes.shape} do not match {len(kinds)} plate kinds")
    if not kinds:
        return np.broadcast_to(IDENTITY2, axes.shape[:-1] + (2, 2)).copy()
    lead = axes.ndim - 1
    # (..., n, 2, 2) -> (2, 2, n, ...) by a transpose, which costs less than np.moveaxis
    mats = _rotated(_kind_half_turns(tuple(kinds)), axes if checked else finite("plate axis", axes))
    mats = mats.transpose(lead + 1, lead + 2, lead, *range(lead))
    out = IDENTITY2.reshape((2, 2) + (1,) * lead)
    for k in range(len(kinds)):
        p = mats[:, :, None, k] * out[None]
        out = p[:, 0] + p[:, 1]
    return np.ascontiguousarray(out.transpose(*range(2, lead + 2), 0, 1))


def decompose_qhq(xi: float, eta: float, zeta: float) -> list[WavePlate]:
    """Compile U(xi, eta, zeta) into a quarter-half-quarter array.

    Rests on the plate/Euler identity

        Q(t3) H(t2) Q(t1) = exp(-i(t3 + 3pi/4) sigma_y)
                            exp(+i(t1 - 2 t2 + t3) sigma_z)
                            exp(+i(t1 - pi/4) sigma_y)

    which holds exactly in this retarder convention.  The returned array is in
    traversal order and composes to from_yzy(xi, eta, zeta) with no residual
    sign.
    """
    for name, angle in (("xi", xi), ("eta", eta), ("zeta", zeta)):
        _scalar(name, angle, "scalar angle")
    return [
        quarter_wave((np.pi - 2.0 * zeta) / 4.0),
        half_wave((xi - eta - zeta - np.pi) / 4.0),
        quarter_wave((-3.0 * np.pi + 2.0 * xi) / 4.0),
    ]


def simplify_qh(q: WavePlate, h: WavePlate) -> list[WavePlate]:
    """Swap a quarter-then-half pair: [Q(a), H(b)] -> [H(b), Q(2b - a)].

    Both lists are traversal order; the composed matrix is unchanged.
    """
    if q.kind != "Q" or h.kind != "H":
        raise ValueError("simplify_qh expects a quarter plate then a half plate")
    return [half_wave(h.axis), quarter_wave(2.0 * h.axis - q.axis)]


def merge_qhh(q: WavePlate, h1: WavePlate, h2: WavePlate) -> list[WavePlate]:
    """Collapse [Q(a), H(b), H(g)] into the two-plate equivalent.

    [Q(a), H(b), H(g)] -> [Q(a + pi/2), H(a - b + g - pi/2)], traversal order,
    with the composed matrix preserved exactly.
    """
    kinds = (q.kind, h1.kind, h2.kind)
    if kinds != ("Q", "H", "H"):
        raise ValueError(f"merge_qhh expects kinds ('Q','H','H'), got {kinds}")
    return [
        quarter_wave(q.axis + np.pi / 2.0),
        half_wave(q.axis - h1.axis + h2.axis - np.pi / 2.0),
    ]


def _minus_quarter_x() -> np.ndarray:
    """exp(-i pi sigma_x / 4), the action of Q(pi/4)."""
    return np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def split_frame(phi: float) -> np.ndarray:
    """The preparation operator exp(-i phi sigma_z/2) exp(-i pi sigma_x/4).

    Sends |V> to the equal superposition (e^{-i phi/2}|V> - i e^{+i phi/2}|H>)
    / sqrt(2): a fifty-fifty split of the two circular-basis components with a
    tunable relative phase phi, the single-beam analogue of an interferometer
    arm-length scan.
    """
    return rot_z(-phi) @ _minus_quarter_x()


def polarimetric_target(u: np.ndarray, phi: float) -> np.ndarray:
    """Frame-conjugated operator V(phi)^dagger U V(phi) with V = split_frame; a u given as text raises ValueError."""
    v = split_frame(_scalar("phi", phi, "scalar angle"))
    return v.conj().T @ _array("u", u, complex) @ v


def polarimetric_array(xi, eta, zeta, phi) -> list[WavePlate]:
    """Five-plate array realizing polarimetric_target(from_yzy(...), phi).

    All five axes carry the common offset -phi/2, so the whole assembly can be
    scanned by rotating every plate together by phi/2.  The composition equals
    the conjugated target exactly (no global sign; asserted by the test
    suite rather than assumed).
    """
    for name, angle in (("xi", xi), ("eta", eta), ("zeta", zeta), ("phi", phi)):
        _scalar(name, angle, "scalar angle")
    off = -phi / 2.0
    return [
        quarter_wave(-np.pi / 4.0 + off),
        half_wave(-(7.0 * np.pi + xi + eta - zeta) / 4.0 + off),
        quarter_wave(-(9.0 * np.pi + 2.0 * (xi + eta)) / 4.0 + off),
        quarter_wave(-(5.0 * np.pi + 2.0 * xi) / 4.0 + off),
        quarter_wave(-3.0 * np.pi / 4.0 + off),
    ]


def reduced_array_zeta_2pi(xi, eta, phi) -> list[WavePlate]:
    """Three-plate reduction of the five-plate array at zeta = 2 pi.

    Uses the rescanned rotation angle phi' = (-3 pi - 2 phi) / 4: composing
    this array at phi' equals composing polarimetric_array(xi, eta, 2 pi, phi).
    """
    for name, angle in (("xi", xi), ("eta", eta), ("phi", phi)):
        _scalar(name, angle, "scalar angle")
    return [
        half_wave((eta - xi) / 4.0 + phi),
        quarter_wave(-xi / 2.0 + phi),
        quarter_wave(phi),
    ]


def reduced_array_xi_minus_pi(eta, zeta, phi) -> list[WavePlate]:
    """Three-plate reduction of the five-plate array at xi = -pi.

    Shares the scan angle phi of the five-plate form directly (no
    redefinition).  At eta = 0, zeta = pi the transmitted intensity is
    constant in phi, which is the adjustment configuration.
    """
    for name, angle in (("eta", eta), ("zeta", zeta), ("phi", phi)):
        _scalar(name, angle, "scalar angle")
    return [
        quarter_wave((-np.pi - 2.0 * phi) / 4.0),
        half_wave((-4.0 * np.pi + zeta + eta - 2.0 * phi) / 4.0),
        quarter_wave((3.0 * np.pi + 2.0 * eta - 2.0 * phi) / 4.0),
    ]


def format_plate_array(plates: Iterable[WavePlate]) -> str:
    """Serialize plates to the plain-text format: one ``Q <rad>``/``H <rad>`` per line."""
    return "".join(f"{p.kind} {p.axis:.17g}\n" for p in plates)


def parse_plate_array(text: str) -> list[WavePlate]:
    """Parse the plain-text plate format produced by format_plate_array."""
    plates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("Q", "H"):
            raise ValueError(f"line {lineno}: expected 'Q <radians>' or 'H <radians>', got {raw!r}")
        plates.append(WavePlate(parts[0], float(parts[1])))
    return plates
