"""Mach-Zehnder interferometer fed with two orthogonally polarized beams.

The light carries a polarization qubit {|V>, |H>} and a path qubit, and the
pass through the instrument is a beam splitter, the retarder array U in one
arm and the scanned phase phi in the other, folding mirrors and a second
beam splitter.  Because the two arms differ only by U and by phi, each exit
port depends on U through one number, the overlap w = <in|U|in> of the input
polarization with its image (Sjoqvist et al., PRL 85, 2845 (2000)):

    I = (1/2) [1 - Re(e^{-i phi} w)]        (fringe port)
    I = (1/2) [1 + Re(e^{-i phi} w)]        (complementary port)

With the symmetric beam-splitter convention (factor i on reflection) the
fringe port is the one that is dark at phi = 0 when no retarders are
present, and for unitary U the two ports sum to the input power.  For U
with z-y-z angles (beta, gamma, delta), w = cos(beta) e^{+i delta} for |V>
input and cos(beta) e^{-i delta} for |H> input: the fringe visibility is |w|
and the phase is arg w.  Feeding the top half of the beam through a vertical
polarizer and the bottom half through a horizontal one therefore shifts the
two half-fringes, each an offset plus a first harmonic of phi, by 2 delta
relative to each other: split_beam_shift reads it off their fitted phases.
visibility_yzy and visibility_plates read |w| off the operator composed from
its y-z-y angles or from its quarter-half-quarter plates.

The 4x4 two-qubit operator product this law comes from (basis
{|VX>, |VY>, |HX>, |HY>}, polarization index major) is kept in the test
suite as the reference the overlap law is checked against, and so are the
visibility's closed forms in the y-z-y and plate angles.
"""

from __future__ import annotations

import numpy as np

from .dsp import UnresolvableGrid, _fit, _terms  # UnresolvableGrid: the fit's refusal, raised from here too
from .plates import compose
from .su2 import _array, finite, from_yzy, wrap_angle

#: visibility below this is treated as zero (fringes flat, shift undefined)
EPS_VISIBILITY = 1e-6
#: largest accepted element of |u^dagger u - 1|
EPS_UNITARY = 1e-9

_INPUT_INDEX = {"V": 0, "H": 1}


class ZeroVisibility(ValueError):
    """Fringe visibility vanishes; the fringe shift is undefined."""


class NonUnitary(ValueError):
    """u is not unitary, so the overlap law does not give the port intensities."""


def output_intensity(input_pol: str, u: np.ndarray, phi, complementary: bool = False) -> "float | np.ndarray":
    """Detected intensity at the fringe port, summed over both polarizations.

    (1/2)[1 - Re(e^{-i phi} w)] with w = u[0, 0] for V input and u[1, 1] for
    H input, i.e. (1/2)[1 - cos(beta) cos(phi -+ delta)] in the z-y-z angles
    of u.  ``complementary=True`` returns the other exit port instead; the
    two ports sum to 1.  A (..., 2, 2) stack of u and an array of phi give
    intensities of shape u.shape[:-2] + phi.shape, each entry bit for bit
    the call with its own u; one u and a scalar phi give a float.  u must be
    unitary (the law uses |u |in>| = 1) and raises NonUnitary otherwise;
    NaN or infinite u or phi raise NonFiniteInput.
    """
    if input_pol not in _INPUT_INDEX:
        raise ValueError(f"input_pol must be 'V' or 'H', got {input_pol!r}")
    u, (cos_phi, sin_phi, _, _) = _checked(u), _terms(phi, 1, "phi")
    k = _INPUT_INDEX[input_pol]
    w = u[..., k, k].reshape(u.shape[:-2] + (1,) * cos_phi.ndim)
    intensity = _port(w, cos_phi, sin_phi, complementary)
    return float(intensity) if intensity.ndim == 0 else intensity


def _checked(u) -> np.ndarray:
    """u as a finite complex (..., 2, 2) stack of unitary matrices, or the refusal.

    The largest element of |u^dagger u - 1| is einsum's for a stack and, for one matrix [[a, b], [c, d]],
    the closed form max(||a|^2 + |c|^2 - 1|, ||b|^2 + |d|^2 - 1|, |conj(a) b + conj(c) d|) on Python
    complex numbers, which can differ from einsum's in the last bit: a refusal's digits, not its decision,
    except at a rounding boundary.
    """
    u = finite("u", u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"u must be a (2, 2) matrix or a (..., 2, 2) stack, got shape {u.shape}")
    if u.ndim == 2:
        (a, b), (c, d) = u.tolist()
        worst = max(abs(a.real * a.real + a.imag * a.imag + (c.real * c.real + c.imag * c.imag) - 1.0),
                    abs(b.real * b.real + b.imag * b.imag + (d.real * d.real + d.imag * d.imag) - 1.0),
                    abs(a.conjugate() * b + c.conjugate() * d))
    else:
        worst = np.abs(np.einsum("...ji,...jk->...ik", u.conj(), u) - np.eye(2)).max(initial=0.0)
    if worst > EPS_UNITARY:
        raise NonUnitary(f"u must be unitary: |u^dagger u - 1| reaches {worst:.3e}, above {EPS_UNITARY:g}")
    return u


def _port(w, cos_phi, sin_phi, complementary=False):
    """output_intensity of the overlaps w from the grid's harmonics."""
    fringe = w.real * cos_phi + w.imag * sin_phi  # Re(e^{-i phi} w)
    return 0.5 * (1.0 + fringe) if complementary else 0.5 * (1.0 - fringe)


def split_beam_shift(u: np.ndarray, phi_grid: np.ndarray) -> float:
    """Relative fringe shift 2*delta between the V-fed and H-fed halves.

    Evaluates both half-fringes over phi_grid, fits each with an offset and
    a first harmonic, and returns the difference of the fitted phases,
    arg amp_V - arg amp_H, in (-pi, pi].  Any grid the fit resolves will do,
    uniform or not, whole periods or not; one that cannot raises
    UnresolvableGrid.  A fitted visibility 2|amp_V| at or below
    EPS_VISIBILITY raises ZeroVisibility.

    The H-fed fringe is the V-fed fringe of u with both axes reversed, so the
    halves are output_intensity("V", ...) of the pair of u and its reversal,
    bit for bit, but each is evaluated on its own: u and the grid pass
    output_intensity's checks once, and a u it refuses gets the refusal of
    output_intensity("V", u, ...) (the reversal holds u's elements, so its
    checks decide as u's), each half is output_intensity's expression of its
    overlap u[0, 0] or u[1, 1], and one lookup of the grid's harmonics
    serves both halves and both fits.
    """
    u = _array("u", u, complex)
    if u.shape != (2, 2):
        raise ValueError(f"u must be a (2, 2) matrix, got shape {u.shape}")
    _checked(u)
    terms = _terms(phi_grid, 1, "phi", (2,) + np.shape(phi_grid))
    amp_v, amp_h = (_fit(_port(w, terms[0], terms[1]), terms, 1)[1] for w in (u[0, 0], u[1, 1]))
    visibility = 2.0 * abs(amp_v)
    if visibility <= EPS_VISIBILITY:
        raise ZeroVisibility(f"visibility {visibility:.3e} below {EPS_VISIBILITY:g}")
    return wrap_angle(np.angle(amp_v) - np.angle(amp_h))


def visibility_yzy(xi: float, eta: float, zeta: float) -> "float | np.ndarray":
    """Fringe visibility |<V|U|V>| = cos(beta) of U = from_yzy(xi, eta, zeta).

    Broadcasts over array angles; scalar angles give a float in [0, 1].
    """
    v = np.minimum(np.abs(from_yzy(xi, eta, zeta)[..., 0, 0]), 1.0)  # rounding can pass 1
    return float(v) if v.ndim == 0 else v


def visibility_plates(theta1: float, theta2: float, theta3: float) -> "float | np.ndarray":
    """Fringe visibility |<V|U|V>| of the array Q(theta1) H(theta2) Q(theta3).

    Same quantity as visibility_yzy for the array's own operator; theta1 is
    the first plate the light meets.  Broadcasts over array angles, composing
    the whole grid in one call; scalar angles give a float in [0, 1].
    """
    axes = np.broadcast_arrays(finite("theta1", theta1), finite("theta2", theta2), finite("theta3", theta3))
    v = np.minimum(np.abs(compose("QHQ", np.stack(axes, axis=-1))[..., 0, 0]), 1.0)
    return float(v) if v.ndim == 0 else v
