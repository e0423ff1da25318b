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
present, and the two ports always sum to the input power.  For U with z-y-z
angles (beta, gamma, delta), w = cos(beta) e^{+i delta} for |V> input and
cos(beta) e^{-i delta} for |H> input: the fringe visibility is |w| and the
phase is arg w.  Feeding the top half of the beam through a vertical
polarizer and the bottom half through a horizontal one therefore shifts the
two half-fringes by 2 delta relative to each other, which is what
split_beam_shift recovers.

The 4x4 two-qubit operator product this law comes from (basis
{|VX>, |VY>, |HX>, |HY>}, polarization index major) is kept in the test
suite as the reference the overlap law is checked against.
"""

from __future__ import annotations

import numpy as np

from .dsp import vertex
from .su2 import finite, to_zyz, wrap_angle

#: visibility below this is treated as zero (fringes flat, shift undefined)
EPS_VISIBILITY = 1e-6

_INPUT_INDEX = {"V": 0, "H": 1}


class ZeroVisibility(ValueError):
    """Fringe visibility vanishes; the fringe shift is undefined."""


class IncompletePeriod(ValueError):
    """The scan grid does not cover a whole number of fringe periods."""


def output_intensity(input_pol: str, u: np.ndarray, phi, complementary: bool = False) -> "float | np.ndarray":
    """Detected intensity at the fringe port, summed over both polarizations.

    (1/2)[1 - Re(e^{-i phi} w)] with w = u[0, 0] for V input and u[1, 1] for
    H input, i.e. (1/2)[1 - cos(beta) cos(phi -+ delta)] in the z-y-z angles
    of u.  ``complementary=True`` returns the other exit port instead; the
    two ports sum to 1.  A (..., 2, 2) stack of u and an array of phi give
    intensities of shape u.shape[:-2] + phi.shape, each entry bit for bit
    the call with its own u; one u and a scalar phi give a float.  u must be
    unitary (the law uses |u |in>| = 1); NaN or infinite u or phi raise
    NonFiniteInput.
    """
    if input_pol not in _INPUT_INDEX:
        raise ValueError(f"input_pol must be 'V' or 'H', got {input_pol!r}")
    u = finite("u", u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"u must be a (2, 2) matrix or a (..., 2, 2) stack, got shape {u.shape}")
    phi = finite("phi", phi)
    k = _INPUT_INDEX[input_pol]
    w = u[..., k, k].reshape(u.shape[:-2] + (1,) * phi.ndim)
    fringe = w.real * np.cos(phi) + w.imag * np.sin(phi)  # Re(e^{-i phi} w)
    intensity = 0.5 * (1.0 + fringe) if complementary else 0.5 * (1.0 - fringe)
    return float(intensity) if intensity.ndim == 0 else intensity


def split_beam_shift(u: np.ndarray, phi_grid: np.ndarray) -> float:
    """Relative fringe shift 2*delta between the V-fed and H-fed halves.

    Sweeps the detector intensity for vertical and horizontal input over
    phi_grid, circularly cross-correlates the two curves, and interpolates
    the correlation peak quadratically.  Returns the shift in (-pi, pi].

    phi_grid must be uniform with at least 16 samples spanning a whole
    number of periods: n * step = 2 pi k for an integer k >= 1, as in
    linspace(0, 2 pi k, n, endpoint=False).  The circular correlation is
    exact only then; any other span wraps a partial period onto the start
    and biases the shift, so it raises IncompletePeriod.
    """
    phis = np.asarray(phi_grid, dtype=float)
    n = len(phis)
    if n < 16:
        raise ValueError(f"need at least 16 grid samples, got {n}")
    steps = np.diff(phis)
    if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-9):
        raise ValueError("phi_grid must be uniformly spaced")
    h = float(steps[0])
    periods = n * h / (2.0 * np.pi)
    whole = round(periods)
    if whole < 1 or abs(periods - whole) > 1e-9 * whole:
        raise IncompletePeriod(
            f"phi_grid spans {periods:.6g} periods (n * step / 2 pi); need a whole number >= 1"
        )

    visibility = np.cos(to_zyz(u).beta)
    if visibility <= EPS_VISIBILITY:
        raise ZeroVisibility(f"visibility {visibility:.3e} below {EPS_VISIBILITY:g}")

    i_v = output_intensity("V", u, phis)
    i_h = output_intensity("H", u, phis)
    corr = np.fft.irfft(np.conj(np.fft.rfft(i_h)) * np.fft.rfft(i_v), n)
    peak, _ = vertex(corr, np.argmax(corr))
    return wrap_angle(peak * h)


def visibility_yzy(xi: float, eta: float, zeta: float) -> float:
    """Fringe visibility in the y-z-y angles (scalars, or arrays elementwise).

    v^2 = (1/2)[1 + cos(xi) cos(zeta) - cos(eta) sin(xi) sin(zeta)], which
    equals cos(beta)^2 = |<V|U|V>|^2.
    """
    xi, eta, zeta = finite("xi", xi), finite("eta", eta), finite("zeta", zeta)
    v2 = 0.5 * (
        1.0
        + np.cos(xi) * np.cos(zeta)
        - np.cos(eta) * np.sin(xi) * np.sin(zeta)
    )
    return _visibility(v2)


def visibility_plates(theta1: float, theta2: float, theta3: float) -> float:
    """Fringe visibility in terms of the Q(theta1) H(theta2) Q(theta3) axes.

    Same quantity as visibility_yzy, written directly in the plate angles of
    the compiling quarter-half-quarter array (theta1 is the first plate the
    light meets).  Broadcasts over array angles like visibility_yzy.
    """
    theta1, theta2, theta3 = finite("theta1", theta1), finite("theta2", theta2), finite("theta3", theta3)
    v2 = 0.5 * (
        1.0
        + np.cos((3.0 * np.pi + 4.0 * theta3) / 2.0) * np.cos((np.pi - 4.0 * theta1) / 2.0)
        - np.cos(2.0 * theta1 - 4.0 * theta2 + 2.0 * theta3)
        * np.sin((3.0 * np.pi + 4.0 * theta3) / 2.0)
        * np.sin((np.pi - 4.0 * theta1) / 2.0)
    )
    return _visibility(v2)


def _visibility(v2):
    v = np.sqrt(np.clip(v2, 0.0, 1.0))
    return float(v) if np.ndim(v) == 0 else v
