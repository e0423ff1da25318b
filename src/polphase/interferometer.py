"""Two-qubit operator model of a Mach-Zehnder interferometer.

The light carries a polarization qubit {|V>, |H>} and a path ("which way")
qubit {|X>, |Y>}.  States live in the product basis, ordered

    {|VX>, |VY>, |HX>, |HY>}

(polarization index major).  Beam splitters, mirrors and phase shifters act
on the path factor only; a retarder array inserted in one arm acts on the
polarization factor of that arm alone.

The full pass through the instrument is

    U_T = U_BS  U_mirr  U_X(phi)  U_P^Y  U_BS

with the retarder array on arm Y and the scanned phase phi on arm X.  With
the symmetric beam-splitter convention used here (factor i on reflection),
the exit port whose fringe is

    I = (1/2) [1 - cos(beta) cos(phi - delta)]        (vertical input)

is the Y-labelled output: the port that is dark at phi = 0 when no retarders
are present.  The X-labelled output carries the complementary fringe, and the
two always sum to the input power.  Feeding the top half of the beam through
a vertical polarizer and the bottom half through a horizontal one shifts the
two half-fringes by 2 delta relative to each other, which is what
split_beam_shift recovers.
"""

from __future__ import annotations

import numpy as np

from .dsp import vertex
from .su2 import IDENTITY2, finite, to_zyz, wrap_angle

#: visibility below this is treated as zero (fringes flat, shift undefined)
EPS_VISIBILITY = 1e-6

_PATH_X = np.diag([1.0, 0.0]).astype(complex)
_PATH_Y = np.diag([0.0, 1.0]).astype(complex)


class ZeroVisibility(ValueError):
    """Fringe visibility vanishes; the fringe shift is undefined."""


class IncompletePeriod(ValueError):
    """The scan grid does not cover a whole number of fringe periods."""


def beam_splitter() -> np.ndarray:
    """Symmetric 50:50 beam splitter: transmit 1, reflect i, on either side."""
    bs = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)
    return np.kron(IDENTITY2, bs)


def mirror() -> np.ndarray:
    """Folding mirrors: swap the two paths with a -i reflection phase each."""
    m = np.array([[0.0, -1.0j], [-1.0j, 0.0]], dtype=complex)
    return np.kron(IDENTITY2, m)


def phase_shifter(arm: str, phi: float) -> np.ndarray:
    """Phase e^{i phi} on the selected arm ('X' or 'Y')."""
    if arm == "X":
        p = np.diag([np.exp(1j * phi), 1.0])
    elif arm == "Y":
        p = np.diag([1.0, np.exp(1j * phi)])
    else:
        raise ValueError(f"arm must be 'X' or 'Y', got {arm!r}")
    return np.kron(IDENTITY2, p.astype(complex))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron over the last two axes of a (..., 2, 2) stack and a 2x2 matrix
    out = a[..., :, None, :, None] * b[:, None, :]
    return out.reshape(a.shape[:-2] + (4, 4))


def arm_unitary(u: np.ndarray, arm: str) -> np.ndarray:
    """Polarization transformation u applied in one arm, identity in the other.

    ``u`` may be a (..., 2, 2) stack; the result is then a (..., 4, 4) stack.
    """
    u = np.asarray(u, dtype=complex)
    if arm == "X":
        return _kron(u, _PATH_X) + np.kron(IDENTITY2, _PATH_Y)
    if arm == "Y":
        return _kron(u, _PATH_Y) + np.kron(IDENTITY2, _PATH_X)
    raise ValueError(f"arm must be 'X' or 'Y', got {arm!r}")


def mach_zehnder(u: np.ndarray, phi: float, u_arm: str = "Y", phase_arm: str = "X") -> np.ndarray:
    """Total operator of the interferometer pass (retarders default to arm Y)."""
    return (
        beam_splitter()
        @ mirror()
        @ phase_shifter(phase_arm, phi)
        @ arm_unitary(u, u_arm)
        @ beam_splitter()
    )


def _input_ket(input_pol: str) -> np.ndarray:
    if input_pol not in ("V", "H"):
        raise ValueError(f"input_pol must be 'V' or 'H', got {input_pol!r}")
    return np.eye(4, dtype=complex)[0 if input_pol == "V" else 2]  # |VX> or |HX>


def output_intensity(input_pol: str, u: np.ndarray, phi, complementary: bool = False) -> "float | np.ndarray":
    """Detected intensity at the fringe port, summed over both polarizations.

    Equals (1/2)[1 - cos(beta) cos(phi -+ delta)] for V/H input, with
    (beta, delta) the z-y-z angles of u.  ``complementary=True`` returns the
    other exit port instead; the two ports sum to 1.  A (..., 2, 2) stack of
    u and an array of phi give intensities of shape u.shape[:-2] + phi.shape;
    one u and a scalar phi give a float.
    """
    # phi only multiplies the X components: the front and back sections are applied once
    v0 = arm_unitary(u, "Y") @ beam_splitter() @ _input_ket(input_pol)
    phi = np.asarray(phi, dtype=float)
    states = np.repeat(v0[..., None], phi.size, axis=-1)
    states[..., ::2, :] *= np.exp(1j * phi.ravel())  # |VX>, |HX>
    out = beam_splitter() @ mirror() @ states
    a, b = (0, 2) if complementary else (1, 3)  # |VX>, |HX> or |VY>, |HY>
    intensity = np.abs(out[..., a, :]) ** 2 + np.abs(out[..., b, :]) ** 2
    intensity = intensity.reshape(v0.shape[:-1] + phi.shape)
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
