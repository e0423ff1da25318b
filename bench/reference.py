"""Independent reference values the correctness gate compares against.

Everything here is written from the element formulas of the paper's
conventions with plain numpy; nothing calls into polphase, so a bug shared by
the program and its own closed forms cannot hide behind the gate.
"""

from __future__ import annotations

import numpy as np


def wrap(angle):
    """Wrap to (-pi, pi]."""
    out = np.remainder(np.asarray(angle, dtype=float), 2.0 * np.pi)
    return np.where(out > np.pi, out - 2.0 * np.pi, out)


def su2_yzy(xi: float, eta: float, zeta: float) -> np.ndarray:
    """exp(-i xi sy/2) exp(+i eta sz/2) exp(-i zeta sy/2), element by element."""
    ca, sa = np.cos(xi / 2.0), np.sin(xi / 2.0)
    cc, sc = np.cos(zeta / 2.0), np.sin(zeta / 2.0)
    ep, em = np.exp(0.5j * eta), np.exp(-0.5j * eta)
    return np.array(
        [
            [ca * ep * cc - sa * em * sc, -ca * ep * sc - sa * em * cc],
            [sa * ep * cc + ca * em * sc, -sa * ep * sc + ca * em * cc],
        ]
    )


def two_delta(u: np.ndarray) -> float:
    """2*delta with delta = arg(u11), wrapped to (-pi, pi]."""
    return float(wrap(2.0 * np.angle(u[0, 0])))


def cos2_delta(u: np.ndarray) -> float:
    """cos^2(delta) = Re(u11)^2 / |u11|^2."""
    return float(u[0, 0].real ** 2 / abs(u[0, 0]) ** 2)


def scan_intensity(u: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rotating-array scan law cos^2(b)cos^2(d) + sin^2(b)cos^2(g + phi).

    With cos(b) e^{i d} = u11 and sin(b) e^{-i g} = u21 this is
    Re(u11)^2 + |u21|^2 cos^2(phi - arg u21).
    """
    return u[0, 0].real ** 2 + abs(u[1, 0]) ** 2 * np.cos(phis - np.angle(u[1, 0])) ** 2


def scan_extrema(u: np.ndarray) -> tuple[float, float]:
    """(I_min, I_max) of scan_intensity over a full turn."""
    i_min = float(u[0, 0].real ** 2)
    return i_min, i_min + float(abs(u[1, 0]) ** 2)
