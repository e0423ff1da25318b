"""Single-beam ("virtual interferometry") extraction of the Pancharatnam phase.

A beam prepared in |V>, split into the two circular components with a
relative phase phi (the split_frame operator), transformed by U, and finally
projected back on the prepared state produces the intensity

    I(phi) = cos^2(beta) cos^2(delta) + sin^2(beta) cos^2(gamma + phi)

with (beta, gamma, delta) the z-y-z angles of U.  Scanning phi and reading
off the extrema

    I_min = cos^2(beta) cos^2(delta)
    I_max = I_min + sin^2(beta)

gives the phase through

    cos^2(delta) = I_min / (1 - I_max + I_min),

no second beam required.  The whole optical chain compiles into the
five-plate array of plates.polarimetric_array, scanned by rotating the plates
together, and in the y-z-y angles the same intensity reads

    I = cos^2(eta/2) cos^2((xi+zeta)/2)
        + [cos(eta/2) sin((xi+zeta)/2) cos(phi)
           + sin(eta/2) sin((xi-zeta)/2) sin(phi)]^2 .
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dsp import circular_savitzky_golay, vertex
from .plates import WavePlate, compose
from .su2 import EPS_DEGENERATE, YzyParams, finite

_RATIO_SLACK = 1e-9


class DegenerateDenominator(ValueError):
    """1 - I_max + I_min vanishes (beta = pi/2); the phase is unreadable."""


class InvalidExtrema(ValueError):
    """The supplied extrema cannot come from a sweep of the intensity law."""


@dataclass
class PolarimetricSweep:
    """One full rotation scan, intensities over phi_grid for fixed angles, or a
    stack of such scans on leading axes (one per eta)."""

    phi_grid: np.ndarray
    intensities: np.ndarray
    params: YzyParams


def polarimetric_intensity(xi: float, eta: float, zeta: float, phi) -> "float | np.ndarray":
    """Transmitted intensity of the five-plate scan at rotation phase phi.

    Closed form in the y-z-y angles; agrees with
    |<V| compose(polarimetric_array(xi, eta, zeta, phi)) |V>|^2 to rounding.
    Accepts a scalar or an array of phi.
    """
    xi, eta, zeta, phi = finite("xi", xi), finite("eta", eta), finite("zeta", zeta), finite("phi", phi)
    ce, se = np.cos(eta / 2.0), np.sin(eta / 2.0)
    cs = np.cos((xi + zeta) / 2.0)
    swing = ce * np.sin((xi + zeta) / 2.0) * np.cos(phi) + se * np.sin((xi - zeta) / 2.0) * np.sin(phi)
    # squares as products: numpy squares a scalar with pow(), which can differ in the last bit
    out = ce * ce * (cs * cs) + swing * swing
    return float(out) if out.ndim == 0 else out


def intensity_xi_minus_pi(eta: float, zeta: float, phi) -> "float | np.ndarray":
    """Scan intensity of the three-plate xi = -pi reduction.

    I = cos^2(zeta/2) cos^2((eta - 2 phi)/2) + sin^2(zeta/2) cos^2(eta/2);
    identical to polarimetric_intensity(-pi, eta, zeta, phi).  Constant in
    phi at eta = 0, zeta = pi (the alignment configuration).
    """
    eta, zeta, phi = finite("eta", eta), finite("zeta", zeta), finite("phi", phi)
    cz, sz = np.cos(zeta / 2.0), np.sin(zeta / 2.0)
    ce, cs = np.cos(eta / 2.0), np.cos((eta - 2.0 * phi) / 2.0)
    out = cz * cz * (cs * cs) + sz * sz * (ce * ce)
    return float(out) if out.ndim == 0 else out


def extract_cos2_phase(i_min: float, i_max: float) -> float:
    """cos^2 of the Pancharatnam phase from the sweep extrema.

    Evaluates I_min / (1 - I_max + I_min), clamped into [0, 1] when it
    overshoots by no more than numerical slack.  Raises
    DegenerateDenominator at beta = pi/2 (the denominator is cos^2 beta) and
    InvalidExtrema when the inputs violate 0 <= I_min <= I_max <= 1 or the
    ratio is out of range by more than the slack.
    """
    if not (i_min >= -_RATIO_SLACK and i_min <= i_max + _RATIO_SLACK
            and i_max <= 1.0 + _RATIO_SLACK):
        raise InvalidExtrema(f"extrema ordering violated: i_min={i_min}, i_max={i_max}")
    denominator = 1.0 - i_max + i_min
    if denominator <= EPS_DEGENERATE:
        raise DegenerateDenominator(
            f"1 - I_max + I_min = {denominator:.3e}; phase contrast vanished"
        )
    ratio = i_min / denominator
    if not -_RATIO_SLACK <= ratio <= 1.0 + _RATIO_SLACK:
        raise InvalidExtrema(f"ratio {ratio} outside [0, 1] beyond slack")
    return float(np.clip(ratio, 0.0, 1.0))


def smoothing_window(n_grid: int, noise_sigma: float) -> int | None:
    """Savitzky-Golay window for a scan of n_grid points with noise sigma.

    About 1/32 of the grid, odd and at least 5; None (no smoothing) for a
    noise-free scan.
    """
    return max(5, (n_grid // 32) | 1) if noise_sigma > 0.0 else None


def add_scan_noise(intensity: np.ndarray, noise_sigma: float, seed=None) -> np.ndarray:
    """Additive Gaussian noise on scan intensities, clamped to [0, 1].

    Scans lie along the last axis.  A single scan draws from
    ``default_rng(seed)``, with any seed numpy accepts (a sequence is the
    entropy of one generator).  Row k of a stack of scans, leading axes
    flattened, draws from ``default_rng(seed + k)``, so the stack repeats the
    scans made one at a time with seeds seed, seed + 1, ...; a stack
    therefore needs an integer seed, or None.  A noise-free call
    (noise_sigma <= 0) returns the intensities unchanged.
    """
    intensity = np.asarray(intensity, dtype=float)
    if not noise_sigma > 0.0:
        return intensity
    stacked = intensity.ndim > 1
    if stacked and not (seed is None or isinstance(seed, (int, np.integer))):
        raise TypeError(f"a stack of scans draws row k from seed + k and needs an integer seed, got {seed!r}")
    noise = np.empty(intensity.shape)
    for k, row in enumerate(np.ndindex(intensity.shape[:-1])):
        row_seed = seed + k if stacked and seed is not None else seed
        noise[row] = np.random.default_rng(row_seed).normal(0.0, noise_sigma, intensity.shape[-1])
    return np.clip(intensity + noise, 0.0, 1.0)


def polarimetric_sweep(
    xi: float,
    eta,
    zeta: float,
    n_grid: int = 4096,
    noise_sigma: float = 0.0,
    seed=None,
) -> PolarimetricSweep:
    """Simulate one rotation scan over phi in [0, 2 pi), or one per eta.

    With an array ``eta`` the scans stack on its axes and share the phi
    grid; row k is bit for bit the scan of its own eta made with seed + k.
    Noise is additive Gaussian on the intensity, clamped to [0, 1], from
    explicitly seeded generators (add_scan_noise), so runs are reproducible.
    """
    if n_grid < 64:
        raise ValueError(f"n_grid must be at least 64, got {n_grid}")
    phi = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    # eta gets an axis in front of phi, so an array of eta stacks one scan per row
    intensity = polarimetric_intensity(xi, finite("eta", eta)[..., None], zeta, phi)
    intensity = add_scan_noise(intensity, noise_sigma, seed)
    return PolarimetricSweep(phi, intensity, YzyParams(xi, eta, zeta))


def scan_plate_array(plates: Sequence[WavePlate], phi_grid) -> np.ndarray:
    """Transmitted intensity of an arbitrary plate array under a common scan.

    Rotating every plate of the assembly together by phi/2 (each axis picks
    up -phi/2, matching the built-in five-plate construction) and projecting
    the output back on |V> gives the scan intensity |<V| U(phi) |V>|^2 at
    each grid point.  This is how a user-supplied plate file is simulated.

    Turning every axis by -phi/2 conjugates the composed matrix U0 of the
    array at phi = 0 by a real rotation, U(phi) = R(-phi/2) U0 R(phi/2), so

        <V| U(phi) |V> = a + b cos(phi) + c sin(phi),
        a = (u00 + u11)/2,  b = (u00 - u11)/2,  c = (u01 + u10)/2,

    and the scan needs one compose call, not one matrix per grid point.
    Returns an array of len(phi_grid) (one entry for a scalar); a NaN or
    infinite phi_grid raises NonFiniteInput.
    """
    phis = np.atleast_1d(finite("phi_grid", phi_grid))
    u = compose(plates)
    a, b, c = (u[0, 0] + u[1, 1]) / 2.0, (u[0, 0] - u[1, 1]) / 2.0, (u[0, 1] + u[1, 0]) / 2.0
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)
    re = a.real + b.real * cos_phi + c.real * sin_phi
    im = a.imag + b.imag * cos_phi + c.imag * sin_phi
    return re * re + im * im


def sweep_extrema(sweep: PolarimetricSweep, smooth_window: int | None = None):
    """(I_min, I_max) of a scan, quadratically interpolated around the best samples.

    Floats for a single scan; for a stack of scans, two arrays of its
    leading shape, each entry equal to the extrema of that scan on its own.
    """
    intensity = sweep.intensities
    if smooth_window is not None:
        intensity = circular_savitzky_golay(intensity, smooth_window)
    _, i_min = vertex(intensity, np.argmin(intensity, axis=-1))
    _, i_max = vertex(intensity, np.argmax(intensity, axis=-1))
    i_min, i_max = np.clip(i_min, 0.0, 1.0), np.clip(i_max, 0.0, 1.0)
    if intensity.ndim == 1:
        return float(i_min), float(i_max)
    return i_min, i_max


def measure_phase(
    xi: float,
    eta: float,
    zeta: float,
    n_grid: int = 4096,
    noise_sigma: float = 0.0,
    seed=None,
    smooth_window: int | None = None,
) -> float:
    """cos^2(Pancharatnam phase) measured from a simulated rotation scan.

    Sweeps phi over [0, 2 pi) on n_grid points, locates the intensity
    extrema and applies the extremum ratio.  For noisy scans the sweep is
    low-pass filtered first (smoothing_window, or ``smooth_window`` when
    given).  Equals cos^2(delta) of the underlying transformation up to grid
    resolution and noise.
    """
    sweep = polarimetric_sweep(xi, eta, zeta, n_grid, noise_sigma, seed)
    if smooth_window is None:
        smooth_window = smoothing_window(n_grid, noise_sigma)
    i_min, i_max = sweep_extrema(sweep, smooth_window)
    return extract_cos2_phase(i_min, i_max)
