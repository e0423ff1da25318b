"""Single-beam ("virtual interferometry") extraction of the Pancharatnam phase.

A beam prepared in |V>, split into the two circular components with a
relative phase phi (the split_frame operator), transformed by U, and finally
projected back on the prepared state produces the intensity

    I(phi) = cos^2(beta) cos^2(delta) + sin^2(beta) cos^2(gamma + phi)

with (beta, gamma, delta) the z-y-z angles of U: an offset plus one second
harmonic, I = a + b cos(2 phi) + c sin(2 phi).  Its least-squares fit
(dsp.harmonic_fit, k = 2) gives the extrema on any grid, noisy or not,

    I_min = a - sqrt(b^2 + c^2) = cos^2(beta) cos^2(delta)
    I_max = a + sqrt(b^2 + c^2) = I_min + sin^2(beta)

and the phase through

    cos^2(delta) = I_min / (1 - I_max + I_min),

no second beam required.  The whole optical chain compiles into the
five-plate array of plates.polarimetric_array, scanned by rotating the plates
together, and in the y-z-y angles the same intensity reads

    I = cos^2(eta/2) cos^2((xi+zeta)/2)
        + [cos(eta/2) sin((xi+zeta)/2) cos(phi)
           + sin(eta/2) sin((xi-zeta)/2) sin(phi)]^2 .
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dsp import UnresolvableGrid, _fit, _row_blocks, _terms, harmonic_fit  # UnresolvableGrid: raised here too
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
    Accepts a scalar or an array of phi.  At xi = -pi it is the scan of the
    three-plate reduction (plates.reduced_array_xi_minus_pi), constant in phi
    at eta = 0, zeta = pi (the alignment configuration).
    """
    xi, eta, zeta = finite("xi", xi), finite("eta", eta), finite("zeta", zeta)
    swing = _scan_law(xi, eta, zeta, *_terms(phi, 1, "phi")[:2])
    return float(swing) if swing.ndim == 0 else swing


def _scan_law(xi, eta, zeta, cos_phi, sin_phi, out=None, add_noise=None, first=0):
    """polarimetric_intensity of checked angles (one scan, or a row per entry of an eta column) from the
    grid's harmonics, into out if given; then, if given, add_noise's draws from row first and the clip."""
    ce, se = np.cos(eta / 2.0), np.sin(eta / 2.0)
    cs = np.cos((xi + zeta) / 2.0)
    # swing is built and squared in place, in the closed form's order; the squares
    # are products: numpy squares a scalar with pow(), which can differ in the last bit
    swing = np.multiply(ce * np.sin((xi + zeta) / 2.0), cos_phi, out=out)
    swing += se * np.sin((xi - zeta) / 2.0) * sin_phi
    swing *= swing
    swing += ce * ce * (cs * cs)
    return swing if add_noise is None else add_noise(swing, first)


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
    # np.clip's result, -0.0 included: max keeps its first argument on a tie
    return float(min(max(ratio, 0.0), 1.0))


def add_scan_noise(intensity: np.ndarray, noise_sigma: float, seed=None) -> np.ndarray:
    """Additive Gaussian noise on scan intensities, clamped to [0, 1].

    Scans lie along the last axis.  A single scan draws from
    ``default_rng(seed)``, with any seed numpy accepts (a sequence is the
    entropy of one generator).  Row k of a stack of scans, leading axes
    flattened, draws from ``default_rng(seed + k)``, so the stack repeats the
    scans made one at a time with seeds seed, seed + 1, ...; a stack
    therefore needs an integer seed, or None.  A noise-free call
    (noise_sigma == 0) returns the intensities unchanged; a NaN or infinite
    noise_sigma raises NonFiniteInput, a negative one ValueError.
    """
    intensity = np.asarray(intensity, dtype=float)
    add_noise = _scan_noise(noise_sigma, seed, intensity.ndim > 1)
    return intensity if add_noise is None else add_noise(intensity.copy())


def _scan_noise(noise_sigma, seed, stacked: bool):
    """add_scan_noise's refusals, made before any draw.  None if noise-free, else a function that adds
    in place to C-contiguous scans (one, or a block's rows) their draws (row k at first + k) and clips."""
    if finite("noise_sigma", noise_sigma) < 0.0:
        raise ValueError("noise_sigma must be nonnegative")
    if noise_sigma == 0.0:
        return None
    if stacked and not (seed is None or isinstance(seed, (int, np.integer))):
        raise TypeError(f"a stack of scans draws row k from seed + k and needs an integer seed, got {seed!r}")

    def add_noise(scans: np.ndarray, first: int = 0) -> np.ndarray:
        for k, row in enumerate(scans.reshape(-1, scans.shape[-1]), first):
            row_seed = seed + k if stacked and seed is not None else seed
            row += np.random.default_rng(row_seed).normal(0.0, noise_sigma, len(row))
        return np.clip(scans, 0.0, 1.0, out=scans)
    return add_noise


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
    The returned phi_grid is a fresh array, the caller's own.
    """
    phi, law, _ = _scan_grid(n_grid)
    etas, x, z = finite("eta", eta), finite("xi", xi), finite("zeta", zeta)
    add_noise = _scan_noise(noise_sigma, seed, etas.ndim > 0)
    # one scan per eta, built in row blocks
    intensity = np.empty(etas.shape + phi.shape)
    scans, etas = intensity.reshape(-1, len(phi)), etas.reshape(-1, 1)
    for rows in _row_blocks(*scans.shape):
        _scan_law(x, etas[rows], z, *law[:2], scans[rows], add_noise, rows.start)
    return PolarimetricSweep(phi, intensity, YzyParams(xi, eta, zeta))


def _scan_grid(n_grid) -> tuple:
    """A fresh grid of n_grid >= 64 points over [0, 2 pi) and its terms for the law (k = 1) and the fit
    (k = 2), from dsp's grid cache; operator.index is np.linspace's own."""
    if n_grid < 64:
        raise ValueError(f"n_grid must be at least 64, got {n_grid}")
    phi = np.linspace(0.0, 2.0 * np.pi, operator.index(n_grid), endpoint=False)
    return phi, _terms(phi, 1), _terms(phi, 2)


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
    infinite phi_grid raises NonFiniteInput, a complex one ComplexInput.
    """
    cos_phi, sin_phi, _, _ = _terms(phi_grid, 1, "phi_grid")
    u = compose(plates)
    a, b, c = (u[0, 0] + u[1, 1]) / 2.0, (u[0, 0] - u[1, 1]) / 2.0, (u[0, 1] + u[1, 0]) / 2.0
    re = a.real + b.real * cos_phi + c.real * sin_phi
    im = a.imag + b.imag * cos_phi + c.imag * sin_phi
    return np.atleast_1d(re * re + im * im)


def sweep_extrema(sweep: PolarimetricSweep):
    """(I_min, I_max) of a scan, from its least-squares fit a + b cos 2phi + c sin 2phi.

    I_min, I_max = a -+ sqrt(b^2 + c^2), clipped to [0, 1]: floats for a scan, or
    for a stack two arrays of its leading shape, entry bit for bit the scan's own.
    One scan is clipped with Python's min and max, which give np.clip's floats at
    a fraction of its cost on scalars.
    """
    return _extrema(*harmonic_fit(sweep.intensities, sweep.phi_grid, 2))


def _extrema(offset, amplitude) -> tuple:
    """sweep_extrema of a fit's offset and amplitude; for one scan, max and min keep their first argument
    on a tie and so give np.clip's floats, -0.0 and NaN included."""
    swing = np.abs(amplitude)  # Python's abs(complex) can differ in the last bit
    if np.ndim(offset):
        return np.clip(offset - swing, 0.0, 1.0), np.clip(offset + swing, 0.0, 1.0)
    return tuple(min(max(float(v), 0.0), 1.0) for v in (offset - swing, offset + swing))


def measure_phase(
    xi: float,
    eta: float,
    zeta: float,
    n_grid: int = 4096,
    noise_sigma: float = 0.0,
    seed=None,
) -> float:
    """cos^2(Pancharatnam phase) measured from a simulated rotation scan.

    Sweeps phi over [0, 2 pi) on n_grid points, fits the scan law's offset
    and second harmonic (sweep_extrema) and applies the extremum ratio.
    Equals cos^2(delta) of the underlying transformation to rounding for a
    noise-free scan; noise enters only through the fitted coefficients.

    The result is bit for bit extract_cos2_phase(*sweep_extrema(polarimetric_sweep(...)))
    of the same arguments, and the refusals are polarimetric_sweep's, in its
    order; an angle that is not a scalar then raises ValueError.  The one scan
    takes a direct path: the grid's terms come from dsp's grid cache, and the
    law, one generator's draw and the clip are written into one buffer, which
    is fitted as it is.
    """
    phi, law, fit = _scan_grid(n_grid)
    angles = {"eta": finite("eta", eta), "xi": finite("xi", xi), "zeta": finite("zeta", zeta)}
    for name, angle in angles.items():
        if angle.ndim:
            raise ValueError(f"{name} must be a scalar angle, got an array of shape {angle.shape}")
    scan = _scan_law(angles["xi"], angles["eta"], angles["zeta"], *law[:2], np.empty(len(phi)),
                     _scan_noise(noise_sigma, seed, False))
    return extract_cos2_phase(*_extrema(*_fit(scan, fit, 2)))
