"""Synthetic dual-half interferograms and fringe-shift retrieval.

A dual-half interferogram is an intensity image whose upper half is recorded
with vertically polarized input and whose lower half with horizontally
polarized input.  Along each row the phase grows linearly with the column,
phi(x) = k0 x + phi0, so the two halves carry the fringes

    upper: (1/2) [1 - cos(beta) cos(k0 x + phi0 - delta)]
    lower: (1/2) [1 - cos(beta) cos(k0 x + phi0 + delta)]

mutually displaced by 2 delta / k0 pixels.  Because any drift of the
instrument moves both halves together, the relative shift is immune to it;
retrieving 2 delta is the whole game.  Each half is column-averaged, and
the carrier frequency k0 (between bins) is located on the raw upper profile.
Two estimators are provided:

* minima matching: smooth both profiles with a Savitzky-Golay filter
  (polphase.dsp; no other step smooths), locate the fringe minima to
  sub-pixel accuracy and compare their positions between the halves;
* spatial-carrier Fourier: read the phase of each raw half's Hann-windowed
  transform at k0 and difference them; the transform's magnitude over the
  windowed mean level also gives the fringe visibility.

Every step works on a stack of profiles, one row per evaluation region.
retrieve_phase stacks all regions of one width and runs each step once over
the stack; column_average, estimate_carrier, shift_by_minima,
shift_by_fourier and measure_visibility are the one-row calls of the same
code, and give bit for bit the numbers retrieve_phase gives each region.
Shifts are reported modulo 2 pi with the representative in (-pi, pi].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

# savgol_coefficients is not used here: it is imported so that code wrapping
# fringes.savgol_coefficients by name (the benchmark's tracer does) finds it
from .dsp import savgol_coefficients, savitzky_golay, vertex
from .su2 import finite, wrap_angle


class TooFewMinima(ValueError):
    """A profile does not contain enough interior extrema to work with."""


class AmbiguousPairing(ValueError):
    """Minima of the two profiles cannot be paired consistently."""


class NoCarrier(ValueError):
    """No dominant spatial carrier frequency stands out of the spectrum."""


#: peak-to-peak profile span below which fringes count as absent entirely
_FLAT_FLOOR = 1e-12

#: savitzky_golay's default window, with which the minima estimator smooths
_SG_WINDOW = 11

_NO_POWER = "no carrier power at the estimated frequency"


@dataclass(frozen=True)
class Region:
    """A rectangular pixel region, half-open index ranges [start, end)."""

    col_start: int
    col_end: int
    row_start: int
    row_end: int

    def __post_init__(self):
        if self.col_start >= self.col_end or self.row_start >= self.row_end:
            raise ValueError(f"empty region {self}")
        if min(self.col_start, self.row_start) < 0:
            raise ValueError(f"negative region bounds {self}")


@dataclass
class Interferogram:
    """Intensity grid split at ``half_split_row`` into the V and H halves.

    ``k0`` and ``true_delta`` are metadata: the carrier frequency when known
    and, for synthetic images, the phase the generator encoded.
    """

    pixels: np.ndarray
    half_split_row: int
    k0: float | None = None
    true_delta: float | None = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be a 2-d array")
        h, w = self.pixels.shape
        if h < 16 or w < 16:
            raise ValueError(f"image must be at least 16x16, got {h}x{w}")
        if not 0 < self.half_split_row < h:
            raise ValueError(f"half_split_row {self.half_split_row} outside (0, {h})")
        # NaN fails both comparisons; two reductions, no full-size boolean masks
        if not (self.pixels.min() >= 0.0 and self.pixels.max() < np.inf):
            raise ValueError("pixel intensities must be finite and nonnegative")

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


def generate(
    delta: float,
    beta: float,
    k0: float,
    size: tuple[int, int] = (480, 640),
    noise_sigma: float = 0.0,
    envelope_width: float | None = None,
    seed=0,
    phi0: float = 0.0,
    split_row: int | None = None,
) -> Interferogram:
    """Render a synthetic dual-half interferogram.

    size is (height, width).  k0 is the carrier in radians per pixel and must
    sit below Nyquist (0 < k0 < pi).  envelope_width, when given, multiplies
    the whole intensity by a round Gaussian beam profile of that standard
    deviation (in pixels) centred on the image.  Noise is additive Gaussian,
    clamped to [0, 1], drawn from a generator seeded with ``seed`` so that
    images are bit-reproducible.
    """
    h, w = size
    for name, value in (("delta", delta), ("beta", beta), ("phi0", phi0), ("noise_sigma", noise_sigma)):
        finite(name, value)
    if not 0.0 < k0 < np.pi:
        raise ValueError(f"k0 must lie in (0, pi), got {k0}")
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be nonnegative")
    split = h // 2 if split_row is None else int(split_row)
    if not 0 < split < h:
        raise ValueError(f"split_row {split} outside (0, {h})")

    x = np.arange(w, dtype=float)
    upper = 0.5 * (1.0 - np.cos(beta) * np.cos(k0 * x + phi0 - delta))
    lower = 0.5 * (1.0 - np.cos(beta) * np.cos(k0 * x + phi0 + delta))
    pixels = np.empty((h, w), dtype=float)
    pixels[:split] = upper
    pixels[split:] = lower

    if envelope_width is not None:
        if finite("envelope_width", envelope_width) <= 0:
            raise ValueError("envelope_width must be positive")
        dx = x - (w - 1) / 2.0
        dy = np.arange(h, dtype=float) - (h - 1) / 2.0
        r2 = dx * dx + (dy * dy)[:, None]
        r2 *= -0.5
        r2 /= envelope_width * envelope_width
        pixels *= np.exp(r2, out=r2)

    # in place: a fresh full-size array per step costs more in page faults than the arithmetic
    if noise_sigma > 0.0:
        pixels += np.random.default_rng(seed).normal(0.0, noise_sigma, pixels.shape)
    np.clip(pixels, 0.0, 1.0, out=pixels)
    return Interferogram(pixels, split, k0=k0, true_delta=delta)


def default_regions(img: Interferogram, count: int = 4, width_fraction: float = 0.6) -> list[Region]:
    """Evaluation regions stacked about the split row.

    All regions share the horizontally centred ``width_fraction`` of the
    columns; vertically they are bands of growing height centred on the
    half-split row, so every region straddles both halves.
    """
    h, w = img.shape
    c0 = int(round((1.0 - width_fraction) / 2.0 * w))
    c1 = w - c0
    reach = min(img.half_split_row, h - img.half_split_row)
    regions = []
    for k in range(1, count + 1):
        half_height = max(2, int(round(k / count * reach)))
        regions.append(Region(c0, c1, img.half_split_row - half_height,
                              img.half_split_row + half_height))
    return regions


def _half_rows(img: Interferogram, region: Region) -> tuple[tuple[int, int], tuple[int, int]]:
    """Row ranges of a region's parts in the upper and the lower half.

    Raises ValueError for a region that leaves the image or misses a half.
    """
    h, w = img.shape
    if region.col_end > w or region.row_end > h:
        raise ValueError(f"region {region} outside image {h}x{w}")
    split = img.half_split_row
    up_rows = (region.row_start, min(region.row_end, split))
    low_rows = (max(region.row_start, split), region.row_end)
    if up_rows[0] >= up_rows[1] or low_rows[0] >= low_rows[1]:
        raise ValueError(f"region {region} does not intersect both halves (split={split})")
    return up_rows, low_rows


def _column_averages(img: Interferogram, regions: Sequence[Region]) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower mean profiles of regions of one width, as two (R, n) stacks.

    Each row is its region's column sums over its row count, the bits of
    ``mean(axis=0)``.
    """
    n = regions[0].col_end - regions[0].col_start
    sums = np.empty((2, len(regions), n))
    counts = np.empty((2, len(regions), 1))
    for i, region in enumerate(regions):
        cols = slice(region.col_start, region.col_end)
        for half, (start, end) in enumerate(_half_rows(img, region)):
            img.pixels[start:end, cols].sum(axis=0, out=sums[half, i])
            counts[half, i] = end - start
    sums /= counts
    return sums[0], sums[1]


def column_average(img: Interferogram, region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Mean fringe profiles of the upper and lower halves within a region."""
    up, low = _column_averages(img, [region])
    return up[0], low[0]


# ---------------------------------------------------------------------------
# Shift estimators: each works on a stack of profiles, one row per region;
# the public functions are their one-row calls

@functools.lru_cache(maxsize=16)
def _periodic_hann(n: int) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    return window


def _peak_bins(mags: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, list]:
    """Dominant nonzero-frequency bin of each row of (R, m) magnitude spectra.

    Returns the bins and, for each row, the NoCarrier saying why no
    candidate stands out (None when one does): a flat profile, or a peak
    that is zero, sits below bin 2 or fails to exceed the low-frequency
    shoulder (leakage around the zero peak) by a factor of 2.
    """
    kbin = mags[:, 1:].argmax(axis=1) + 1
    peak = mags[np.arange(len(mags)), kbin]
    below = np.arange(mags.shape[1]) < np.maximum(kbin // 2, 2)[:, None]
    shoulder = np.where(below, mags, -np.inf)[:, 1:].max(axis=1)
    errors = [None] * len(mags)
    for r in np.flatnonzero(flat | ~(peak > 0) | (kbin < 2) | ~(peak >= 2.0 * shoulder)):
        errors[r] = _no_carrier(flat[r], peak[r], kbin[r], shoulder[r])
    return kbin, errors


def _no_carrier(flat, peak, kbin, shoulder) -> NoCarrier:
    """Why a row that _peak_bins refuses has no carrier."""
    if flat:
        return NoCarrier("profile is flat")
    if not peak > 0:
        return NoCarrier("profile is constant")
    if kbin < 2:
        return NoCarrier("spectrum peaks adjacent to zero frequency")
    return NoCarrier(
        f"peak at bin {kbin} ({peak:.3g}) does not dominate the "
        f"low-frequency shoulder ({shoulder:.3g}) by 2x"
    )


def _carriers(profiles: np.ndarray) -> tuple[np.ndarray, list]:
    """estimate_carrier of every row of an (R, n) stack.

    Returns the carriers, NaN where a row has none, and each row's NoCarrier
    (None where it has a carrier).  One transform covers the stack, and the
    Newton refinement runs on the rows that have not yet converged.
    """
    count, n = profiles.shape
    k = np.full(count, np.nan)
    if n < 8:
        return k, [NoCarrier(f"profile too short ({n} samples)") for _ in range(count)]
    windowed = (profiles - profiles.mean(axis=1, keepdims=True)) * _periodic_hann(n)
    mags = np.abs(np.fft.rfft(windowed))
    kbin, errors = _peak_bins(mags, np.ptp(profiles, axis=1) < _FLAT_FLOOR)
    rows = np.array([r for r, error in enumerate(errors) if error is None], dtype=int)
    if rows.size == 0:
        return k, errors
    kbin = kbin[rows]
    dk = 2.0 * np.pi / n
    lo = np.maximum(0.5 * dk, (kbin - 1.5) * dk)
    hi = np.minimum(np.pi - 1e-12, (kbin + 1.5) * dk)
    # three-bin vertex, never flat: argmax takes the first maximum, ym < y0 >= yp;
    # a peak in the last bin keeps its bin (its column 1 is a stand-in)
    inner = kbin + 1 < mags.shape[1]
    peak = np.where(inner, vertex(mags, (rows, np.where(inner, kbin, 1))), kbin)
    k[rows] = _refine_carriers(windowed[rows], np.minimum(np.maximum(peak * dk, lo), hi), lo, hi)
    return k, errors


def _refine_carriers(windowed: np.ndarray, k: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Newton steps toward the maximum of each row's transform power |X(k)|^2.

    A row leaves the iteration once its power stops bending down or its step
    falls below 1e-13; at most 8 steps.
    """
    # X(k) = sum w_x e^{-ikx} and its first two k-derivatives; the origin sits
    # mid-profile, which leaves |X| alone and keeps the x^2 weights small
    n = windowed.shape[1]
    x = np.arange(n) - (n - 1) / 2.0
    weights = np.stack([windowed, -1j * x * windowed, -(x * x) * windowed], axis=1)
    refined = k.copy()
    rows = np.arange(len(k))  # the rows still iterating, whose weights, k, lo and hi these are
    for _ in range(8):
        value, slope, bend = (weights @ np.exp(-1j * k[:, None] * x)[..., None])[..., 0].T
        # half the first and second derivatives of |X|^2, Re(X* X') and
        # |X'|^2 + Re(X* X''), written out in real arithmetic as numpy's
        # product of complex scalars computes them: its product of complex
        # arrays may fuse multiply-adds and move the last bits of k
        gradient = value.real * slope.real + value.imag * slope.imag
        curvature = ((slope.real * slope.real + slope.imag * slope.imag)
                     + (value.real * bend.real + value.imag * bend.imag))
        keep = curvature < 0.0
        if not keep.all():
            rows, weights, k, lo, hi, gradient, curvature = (
                a[keep] for a in (rows, weights, k, lo, hi, gradient, curvature))
        step = np.minimum(np.maximum(k - gradient / curvature, lo), hi) - k
        k = k + step
        refined[rows] = k
        keep = ~(np.abs(step) < 1e-13)
        if not keep.all():
            rows, weights, k, lo, hi = (a[keep] for a in (rows, weights, k, lo, hi))
        if rows.size == 0:
            break
    return refined


def estimate_carrier(profile: np.ndarray) -> float:
    """Dominant spatial carrier frequency of a fringe profile, in rad/pixel.

    The coarse location is the strongest nonzero bin of the windowed
    transform, interpolated between its neighbours from the three bin
    magnitudes.  It is then refined to the maximum of the transform power
    |X(k)|^2 by Newton steps on its derivative, using the analytic first and
    second derivatives of the windowed transform and staying within 1.5 bins
    of the coarse peak; this is accurate to a small fraction of a bin on
    clean fringes.  Raises NoCarrier when no dominant peak stands out.
    """
    k, (error,) = _carriers(np.asarray(profile, dtype=float)[None])
    if error is not None:
        raise error
    return float(k[0])


def _minima(profiles: np.ndarray, carriers: np.ndarray) -> list[np.ndarray]:
    """Interior local minima of every row of an (R, n) stack, to sub-sample accuracy.

    The three samples around each discrete minimum are fitted with a local
    quadratic vertex model.  The finite differences carry the harmonic
    correction factors 2(1 - cos k0) and 2 sin(k0) of the row's carrier in
    place of their small-angle limits k0^2 and 2 k0, which makes the vertex
    exact for a sampled cosine of that frequency; for a carrier of 1e-3 or
    less, or where the harmonic vertex lands more than a sample away, the
    plain parabola limit is used.  Returns the positions of each row.
    """
    centre = profiles[:, 1:-1]
    rows, idx = np.nonzero((centre < profiles[:, :-2]) & (centre <= profiles[:, 2:]))
    idx += 1
    positions = vertex(profiles, (rows, idx))
    # local model y = a + B cos(k0 x + psi), minimum at phase pi
    tuned = np.flatnonzero(carriers[rows] > 1e-3)
    r, i = rows[tuned], idx[tuned]
    ym, y0, yp = profiles[r, i - 1], profiles[r, i], profiles[r, i + 1]
    p = (yp + ym - 2.0 * y0) / (2.0 * (np.cos(carriers) - 1.0))[r]
    q = (yp - ym) / (2.0 * np.sin(carriers))[r]
    theta = np.arctan2(-q, p)  # k0*i + psi, with B > 0 toward the dip
    harmonic = -wrap_angle(theta - np.pi) / carriers[r]
    fits = ~(np.abs(harmonic) > 1.0)  # else a degenerate fit: keep the parabola
    positions[tuned] = np.where(fits, i + harmonic, positions[tuned])
    return np.split(positions, np.searchsorted(rows, np.arange(1, len(profiles))))


def _subpixel_extrema(y: np.ndarray, carrier: float | None = None) -> np.ndarray:
    """_minima of one profile; no carrier, no harmonic correction."""
    return _minima(y[None], np.array([0.0 if carrier is None else carrier]))[0]


def _positive_carrier(k0) -> None:
    if finite("k0", k0) <= 0:
        raise ValueError("k0 must be positive")


def _pair_minima(pos_up: np.ndarray, pos_low: np.ndarray, k0: float) -> float:
    """The shift_by_minima phase of two profiles' minima positions."""
    if len(pos_up) < 2 or len(pos_low) < 2:
        raise TooFewMinima(
            f"need >= 2 interior minima per profile, got {len(pos_up)} and {len(pos_low)}"
        )
    partner = pos_low[np.argmin(np.abs(pos_low - pos_up[:, None]), axis=1)]
    phases = wrap_angle(k0 * (pos_up - partner))
    resultant = np.mean(np.exp(1j * phases))
    if abs(resultant) < 0.5:
        raise AmbiguousPairing(
            f"per-minimum shifts are inconsistent (resultant {abs(resultant):.2f})"
        )
    return float(np.angle(resultant))


def shift_by_minima(up: np.ndarray, low: np.ndarray, k0: float) -> float:
    """Fringe shift from matched minima positions, in (-pi, pi].

    Each interior minimum of the upper profile is paired with the nearest
    minimum of the lower profile in the periodic sense: the pixel
    displacement is reduced modulo the fringe period 2 pi / k0 before being
    converted to phase, so a partner that slipped out of the frame on one
    side re-enters on the other.  The per-minimum phases are combined with a
    circular mean; a shift of exactly half a period therefore comes out as
    +pi, the (-pi, pi] representative.  If the per-minimum phases are
    mutually inconsistent (circular resultant below 0.5) the pairing is
    ambiguous and AmbiguousPairing is raised.
    """
    _positive_carrier(k0)
    pos_up = _subpixel_extrema(np.asarray(up, dtype=float), carrier=k0)
    pos_low = _subpixel_extrema(np.asarray(low, dtype=float), carrier=k0)
    return _pair_minima(pos_up, pos_low, k0)


def _fringe_terms(profiles: np.ndarray, k0: np.ndarray) -> np.ndarray:
    """Hann-windowed sums sum w (y - mean y) e^{-i k0 x} of an (R, m, n) stack
    of profiles, the m profiles of row r read at the carrier k0[r]: the
    fringe term of each profile, as an (R, m) array."""
    n = profiles.shape[-1]
    kernel = _periodic_hann(n) * np.exp(-1j * k0[:, None] * np.arange(n))
    return ((profiles - profiles.mean(axis=-1, keepdims=True)) @ kernel[..., None])[..., 0]


def _flat(up: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Rows of two profile stacks of which either side carries no fringes."""
    return (np.ptp(up, axis=-1) < _FLAT_FLOOR) | (np.ptp(low, axis=-1) < _FLAT_FLOOR)


def _fourier_shifts(pairs: np.ndarray, k0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower-minus-upper transform phase of each (upper, lower) row of an
    (R, 2, n) stack at its carrier k0[r], wrapped, and the rows where either
    transform is zero: no carrier power to read a phase from."""
    terms = _fringe_terms(pairs, k0)
    return wrap_angle(np.angle(terms[:, 1]) - np.angle(terms[:, 0])), (terms == 0.0).any(axis=1)


def shift_by_fourier(up: np.ndarray, low: np.ndarray, k0: float | None = None) -> float:
    """Fringe shift from the transform phases at the carrier, in (-pi, pi].

    Both profiles are mean-subtracted and Hann-windowed, their transforms are
    evaluated at the carrier k0 (rad/pixel; estimate_carrier(up) when not
    given), and the shift is the difference of the two phases.  The carrier
    need not fall on a transform bin: the transforms are read at k0 itself,
    where the window keeps the leakage of the mirror-image component small.
    Sharing the frequency between the two profiles cancels the common
    linear-phase term, so any phase offset common to both halves drops out of
    the result.
    """
    up = np.asarray(up, dtype=float)
    low = np.asarray(low, dtype=float)
    if len(up) != len(low):
        raise ValueError(f"profile lengths differ: {len(up)} vs {len(low)}")
    if _flat(up, low):
        raise NoCarrier("profile is flat")
    if k0 is None:
        k0 = estimate_carrier(up)
    finite("k0", k0)
    shifts, powerless = _fourier_shifts(np.stack([up, low])[None], np.array([k0], dtype=float))
    if powerless[0]:
        raise NoCarrier(_NO_POWER)
    return float(shifts[0])


# ---------------------------------------------------------------------------
# Whole-image retrieval

RetrievalMethod = Literal["minima", "fourier", "both"]


@dataclass
class RetrievalResult:
    """Fringe-shift estimate aggregated over evaluation regions.

    ``estimate`` is the circular mean of the per-region estimates (radians,
    in (-pi, pi]); ``uncertainty`` is their circular sample standard
    deviation, or None when fewer than two regions succeeded (a single region
    gives no spread information).  ``region_indices`` holds, for each entry
    of ``region_estimates``, the index of its region in the regions analysed;
    the other ``failed_regions`` regions are left out of both lists.
    ``method_disagreement`` is filled only for method="both".
    """

    estimate: float
    uncertainty: float | None
    region_estimates: list[float] = field(default_factory=list)
    method_disagreement: float | None = None
    carrier: float | None = None
    failed_regions: int = 0
    region_indices: list[int] = field(default_factory=list)


def _circular_mean(angles) -> float:
    return float(np.angle(np.mean(np.exp(1j * np.asarray(angles)))))


def _analyse_stack(img: Interferogram, regions: Sequence[Region], method: RetrievalMethod) -> list:
    """The outcome of each of a list of in-image regions of one width.

    An outcome is the region's first failure, in the order carrier, minima,
    Fourier, or (carrier, minima shift, Fourier shift) with None for a
    method not run.  Every stage runs once over the regions still standing.
    """
    up, low = _column_averages(img, regions)
    # the raw profile: smoothing would damp a fast carrier below the
    # low-frequency shoulder of an enveloped profile
    k0, errors = _carriers(up)
    minima: dict[int, float] = {}
    fourier: dict[int, float] = {}

    def standing() -> list[int]:
        return [r for r, error in enumerate(errors) if error is None]

    def fail(r: int, exc: Exception) -> None:
        errors[r] = exc.with_traceback(None)  # see retrieve_phase

    if method in ("minima", "both") and (live := standing()):
        try:
            smooth = savitzky_golay(np.stack([up[live], low[live]]), _SG_WINDOW)
        except ValueError as exc:  # profiles shorter than the window
            for r in live:
                fail(r, type(exc)(*exc.args))
        else:
            # the truncated edge fits are the filter's weakest samples; drop
            # them before estimating so no minimum sits on a distorted stretch
            n = smooth.shape[-1]
            if n > 6 * _SG_WINDOW:
                smooth = smooth[..., _SG_WINDOW // 2:n - _SG_WINDOW // 2]
            for r in live:
                try:
                    _positive_carrier(float(k0[r]))
                except ValueError as exc:
                    fail(r, exc)
            keep = [j for j, r in enumerate(live) if errors[r] is None]
            pairs = [live[j] for j in keep]
            positions = _minima(smooth[:, keep].reshape(2 * len(keep), smooth.shape[-1]), np.tile(k0[pairs], 2))
            for j, r in enumerate(pairs):
                try:
                    minima[r] = _pair_minima(positions[j], positions[j + len(pairs)], float(k0[r]))
                except (ValueError, ArithmeticError) as exc:
                    fail(r, exc)
    if method in ("fourier", "both") and (live := standing()):
        flat = _flat(up[live], low[live])
        for j, r in enumerate(live):
            if flat[j]:
                errors[r] = NoCarrier("profile is flat")
                continue
            try:
                finite("k0", float(k0[r]))
            except ValueError as exc:
                fail(r, exc)
        if live := standing():
            shifts, powerless = _fourier_shifts(np.stack([up[live], low[live]], axis=1), k0[live])
            for j, r in enumerate(live):
                if powerless[j]:
                    errors[r] = NoCarrier(_NO_POWER)
                else:
                    fourier[r] = float(shifts[j])
    return [errors[r] or (float(k0[r]), minima.get(r), fourier.get(r)) for r in range(len(regions))]


def retrieve_phase(
    img: Interferogram,
    regions: Sequence[Region] | None = None,
    method: RetrievalMethod = "both",
) -> RetrievalResult:
    """Recover the half-to-half fringe shift 2*delta of an interferogram.

    The regions are analysed together, one stack of profiles per region
    width: the column averages of every region, then the carrier of each
    upper profile, then the shift estimator(s), which share that carrier.
    Each stage is one pass over the regions still standing: one transform
    and a joint Newton refinement find the carriers, one Savitzky-Golay pass
    smooths every profile the minima estimator reads, one minima search
    covers them all and only the pairing of minima is done region by region,
    and one product reads every raw profile's transform at its carrier.
    Every region gets the checks and the numbers of the one-region
    functions column_average -> estimate_carrier -> shift_by_minima (on the
    savitzky_golay-smoothed profiles less the filter's edge fits) /
    shift_by_fourier (on the raw ones).  A region that fails (outside the image or missing a
    half, no carrier, too few or unpaired minima, no carrier power) is
    skipped and counted, with its first failure in that order; the call
    fails, with the last region's error, only when every region fails.
    """
    if method not in ("minima", "fourier", "both"):
        raise ValueError(f"unknown method {method!r}")
    if regions is None:
        regions = default_regions(img)
    if len(regions) == 0:
        raise ValueError("need at least one evaluation region")

    outcomes: dict[int, object] = {}
    widths: dict[int, list[int]] = {}
    for i, region in enumerate(regions):
        try:
            _half_rows(img, region)
        except ValueError as exc:
            # without its traceback, a kept exception holds no frame alive
            outcomes[i] = exc.with_traceback(None)
            continue
        widths.setdefault(region.col_end - region.col_start, []).append(i)
    for members in widths.values():
        outcomes.update(zip(members, _analyse_stack(img, [regions[i] for i in members], method)))
    kept = {i: outcomes[i] for i in range(len(regions)) if not isinstance(outcomes[i], Exception)}
    if not kept:
        error, outcomes = outcomes[len(regions) - 1], None
        try:
            raise error
        finally:
            # the traceback holds this frame; a frame that also held the
            # exception would be a cycle pinning the image until a full GC
            error = None

    carriers, minima, fourier = zip(*kept.values())
    minima_estimates = [v for v in minima if v is not None]
    fourier_estimates = [v for v in fourier if v is not None]
    # each region's circular mean of its one or two estimates, all regions at once
    values = np.array([v for v in (minima_estimates, fourier_estimates) if v]).T
    per_region = np.angle(np.exp(1j * values).mean(axis=1)).tolist()
    estimate = _circular_mean(per_region)
    if len(per_region) >= 2:
        deviations = wrap_angle(np.asarray(per_region) - estimate)
        uncertainty = float(np.std(deviations, ddof=1))
    else:
        uncertainty = None
    disagreement = None
    if method == "both" and minima_estimates and fourier_estimates:
        disagreement = abs(
            wrap_angle(_circular_mean(minima_estimates) - _circular_mean(fourier_estimates))
        )
    return RetrievalResult(
        estimate=estimate,
        uncertainty=uncertainty,
        region_estimates=per_region,
        method_disagreement=disagreement,
        carrier=float(np.mean(carriers)),
        failed_regions=len(regions) - len(kept),
        region_indices=list(kept),
    )


def measure_visibility(img: Interferogram, region: Region) -> float:
    """Fringe contrast (I_max - I_min) / (I_max + I_min) within one half.

    The region must lie entirely inside the upper or the lower half.  The
    carrier k0 is estimated on the column-average profile y, and the
    contrast is read off its Hann-windowed transform at k0:
    2 |sum w (y - mean y) e^{-i k0 x}| / sum w y, the fringe amplitude over
    the mean level, both weighted by the same window, so a slowly varying
    beam envelope scales them alike.  Raises NoCarrier when no carrier
    stands out (a flat profile, or less than about two fringes in frame).
    """
    h, w = img.shape
    if region.col_end > w or region.row_end > h:
        raise ValueError(f"region {region} outside image {h}x{w}")
    split = img.half_split_row
    if not (region.row_end <= split or region.row_start >= split):
        raise ValueError("visibility region must lie within a single half")
    profile = img.pixels[region.row_start:region.row_end,
                         region.col_start:region.col_end].mean(axis=0)
    k0 = np.array([estimate_carrier(profile)])
    fringe = _fringe_terms(profile[None, None], k0)[0, 0]
    return float(2.0 * abs(fringe) / (profile @ _periodic_hann(len(profile))))


# ---------------------------------------------------------------------------
# Image I/O: 16-bit binary portable graymap plus plain key=value sidecar

_PGM_MAXVAL = 65535


def save_interferogram(img: Interferogram, path, extra: dict | None = None) -> None:
    """Write a 16-bit binary PGM plus a ``<path>.meta`` key=value sidecar."""
    path = Path(path)
    h, w = img.shape
    scaled = np.clip(img.pixels, 0.0, 1.0)
    scaled *= _PGM_MAXVAL
    data = np.round(scaled, out=scaled).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{_PGM_MAXVAL}\n".encode("ascii"))
        fh.write(data)
    meta: dict = {"split_row": img.half_split_row}
    if img.k0 is not None:
        meta["k0"] = img.k0
    if img.true_delta is not None:
        meta["true_delta"] = img.true_delta
    if extra:
        meta.update(extra)
    lines = []
    for key, value in meta.items():
        text = f"{value:.17g}" if isinstance(value, float) else str(value)
        lines.append(f"{key}={text}\n")
    Path(f"{path}.meta").write_text("".join(lines), encoding="ascii")


def _read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos == len(raw):
            raise ValueError("truncated PGM header")
        if raw[pos:pos + 1] == b"#":  # comment line; one left open runs to the end
            pos = raw.find(b"\n", pos) + 1 or len(raw)
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
    for name, text in zip(("width", "height", "maxval"), fields[1:]):
        if not text.isdigit() or int(text) == 0:  # bytes.isdigit: ASCII digits only, no sign
            raise ValueError(f"malformed PGM header: {name} {text!r} is not a positive integer")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != _PGM_MAXVAL:
        raise ValueError(f"expected 16-bit graymap (maxval {_PGM_MAXVAL}), got {maxval}")
    data = np.frombuffer(raw[pos:pos + 2 * w * h], dtype=">u2")
    if data.size != w * h:
        raise ValueError("truncated PGM payload")
    pixels = data.reshape(h, w).astype(float)
    pixels /= _PGM_MAXVAL
    return pixels


def load_interferogram(path) -> tuple[Interferogram, dict]:
    """Read an image written by save_interferogram.

    Returns the Interferogram and the full sidecar dictionary (values parsed
    as float where possible).  A missing sidecar yields an empty dict and a
    default split at mid-height.
    """
    pixels = _read_pgm(path)
    meta: dict = {}
    sidecar = Path(f"{path}.meta")
    if sidecar.exists():
        for line in sidecar.read_text(encoding="ascii").splitlines():
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            value = value.strip()
            for cast in (int, float):
                try:
                    parsed = cast(value)
                except ValueError:
                    continue
                # "-0" is how save writes the float -0.0: read it as a float, keeping the sign
                if cast is float or parsed or not value.startswith("-"):
                    value = parsed
                    break
            meta[key.strip()] = value
    split = int(meta.get("split_row", pixels.shape[0] // 2))
    img = Interferogram(
        pixels,
        split,
        k0=meta.get("k0"),
        true_delta=meta.get("true_delta"),
    )
    return img, meta
