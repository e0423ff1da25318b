"""Synthetic dual-half interferograms and fringe-shift retrieval.

A dual-half interferogram is an intensity image whose upper half is recorded
with vertically polarized input and whose lower half with horizontally
polarized input.  Along each row the phase grows linearly with the column,
phi(x) = k0 x + phi0, and each half is the interferometer's fringe port for
its input (polphase.interferometer's overlap law), so the two halves are
mutually displaced by 2 delta / k0 pixels.  Because any drift of the
instrument moves both halves together, the relative shift is immune to it;
retrieving 2 delta is the whole game.  Each half is column-averaged, and
the carrier frequency k0 (between bins) is located on the raw upper profile.
The shift is read by the spatial-carrier Fourier estimator (Takeda, Ina &
Kobayashi, JOSA 72:156, 1982): the phase of each raw half's Hann-windowed
transform at k0, differenced; the transform's magnitude over the windowed
mean level also gives the fringe visibility.  retrieve_phase(method="both")
adds minima matching as a cross-check: both profiles smoothed with a
Savitzky-Golay filter (polphase.dsp; no other step smooths), the fringe
minima located to sub-pixel accuracy and their positions compared between
the halves.

Every step is a kernel on one (R, 2, n) stack of (upper, lower) profile
pairs, one per evaluation region, that returns each pair's result and
refusal.  retrieve_phase stacks all regions of one width and calls each
kernel once on the pairs still standing; column_average, estimate_carrier,
shift_by_minima, shift_by_fourier and measure_visibility are one-pair calls
of the same kernels.  They check only what their caller passes in (k0, equal
lengths) and raise their pair's refusal, so they give bit for bit the
numbers and the refusals retrieve_phase gives each region.
Shifts are reported modulo 2 pi with the representative in (-pi, pi].
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

# savgol_coefficients is not used here: it is imported so that code wrapping
# fringes.savgol_coefficients by name (the benchmark's tracer does) finds it
from .dsp import _SG_WINDOW, _row_blocks, savgol_coefficients, savitzky_golay, vertex
from .interferometer import output_intensity
from .su2 import _array, finite, from_zyz, wrap_angle


class TooFewMinima(ValueError):
    """A profile does not contain enough interior extrema to work with."""


class AmbiguousPairing(ValueError):
    """Minima of the two profiles cannot be paired consistently."""


class NoCarrier(ValueError):
    """No dominant spatial carrier frequency stands out of the spectrum."""


#: peak-to-peak profile span, relative to the profile's largest magnitude, at
#: or below which fringes count as absent entirely
_FLAT_FLOOR = 1e-12

#: the float64 bit pattern of +inf, read as an unsigned integer
_INF_BITS = 0x7FF0000000000000

_FLAT = "profile is flat"
_NOT_FINITE = "profile is not finite"
_NO_POWER = "no carrier power at the estimated frequency"
_OVERFLOWS = "the windowed transform overflows"


@dataclass(frozen=True)
class Region:
    """A rectangular pixel region, half-open index ranges [start, end)."""

    col_start: int
    col_end: int
    row_start: int
    row_end: int

    def __post_init__(self):
        for name in ("col_start", "col_end", "row_start", "row_end"):
            value = getattr(self, name)
            try:  # an int, or an integer that numpy or another library holds, stored as the int
                bound = operator.index(value)
            except TypeError:
                raise ValueError(f"region {name} must be an integer, got {value!r}") from None
            if bound is not value:
                object.__setattr__(self, name, bound)
        if self.col_start >= self.col_end or self.row_start >= self.row_end:
            raise ValueError(f"empty region {self}")
        if min(self.col_start, self.row_start) < 0:
            raise ValueError(f"negative region bounds {self}")


def _geometry(h: int, w: int, split) -> int:
    """The split row of an h x w image as an int, refused unless it is an integer
    strictly inside an image of at least 16x16; int() alone would truncate 31.7
    and fail unlabelled on NaN."""
    if not (isinstance(split, numbers.Integral) or isinstance(split, float) and split.is_integer()):
        raise ValueError(f"split_row must be an integer, got {split!r}")
    if h < 16 or w < 16:
        raise ValueError(f"image must be at least 16x16, got {h}x{w}")
    if not 0 < split < h:
        raise ValueError(f"half_split_row {int(split)} outside (0, {h})")
    return int(split)


@dataclass(frozen=True)
class Interferogram:
    """Intensity grid split at ``half_split_row`` into the V and H halves.

    ``k0`` and ``true_delta`` are metadata: the carrier frequency when known
    and, for synthetic images, the phase the generator encoded.  The fields
    are read-only, so the split row checked here stays the one retrieval
    reads; the pixels may still be written in place.  load_interferogram and
    generate build theirs through _valid, which skips the pixel scan alone:
    a 16-bit level over 65535, and finite values clipped to [0, 1], are
    finite and nonnegative by construction.
    """

    pixels: np.ndarray
    half_split_row: int
    k0: float | None = None
    true_delta: float | None = None

    @classmethod
    def _valid(cls, pixels: np.ndarray, split: int, k0=None, true_delta=None) -> Interferogram:
        """Unscanned: float64 pixels valid by construction and a split row from _geometry."""
        img = object.__new__(cls)
        img.__dict__.update(pixels=pixels, half_split_row=split, k0=k0, true_delta=true_delta)
        return img

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=float)
        if pixels.ndim != 2:
            raise ValueError("pixels must be a 2-d array")
        object.__setattr__(self, "pixels", pixels)
        object.__setattr__(self, "half_split_row", _geometry(*pixels.shape, self.half_split_row))
        # one reduction, no full-size boolean mask: as uint64, the bits of +0.0 and of
        # every positive finite float lie below +inf's, and those of NaN, +inf and any
        # float with its sign bit set do not; only such an image pays for the two
        # reductions that accept -0.0 and refuse the rest (NaN fails both comparisons)
        if not (self.pixels.view(np.uint64).max() < _INF_BITS
                or self.pixels.min() >= 0.0 and self.pixels.max() < np.inf):
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

    The upper rows are output_intensity("V", u, k0 x + phi0) of the operator
    u = from_zyz(beta, 0, delta), the lower rows output_intensity("H", ...)
    of it: the overlap law the interferometer module states.  size is
    (height, width).  k0 is the carrier in radians per pixel and must sit
    below Nyquist (0 < k0 < pi).  envelope_width, when given, multiplies the
    whole intensity by a round Gaussian beam profile of that standard
    deviation (in pixels) centred on the image.  Noise is additive Gaussian,
    clamped to [0, 1], drawn from a generator seeded with ``seed`` so that
    images are bit-reproducible.  delta, beta and phi0 must be scalar angles.
    """
    h, w = size
    for name, value in (("delta", delta), ("beta", beta), ("phi0", phi0)):
        if (angle := finite(name, value)).ndim:
            raise ValueError(f"{name} must be a scalar angle, got an array of shape {angle.shape}")
    finite("noise_sigma", noise_sigma)
    if not 0.0 < k0 < np.pi:
        raise ValueError(f"k0 must lie in (0, pi), got {k0}")
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be nonnegative")
    split = _geometry(h, w, h // 2 if split_row is None else split_row)

    x = np.arange(w, dtype=float)
    u = from_zyz(beta, 0.0, delta)
    # the H-fed row is the V-fed row of u with both axes reversed: one call renders both
    halves = output_intensity("V", (u, u[::-1, ::-1]), k0 * x + phi0)
    pixels = np.repeat(halves, (split, h - split), axis=0)

    if envelope_width is not None:
        if finite("envelope_width", envelope_width) <= 0:
            raise ValueError("envelope_width must be positive")
        dx = x - (w - 1) / 2.0
        dy = np.arange(h, dtype=float) - (h - 1) / 2.0
        dx2, dy2 = dx * dx, (dy * dy)[:, None]
    rng = np.random.default_rng(seed) if noise_sigma > 0.0 else None
    # by row blocks, so no temporary is full-size; drawn by blocks, one generator gives one stream
    for rows in _row_blocks(h, w):
        block = pixels[rows]
        if envelope_width is not None:
            r2 = dx2 + dy2[rows]
            r2 *= -0.5
            r2 /= envelope_width * envelope_width
            block *= np.exp(r2, out=r2)
            del r2  # before the next block's is made
        if rng is not None:
            block += rng.normal(0.0, noise_sigma, block.shape)
        np.clip(block, 0.0, 1.0, out=block)
    # clipped pixels are valid unless a width's square underflows to 0 (0/0 at an odd
    # image's centre): such an image is scanned, and refused
    valid = envelope_width is None or envelope_width * envelope_width > 0
    return (Interferogram._valid if valid else Interferogram)(pixels, split, k0=k0, true_delta=delta)


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


def _inside(img: Interferogram, region: Region) -> None:
    h, w = img.shape
    if region.col_end > w or region.row_end > h:
        raise ValueError(f"region {region} outside image {h}x{w}")


def _half_rows(img: Interferogram, region: Region) -> tuple[tuple[int, int], tuple[int, int]]:
    """Row ranges of a region's parts in the upper and the lower half.

    Raises ValueError for a region that leaves the image or misses a half.
    """
    _inside(img, region)
    split = img.half_split_row
    up_rows = (region.row_start, min(region.row_end, split))
    low_rows = (max(region.row_start, split), region.row_end)
    if up_rows[0] >= up_rows[1] or low_rows[0] >= low_rows[1]:
        raise ValueError(f"region {region} does not intersect both halves (split={split})")
    return up_rows, low_rows


def _column_averages(img: Interferogram, regions: Sequence[Region], rows: Sequence[tuple]) -> np.ndarray:
    """Mean profiles of regions of one width over m row ranges each, as one (R, m, n) stack.

    ``rows`` holds each region's m (start, end) row ranges: its _half_rows for
    its (upper, lower) pair, or, for measure_visibility, its own rows as one
    range.  Each profile is its rows' column sums over their count, the bits
    of ``mean(axis=0)``.
    """
    n = regions[0].col_end - regions[0].col_start
    profiles = np.empty((len(regions), len(rows[0]), n))
    # a sum that overflows is left inf, and the carrier search refuses its profile as not finite
    with np.errstate(over="ignore"):
        for i, (region, ranges) in enumerate(zip(regions, rows)):
            for j, (start, end) in enumerate(ranges):
                img.pixels[start:end, region.col_start:region.col_end].sum(axis=0, out=profiles[i, j])
    profiles /= [[[end - start] for start, end in ranges] for ranges in rows]
    return profiles


def column_average(img: Interferogram, region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Mean fringe profiles of the upper and lower halves within a region."""
    return tuple(_column_averages(img, [region], [_half_rows(img, region)])[0])


# ---------------------------------------------------------------------------
# Shift estimators: each works on an (R, 2, n) stack of (upper, lower) profile
# pairs, one pair per region; the public functions are their one-pair calls

def _row_flags(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of a profile stack are finite, and which are flat (carry no fringes):
    one pass of each, which the carrier stage reads for both halves of a pair.  A flat
    row spans at most _FLAT_FLOOR times its largest magnitude peak to peak, so that the
    test holds at any intensity scale and an all-zero row is flat.  A span beyond the
    float limit overflows to inf, which is not flat; a non-finite row is refused as such."""
    with np.errstate(over="ignore", invalid="ignore"):
        flat = rows.max(axis=-1) - rows.min(axis=-1) <= _FLAT_FLOOR * np.abs(rows).max(axis=-1)
    return np.isfinite(rows).all(axis=-1), flat


def _profile_pair(up, low) -> np.ndarray:
    """An upper and a lower profile as a (1, 2, n) stack, refused unless finite and of one length."""
    up = finite("upper profile", up)
    low = finite("lower profile", low)
    if len(up) != len(low):
        raise ValueError(f"profile lengths differ: {len(up)} vs {len(low)}")
    return np.stack([up, low])[None]


@functools.lru_cache(maxsize=16)
def _periodic_hann(n: int) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.flags.writeable = False
    return window


def _phasors(k: np.ndarray, minus_x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The bits of np.exp(-1j * k[:, None] * x), argument 0.0 + (-k) x, from minus_x = 0.0 - x
    by one cos and one sin call into one complex array (``out`` when given)."""
    angle = k[:, None] * minus_x
    out = np.empty(angle.shape, complex) if out is None else out
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _peak_bins(mags: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, list]:
    """Dominant nonzero-frequency bin of each row of (R, m) magnitude spectra.

    Returns the bins and, for each row, the NoCarrier saying why no
    candidate stands out (None when one does): a flat profile, or a peak
    that overflowed, is zero, sits below bin 2 or fails to exceed the
    low-frequency shoulder (leakage around the zero peak) by a factor of 2.
    """
    kbin = mags[:, 1:].argmax(axis=1) + 1
    peak = mags[np.arange(len(mags)), kbin]
    below = np.arange(mags.shape[1]) < np.maximum(kbin // 2, 2)[:, None]
    shoulder = np.where(below, mags, -np.inf)[:, 1:].max(axis=1)
    errors = [None] * len(mags)
    # row by row in floats, whose twice a shoulder above half the float limit is inf
    for r, (flat_r, peak_r, bin_r, shoulder_r) in enumerate(
            zip(flat.tolist(), peak.tolist(), kbin.tolist(), shoulder.tolist())):
        if flat_r or not (peak_r > 0 and bin_r >= 2 and peak_r >= 2.0 * shoulder_r):
            errors[r] = _no_carrier(flat_r, peak_r, bin_r, shoulder_r)
    return kbin, errors


def _no_carrier(flat, peak, kbin, shoulder) -> NoCarrier:
    """Why a row that _peak_bins refuses has no carrier."""
    if flat:
        return NoCarrier(_FLAT)
    if not math.isfinite(peak):  # the windowed mean or the transform overflowed
        return NoCarrier(_OVERFLOWS)
    if not peak > 0:
        return NoCarrier("profile is constant")
    if kbin < 2:
        return NoCarrier("spectrum peaks adjacent to zero frequency")
    return NoCarrier(
        f"peak at bin {kbin} ({peak:.3g}) does not dominate the "
        f"low-frequency shoulder ({shoulder:.3g}) by 2x"
    )


def _carriers(profiles: np.ndarray, flags: tuple | None = None) -> tuple[np.ndarray, list]:
    """estimate_carrier of every row of an (R, n) stack, given or computing its _row_flags.

    Returns the carriers, NaN where a row has none, and each row's NoCarrier
    (None where it has a carrier).  One transform covers the stack, and the
    Newton refinement runs on the rows that have not yet converged.
    """
    count, n = profiles.shape
    finite, flat = _row_flags(profiles) if flags is None else flags
    k = np.full(count, np.nan)
    if n < 8:
        return k, [NoCarrier(f"profile too short ({n} samples)") for _ in range(count)]
    # an overflowed or missing sample leaves no spectrum to read a carrier from;
    # such a row, or a finite one near the float limit, turns inf or NaN here; the
    # peak checks read that, and a non-finite row is refused as such below
    with np.errstate(over="ignore", invalid="ignore"):
        # a sum over the count is the mean's bits
        windowed = (profiles - profiles.sum(axis=1, keepdims=True) / n) * _periodic_hann(n)
        mags = np.abs(np.fft.rfft(windowed))
    kbin, errors = _peak_bins(mags, flat)
    for r, ok in enumerate(finite.tolist()):
        if not ok:
            errors[r] = NoCarrier(_NOT_FINITE)
    rows = np.array([r for r, error in enumerate(errors) if error is None], dtype=int)
    kbin = kbin[rows]
    dk = 2.0 * np.pi / n
    lo = np.maximum(0.5 * dk, (kbin - 1.5) * dk)
    hi = np.minimum(np.pi - 1e-12, (kbin + 1.5) * dk)
    # three-bin vertex, never flat: argmax takes the first maximum, ym < y0 >= yp;
    # a peak in the last bin keeps its bin (its column 1 is a stand-in)
    inner = kbin + 1 < mags.shape[1]
    peak = np.where(inner, vertex(mags, (rows, np.where(inner, kbin, 1))), kbin)
    k[rows] = refined = _refine_carriers(windowed[rows], np.minimum(np.maximum(peak * dk, lo), hi), lo, hi)
    # an overflowing transform leaves a NaN; every other carrier lies in [lo, hi]
    for r, carrier in zip(rows.tolist(), refined.tolist()):
        if math.isnan(carrier):
            errors[r] = NoCarrier(_OVERFLOWS)
    return k, errors


def _mirrored_phasors(k: np.ndarray, minus_x: np.ndarray) -> np.ndarray:
    """_phasors(k, minus_x) of an axis exactly symmetric about zero (an odd one's 0 in its
    first half): the first half's, then their conjugates reversed."""
    n, half = len(minus_x), (len(minus_x) + 1) // 2
    out = np.empty((len(k), n), complex)
    _phasors(k, minus_x[:half], out[:, :half])
    np.conjugate(out[:, n - half - 1::-1], out=out[:, half:])
    return out


def _refine_carriers(windowed: np.ndarray, k: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Newton steps toward the maximum of each row's transform power |X(k)|^2.

    A row leaves the iteration once its power stops bending down or its step
    falls below 1e-13; at most 8 steps.  Each step computes the phasors
    e^{-ikx} of half the axis and mirrors them: x is exactly symmetric, k (-x)
    is -(k x) in floats, and numpy's cos is even and sin odd bit for bit.
    """
    # X(k) = sum w_x e^{-ikx} and its first two k-derivatives; the origin sits
    # mid-profile, which leaves |X| alone and keeps the x^2 weights small
    minus_x, slope_x, bend_x = _newton_axis(windowed.shape[1])
    # a power-of-two scale per row moves no bit of a step, and keeps the
    # products below from overflowing on profiles of 1e154 and more
    windowed = np.ldexp(windowed, -np.frexp(np.abs(windowed).max(axis=1, keepdims=True))[1])
    weights = np.stack([windowed, slope_x * windowed, bend_x * windowed], axis=1)
    refined = k.copy()
    rows = np.arange(len(k))  # the rows still iterating, whose weights, k, lo and hi these are
    for _ in range(8):
        terms = (weights @ _mirrored_phasors(k, minus_x)[..., None])[..., 0]
        # half the first and second derivatives of |X|^2, Re(X* X') and
        # |X'|^2 + Re(X* X''), written out in real arithmetic as numpy's
        # product of complex scalars computes them: its product of complex
        # arrays may fuse multiply-adds and move the last bits of k.  One
        # outer product of the (X, X', X'') terms holds every such sum.
        re, im = terms.real, terms.imag
        sums = re[:, :, None] * re[:, None, :] + im[:, :, None] * im[:, None, :]
        gradient, curvature = sums[:, 0, 1], sums[:, 1, 1] + sums[:, 0, 2]
        keep = curvature < 0.0
        if not all(keep.tolist()):  # a list of flags costs less than a reduction
            rows, weights, k, lo, hi, gradient, curvature = (
                a[keep] for a in (rows, weights, k, lo, hi, gradient, curvature))
        step = np.minimum(np.maximum(k - gradient / curvature, lo), hi) - k
        k = k + step
        refined[rows] = k
        keep = ~(np.abs(step) < 1e-13)
        if not any(flags := keep.tolist()):
            break
        if not all(flags):
            rows, weights, k, lo, hi = (a[keep] for a in (rows, weights, k, lo, hi))
    return refined


@functools.lru_cache(maxsize=16)
def _newton_axis(n: int) -> tuple:
    """Read-only 0.0 - x, -1j x and -x^2 of the n sample positions x about mid-profile."""
    x = np.arange(n) - (n - 1) / 2.0
    for a in (axis := (0.0 - x, -1j * x, -(x * x))):
        a.flags.writeable = False
    return axis


def estimate_carrier(profile: np.ndarray) -> float:
    """Dominant spatial carrier frequency of a fringe profile, in rad/pixel.

    The coarse location is the strongest nonzero bin of the windowed
    transform, interpolated between its neighbours from the three bin
    magnitudes.  It is then refined to the maximum of the transform power
    |X(k)|^2 by Newton steps on its derivative, using the analytic first and
    second derivatives of the windowed transform and staying within 1.5 bins
    of the coarse peak; this is accurate to a small fraction of a bin on
    clean fringes.  Raises NoCarrier when no dominant peak stands out, and
    ComplexInput for a complex profile.
    """
    k, (error,) = _carriers(_array("profile", profile)[None])
    if error is not None:
        raise error
    return float(k[0])


def _minimum_positions(profiles: np.ndarray, carriers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior local minima of every row of an (R, n) stack, to sub-sample accuracy.

    The three samples around each discrete minimum are fitted with a local
    quadratic vertex model.  The finite differences carry the harmonic
    correction factors 2(1 - cos k0) and 2 sin(k0) of the row's carrier in
    place of their small-angle limits k0^2 and 2 k0, which makes the vertex
    exact for a sampled cosine of that frequency; for a carrier of 1e-3 or
    less, or where the harmonic vertex lands more than a sample away or is
    NaN, the plain parabola limit is used.  Returns the row of each minimum,
    in ascending order, and its position.
    """
    centre = profiles[:, 1:-1]
    rows, idx = np.nonzero((centre < profiles[:, :-2]) & (centre <= profiles[:, 2:]))
    idx += 1
    parabola = vertex(profiles, (rows, idx))
    # local model y = a + B cos(k0 x + psi), minimum at phase pi
    k = carriers[rows]
    ym, y0, yp = profiles[rows, idx - 1], profiles[rows, idx], profiles[rows, idx + 1]
    # near 1e306 at small carriers these overflow: an inf p or q puts the vertex over a
    # sample away, a NaN one (inf - inf) makes it NaN, and the parabola is kept for both;
    # a carrier of 1e-3 or less, 0 too, makes a vertex that is not read
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p = (yp + ym - 2.0 * y0) / (2.0 * (np.cos(carriers) - 1.0))[rows]
        q = (yp - ym) / (2.0 * np.sin(carriers))[rows]
        theta = np.arctan2(-q, p)  # k0*i + psi, with B > 0 toward the dip
        harmonic = -wrap_angle(theta - np.pi) / k
    # else a degenerate or NaN fit: keep the parabola
    return rows, np.where((k > 1e-3) & (np.abs(harmonic) <= 1.0), idx + harmonic, parabola)


def _minima_shifts(pairs: np.ndarray, k0: np.ndarray) -> tuple[np.ndarray, list]:
    """shift_by_minima of each pair of an (R, 2, n) stack at its carrier k0[r].

    Returns the shifts, NaN where a pair has none, and each pair's
    TooFewMinima or AmbiguousPairing (None where it has a shift).  One minima
    search covers every profile and one pairing every pair: each profile's
    minima fill one row of a NaN-padded array, each upper minimum is matched
    against every lower minimum of its pair (in row blocks of pairs), and the
    pairs with equally many upper minima share one sum of their phasors.
    """
    count = len(k0)
    rows, positions = _minimum_positions(pairs.reshape(-1, pairs.shape[-1]), k0.repeat(2))
    found = np.bincount(rows, minlength=2 * count)
    shifts = np.full(count, np.nan)
    errors: list = [None if min(up, low) >= 2 else TooFewMinima(
        f"need >= 2 interior minima per profile, got {up} and {low}") for up, low in found.reshape(-1, 2).tolist()]
    live = np.array([r for r, error in enumerate(errors) if error is None], dtype=int)
    if not live.size:
        return shifts, errors
    # the minima of the pairs with enough of them, NaN-padded: padding computes silently
    width = found.max()
    minima = np.full((2 * count, width), np.nan)
    minima[rows, np.arange(len(rows)) - (found.cumsum() - found)[rows]] = positions
    upper, lower = minima[2 * live], minima[2 * live + 1]
    padding = np.arange(width) >= found[2 * live + 1, None]
    partner = np.empty(upper.shape)
    for block in _row_blocks(len(live), width * width):
        # the nearest lower minimum of each upper one; argmin keeps the first of equals
        # (or the first NaN), and the padding is the farthest
        distance = np.abs(lower[block, None, :] - upper[block, :, None])
        np.copyto(distance, np.inf, where=padding[block, None, :])
        partner[block] = lower[block][np.arange(len(distance))[:, None], distance.argmin(axis=2)]
    turns = np.exp(1j * wrap_angle(k0[live, None] * (upper - partner)))
    # the circular mean of each pair's own minima: a contiguous row of m phasors
    # summed on its own and divided by m gives np.mean's bits
    resultant = np.empty(len(live), complex)
    per_pair = found[2 * live]
    for m in set(per_pair.tolist()):
        same = per_pair == m
        resultant[same] = turns[same, :m].sum(axis=1) / m
    # np.hypot is abs() of one complex scalar, bit for bit (np.abs of a complex array is not)
    strength = np.hypot(resultant.real, resultant.imag).tolist()
    angles = np.arctan2(resultant.imag, resultant.real).tolist()
    for r, length, angle in zip(live.tolist(), strength, angles):
        if length < 0.5:
            errors[r] = AmbiguousPairing(f"per-minimum shifts are inconsistent (resultant {length:.2f})")
        else:
            shifts[r] = angle
    return shifts, errors


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
    if finite("k0", k0) <= 0:
        raise ValueError("k0 must be positive")
    shifts, (error,) = _minima_shifts(_profile_pair(up, low), np.array([k0]))
    if error is not None:
        raise error
    return float(shifts[0])


def _fringe_terms(profiles: np.ndarray, k0: np.ndarray) -> np.ndarray:
    """Hann-windowed sums sum w (y - mean y) e^{-i k0 x} of an (R, m, n) stack
    of profiles, the m profiles of row r read at the carrier k0[r]: the
    fringe term of each profile, as an (R, m) array."""
    n = profiles.shape[-1]
    kernel = _periodic_hann(n) * _phasors(k0, 0.0 - np.arange(n))
    return ((profiles - profiles.sum(axis=-1, keepdims=True) / n) @ kernel[..., None])[..., 0]


def _fourier_shifts(pairs: np.ndarray, k0: np.ndarray) -> tuple[np.ndarray, list]:
    """shift_by_fourier of each pair of an (R, 2, n) stack at its carrier k0[r].

    Returns the lower-minus-upper transform phases, wrapped, and each pair's
    NoCarrier (None where it has a shift): a transform that overflows, or is
    zero (no carrier power to read a phase from), on either side.  Its
    callers refuse a flat pair before this stage.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing term is refused below
        terms = _fringe_terms(pairs, k0)
    overflows = ~np.isfinite(terms).all(axis=1)
    errors = [NoCarrier(_OVERFLOWS) if o else NoCarrier(_NO_POWER) if z else None
              for o, z in zip(overflows.tolist(), (terms == 0.0).any(axis=1).tolist())]
    phases = np.arctan2(terms.imag, terms.real)  # np.angle's bits
    return wrap_angle(phases[:, 1] - phases[:, 0]), errors


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
    pair = _profile_pair(up, low)
    # a flat pair is refused before k0 is estimated or checked
    if _row_flags(pair)[1].any():
        raise NoCarrier(_FLAT)
    if k0 is None:
        k0 = estimate_carrier(pair[0, 0])
    shifts, (error,) = _fourier_shifts(pair, finite("k0", k0)[None])
    if error is not None:
        raise error
    return float(shifts[0])


# ---------------------------------------------------------------------------
# Whole-image retrieval

RetrievalMethod = Literal["fourier", "both"]


@dataclass
class RetrievalResult:
    """Fringe-shift estimate aggregated over evaluation regions.

    ``estimate`` is the circular mean of the per-region estimates (radians,
    in (-pi, pi]); ``uncertainty`` is their circular sample standard
    deviation, or None when fewer than two regions succeeded (a single region
    gives no spread information).  ``region_indices`` holds, for each entry
    of ``region_estimates``, the index of its region in the regions analysed;
    the other ``failed_regions`` regions are left out of both lists.
    ``method_disagreement`` is None unless method="both" (default "fourier").
    """

    estimate: float
    uncertainty: float | None
    region_estimates: list[float] = field(default_factory=list)
    method_disagreement: float | None = None
    carrier: float | None = None
    failed_regions: int = 0
    region_indices: list[int] = field(default_factory=list)


def _circular_mean(angles):
    """Circular mean along the last axis: a float for one sequence of angles, an
    array for the rows of a 2-d one, each row the bits it has on its own: the sum
    of a row of a C-ordered array is its pairwise sum alone (of a row of another
    layout it may not be).  A sum over the count is np.mean's bits, and np.arctan2
    np.angle's."""
    turns = np.exp(1j * np.asarray(angles), order="C")
    mean = turns.sum(axis=-1) / turns.shape[-1]
    angle = np.arctan2(mean.imag, mean.real)
    return angle if angle.ndim else float(angle)


def _smoothed_minima_shifts(pairs: np.ndarray, k0: np.ndarray) -> tuple[np.ndarray, list]:
    """_minima_shifts of the savitzky_golay-smoothed pairs, less the filter's
    edge fits when the profiles are long enough to spare them."""
    try:
        smooth = savitzky_golay(pairs)
    except ValueError as exc:  # profiles shorter than the window
        return np.full(len(k0), np.nan), [type(exc)(*exc.args) for _ in k0]
    # the truncated edge fits are the filter's weakest samples; drop them
    # before estimating so no minimum sits on a distorted stretch
    n = smooth.shape[-1]
    if n > 6 * _SG_WINDOW:
        smooth = smooth[..., _SG_WINDOW // 2:n - _SG_WINDOW // 2]
    return _minima_shifts(smooth, k0)


def _analyse_regions(img: Interferogram, regions: Sequence[Region],
                     method: RetrievalMethod) -> tuple[np.ndarray, np.ndarray, list]:
    """Each region's carrier, its (minima, Fourier) shifts as a (2, R) array, and
    its first refusal (None when it has none) in the order bounds, carrier (a
    non-finite or flat half included), minima (run under "both" only), Fourier.

    A value not reached, or of a stage not run, is NaN.  The in-image regions
    of one width are one stack of profile pairs, and each stage is one kernel
    call on the pairs still standing; the kernels hold every check.
    """
    carriers = np.full(len(regions), np.nan)
    shifts = np.full((2, len(regions)), np.nan)
    errors: list = [None] * len(regions)
    rows: list = [None] * len(regions)
    widths: dict[int, list[int]] = {}
    for i, region in enumerate(regions):
        try:
            rows[i] = _half_rows(img, region)
        except ValueError as exc:
            # without its traceback, a kept exception holds no frame alive
            errors[i] = exc.with_traceback(None)
            continue
        widths.setdefault(region.col_end - region.col_start, []).append(i)
    for members in widths.values():
        pairs = _column_averages(img, [regions[i] for i in members], [rows[i] for i in members])
        finite, flat = _row_flags(pairs)
        # the carrier of each raw upper profile (smoothing would damp a fast carrier below an
        # enveloped profile's low-frequency shoulder); a non-finite or flat lower one is refused
        # here, so that no estimator reads a half without fringes
        found, refusals = _carriers(pairs[:, 0], (finite[:, 0], flat[:, 0]))
        carriers[members] = found
        for i, refusal, low_ok, low_flat in zip(members, refusals, finite[:, 1].tolist(), flat[:, 1].tolist()):
            errors[i] = refusal or (NoCarrier(_NOT_FINITE) if not low_ok else NoCarrier(_FLAT) if low_flat else None)
        for stage, kernel in ((0, _smoothed_minima_shifts), (1, _fourier_shifts))[method == "fourier":]:
            live = [r for r, i in enumerate(members) if errors[i] is None]
            if live:
                standing = [members[r] for r in live]
                shifts[stage, standing], failures = kernel(pairs[live], found[live])
                for i, error in zip(standing, failures):
                    errors[i] = error
    return carriers, shifts, errors


def retrieve_phase(
    img: Interferogram,
    regions: Sequence[Region] | None = None,
    method: RetrievalMethod = "fourier",
) -> RetrievalResult:
    """Recover the half-to-half fringe shift 2*delta of an interferogram.

    method="fourier", the default, reads every region with the Fourier
    estimator alone; method="both" adds minima matching as a cross-check,
    averages each region's two estimates and fills method_disagreement.
    The regions are analysed together, one (R, 2, n) stack of (upper, lower)
    profile pairs per region width: the column averages of every region, then
    the carrier of each upper profile, then the shift estimator(s), which
    share that carrier.  Each stage is one pass over the pairs still
    standing: one transform and a joint Newton refinement find the carriers,
    under "both" one Savitzky-Golay pass smooths every profile the minima
    estimator reads, one minima search covers them all and one padded
    distance array pairs them, and one product reads every raw profile's
    transform at its carrier.  The per-region and overall circular means and
    the spread are each one reduction over the regions kept.
    These are the kernels that the one-region functions column_average ->
    estimate_carrier -> shift_by_minima (under "both", on the smoothed
    profiles less the filter's edge fits) / shift_by_fourier (on the raw
    ones) call, so every region gets their numbers and their refusals.  A
    region that fails (outside the image or missing a half; no carrier, or a
    flat or non-finite half; too few or unpaired minima; no carrier power)
    is skipped and counted, with its first failure in that order; the call
    fails, with the last region's error, only when every region fails.
    """
    if method not in ("fourier", "both"):
        raise ValueError(f"unknown method {method!r}: expected 'fourier' or 'both'")
    if regions is None:
        regions = default_regions(img)
    if len(regions) == 0:
        raise ValueError("need at least one evaluation region")

    carriers, shifts, errors = _analyse_regions(img, regions, method)
    kept = [i for i, error in enumerate(errors) if error is None]
    if not kept:
        error, errors = errors[-1], None
        try:
            raise error
        finally:
            # the traceback holds this frame; a frame that also held the
            # exception would be a cycle pinning the image until a full GC
            error = None

    # the estimates of the methods run, one column per region kept
    estimates = shifts[int(method == "fourier"):, kept]
    # each region's circular mean of its one or two estimates, all regions at once
    mean = np.exp(1j * estimates).sum(axis=0) / len(estimates)
    per_region = np.arctan2(mean.imag, mean.real)
    # the circular means of the regions and of each method's estimates, one row each
    estimate, *by_method = _circular_mean(np.concatenate([per_region[None], estimates])).tolist()
    uncertainty = None
    if len(kept) >= 2:
        # np.std(deviations, ddof=1), step for step
        deviations = wrap_angle(per_region - estimate)
        deviations -= deviations.sum() / len(kept)
        uncertainty = math.sqrt((deviations * deviations).sum() / (len(kept) - 1))
    disagreement = abs(wrap_angle(by_method[0] - by_method[1])) if method == "both" else None
    return RetrievalResult(
        estimate=estimate,
        uncertainty=uncertainty,
        region_estimates=per_region.tolist(),
        method_disagreement=disagreement,
        carrier=float(carriers[kept].sum() / len(kept)),
        failed_regions=len(regions) - len(kept),
        region_indices=kept,
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
    _inside(img, region)
    split = img.half_split_row
    if not (region.row_end <= split or region.row_start >= split):
        raise ValueError("visibility region must lie within a single half")
    profile = _column_averages(img, [region], [[(region.row_start, region.row_end)]])[0, 0]
    k0 = np.array([estimate_carrier(profile)])
    fringe = _fringe_terms(profile[None, None], k0)[0, 0]
    return float(2.0 * abs(fringe) / (profile @ _periodic_hann(len(profile))))


# ---------------------------------------------------------------------------
# Image I/O: 16-bit binary portable graymap plus plain key=value sidecar

_PGM_MAXVAL = 65535
#: bytes of a PGM file's first read, enough for a header without long comments
_PGM_FIRST_READ = 256
#: a PGM header's four fields, magic, width, height and maxval.  A field starts at
#: a byte that is neither whitespace nor '#' and runs to the next whitespace; a
#: '#' where a field could start opens a comment that runs to the end of its line.
#: Fields after the first follow at least one whitespace byte, so no match splits one.
_PGM_GAP = rb"(?:\s|#[^\n]*\n)*"
_PGM_HEADER = re.compile(_PGM_GAP + rb"([^\s#]\S*)" + (rb"\s" + _PGM_GAP + rb"([^\s#]\S*)") * 3)


def write_file(path, *chunks) -> None:
    """Make the bytes-like chunks, one after another, the whole content of the file at path.

    Every file polphase writes goes through here.  The file is opened without
    truncation, created if missing (mode 0o666 less the umask), written over
    from its start and, if it is a regular file, cut to the new length at the
    end.  A symlink is followed, and every hard link to the file sees the new
    bytes, as when a file is emptied and written again; a FIFO or a device gets
    the bytes as a stream and is never cut.  On ext4, emptying an existing file
    and writing it again makes its close start a writeback, and so does a rename
    over it, which is why neither is done.  Nothing is synced: a crash in the
    middle of a write leaves a partial file, as either of those would.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def save_interferogram(img: Interferogram, path, extra: dict | None = None) -> None:
    """Write a 16-bit binary PGM plus a ``<path>.meta`` key=value sidecar.

    Both go through write_file, so a file already there is rewritten in place;
    the PGM is written as its header and then the payload array itself, which
    is never joined to the header or copied.
    """
    path = Path(path)
    h, w = img.shape
    data = np.empty((h, w), dtype=">u2")
    for rows in _row_blocks(h, w):  # one scaled block at a time, rounded in place
        scaled = np.clip(img.pixels[rows], 0.0, 1.0)
        scaled *= _PGM_MAXVAL
        data[rows] = np.round(scaled, out=scaled)
        del scaled  # before the next block's is made
    write_file(path, f"P5\n{w} {h}\n{_PGM_MAXVAL}\n".encode("ascii"), data)
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
    write_file(f"{path}.meta", "".join(lines).encode("ascii"))


def _read_pgm(path) -> np.ndarray:
    with open(path, "rb", buffering=0) as fh:
        head = b""
        while True:  # a header of any length: read on in doubling chunks until it ends
            more = fh.read(max(len(head), _PGM_FIRST_READ))
            head += more
            header = _PGM_HEADER.match(head)
            # a match that reaches the end of what was read may go on in the next chunk
            if not more or header and header.end() < len(head):
                break
        if header is None:
            raise ValueError("truncated PGM header")
        fields = header.groups()
        if fields[0] != b"P5":
            raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
        for name, text in zip(("width", "height", "maxval"), fields[1:]):
            if not text.isdigit() or int(text) == 0:  # bytes.isdigit: ASCII digits only, no sign
                raise ValueError(f"malformed PGM header: {name} {text!r} is not a positive integer")
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
        if maxval != _PGM_MAXVAL:
            raise ValueError(f"expected 16-bit graymap (maxval {_PGM_MAXVAL}), got {maxval}")
        pos = header.end() + 1  # single whitespace after maxval
        # the file's length is checked before the words are allocated: a header may claim any size
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size - pos < 2 * w * h:
            raise ValueError("truncated PGM payload")
        # the payload goes straight into a fresh (so aligned) array: the few bytes read
        # with the header, then one readinto for the rest (more only if it comes up short)
        words = np.empty((h, w), dtype=">u2")
        payload = memoryview(words).cast("B")
        ahead = head[pos:pos + len(payload)]
        payload[:len(ahead)] = ahead
        filled = len(ahead)
        while filled < len(payload) and (count := fh.readinto(payload[filled:])):
            filled += count
        if filled < len(payload):
            raise ValueError("truncated PGM payload")
    # one pass gives the floats of astype(float) followed by /= maxval
    return np.divide(words, float(_PGM_MAXVAL), dtype=float)


def load_interferogram(path) -> tuple[Interferogram, dict]:
    """Read an image written by save_interferogram.

    Returns the Interferogram and the full sidecar dictionary (values parsed
    as float where possible).  A missing sidecar yields an empty dict and a
    default split at mid-height.
    """
    pixels = _read_pgm(path)
    try:
        with open(f"{path}.meta", "rb", buffering=0) as fh:
            sidecar = fh.read().decode("ascii")
    except FileNotFoundError:
        sidecar = ""
    meta: dict = {}
    for line in sidecar.splitlines():
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
    split = _geometry(*pixels.shape, meta.get("split_row", pixels.shape[0] // 2))
    return Interferogram._valid(pixels, split, k0=meta.get("k0"), true_delta=meta.get("true_delta")), meta
