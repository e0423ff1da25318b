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

Shifts are reported modulo 2 pi with the representative in (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence

import numpy as np

# savgol_coefficients is not used here; it stays importable next to the filter
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


def column_average(img: Interferogram, region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Mean fringe profiles of the upper and lower halves within a region."""
    h, w = img.shape
    if region.col_end > w or region.row_end > h:
        raise ValueError(f"region {region} outside image {h}x{w}")
    split = img.half_split_row
    up_rows = (region.row_start, min(region.row_end, split))
    low_rows = (max(region.row_start, split), region.row_end)
    if up_rows[0] >= up_rows[1] or low_rows[0] >= low_rows[1]:
        raise ValueError(f"region {region} does not intersect both halves (split={split})")
    cols = slice(region.col_start, region.col_end)
    up = img.pixels[up_rows[0]:up_rows[1], cols].mean(axis=0)
    low = img.pixels[low_rows[0]:low_rows[1], cols].mean(axis=0)
    return up, low


# ---------------------------------------------------------------------------
# Shift estimators

def _periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _peak_bin(mags: np.ndarray) -> int:
    """Index of the dominant nonzero-frequency peak of a magnitude spectrum.

    Raises NoCarrier when no candidate stands out: the peak must sit at bin
    >= 2 and exceed the low-frequency shoulder (leakage around the zero peak)
    by at least a factor of 2.
    """
    kbin = int(np.argmax(mags[1:]) + 1)
    if not mags[kbin] > 0:
        raise NoCarrier("profile is constant")
    if kbin < 2:
        raise NoCarrier("spectrum peaks adjacent to zero frequency")
    shoulder = float(np.max(mags[1:max(kbin // 2, 2)]))
    if not mags[kbin] >= 2.0 * shoulder:
        raise NoCarrier(
            f"peak at bin {kbin} ({mags[kbin]:.3g}) does not dominate the "
            f"low-frequency shoulder ({shoulder:.3g}) by 2x"
        )
    return kbin


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
    y = np.asarray(profile, dtype=float)
    n = len(y)
    if n < 8:
        raise NoCarrier(f"profile too short ({n} samples)")
    if np.ptp(y) < _FLAT_FLOOR:
        raise NoCarrier("profile is flat")
    windowed = (y - y.mean()) * _periodic_hann(n)
    mags = np.abs(np.fft.rfft(windowed))
    kbin = _peak_bin(mags)
    dk = 2.0 * np.pi / n
    lo = max(0.5 * dk, (kbin - 1.5) * dk)
    hi = min(np.pi - 1e-12, (kbin + 1.5) * dk)
    # three-bin vertex, never flat: argmax takes the first maximum, ym < y0 >= yp
    peak = float(vertex(mags, kbin)) if kbin + 1 < len(mags) else kbin
    k = min(max(peak * dk, lo), hi)
    # X(k) = sum w_x e^{-ikx} and its first two k-derivatives; the origin sits
    # mid-profile, which leaves |X| alone and keeps the x^2 weights small
    x = np.arange(n) - (n - 1) / 2.0
    weights = np.stack([windowed, -1j * x * windowed, -(x * x) * windowed])
    for _ in range(8):
        value, slope, bend = weights @ np.exp(-1j * k * x)
        # half the first and second derivatives of |X|^2
        gradient = (value.conjugate() * slope).real
        curvature = (slope.conjugate() * slope).real + (value.conjugate() * bend).real
        if not curvature < 0.0:
            break
        step = min(max(k - gradient / curvature, lo), hi) - k
        k += step
        if abs(step) < 1e-13:
            break
    return float(k)


def _subpixel_extrema(y: np.ndarray, carrier: float | None = None) -> np.ndarray:
    """Interior local minima with quadratic sub-sample refinement.

    The three samples around each discrete extremum are fitted with a local
    quadratic vertex model.  When the carrier frequency is known the finite
    differences carry the harmonic correction factors 2(1 - cos k0) and
    2 sin(k0) in place of their small-angle limits k0^2 and 2 k0, which makes
    the vertex exact for a sampled cosine of that frequency; without a
    carrier, or where the harmonic vertex lands more than a sample away, the
    plain parabola limit is used.  Returns the positions.
    """
    idx = np.nonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:]))[0] + 1
    positions = vertex(y, idx)
    if carrier is not None and carrier > 1e-3:
        # local model y = a + B cos(k0 x + psi), minimum at phase pi
        ym, y0, yp = y[idx - 1], y[idx], y[idx + 1]
        p = (yp + ym - 2.0 * y0) / (2.0 * (np.cos(carrier) - 1.0))
        q = (yp - ym) / (2.0 * np.sin(carrier))
        theta = np.arctan2(-q, p)  # k0*i + psi, with B > 0 toward the dip
        harmonic = -wrap_angle(theta - np.pi) / carrier
        fits = ~(np.abs(harmonic) > 1.0)  # else a degenerate fit: keep the parabola
        positions = np.where(fits, idx + harmonic, positions)
    return positions


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
    pos_up = _subpixel_extrema(np.asarray(up, dtype=float), carrier=k0)
    pos_low = _subpixel_extrema(np.asarray(low, dtype=float), carrier=k0)
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


def _carrier_sums(y: np.ndarray, k0: float):
    """Hann-windowed sums of profiles along the last axis: sum w (y - mean y)
    e^{-i k0 x}, the fringe term at the carrier, and sum w y, the mean level
    under the window."""
    window = _periodic_hann(y.shape[-1])
    kernel = window * np.exp(-1j * k0 * np.arange(y.shape[-1]))
    return (y - y.mean(axis=-1, keepdims=True)) @ kernel, y @ window


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
    if np.ptp(up) < _FLAT_FLOOR or np.ptp(low) < _FLAT_FLOOR:
        raise NoCarrier("profile is flat")
    if k0 is None:
        k0 = estimate_carrier(up)
    finite("k0", k0)
    (su, sl), _ = _carrier_sums(np.stack([up, low]), k0)
    if su == 0.0 or sl == 0.0:
        raise NoCarrier("no carrier power at the estimated frequency")
    return wrap_angle(np.angle(sl) - np.angle(su))


# ---------------------------------------------------------------------------
# Whole-image retrieval

RetrievalMethod = Literal["minima", "fourier", "both"]


@dataclass
class RetrievalResult:
    """Fringe-shift estimate aggregated over evaluation regions.

    ``estimate`` is the circular mean of the per-region estimates (radians,
    in (-pi, pi]); ``uncertainty`` is their circular sample standard
    deviation, or None when fewer than two regions succeeded (a single region
    gives no spread information).  ``method_disagreement`` is filled only for
    method="both".
    """

    estimate: float
    uncertainty: float | None
    region_estimates: list[float] = field(default_factory=list)
    method_disagreement: float | None = None
    carrier: float | None = None
    failed_regions: int = 0


def _circular_mean(angles) -> float:
    return float(np.angle(np.mean(np.exp(1j * np.asarray(angles)))))


def retrieve_phase(
    img: Interferogram,
    regions: Sequence[Region] | None = None,
    method: RetrievalMethod = "both",
) -> RetrievalResult:
    """Recover the half-to-half fringe shift 2*delta of an interferogram.

    Every region runs the pipeline column_average -> estimate_carrier on the
    upper profile -> shift estimator(s), which share that carrier.  The
    Fourier estimator reads the raw profiles; the minima estimator reads them
    smoothed by savitzky_golay.  Regions that raise are skipped (and
    counted); the call fails only when every region fails.
    """
    if method not in ("minima", "fourier", "both"):
        raise ValueError(f"unknown method {method!r}")
    if regions is None:
        regions = default_regions(img)
    if len(regions) == 0:
        raise ValueError("need at least one evaluation region")

    per_region: list[float] = []
    minima_estimates: list[float] = []
    fourier_estimates: list[float] = []
    carriers: list[float] = []
    failures = 0
    last_error: Exception | None = None
    for region in regions:
        try:
            up, low = column_average(img, region)
            # the raw profile: smoothing would damp a fast carrier below the
            # low-frequency shoulder of an enveloped profile
            k0 = estimate_carrier(up)
            values = []
            if method in ("minima", "both"):
                up_s = savitzky_golay(up, _SG_WINDOW)
                low_s = savitzky_golay(low, _SG_WINDOW)
                # the truncated edge fits are the filter's weakest samples; drop
                # them before estimating so no minimum sits on a distorted stretch
                trim = _SG_WINDOW // 2
                if len(up_s) > 6 * _SG_WINDOW:
                    up_s = up_s[trim:len(up_s) - trim]
                    low_s = low_s[trim:len(low_s) - trim]
                values.append(shift_by_minima(up_s, low_s, k0))
                minima_estimates.append(values[-1])
            if method in ("fourier", "both"):
                values.append(shift_by_fourier(up, low, k0))
                fourier_estimates.append(values[-1])
        except (ValueError, ArithmeticError) as exc:
            failures += 1
            last_error = exc
            continue
        carriers.append(k0)
        per_region.append(_circular_mean(values))
    if not per_region:
        try:
            raise last_error
        finally:
            # the traceback holds this frame; a frame that also held the
            # exception would be a cycle pinning the image until a full GC
            last_error = None
    last_error = None  # same cycle, for a failure a later region made up for

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
        failed_regions=failures,
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
    fringe, level = _carrier_sums(profile, estimate_carrier(profile))
    return float(2.0 * abs(fringe) / level)


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
