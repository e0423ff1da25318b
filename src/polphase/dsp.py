"""Signal processing shared by the scan and fringe analyses.

* harmonic_fit: the least-squares fit of an offset plus one harmonic that
  reads both scan methods (synchronous detection, Bruning et al., Appl. Opt.
  13:2693, 1974, in the general form of Greivenkamp, Opt. Eng. 23:350, 1984).
* harmonics: cos k phi and sin k phi of a scan grid, the terms every scan
  law and fit samples.  The one grid both scan methods read, the uniform
  turn np.linspace(0, 2 pi, n, endpoint=False), is cached with its terms and
  its fit's normal matrix, one entry per (n, k), at most eight entries of up
  to 65536 points; a caller's grid takes them when its bytes equal the
  cached grid's, and is then not scanned.  Every other grid is checked and
  computed on each call.
* vertex: the position of the three-point parabola's vertex, which refines a
  sampled extremum of a 1-D array or of the rows of a stack (the carrier
  peaks of spectra, the minima of fringe profiles).
* savitzky_golay: the smoothing (Savitzky & Golay, Anal. Chem. 36:1627, 1964)
  of the minima estimator, the only fringe step that smooths, with its one
  window and order, _SG_WINDOW = 11 and _SG_ORDER = 3; a stack of profiles
  is smoothed in one pass.
* _row_blocks: the cache-sized row blocks of the image, noise and scan-stack kernels.
* _add_normal: the Gaussian noise of scans and images, added in place.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from .su2 import _array, _scalar, finite


#: most elements (of float64: 256 KiB) in one row block
_BLOCK = 1 << 15

#: savitzky_golay's window and polynomial order, the minima estimator's smoothing
_SG_WINDOW, _SG_ORDER = 11, 3


def _row_blocks(rows: int, n: int) -> list:
    """Slices that cut rows of n elements into blocks of at most _BLOCK elements, or of one
    longer row.  Run by blocks, a kernel whose elements and row sums read no other row
    gives the same bits with temporaries of one block."""
    step = max(1, _BLOCK // max(n, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _add_normal(out: np.ndarray, rng: np.random.Generator, sigma) -> None:
    """out += rng.normal(0.0, sigma, out.shape), drawn as standard normals scaled in place.

    numpy draws normal(0.0, sigma) as 0.0 + sigma z from the standard normal z of the same
    stream, so the draws are the same floats but for a zero's sign, and the sums are the same
    floats wherever out holds no -0.0: there a draw sigma z of -0.0 (z = -0.0, or sigma z
    underflows) would keep -0.0 where normal's +0.0 gave +0.0.
    """
    draws = rng.standard_normal(out.shape)
    # |sigma z| <= |z| for sigma <= 1: only a larger sigma can overflow a draw to inf, as normal does, silently
    with np.errstate(over="ignore") if sigma > 1.0 else contextlib.nullcontext():
        draws *= sigma
    out += draws


@functools.cache
def _savgol_fits() -> np.ndarray:
    """Weights of every output sample, as one read-only (_SG_WINDOW//2 + 1, _SG_WINDOW) matrix.

    Row i evaluates, at sample i, the least-squares polynomial of degree
    _SG_ORDER fitted on the window y[:i + _SG_WINDOW//2 + 1] (degree capped
    by the samples available), zero-padded to the window: truncated rows for
    i < _SG_WINDOW//2, and the centre taps in the last row.  By symmetry the
    same rows serve the right edge applied to the reversed profile.
    """
    half = _SG_WINDOW // 2
    fits = np.zeros((half + 1, _SG_WINDOW))
    for i in range(half + 1):
        t = np.arange(i + half + 1, dtype=float) - i
        design = np.vander(t, min(_SG_ORDER, i + half) + 1, increasing=True)
        fits[i, :i + half + 1] = np.linalg.pinv(design)[0]
    fits.flags.writeable = False
    return fits


def savgol_coefficients() -> np.ndarray:
    """Convolution weights evaluating the local LS polynomial at the window centre."""
    return _savgol_fits()[-1].copy()


def savitzky_golay(profile) -> np.ndarray:
    """Least-squares local-polynomial smoothing of fringe profiles along the last axis.

    Each sample is the cubic (_SG_ORDER) fitted over the _SG_WINDOW = 11
    samples centred on it.  Endpoints are handled by refitting on the
    truncated window that remains inside the data (no reflection padding),
    so cubics pass through unchanged everywhere, endpoints included.  The
    fits are computed once.  A stack of profiles is smoothed in one pass,
    each row bit for bit as on its own: one convolution runs over the rows
    laid end to end, every centre sample is the same dot product of its own
    window, and the outputs whose window straddles two rows are dropped;
    each edge is one matrix product over the stack.  ValueError names a
    profile shorter than the window or given as text, and ComplexInput a
    complex one (su2._array).
    """
    y = _array("profile", profile)
    n, window = y.shape[-1], _SG_WINDOW
    if window > n:
        raise ValueError(f"window {window} longer than profile {n}")

    fits, half = _savgol_fits(), window // 2
    rows = y.reshape(-1, n)
    out = np.empty(rows.shape)
    # full mode: output j + window - 1 is the fit centred in the window that starts at sample j
    centre = np.convolve(rows.ravel(), fits[half, ::-1])[window - 1:window - 1 + rows.size]
    out[:, half:n - half] = centre.reshape(-1, n)[:, :n - window + 1]
    out[:, :half] = (fits[:half] @ rows[:, :window, None])[..., 0]
    out[:, n - half:] = (fits[:half] @ rows[:, ::-1][:, :window, None])[:, ::-1, 0]
    return out.reshape(y.shape)


#: smallest accepted 4 det(G) / n^3 of the fit's normal matrix G over n phases: 1 on
#: whole periods, 0 when the phases cannot tell the terms apart (rounding grows ~1/it)
MIN_GRAM_RATIO = 1e-10


class UnresolvableGrid(ValueError):
    """The scanned phases cannot separate the offset from the fitted harmonic."""


#: longest 1-D grid whose terms are cached: at most eight entries of 1.5 MB each
_CACHED_POINTS = 1 << 16


def _design(phi: np.ndarray, k) -> tuple:
    """Read-only cos(k phi) and sin(k phi) of a 1-D grid, with the adjugate and
    determinant of harmonic_fit's normal matrix on that grid as Python floats."""
    c, s = np.cos(k * phi), np.sin(k * phi)
    c.flags.writeable = s.flags.writeable = False
    # normal matrix [[n, sc, ss], [sc, scc, scs], [ss, scs, sss]] and its adjugate, as Python floats
    n, sc, ss = float(len(phi)), float(c.sum()), float(s.sum())
    scc, sss, scs = float((c * c).sum()), float((s * s).sum()), float((c * s).sum())
    a00, a01, a02 = scc * sss - scs * scs, ss * scs - sc * sss, sc * scs - ss * scc
    a11, a12, a22 = n * sss - ss * ss, sc * ss - n * scs, n * scc - sc * sc
    return c, s, (a00, a01, a02, a11, a12, a22), n * a00 + sc * a01 + ss * a02


@functools.lru_cache(maxsize=8)
def _uniform(n: int, k: int) -> tuple:
    """The one grid cache: np.linspace(0, 2 pi, n, endpoint=False) (n up to _CACHED_POINTS; __wrapped__ for
    more), read-only as a view of its bytes, which _terms compares with grid.base, and its _design for k."""
    phi = np.frombuffer(np.linspace(0.0, 2.0 * np.pi, n, endpoint=False).tobytes())
    return phi, _design(phi, k)


def _terms(phi, k: int, name="phi", shape=None) -> tuple:
    """The one gate of a scan grid: phi as floats and its _design for harmonic k, (cos, sin, None, None)
    unless it is 1-D; given the shape of values to fit, ValueError unless they lie along a 1-D phi.

    A 1-D grid of 2 to _CACHED_POINTS points that starts 0, 2 pi / n takes the cached _uniform(n, k) when
    its bytes are that grid's (one memcmp, cheaper than hashing them or numpy's elementwise ==), and is not
    scanned.  Any other grid is scanned and computed on each call, and enters nothing: a NaN or infinite
    phase raises NonFiniteInput under ``name``.
    """
    phi = _array(name, phi)
    n = len(phi) if phi.ndim == 1 else 0
    uniform = 2 <= n <= _CACHED_POINTS and phi[0] == 0.0 and phi[1] == 2.0 * np.pi / n
    grid, terms = _uniform(n, k) if uniform else (None, None)
    if grid is None or phi.tobytes() != grid.base:
        finite(name, phi)
        terms = _design(phi, k) if phi.ndim == 1 else (np.cos(k * phi), np.sin(k * phi), None, None)
    if shape is not None and (phi.ndim != 1 or shape[-1:] != phi.shape):
        raise ValueError(f"values of shape {shape} do not lie along a grid of shape {phi.shape}")
    return terms


def harmonics(phi, k: int = 1):
    """(cos(k phi), sin(k phi)), the same floats numpy gives for k * phi.

    A 1-D grid's pair is read-only: the uniform grid of up to 65536 points,
    in any holder of its bytes, gets the very same cached arrays (see
    _terms); any other grid is computed on each call.  A NaN or infinite
    phase raises NonFiniteInput, a complex one ComplexInput, and a k that is
    not an integer (2.0 is not one: su2._scalar's rule) ValueError.
    """
    c, s, _, _ = _terms(phi, _scalar("k", k, "integer"))
    return c, s


def _sums(y: np.ndarray, c: np.ndarray, s: np.ndarray) -> tuple:
    """Each row's (pairwise) sums of y, y c and y s; one product buffer serves both products."""
    product = y * c
    return y.sum(-1), product.sum(-1), np.multiply(y, s, out=product).sum(-1)


def harmonic_fit(values, phi, k: int):
    """Least-squares offset and k-th harmonic of scans along the last axis.

    (offset, amplitude) with values ~ offset + Re(amplitude) cos(k phi) +
    Im(amplitude) sin(k phi), arrays of the leading shape.  One scan gives a
    Python float and a Python complex, with the bits of the matching row of a
    stack: its 3x3 tail is Python float arithmetic, which rounds as numpy's
    float64 scalars do.  One inverse of the normal matrix serves every row,
    and each row's sums are elementwise products summed along the last axis,
    so a stack gives bit for bit the fits of its rows on their own; on the cached grid
    (see harmonics) a call computes only the three sums of each row.  A grid
    that cannot resolve the terms (fewer than three distinct phases mod 2 pi
    / k, or too short a span) raises UnresolvableGrid, and a NaN or infinite
    value or phase NonFiniteInput.  Complex values or phases raise
    ComplexInput, and a k that is not an integer ValueError, as in
    harmonics.  A stack over one row block is summed by blocks.
    """
    y = np.asarray(finite("values", values))
    return _fit(y, _terms(phi, _scalar("k", k, "integer"), "phi", y.shape), k)


def _fit(y: np.ndarray, terms: tuple, k) -> tuple:
    """harmonic_fit of float scans y along the grid whose _terms(phi, k) are terms."""
    c, s, (a00, a01, a02, a11, a12, a22), det = terms
    n = float(len(c))
    ratio = 4.0 * det / n**3 if n else 0.0
    if not ratio > MIN_GRAM_RATIO:
        raise UnresolvableGrid(f"{len(c)} phases cannot separate an offset from harmonic {k} (4 det / n^3 of "
                               f"the normal matrix {ratio:.3g} < {MIN_GRAM_RATIO:g}): need three distinct "
                               f"phases mod 2 pi / {k}, over more than a sliver of the period")
    if y.ndim > 1 and y.size > _BLOCK and y.strides[-1] == y.itemsize:
        # block by block, each row summed as on its own; where a row's samples are not
        # adjacent, numpy may sum a lone row in another order, so those stacks take one pass
        rows = y.reshape(-1, len(c))
        sums = np.empty((3, len(rows)))
        for block in _row_blocks(*rows.shape):
            sums[:, block] = _sums(rows[block], c, s)
        r0, r1, r2 = sums.reshape((3,) + y.shape[:-1])
    else:
        r0, r1, r2 = _sums(y, c, s)
        if y.ndim == 1:  # one scan: Python float arithmetic, the bits of numpy's float64 scalars at less cost
            r0, r1, r2 = float(r0), float(r1), float(r2)
    offset = (a00 * r0 + a01 * r1 + a02 * r2) / det
    amplitude = (a01 * r0 + a11 * r1 + a12 * r2) / det + 1j * ((a02 * r0 + a12 * r1 + a22 * r2) / det)
    return offset, amplitude


def vertex(values: np.ndarray, index):
    """Sub-sample position of a sampled extremum through the three-point parabola.

    For each interior ``index``, fits the parabola through that sample and its
    two neighbours along the last axis and returns the index along that axis
    + the vertex offset.  ``index`` is an integer or an integer array into a
    1-D ``values``, or a (rows, columns) pair of integer arrays into a stack
    of rows.  A flat triple keeps the index.
    """
    *rows, col = index if isinstance(index, tuple) else (index,)
    ym, y0, yp = values[(*rows, col - 1)], values[(*rows, col)], values[(*rows, col + 1)]
    slope = ym - yp
    with np.errstate(over="ignore", invalid="ignore"):  # an inf sample makes an inf or NaN vertex
        curvature = ym - 2.0 * y0 + yp
    flat = curvature == 0.0
    # a flat triple divides 0 by 1: offset 0, without np.where's cost on scalars
    return col + 0.5 * slope * ~flat / (curvature + flat)
