"""Signal processing shared by the fringe and scan analyses: Savitzky-Golay
smoothing (Savitzky & Golay, Anal. Chem. 36:1627, 1964) and the three-point
parabolic vertex that refines a sampled extremum."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=16)
def _savgol_centre(window: int, order: int) -> np.ndarray:
    half = window // 2
    t = np.arange(-half, half + 1, dtype=float)
    taps = np.linalg.pinv(np.vander(t, order + 1, increasing=True))[0]
    taps.flags.writeable = False
    return taps


@functools.lru_cache(maxsize=16)
def _savgol_fits(window: int, order: int) -> np.ndarray:
    """Weights of every output sample, as one read-only (window//2 + 1, window) matrix.

    Row i < window//2 evaluates, at sample i, the least-squares polynomial
    fitted on the truncated window y[:i + window//2 + 1] (degree capped by the
    samples available), zero-padded to the window; the last row holds the
    centre taps.  By symmetry the same rows serve the right edge applied to
    the reversed profile.
    """
    half = window // 2
    fits = np.zeros((half + 1, window))
    for i in range(half):
        t = np.arange(i + half + 1, dtype=float) - i
        design = np.vander(t, min(order, i + half) + 1, increasing=True)
        fits[i, :i + half + 1] = np.linalg.pinv(design)[0]
    fits[half] = _savgol_centre(window, order)
    fits.flags.writeable = False
    return fits


def savgol_coefficients(window: int, order: int) -> np.ndarray:
    """Convolution weights evaluating the local LS polynomial at the window centre."""
    return _savgol_centre(window, order).copy()


def savitzky_golay(profile: np.ndarray, window: int = 11, order: int = 3) -> np.ndarray:
    """Least-squares local-polynomial smoothing of a fringe profile.

    Endpoints are handled by refitting on the truncated window that remains
    inside the data (no reflection padding), so polynomials of degree <=
    order pass through unchanged everywhere, endpoints included.  All fits
    are cached per (window, order): a call is one convolution plus one small
    matrix product per edge.
    """
    y = np.asarray(profile, dtype=float)
    n = len(y)
    if window % 2 == 0 or window < 1:
        raise ValueError(f"window must be odd and positive, got {window}")
    if order < 0 or order >= window:
        raise ValueError(f"order must satisfy 0 <= order < window, got {order}")
    if window > n:
        raise ValueError(f"window {window} longer than profile {n}")

    half = window // 2
    fits = _savgol_fits(window, order)
    out = np.empty_like(y)
    out[half:n - half] = np.convolve(y, fits[half, ::-1], mode="valid")
    out[:half] = fits[:half] @ y[:window]
    out[n - half:] = (fits[:half] @ y[::-1][:window])[::-1]
    return out


def circular_savitzky_golay(values: np.ndarray, window: int, order: int = 3) -> np.ndarray:
    """Savitzky-Golay centre taps applied around a periodic scan, wrapping at the ends.

    Scans lie along the last axis.  A stack is filtered row by row, one
    np.convolve each, so every row comes out exactly as it would on its own.
    """
    y = np.asarray(values, dtype=float)
    n, half = y.shape[-1], window // 2
    if window % 2 == 0 or not 1 <= window <= n or not 0 <= order < window:
        raise ValueError(f"need an odd window in [1, {n}] and 0 <= order < window, got {window}, {order}")
    padded = np.concatenate([y[..., n - half:], y, y[..., :half]], axis=-1)
    taps = _savgol_centre(window, order)[::-1]
    rows = [np.convolve(row, taps, mode="valid") for row in padded.reshape(-1, n + 2 * half)]
    return np.array(rows).reshape(y.shape)


_NEIGHBOURS = np.arange(-1, 2)


def vertex(values: np.ndarray, index):
    """Sub-sample extremum through the three-point parabola, elementwise.

    For each position in ``index`` along the last axis of ``values``, fits
    the parabola through that sample and its two neighbours (wrapping around
    the ends) and returns (index + vertex offset, vertex value).  ``index``
    has the leading shape of ``values``, optionally with a trailing axis of
    several positions per row.  A flat triple keeps the middle sample.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    index = np.asarray(index)[()]  # a scalar index stays a numpy scalar: its arithmetic is cheap
    # flat positions of each sample and its neighbours, on a leading axis of three,
    # wrapping around within the sample's row
    positions = np.add.outer(_NEIGHBOURS, index) % n
    if values.ndim > 1:
        positions += np.arange(0, values.size, n).reshape(values.shape[:-1] + (1,) * (positions.ndim - values.ndim))
    ym, y0, yp = values.reshape(-1).take(positions)
    slope = ym - yp
    curvature = ym - 2.0 * y0 + yp
    flat = curvature == 0.0
    # a flat triple divides 0 by 1: offset 0, without np.where's cost on scalars
    offset = 0.5 * slope * ~flat / (curvature + flat)
    return index + offset, y0 - 0.25 * slope * offset
