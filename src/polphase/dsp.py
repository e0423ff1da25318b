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
    """Savitzky-Golay centre taps applied around a periodic scan, wrapping at the ends."""
    y = np.asarray(values, dtype=float)
    n, half = len(y), window // 2
    if window % 2 == 0 or not 1 <= window <= n or not 0 <= order < window:
        raise ValueError(f"need an odd window in [1, {n}] and 0 <= order < window, got {window}, {order}")
    padded = np.concatenate([y[n - half:], y, y[:half]])
    return np.convolve(padded, _savgol_centre(window, order)[::-1], mode="valid")


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
    index = np.asarray(index)
    # flat positions of each sample and its neighbours, wrapping around within its row
    rows = n * np.arange(values.size // n).reshape(values.shape[:-1] + (1,) * (index.ndim - values.ndim + 2))
    triple = values.reshape(-1).take(rows + (index[..., None] + np.arange(-1, 2)) % n)
    ym, y0, yp = triple[..., 0], triple[..., 1], triple[..., 2]
    denom = ym - 2.0 * y0 + yp
    flat = denom == 0.0
    offset = np.where(flat, 0.0, 0.5 * (ym - yp) / np.where(flat, 1.0, denom))
    return index + offset, y0 - 0.25 * (ym - yp) * offset
