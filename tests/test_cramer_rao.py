"""The paper's method comparison at its Cramer-Rao bounds: under white noise of standard deviation sigma on n
scan points, each read-out's spread over seeds matches the variance bound of its estimator.

* Polarimetric: measure_phase's cos^2 delta = I_min / (1 - I_max + I_min) from the fitted offset a and second
  harmonic of amplitude R (var a = sigma^2 / n, var R = 2 sigma^2 / n), so
  var = sigma^2 / n * [1 + 2 cos^2 2 delta] / cos^4 beta.
* Interferometric: 2 delta is the difference of the fitted phases of two independent half-fringes, sinusoids
  of amplitude cos(beta) / 2, each with var = 8 sigma^2 / (n cos^2 beta) (Rife & Boorstyn, IEEE Trans. Inf.
  Theory 20:591, 1974), so var = 16 sigma^2 / (n cos^2 beta).

The draws keep both scans' extrema at least 5 sigma inside [0, 1], where the clip of add_scan_noise never
bites, and |sin 2 delta| >= 0.2, away from the points where cos^2 delta reaches 0 or 1.
"""

import numpy as np
import pytest

from polphase import dsp, interferometer, polarimetry, su2

SIGMA, N, SEEDS = 0.01, 4096, 300
PHI = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)


def _draws(count=8):
    """count seeded (xi, eta, zeta) with cos^2 beta in [0.15, 0.8], |sin 2 delta| >= 0.2, and every scan's
    extrema at least 5 sigma inside [0, 1], each with its (beta, delta)."""
    rng, draws, margin = np.random.default_rng(14), [], 5.0 * SIGMA
    while len(draws) < count:
        angles = rng.uniform(-np.pi, np.pi, 3)
        zyz = su2.yzy_to_zyz(*angles)
        cos2b, cos2d = np.cos(zyz.beta) ** 2, np.cos(zyz.delta) ** 2
        i_min, i_max = cos2b * cos2d, cos2b * cos2d + 1.0 - cos2b
        fringe_min = 0.5 * (1.0 - np.cos(zyz.beta))
        if (0.15 <= cos2b <= 0.8 and abs(np.sin(2.0 * zyz.delta)) >= 0.2
                and margin <= min(i_min, fringe_min) and i_max <= 1.0 - margin):
            draws.append((angles, zyz.beta, zyz.delta))
    return draws


@pytest.mark.parametrize("angles, beta, delta", _draws(), ids=[f"draw{i}" for i in range(8)])
def test_both_read_outs_reach_their_cramer_rao_bounds(angles, beta, delta):
    cos2d = [polarimetry.measure_phase(*angles, N, SIGMA, seed) for seed in range(SEEDS)]
    bound = np.sqrt(SIGMA**2 / N * (1.0 + 2.0 * np.cos(2.0 * delta) ** 2) / np.cos(beta) ** 4)
    assert 0.8 <= np.std(cos2d, ddof=1) / bound <= 1.25

    u = su2.from_yzy(*angles)
    halves = [polarimetry.add_scan_noise(np.tile(interferometer.output_intensity(pol, u, PHI), (SEEDS, 1)),
                                         SIGMA, seed) for pol, seed in (("V", 0), ("H", SEEDS))]
    (_, amp_v), (_, amp_h) = (dsp.harmonic_fit(half, PHI, 1) for half in halves)
    two_delta = su2.wrap_angle(np.angle(amp_v) - np.angle(amp_h) - 2.0 * delta)
    bound = np.sqrt(16.0 * SIGMA**2 / (N * np.cos(beta) ** 2))
    assert 0.8 <= np.std(two_delta, ddof=1) / bound <= 1.25
