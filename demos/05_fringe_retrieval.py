"""Dual-half interferograms end to end: generate, store, retrieve.

The upper half of the image is recorded with vertical input, the lower half
with horizontal input, so the two fringe systems sit 2*delta apart and any
common drift cancels.  The script renders a noisy synthetic image, recovers
the shift with the minima-matching and Fourier-carrier estimators over four
evaluation regions, reads the fringe visibility at the carrier, and
round-trips the image through the 16-bit graymap format.
"""

from pathlib import Path

import numpy as np

import polphase as pp
from polphase import fringes

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

delta, beta, k0 = 0.55, 0.35, 0.22
img = fringes.generate(delta, beta, k0, size=(480, 640), noise_sigma=0.02,
                       envelope_width=900.0, seed=8, phi0=0.4)
print(f"synthetic image: 480x640, true 2*delta = {2 * delta:.4f}, "
      f"k0 = {k0} rad/px, 2% noise, gentle beam envelope")

# --- the per-region pipeline, spelled out once -------------------------------
# the carrier and the Fourier read use the raw column averages; only the
# minima estimator smooths (retrieve_phase also trims the filter's edges)
region = fringes.default_regions(img)[1]
up, low = fringes.column_average(img, region)
carrier = fringes.estimate_carrier(up)
up_s = fringes.savitzky_golay(up)
low_s = fringes.savitzky_golay(low)
print(f"\nregion {region}:")
print(f"  estimated carrier: {carrier:.6f} rad/px (true {k0})")
print(f"  minima matching : {fringes.shift_by_minima(up_s, low_s, carrier):+.6f}")
print(f"  Fourier carrier : {fringes.shift_by_fourier(up, low, carrier):+.6f}")

# --- full retrieval over four stacked regions --------------------------------
result = fringes.retrieve_phase(img, method="both")
print("\nfour-region retrieval:")
for i, est in zip(result.region_indices, result.region_estimates):
    print(f"  region {i}: {est:+.6f}")
print(f"  estimate    : {result.estimate:+.6f}  (truth {2 * delta:+.6f})")
print(f"  uncertainty : {result.uncertainty:.2e}")
print(f"  methods disagree by {result.method_disagreement:.2e}")

# --- visibility from a single half: the windowed transform at the carrier ----
vis_region = fringes.Region(220, 420, 190, 238)
vis = fringes.measure_visibility(img, vis_region)
print(f"\nvisibility near the beam axis: {vis:.4f}  (cos(beta) = {np.cos(beta):.4f})")

# --- file round trip ----------------------------------------------------------
path = Path("demo05_interferogram.pgm")
fringes.save_interferogram(img, path, extra={"seed": 8})
loaded, meta = fringes.load_interferogram(path)
redo = fringes.retrieve_phase(loaded, method="both")
print(f"\nwrote {path} (+ sidecar {path}.meta), reloaded and re-analyzed:")
print(f"  estimate after 16-bit round trip: {redo.estimate:+.6f}")
print(f"  sidecar: {meta}")

if plt is not None:
    fig, axes = plt.subplots(2, 1, figsize=(9, 6), height_ratios=[2, 1])
    axes[0].imshow(img.pixels, cmap="gray", aspect="auto")
    axes[0].axhline(img.half_split_row, color="tab:red", lw=0.8)
    axes[0].set_title("dual-half interferogram (upper: V input, lower: H input)")
    x = np.arange(len(up_s))
    axes[1].plot(x, up_s, label="upper profile (smoothed)")
    axes[1].plot(x, low_s, label="lower profile (smoothed)")
    axes[1].set_xlabel("column (px)")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("demo05_fringes.png", dpi=130)
    print("figure written to demo05_fringes.png")
