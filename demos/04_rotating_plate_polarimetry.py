"""Phase from a single beam: the rotating five-plate scan.

No second beam is needed: scanning the common rotation angle of the plate
assembly modulates the transmitted intensity as an offset plus a second
harmonic, whose least-squares fit gives the extrema; they encode
cos^2(phase) through I_min / (1 - I_max + I_min).  The script runs clean and
noisy scans and regenerates the reduced-mode curves cos^2(eta/2).
"""

import numpy as np

import polphase as pp
from polphase import polarimetry

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

# --- one full scan -----------------------------------------------------------
xi, eta, zeta = 1.4, 0.9, -0.5
zyz = pp.yzy_to_zyz(xi, eta, zeta)
truth = np.cos(zyz.delta) ** 2
sweep = polarimetry.polarimetric_sweep(xi, eta, zeta, n_grid=2048)
i_min, i_max = polarimetry.sweep_extrema(sweep)
print(f"scan of U({xi}, {eta}, {zeta}):  I_min={i_min:.6f}, I_max={i_max:.6f}")
print(f"extremum ratio  -> cos^2(phase) = {pp.extract_cos2_phase(i_min, i_max):.8f}")
print(f"conversion says    cos^2(delta) = {truth:.8f}")

noisy = pp.measure_phase(xi, eta, zeta, n_grid=4096, noise_sigma=0.01, seed=12)
print(f"with 1% intensity noise:          {noisy:.6f}  (err {abs(noisy - truth):.4f})")

# --- reduced modes: the curve cos^2(eta/2) -----------------------------------
etas = np.linspace(0.0, 2 * np.pi, 25, endpoint=False)
print("\n eta     zeta=2pi mode   xi=-pi mode   cos^2(eta/2)")
rows = []
for e in etas[::3]:
    a = pp.measure_phase(0.8, e, 2 * np.pi)
    b = pp.measure_phase(-np.pi, e, np.pi / 2)
    rows.append((e, a, b))
    print(f"  {e:5.3f}   {a:11.6f}   {b:11.6f}   {np.cos(e / 2) ** 2:11.6f}")

# --- the alignment configuration ---------------------------------------------
# the xi = -pi scan (the three-plate reduction) at eta = 0, zeta = pi
flat = polarimetry.polarimetric_intensity(-np.pi, 0.0, np.pi, np.linspace(0, 2 * np.pi, 9))
print(f"\neta=0, zeta=pi gives a constant scan (useful for alignment): {flat}")

try:
    pp.measure_phase(-np.pi, 1.0, 0.0)
except pp.DegenerateDenominator as exc:
    print(f"beta = pi/2 leaves no phase contrast: {exc}")

if plt is not None:
    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    axes[0].plot(sweep.phi_grid, sweep.intensities)
    axes[0].set_xlabel("common rotation phase (rad)")
    axes[0].set_ylabel("transmitted intensity")
    axes[0].set_title("one rotation scan")

    curve = [pp.measure_phase(0.8, e, 2 * np.pi) for e in etas]
    axes[1].plot(etas, curve, "o", label="measured, zeta=2pi mode")
    axes[1].plot(etas, np.cos(etas / 2) ** 2, "-", label="cos$^2$(eta/2)")
    axes[1].set_xlabel("eta (rad)")
    axes[1].set_ylabel("cos$^2$(phase)")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("demo04_polarimetry.png", dpi=130)
    print("figure written to demo04_polarimetry.png")
