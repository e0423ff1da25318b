"""The interferometer's overlap law and the drift-immune split-beam trick.

Sweeps the scanned arm phase for vertically and horizontally polarized input
and shows the two fringes displaced by twice the Pancharatnam phase; the
displacement is then recovered, as the split-beam measurement does, from the
phases of the first-harmonic least-squares fits of the two fringes.  Also maps fringe visibility over plate angles.
"""

import numpy as np

import polphase as pp

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

# --- a transformation with a known phase ------------------------------------
beta, gamma, delta = np.pi / 5, 0.3, 0.65
u = pp.from_zyz(beta, gamma, delta)
print(f"transformation: beta={beta:.4f}, delta={delta:.4f} "
      f"(expect fringe shift 2*delta = {2 * delta:.4f})")

phis = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
i_v = pp.output_intensity("V", u, phis)
i_h = pp.output_intensity("H", u, phis)
print(f"I_V range: [{i_v.min():.4f}, {i_v.max():.4f}]  "
      f"(visibility {(i_v.max() - i_v.min()) / (i_v.max() + i_v.min()):.4f}, "
      f"cos(beta) = {np.cos(beta):.4f})")

shift = pp.split_beam_shift(u, phis)
print(f"fitted shift estimate: {shift:.6f}  "
      f"(error {abs(shift - 2 * delta):.2e})")

# both exit ports together conserve the input power
total = pp.output_intensity("V", u, 0.7) + pp.output_intensity("V", u, 0.7,
                                                               complementary=True)
print(f"port intensities sum to {total:.12f}")

# a flat fringe carries no shift information
try:
    pp.split_beam_shift(pp.from_zyz(np.pi / 2, 0.0, 0.4), phis)
except pp.ZeroVisibility as exc:
    print(f"beta = pi/2 has zero visibility: {exc}")

# --- visibility over plate angles --------------------------------------------
print("\nvisibility with theta1 = 0.3 and theta3 = -0.9 fixed, theta2 swept:")
for theta2 in np.linspace(-np.pi / 2, np.pi / 2, 9):
    v = pp.visibility_plates(0.3, theta2, -0.9)
    bar = "#" * int(round(40 * v))
    print(f"  theta2={theta2:+.3f}  v={v:.4f} {bar}")

if plt is not None:
    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    axes[0].plot(phis, i_v, label="$I_V$")
    axes[0].plot(phis, i_h, label="$I_H$")
    axes[0].set_xlabel("scanned phase (rad)")
    axes[0].set_ylabel("intensity")
    axes[0].set_title(f"dual-polarization fringes, shift $2\\delta$ = {2 * delta:.3f}")
    axes[0].legend()

    t2 = np.linspace(-np.pi / 2, np.pi / 2, 121)
    t3 = np.linspace(-np.pi / 2, np.pi / 2, 121)
    vis = pp.visibility_plates(0.3, t2, t3[:, None])  # the whole map in one broadcast call
    im = axes[1].pcolormesh(t2, t3, vis, shading="auto")
    axes[1].set_xlabel("theta2 (rad)")
    axes[1].set_ylabel("theta3 (rad)")
    axes[1].set_title("visibility, theta1 = 0.3")
    fig.colorbar(im, ax=axes[1])
    fig.tight_layout()
    fig.savefig("demo03_interferometer.png", dpi=130)
    print("\nfigure written to demo03_interferometer.png")
