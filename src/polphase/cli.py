"""Command-line front end: compilation, sweeps and synthetic-image campaigns.

Subcommands
    decompose    compile an SU(2) transformation into a wave-plate array
    interf       Mach-Zehnder sweeps (fringe curves, phase surfaces)
    polarimetry  rotating-array scans and phase extraction
    fringe       synthetic dual-half interferograms: generate / analyze
    visibility   fringe-contrast curves and surfaces over plate angles

Every run resolves its parameters from flags plus an optional ``key=value``
config file (flags win; its keys are the command's own value-taking options
bar ``--config`` and ``--out-dir``, anything else is refused), converts angles
from degrees when ``--degrees`` is given, and writes the fully resolved
configuration next to its outputs so the run can be reproduced exactly.  CSV
output uses 12 significant digits and is byte-stable across reruns with the
same configuration and seed.  On failure a single ``error: <Kind>: <message>``
line goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import dsp, fringes, interferometer, plates, polarimetry, su2

OUTDIR_ENV = "POLPHASE_OUTDIR"


class UnknownConfigKey(ValueError):
    """A config-file line is not ``key=value`` with one of the command's value options."""


@functools.cache
def _row_template(types: tuple) -> str:
    """printf template of a CSV line: None is an empty cell, a float (numpy's
    too) has 12 significant digits, anything else is str()."""
    return ",".join("%.0s" if t is type(None) else "%.12g" if issubclass(t, float) else "%s"
                    for t in types) + "\n"


def _format_row(row) -> str:
    row = tuple(row)
    return _row_template(tuple(map(type, row))) % row


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([_format_row(row) for row in rows]))


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UnknownConfigKey(f"{path}: {line!r} is not a key=value line")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    return config


class Resolver:
    """Merge CLI flags with config-file values and record the result."""

    def __init__(self, args, config: dict, degrees: bool):
        self.args = args
        self.config = config
        self.degrees = degrees
        self.resolved: dict = {"degrees": degrees}

    def _raw(self, name: str, cast, default, required):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None and name in self.config:
            value = cast(self.config[name])
        if value is None:
            value = default
        if required and value is None:
            raise ValueError(f"missing required parameter --{name}")
        self.resolved[name] = value
        return value

    def number(self, name, default=None, required=False) -> float | None:
        return self._raw(name, float, default, required)

    def angle(self, name, default=None, required=False) -> float | None:
        value = self._raw(name, float, default, required)
        if value is not None and self.degrees:
            value = self.resolved[name] = float(np.deg2rad(value))
        return value

    def integer(self, name, default=None, required=False) -> int | None:
        return self._raw(name, int, default, required)

    def text(self, name, default=None, required=False) -> str | None:
        return self._raw(name, str, default, required)

    def angle_grid(self, name, default=None, required=False) -> np.ndarray:
        """Parse 'v' or 'start:stop:count' (inclusive endpoints) into angles."""
        raw = self._raw(name, str, default, required)
        parts = str(raw).split(":")
        if len(parts) == 1:
            values = np.array([float(parts[0])])
        elif len(parts) == 3:
            values = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
        else:
            raise ValueError(f"--{name} must be 'value' or 'start:stop:count', got {raw!r}")
        return np.deg2rad(values) if self.degrees else values

    def write(self, outdir: Path, command: str) -> None:
        lines = [f"command={command}\n"]
        for key in sorted(self.resolved):
            lines.append(f"{key}={_format_row((self.resolved[key],))}")
        (outdir / f"{command}_config.txt").write_text("".join(lines), encoding="ascii")


def _outdir(args) -> Path:
    out = args.out_dir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _outpath(outdir: Path, name: str) -> Path:
    p = Path(name)
    return p if p.is_absolute() else outdir / p


# ---------------------------------------------------------------------------
# decompose

def _cmd_decompose(args, config) -> int:
    r = Resolver(args, config, args.degrees)
    xi = r.angle("xi", required=True)
    eta = r.angle("eta", required=True)
    zeta = r.angle("zeta", required=True)
    mode = r.integer("mode", default=3)
    out = r.text("out", default="plates.txt")
    outdir = _outdir(args)

    if mode == 3:
        array = plates.decompose_qhq(xi, eta, zeta)
        target = su2.from_yzy(xi, eta, zeta)
        r.resolved["phi"] = None
    elif mode == 5:
        phi = r.angle("phi", default=0.0)
        array = plates.polarimetric_array(xi, eta, zeta, phi)
        target = plates.polarimetric_target(su2.from_yzy(xi, eta, zeta), phi)
    else:
        raise ValueError(f"--mode must be 3 or 5, got {mode}")

    composed = plates.compose(array)
    residual = float(np.max(np.abs(composed - target)))
    path = _outpath(outdir, out)
    path.write_text(plates.format_plate_array(array), encoding="ascii")
    r.write(outdir, "decompose")

    print(f"plates written to {path}")
    for p in array:
        print(f"  {p.kind} {p.axis:+.12g}")
    print("composed matrix:")
    for row in composed:
        print("  [" + "  ".join(f"{v.real:+.12g}{v.imag:+.12g}j" for v in row) + "]")
    print(f"compose-verify max residual: {residual:.3e}")
    return 0


# ---------------------------------------------------------------------------
# interf

def _cmd_interf_sweep(args, config) -> int:
    r = Resolver(args, config, args.degrees)
    xi = r.angle("xi", required=True)
    eta = r.angle("eta", required=True)
    zeta = r.angle("zeta", required=True)
    samples = r.integer("samples", default=1024)
    out = r.text("out", default="interf_sweep.csv")
    outdir = _outdir(args)

    u = su2.from_yzy(xi, eta, zeta)
    phis = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    i_v = interferometer.output_intensity("V", u, phis)
    i_h = interferometer.output_intensity("H", u, phis)
    _write_csv(_outpath(outdir, out), ["phi", "I_V", "I_H"],
               zip(phis.tolist(), i_v.tolist(), i_h.tolist()))
    r.write(outdir, "interf_sweep")

    zyz = su2.to_zyz(u)
    try:
        shift = interferometer.split_beam_shift(u, phis)
        print(f"recovered_2delta={shift:.12g}")
    except interferometer.ZeroVisibility as exc:
        print(f"warning: {exc}", file=sys.stderr)
        print("recovered_2delta=undefined")
    if zyz.delta_defined:
        print(f"expected_2delta={su2.wrap_angle(2.0 * zyz.delta):.12g}")
    print(f"visibility={np.cos(zyz.beta):.12g}")
    return 0


def _cmd_interf_surface(args, config) -> int:
    r = Resolver(args, config, args.degrees)
    zeta = r.angle("zeta", default=0.0)
    xi_grid = r.angle_grid("xi-grid", default="0:6.283185307179586:33")
    eta_grid = r.angle_grid("eta-grid", default="0:6.283185307179586:33")
    out = r.text("out", default="phase_surface.csv")
    outdir = _outdir(args)

    xi, eta = np.meshgrid(xi_grid, eta_grid, indexing="ij")
    zyz = su2.yzy_to_zyz(xi, eta, zeta)
    cos_delta = np.cos(zyz.delta)
    cos2 = cos_delta * cos_delta
    # beta = pi/2: phase undefined, cell left empty
    rows = [(x, e, c if defined else None) for x, e, c, defined in
            zip(xi.ravel().tolist(), eta.ravel().tolist(), cos2.ravel().tolist(),
                zyz.delta_defined.ravel().tolist())]
    degenerate = int(np.count_nonzero(~zyz.delta_defined))
    _write_csv(_outpath(outdir, out), ["xi", "eta", "cos2_phase"], rows)
    r.write(outdir, "interf_surface")
    if degenerate:
        print(f"warning: {degenerate} grid points with undefined phase (beta=pi/2)",
              file=sys.stderr)
    print(f"surface written to {_outpath(outdir, out)} ({len(rows)} points)")
    return 0


# ---------------------------------------------------------------------------
# polarimetry

def _cmd_polarimetry(args, config) -> int:
    r = Resolver(args, config, args.degrees)
    plate_file = r.text("plates", default=None)
    if plate_file is not None:
        return _polarimetry_plate_scan(args, r, plate_file)
    mode = r.text("mode", default="full")
    if mode not in ("full", "zeta2pi", "ximinuspi"):
        raise ValueError(f"--mode must be full, zeta2pi or ximinuspi, got {mode!r}")
    if mode == "zeta2pi":
        xi = r.angle("xi", default=0.0)
        zeta = 2.0 * np.pi
        r.resolved["zeta"] = zeta
    elif mode == "ximinuspi":
        xi = -np.pi
        zeta = r.angle("zeta", default=np.pi)
        r.resolved["xi"] = xi
    else:
        xi = r.angle("xi", required=True)
        zeta = r.angle("zeta", required=True)
    eta_steps = r.integer("eta-steps", default=64)
    n_grid = r.integer("n-grid", default=4096)
    noise = r.number("noise-sigma", default=0.0)
    seed = r.integer("seed", default=0)
    out = r.text("out", default="polarimetry.csv")
    outdir = _outdir(args)

    etas = np.linspace(0.0, 2.0 * np.pi, eta_steps, endpoint=False)
    zyz = su2.yzy_to_zyz(xi, etas, zeta)
    cos_delta = np.cos(zyz.delta)
    expected_cos2 = [c if defined else None for c, defined in
                     zip((cos_delta * cos_delta).tolist(), zyz.delta_defined.tolist())]
    # one scan per eta, as one stack; row k is the scan measure_phase makes with seed + k
    curve = polarimetry.polarimetric_sweep(xi, etas, zeta, n_grid, noise, seed)
    i_min, i_max = polarimetry.sweep_extrema(curve, polarimetry.smoothing_window(n_grid, noise))
    rows = []
    degenerate = 0
    for eta, lo, hi, expected in zip(etas.tolist(), i_min.tolist(), i_max.tolist(), expected_cos2):
        try:
            measured = polarimetry.extract_cos2_phase(lo, hi)
        except polarimetry.DegenerateDenominator as exc:
            print(f"warning: eta={eta:.6g}: {exc}", file=sys.stderr)
            measured = None
            degenerate += 1
        rows.append((eta, measured, expected))
    _write_csv(_outpath(outdir, out), ["eta", "cos2_measured", "cos2_expected"], rows)

    sweep_out = r.text("sweep-out", default=None)
    if sweep_out is not None:
        eta0 = r.angle("eta", required=True)
        sweep = polarimetry.polarimetric_sweep(xi, eta0, zeta, n_grid, noise, seed)
        _write_csv(_outpath(outdir, sweep_out), ["phi", "intensity"],
                   zip(sweep.phi_grid.tolist(), sweep.intensities.tolist()))
    r.write(outdir, "polarimetry")
    print(f"curve written to {_outpath(outdir, out)} ({len(rows)} points, "
          f"{degenerate} degenerate)")
    return 0


def _polarimetry_plate_scan(args, r: Resolver, plate_file: str) -> int:
    """Scan a user-supplied plate array (plain-text plate list) over phi."""
    n_grid = r.integer("n-grid", default=4096)
    noise = r.number("noise-sigma", default=0.0)
    seed = r.integer("seed", default=0)
    out = r.text("out", default="plate_scan.csv")
    outdir = _outdir(args)

    array = plates.parse_plate_array(Path(plate_file).read_text())
    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    intensity = polarimetry.add_scan_noise(polarimetry.scan_plate_array(array, phis), noise, seed)
    _write_csv(_outpath(outdir, out), ["phi", "intensity"],
               zip(phis.tolist(), intensity.tolist()))
    r.write(outdir, "polarimetry")

    sweep = polarimetry.PolarimetricSweep(phis, intensity, su2.YzyParams(0, 0, 0))
    i_min, i_max = polarimetry.sweep_extrema(sweep, polarimetry.smoothing_window(n_grid, noise))
    print(f"scan written to {_outpath(outdir, out)} ({len(array)} plates)")
    print(f"I_min={i_min:.12g}")
    print(f"I_max={i_max:.12g}")
    try:
        print(f"cos2_phase={polarimetry.extract_cos2_phase(i_min, i_max):.12g}")
    except (polarimetry.DegenerateDenominator, polarimetry.InvalidExtrema) as exc:
        print(f"warning: {exc}", file=sys.stderr)
        print("cos2_phase=undefined")
    return 0


# ---------------------------------------------------------------------------
# fringe

def _cmd_fringe_generate(args, config) -> int:
    r = Resolver(args, config, args.degrees)
    delta = r.angle("delta", required=True)
    beta = r.angle("beta", default=0.0)
    k0 = r.number("k0", default=0.2)
    width = r.integer("width", default=640)
    height = r.integer("height", default=480)
    noise = r.number("noise-sigma", default=0.0)
    envelope = r.number("envelope-width", default=None)
    phi0 = r.angle("phi0", default=0.0)
    seed = r.integer("seed", default=0)
    out = r.text("out", default="interferogram.pgm")
    outdir = _outdir(args)

    img = fringes.generate(
        delta, beta, k0, size=(height, width), noise_sigma=noise,
        envelope_width=envelope, seed=seed, phi0=phi0,
    )
    path = _outpath(outdir, out)
    fringes.save_interferogram(img, path, extra={"seed": seed, "beta": beta,
                                                 "noise_sigma": noise})
    r.write(outdir, "fringe_generate")
    print(f"image written to {path} ({height}x{width}, 2*delta={2*delta:.6g})")
    return 0


def _parse_region(text: str) -> fringes.Region:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"region must be 'c0:c1:r0:r1', got {text!r}")
    c0, c1, r0, r1 = (int(p) for p in parts)
    return fringes.Region(c0, c1, r0, r1)


def _cmd_fringe_analyze(args, config) -> int:
    r = Resolver(args, config, args.degrees)
    image = r.text("image", required=True)
    method = r.text("method", default="both")
    sg_window = r.integer("sg-window", default=11)
    sg_order = r.integer("sg-order", default=3)
    out = r.text("out", default=None)
    outdir = _outdir(args)

    img, meta = fringes.load_interferogram(image)
    specs = args.region or [s for s in config.get("region", "").split(";") if s]
    if specs:
        regions = [_parse_region(s) for s in specs]
        r.resolved["regions"] = ";".join(specs)
    else:
        regions = fringes.default_regions(img)
        r.resolved["regions"] = "auto"

    result = fringes.retrieve_phase(img, regions, method=method,
                                    sg_window=sg_window, sg_order=sg_order)
    r.write(outdir, "fringe_analyze")

    print(f"carrier_k0={result.carrier:.12g}")
    for i, est in enumerate(result.region_estimates):
        print(f"region_{i}_2delta={est:.12g}")
    print(f"estimate_2delta={result.estimate:.12g}")
    if result.uncertainty is None:
        print("uncertainty=undefined (single region)")
    else:
        print(f"uncertainty={result.uncertainty:.12g}")
    if result.method_disagreement is not None:
        print(f"method_disagreement={result.method_disagreement:.12g}")
    if result.failed_regions:
        print(f"warning: {result.failed_regions} region(s) failed", file=sys.stderr)
    if "true_delta" in meta:
        truth = su2.wrap_angle(2.0 * float(meta["true_delta"]))
        error = abs(su2.wrap_angle(result.estimate - truth))
        print(f"true_2delta={truth:.12g}")
        print(f"abs_error={error:.12g}")
    if out:
        rows = [(i, reg.col_start, reg.col_end, reg.row_start, reg.row_end, est)
                for i, (reg, est) in enumerate(zip(regions, result.region_estimates))]
        _write_csv(_outpath(outdir, out),
                   ["region", "col_start", "col_end", "row_start", "row_end", "estimate_2delta"],
                   rows)
    profiles_out = r.text("profiles-out", default=None)
    if profiles_out:
        up, low = fringes.column_average(img, regions[0])
        up_s = fringes.savitzky_golay(up, sg_window, sg_order)
        low_s = fringes.savitzky_golay(low, sg_window, sg_order)
        _write_csv(_outpath(outdir, profiles_out),
                   ["column", "upper", "lower", "upper_smooth", "lower_smooth"],
                   zip(range(regions[0].col_start, regions[0].col_end),
                       up.tolist(), low.tolist(), up_s.tolist(), low_s.tolist()))
    return 0


# ---------------------------------------------------------------------------
# visibility

def _simulated_visibility(theta1, theta2, theta3, samples=1024) -> np.ndarray:
    """Contrast of simulated interferometer sweeps, over arrays of QHQ plate angles."""
    u = plates.compose("QHQ", np.stack([theta1, theta2, theta3], axis=-1))
    phis = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    intensity = interferometer.output_intensity("V", u, phis)
    _, i_max = dsp.vertex(intensity, np.argmax(intensity, axis=-1))
    _, i_min = dsp.vertex(intensity, np.argmin(intensity, axis=-1))
    return (i_max - i_min) / (i_max + i_min)


def _cmd_visibility(args, config) -> int:
    r = Resolver(args, config, args.degrees)
    t1_grid = r.angle_grid("theta1", required=True)
    t2_grid = r.angle_grid("theta2", required=True)
    t3_grid = r.angle_grid("theta3", required=True)
    out = r.text("out", default="visibility.csv")
    check = bool(args.check)
    r.resolved["check"] = check
    outdir = _outdir(args)

    header = ["theta1", "theta2", "theta3", "visibility"]
    if check:
        header.append("visibility_sim")
    t1, t2, t3 = (g.ravel() for g in np.meshgrid(t1_grid, t2_grid, t3_grid, indexing="ij"))
    columns = [t1, t2, t3, interferometer.visibility_plates(t1, t2, t3)]
    if check:
        columns.append(_simulated_visibility(t1, t2, t3))
    rows = list(zip(*(c.tolist() for c in columns)))
    _write_csv(_outpath(outdir, out), header, rows)
    r.write(outdir, "visibility")
    print(f"visibility data written to {_outpath(outdir, out)} ({len(rows)} points)")
    return 0


# ---------------------------------------------------------------------------

def _add_command(parser: argparse.ArgumentParser, func) -> None:
    """Add the options every command shares and set its handler; the command's
    config-file keys are the value-taking options it had before this call."""
    keys = {opt[2:] for action in parser._actions if action.nargs != 0
            for opt in action.option_strings if opt.startswith("--")}
    parser.add_argument("--degrees", action="store_true",
                        help="interpret angle arguments as degrees")
    parser.add_argument("--config", help="key=value file supplying defaults")
    parser.add_argument("--out-dir", help=f"output directory (default ${OUTDIR_ENV} or '.')")
    parser.set_defaults(func=func, config_keys=frozenset(keys))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polphase",
        description="Pancharatnam-phase simulation and retrieval toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compile an SU(2) operator into wave plates")
    for name in ("xi", "eta", "zeta", "phi"):
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--mode", type=int, choices=(3, 5))
    p.add_argument("--out")
    _add_command(p, _cmd_decompose)

    p = sub.add_parser("interf", help="Mach-Zehnder interferometer sweeps")
    isub = p.add_subparsers(dest="interf_command", required=True)
    ps = isub.add_parser("sweep", help="phi sweep: CSV of (phi, I_V, I_H) plus 2*delta")
    for name in ("xi", "eta", "zeta"):
        ps.add_argument(f"--{name}", type=float)
    ps.add_argument("--samples", type=int)
    ps.add_argument("--out")
    _add_command(ps, _cmd_interf_sweep)
    pu = isub.add_parser("surface", help="cos^2(phase) over an (xi, eta) grid at fixed zeta")
    pu.add_argument("--zeta", type=float)
    pu.add_argument("--xi-grid", help="'start:stop:count' or single value")
    pu.add_argument("--eta-grid", help="'start:stop:count' or single value")
    pu.add_argument("--out")
    _add_command(pu, _cmd_interf_surface)

    p = sub.add_parser("polarimetry", help="rotating plate-array scans")
    p.add_argument("--mode", choices=("full", "zeta2pi", "ximinuspi"))
    p.add_argument("--xi", type=float)
    p.add_argument("--eta", type=float, help="eta for the --sweep-out raw scan")
    p.add_argument("--zeta", type=float)
    p.add_argument("--eta-steps", type=int)
    p.add_argument("--n-grid", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--plates", help="scan a plate-list file instead of Euler angles")
    p.add_argument("--sweep-out", help="also write the raw (phi, intensity) scan at --eta")
    p.add_argument("--out")
    _add_command(p, _cmd_polarimetry)

    p = sub.add_parser("fringe", help="synthetic dual-half interferograms")
    fsub = p.add_subparsers(dest="fringe_command", required=True)
    pg = fsub.add_parser("generate", help="write a synthetic image plus metadata sidecar")
    for name in ("delta", "beta", "k0", "noise-sigma", "envelope-width", "phi0"):
        pg.add_argument(f"--{name}", type=float)
    pg.add_argument("--width", type=int)
    pg.add_argument("--height", type=int)
    pg.add_argument("--seed", type=int)
    pg.add_argument("--out")
    _add_command(pg, _cmd_fringe_generate)
    pa = fsub.add_parser("analyze", help="retrieve 2*delta from an image")
    pa.add_argument("--image")
    pa.add_argument("--method", choices=("minima", "fourier", "both"))
    pa.add_argument("--region", action="append",
                    help="evaluation region 'c0:c1:r0:r1' (repeatable, ';'-separated in a "
                         "config file; default: auto)")
    pa.add_argument("--sg-window", type=int)
    pa.add_argument("--sg-order", type=int)
    pa.add_argument("--out", help="optional per-region CSV report")
    pa.add_argument("--profiles-out", help="optional CSV of the first region's profiles")
    _add_command(pa, _cmd_fringe_analyze)

    p = sub.add_parser("visibility", help="fringe contrast over plate angles")
    for name in ("theta1", "theta2", "theta3"):
        p.add_argument(f"--{name}", help="'value' or 'start:stop:count'")
    p.add_argument("--check", action="store_true",
                   help="add a column cross-checking against the simulated interferometer")
    p.add_argument("--out")
    _add_command(p, _cmd_visibility)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: building it costs about
    twenty parses, and parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        unknown = sorted(set(config) - args.config_keys)
        if unknown:
            raise UnknownConfigKey(f"{args.config}: {', '.join(map(repr, unknown))} not accepted; "
                                   f"config keys are {', '.join(sorted(args.config_keys))}")
        return args.func(args, config)
    except Exception as exc:  # single machine-parsable error line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
