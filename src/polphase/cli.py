"""Command-line front end: compilation, sweeps and synthetic-image campaigns.

Subcommands
    decompose    compile an SU(2) transformation into a wave-plate array
    interf       Mach-Zehnder sweeps (fringe curves, phase surfaces)
    polarimetry  rotating-array scans and phase extraction
    fringe       synthetic dual-half interferograms: generate / analyze
    visibility   fringe-contrast curves and surfaces over plate angles

Every run resolves its parameters from flags plus an optional ``key=value``
config file (flags win; its keys are the command's own value-taking options
bar ``--config`` and ``--out-dir``, anything else is refused, and each value
is read with the type its option declares), converts angles from degrees when
``--degrees`` is given (defaults are radians, restated in degrees first), and
writes the fully resolved configuration (angles as given, floats in full) as a
record that ``--config`` reads back to repeat the run exactly.  The record is
UTF-8 (a config file is read as UTF-8 too), encoded before the output directory
is made and written in that step, before the outputs.  Every file a run writes
goes through fringes.write_file, so an output that is already there is
rewritten in place, not emptied first.  CSV output uses 12 significant digits
and is byte-stable across reruns with the same configuration and seed.  On
failure, a flag the argument parser refuses included, a single
``error: <Kind>: <message>`` line goes to stderr, the exit code is 1, and
nothing is written: the output directory is made only once the inputs, and
the directory of every output, have been checked.
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


class MissingOutputDirectory(FileNotFoundError):
    """An output file would go to a directory that does not exist and will not be made."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its refusal, for main to report in its one line;
    its subcommand parsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def _write_csv(path: Path, header, columns) -> None:
    """Write equal-length columns under a header, the body in one printf pass: a
    float array's cells get 12 significant digits, any other column's cells (ints,
    or text for a column with empty cells) are written as they are."""
    row = ",".join("%.12g" if isinstance(c, np.ndarray) and c.dtype.kind == "f" else "%s"
                   for c in columns) + "\n"
    cells = np.column_stack([np.asarray(c, dtype=object) for c in columns]).ravel().tolist()
    fringes.write_file(path, (",".join(header) + "\n").encode("ascii"),
                       (row * (len(cells) // len(columns)) % tuple(cells)).encode("ascii"))


def _cells(values, defined) -> list[str]:
    """CSV text of a float column with 12 significant digits, empty where undefined."""
    return ["%.12g" % v if ok else "" for v, ok in zip(values, defined)]


def _load_config(args) -> dict:
    """The --config values, empty ones (unset) dropped; a run record, whose command=
    names this command, may also set the flags and values the command records."""
    path = args.config
    if not path:
        return {}
    config = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UnknownConfigKey(f"{path}: {line!r} is not a key=value line")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip()
    record = config.pop("command", None)
    if record is not None and record != args.name:
        raise UnknownConfigKey(f"{path}: a record of command {record!r}, not {args.name!r}")
    accepted = set(args.types) if record is None else args.record_keys
    unknown = sorted(set(config) - accepted)
    if unknown:
        raise UnknownConfigKey(f"{path}: {', '.join(map(repr, unknown))} not accepted; "
                               f"config keys are {', '.join(sorted(accepted))}")
    return {key: value for key, value in config.items() if value}


class Resolver:
    """The run's parameters: its flags merged with its --config values (flags win),
    each read as its option's parser type, and recorded as they are resolved."""

    def __init__(self, args):
        self.args = args
        self.config = _load_config(args)
        self.resolved: dict = {}
        self.degrees = self.flag("degrees")

    def value(self, name: str, default=None, required=False):
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None and name in self.config:
            parse, text = self.args.types[name], self.config[name]
            try:
                value = parse(text)
            except ValueError:  # worded as argparse words the same value given as a flag
                raise ValueError(f"argument --{name}: invalid {parse.__name__} value: {text!r}") from None
        if value is None:
            value = default
        if required and value is None:
            raise ValueError(f"missing required parameter --{name}")
        self.resolved[name] = value
        return value

    def flag(self, name) -> bool:
        text = self.config.get(name, "False")
        if text.lower() not in ("true", "false"):
            raise ValueError(f"{name} must be True or False, got {text!r}")
        value = self.resolved[name] = getattr(self.args, name) or text.lower() == "true"
        return value

    def angle(self, name, default=None, required=False) -> float | None:
        if default is not None and self.degrees:
            # defaults are radians: restated in degrees, they are read and recorded
            # like a given value, so a rerun from the record converts them alike
            default = float(np.rad2deg(default))
        value = self.value(name, default, required)
        return float(np.deg2rad(value)) if value is not None and self.degrees else value

    def angle_grid(self, name, default=None, required=False) -> np.ndarray:
        """Parse 'v' or 'start:stop:count' (inclusive endpoints, count at least 1) into angles."""
        if default is not None and self.degrees:
            parts = default.split(":")  # radians, restated in degrees as in angle()
            parts[:2] = [repr(float(np.rad2deg(float(v)))) for v in parts[:2]]
            default = ":".join(parts)
        raw = self.value(name, default, required)
        parts = str(raw).split(":")
        try:
            if len(parts) == 1:
                values = np.array([float(parts[0])])
            elif len(parts) == 3 and int(parts[2]) >= 1:
                values = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"--{name} must be 'value' or 'start:stop:count', got {raw!r}") from None
        return np.deg2rad(values) if self.degrees else values

    def outputs(self, *names) -> list:
        """The path of each named output in the output directory (an absolute name
        stays as it is; None for no output).  The directory of every output is
        checked first; then the output directory is made and the run record,
        the command and every resolved value (floats in full), written in it as
        UTF-8, encoded before the directory is made.  Each command calls this
        once, with its inputs checked and its results in hand, so a refused run
        writes nothing."""
        outdir = Path(self.args.out_dir or os.environ.get(OUTDIR_ENV) or ".")
        paths = [None if name is None else outdir / name for name in names]
        for path in paths:
            if path is not None and not path.parent.is_dir() and path.parent.resolve() != outdir.resolve():
                raise MissingOutputDirectory(f"cannot write {str(path)!r}: no directory {str(path.parent)!r}")
        lines = [f"command={self.args.name}\n"]
        lines += [f"{key}={'' if value is None else value}\n" for key, value in sorted(self.resolved.items())]
        record = "".join(lines).encode("utf-8")
        outdir.mkdir(parents=True, exist_ok=True)
        fringes.write_file(outdir / f"{self.args.name}_config.txt", record)
        return paths


# ---------------------------------------------------------------------------
# decompose

def _cmd_decompose(r: Resolver) -> int:
    xi = r.angle("xi", required=True)
    eta = r.angle("eta", required=True)
    zeta = r.angle("zeta", required=True)
    mode = r.value("mode", default=3)
    out = r.value("out", default="plates.txt")

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
    (path,) = r.outputs(out)
    fringes.write_file(path, plates.format_plate_array(array).encode("ascii"))

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

def _cmd_interf_sweep(r: Resolver) -> int:
    xi = r.angle("xi", required=True)
    eta = r.angle("eta", required=True)
    zeta = r.angle("zeta", required=True)
    samples = r.value("samples", default=1024)
    out = r.value("out", default="interf_sweep.csv")
    if samples < 0:  # zero samples reach the fit, which refuses them as UnresolvableGrid
        raise ValueError(f"--samples must not be negative, got {samples}")

    u = su2.from_yzy(xi, eta, zeta)
    phis = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    i_v = interferometer.output_intensity("V", u, phis)
    i_h = interferometer.output_intensity("H", u, phis)
    try:
        recovered = f"{interferometer.split_beam_shift(u, phis):.12g}"
    except interferometer.ZeroVisibility as exc:
        print(f"warning: {exc}", file=sys.stderr)
        recovered = "undefined"
    (path,) = r.outputs(out)
    _write_csv(path, ["phi", "I_V", "I_H"], [phis, i_v, i_h])

    zyz = su2.to_zyz(u)
    print(f"recovered_2delta={recovered}")
    if zyz.delta_defined:
        print(f"expected_2delta={su2.wrap_angle(2.0 * zyz.delta):.12g}")
    print(f"visibility={np.cos(zyz.beta):.12g}")
    return 0


def _cmd_interf_surface(r: Resolver) -> int:
    zeta = r.angle("zeta", default=0.0)
    xi_grid = r.angle_grid("xi-grid", default="0:6.283185307179586:33")
    eta_grid = r.angle_grid("eta-grid", default="0:6.283185307179586:33")
    out = r.value("out", default="phase_surface.csv")

    xi, eta = np.meshgrid(xi_grid, eta_grid, indexing="ij")
    zyz = su2.yzy_to_zyz(xi, eta, zeta)
    cos_delta = np.cos(zyz.delta)
    cos2 = cos_delta * cos_delta
    # beta = pi/2: phase undefined, cell left empty
    cells = _cells(cos2.ravel().tolist(), zyz.delta_defined.ravel().tolist())
    degenerate = int(np.count_nonzero(~zyz.delta_defined))
    (path,) = r.outputs(out)
    _write_csv(path, ["xi", "eta", "cos2_phase"], [xi.ravel(), eta.ravel(), cells])
    if degenerate:
        print(f"warning: {degenerate} grid points with undefined phase (beta=pi/2)",
              file=sys.stderr)
    print(f"surface written to {path} ({len(cells)} points)")
    return 0


# ---------------------------------------------------------------------------
# polarimetry

def _cmd_polarimetry(r: Resolver) -> int:
    plate_file = r.value("plates", default=None)
    n_grid = r.value("n-grid", default=4096)
    noise = r.value("noise-sigma", default=0.0)
    seed = r.value("seed", default=0)
    if plate_file is not None:
        return _polarimetry_plate_scan(r, plate_file, n_grid, noise, seed)
    mode = r.value("mode", default="full")
    if mode not in ("full", "zeta2pi", "ximinuspi"):
        raise ValueError(f"--mode must be full, zeta2pi or ximinuspi, got {mode!r}")
    if mode == "zeta2pi":
        xi = r.angle("xi", default=0.0)
        zeta = 2.0 * np.pi
    elif mode == "ximinuspi":
        xi = -np.pi
        zeta = r.angle("zeta", default=np.pi)
    else:
        xi = r.angle("xi", required=True)
        zeta = r.angle("zeta", required=True)
    eta_steps = r.value("eta-steps", default=64)
    out = r.value("out", default="polarimetry.csv")
    sweep_out = r.value("sweep-out", default=None)
    if eta_steps < 1:
        raise ValueError(f"--eta-steps must be at least 1, got {eta_steps}")

    etas = np.linspace(0.0, 2.0 * np.pi, eta_steps, endpoint=False)
    zyz = su2.yzy_to_zyz(xi, etas, zeta)
    cos_delta = np.cos(zyz.delta)
    expected_cos2 = _cells((cos_delta * cos_delta).tolist(), zyz.delta_defined.tolist())
    # one scan per eta, as one stack; row k is the scan measure_phase makes with seed + k
    curve = polarimetry.polarimetric_sweep(xi, etas, zeta, n_grid, noise, seed)
    i_min, i_max = polarimetry.sweep_extrema(curve)
    measured_cos2 = []
    for eta, lo, hi in zip(etas.tolist(), i_min.tolist(), i_max.tolist()):
        try:
            measured_cos2.append("%.12g" % polarimetry.extract_cos2_phase(lo, hi))
        except polarimetry.DegenerateDenominator as exc:
            print(f"warning: eta={eta:.6g}: {exc}", file=sys.stderr)
            measured_cos2.append("")
    if sweep_out is not None:
        sweep = polarimetry.polarimetric_sweep(xi, r.angle("eta", required=True), zeta, n_grid, noise, seed)

    path, sweep_path = r.outputs(out, sweep_out)
    _write_csv(path, ["eta", "cos2_measured", "cos2_expected"], [etas, measured_cos2, expected_cos2])
    if sweep_out is not None:
        _write_csv(sweep_path, ["phi", "intensity"], [sweep.phi_grid, sweep.intensities])
    print(f"curve written to {path} ({len(etas)} points, "
          f"{measured_cos2.count('')} degenerate)")
    return 0


def _polarimetry_plate_scan(r: Resolver, plate_file: str, n_grid: int, noise: float, seed: int) -> int:
    """Scan a user-supplied plate array (plain-text plate list) over phi."""
    out = r.value("out", default="plate_scan.csv")

    array = plates.parse_plate_array(Path(plate_file).read_text())
    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    intensity = polarimetry.add_scan_noise(polarimetry.scan_plate_array(array, phis), noise, seed)
    sweep = polarimetry.PolarimetricSweep(phis, intensity, su2.YzyParams(0, 0, 0))
    i_min, i_max = polarimetry.sweep_extrema(sweep)
    (path,) = r.outputs(out)
    _write_csv(path, ["phi", "intensity"], [phis, intensity])

    print(f"scan written to {path} ({len(array)} plates)")
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

def _cmd_fringe_generate(r: Resolver) -> int:
    delta = r.angle("delta", required=True)
    beta = r.angle("beta", default=0.0)
    k0 = r.value("k0", default=0.2)
    width = r.value("width", default=640)
    height = r.value("height", default=480)
    noise = r.value("noise-sigma", default=0.0)
    envelope = r.value("envelope-width", default=None)
    phi0 = r.angle("phi0", default=0.0)
    seed = r.value("seed", default=0)
    out = r.value("out", default="interferogram.pgm")

    img = fringes.generate(
        delta, beta, k0, size=(height, width), noise_sigma=noise,
        envelope_width=envelope, seed=seed, phi0=phi0,
    )
    (path,) = r.outputs(out)
    fringes.save_interferogram(img, path, extra={"seed": seed, "beta": beta,
                                                 "noise_sigma": noise})
    print(f"image written to {path} ({height}x{width}, 2*delta={2*delta:.6g})")
    return 0


def _parse_region(text: str) -> fringes.Region:
    try:
        c0, c1, r0, r1 = (int(p) for p in text.split(":"))
    except ValueError:  # a field that is not an integer, or not four fields
        raise ValueError(f"region must be 'c0:c1:r0:r1', got {text!r}") from None
    return fringes.Region(c0, c1, r0, r1)


def _cmd_fringe_analyze(r: Resolver) -> int:
    image = r.value("image", required=True)
    method = r.value("method", default="both")
    out = r.value("out", default=None)
    profiles_out = r.value("profiles-out", default=None)

    img, meta = fringes.load_interferogram(image)
    recorded = r.config.get("region") or r.config.get("regions", "auto")
    specs = r.args.region or [s for s in recorded.split(";") if s and recorded != "auto"]
    if specs:
        regions = [_parse_region(s) for s in specs]
        r.resolved["regions"] = ";".join(specs)
    else:
        regions = fringes.default_regions(img)
        r.resolved["regions"] = "auto"

    result = fringes.retrieve_phase(img, regions, method=method)
    if profiles_out:
        first = regions[result.region_indices[0]]
        up, low = fringes.column_average(img, first)
        profiles = [range(first.col_start, first.col_end), up, low,
                    fringes.savitzky_golay(up), fringes.savitzky_golay(low)]
    path, profiles_path = r.outputs(out or None, profiles_out or None)

    print(f"carrier_k0={result.carrier:.12g}")
    for i, est in zip(result.region_indices, result.region_estimates):
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
        kept = [regions[i] for i in result.region_indices]
        bounds = zip(*[(reg.col_start, reg.col_end, reg.row_start, reg.row_end) for reg in kept])
        _write_csv(path, ["region", "col_start", "col_end", "row_start", "row_end", "estimate_2delta"],
                   [result.region_indices, *bounds, np.array(result.region_estimates)])
    if profiles_out:
        _write_csv(profiles_path, ["column", "upper", "lower", "upper_smooth", "lower_smooth"], profiles)
    return 0


# ---------------------------------------------------------------------------
# visibility

def _simulated_visibility(theta1, theta2, theta3, samples=1024) -> np.ndarray:
    """Contrast |amplitude| / offset of the first-harmonic fits of simulated
    interferometer sweeps, over arrays of QHQ plate angles."""
    u = plates.compose("QHQ", np.stack([theta1, theta2, theta3], axis=-1))
    phis = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    offset, amplitude = dsp.harmonic_fit(interferometer.output_intensity("V", u, phis), phis, 1)
    return np.abs(amplitude) / offset


def _cmd_visibility(r: Resolver) -> int:
    t1_grid = r.angle_grid("theta1", required=True)
    t2_grid = r.angle_grid("theta2", required=True)
    t3_grid = r.angle_grid("theta3", required=True)
    out = r.value("out", default="visibility.csv")
    check = r.flag("check")

    header = ["theta1", "theta2", "theta3", "visibility"]
    if check:
        header.append("visibility_sim")
    t1, t2, t3 = (g.ravel() for g in np.meshgrid(t1_grid, t2_grid, t3_grid, indexing="ij"))
    columns = [t1, t2, t3, interferometer.visibility_plates(t1, t2, t3)]
    if check:
        columns.append(_simulated_visibility(t1, t2, t3))
    (path,) = r.outputs(out)
    _write_csv(path, header, columns)
    print(f"visibility data written to {path} ({len(t1)} points)")
    return 0


# ---------------------------------------------------------------------------

def _add_command(parser: argparse.ArgumentParser, func, name: str, recorded=()) -> None:
    """Add the options every command shares and set its handler.  ``--out`` comes
    first, so the command's config keys are ``out`` and the value options it had
    before this call, each read as its parser type (str when it has none), plus
    degrees and ``recorded`` in a record."""
    parser.add_argument("--out", help="output file, in the output directory")
    types = {opt[2:]: action.type or str for action in parser._actions if action.nargs != 0
             for opt in action.option_strings if opt.startswith("--")}
    parser.add_argument("--degrees", action="store_true",
                        help="interpret angle arguments as degrees")
    parser.add_argument("--config", help="key=value file supplying defaults, or a run record")
    parser.add_argument("--out-dir", help=f"output directory (default ${OUTDIR_ENV} or '.')")
    parser.set_defaults(func=func, name=name, types=types,
                        record_keys=frozenset({*types, "degrees", *recorded}))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polphase",
        description="Pancharatnam-phase simulation and retrieval toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compile an SU(2) operator into wave plates")
    for name in ("xi", "eta", "zeta", "phi"):
        p.add_argument(f"--{name}", type=float)
    p.add_argument("--mode", type=int, choices=(3, 5))
    _add_command(p, _cmd_decompose, "decompose")

    p = sub.add_parser("interf", help="Mach-Zehnder interferometer sweeps")
    isub = p.add_subparsers(dest="interf_command", required=True)
    ps = isub.add_parser("sweep", help="phi sweep: CSV of (phi, I_V, I_H) plus 2*delta")
    for name in ("xi", "eta", "zeta"):
        ps.add_argument(f"--{name}", type=float)
    ps.add_argument("--samples", type=int)
    _add_command(ps, _cmd_interf_sweep, "interf_sweep")
    pu = isub.add_parser("surface", help="cos^2(phase) over an (xi, eta) grid at fixed zeta")
    pu.add_argument("--zeta", type=float)
    pu.add_argument("--xi-grid", help="'start:stop:count' or single value")
    pu.add_argument("--eta-grid", help="'start:stop:count' or single value")
    _add_command(pu, _cmd_interf_surface, "interf_surface")

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
    _add_command(p, _cmd_polarimetry, "polarimetry")

    p = sub.add_parser("fringe", help="synthetic dual-half interferograms")
    fsub = p.add_subparsers(dest="fringe_command", required=True)
    pg = fsub.add_parser("generate", help="write a synthetic image plus metadata sidecar")
    for name in ("delta", "beta", "k0", "noise-sigma", "envelope-width", "phi0"):
        pg.add_argument(f"--{name}", type=float)
    pg.add_argument("--width", type=int)
    pg.add_argument("--height", type=int)
    pg.add_argument("--seed", type=int)
    _add_command(pg, _cmd_fringe_generate, "fringe_generate")
    pa = fsub.add_parser("analyze", help="retrieve 2*delta from an image")
    pa.add_argument("--image")
    pa.add_argument("--method", choices=("minima", "fourier", "both"))
    pa.add_argument("--region", action="append",
                    help="evaluation region 'c0:c1:r0:r1' (repeatable, ';'-separated in a "
                         "config file; default: auto)")
    pa.add_argument("--profiles-out", help="optional CSV of the first retrieved region's profiles")
    _add_command(pa, _cmd_fringe_analyze, "fringe_analyze", recorded=("regions",))

    p = sub.add_parser("visibility", help="fringe contrast over plate angles")
    for name in ("theta1", "theta2", "theta3"):
        p.add_argument(f"--{name}", help="'value' or 'start:stop:count'")
    p.add_argument("--check", action="store_true",
                   help="add a column cross-checking against the simulated interferometer")
    _add_command(p, _cmd_visibility, "visibility", recorded=("check",))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: building it costs about
    twenty parses, and parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(Resolver(args))
    except Exception as exc:  # single machine-parsable error line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
