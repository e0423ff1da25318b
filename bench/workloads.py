"""The three benchmark workloads: seeded inputs, one op each, and its gate.

Each workload draws a fixed pool of inputs from the seed at set-up and the
timed loop runs whole passes over that pool, so the set of inputs, the
error figures and the failure rate are exact functions of the seed however
many passes fit in the run.  ``run`` makes only the program calls (that is
what is timed); ``check`` then compares the outputs against the independent
references of ``reference.py`` and returns a ``Verdict``.

A failed op is one that raised or missed a tolerance; it is counted, never
dropped or re-drawn.  Misses on exact paths (compilation, clean scans,
split-beam shift, CLI exit codes, reruns) also mark the run incorrect, since
they mean the program is broken; misses of noisy estimators and typed
refusals from the library only count as failures.

The timed pools stay inside the range where the noisy estimators are
specified to work (cos^2 beta >= MIN_COS2_BETA for the extremum ratio,
enveloped carriers up to ENVELOPED_K0_MAX), so no timed op is expected to
fail.  The known failures outside that range are not dropped from view:
``edge_probe`` measures them on a fixed seeded set, reported by traced runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polphase import cli, fringes, interferometer, plates, polarimetry, su2

import reference as ref
from tracer import NullTracer

N_GRID = 4096
TOL_EXACT = 1e-12
TOL_CLEAN = 1e-6
TOL_NOISY_COS2 = 0.05
TOL_SHIFT = 2.0 * math.pi / N_GRID
TOL_RETRIEVAL = 0.05
#: extremum-ratio conditioning floor: the noisy cos^2 delta error grows like
#: sigma / cos^2 beta; at sigma = 0.01 and cos^2 beta >= 0.25 the worst of
#: ~15000 draws was 0.02, under 0.05 misses set in below cos^2 beta ~ 0.1
MIN_COS2_BETA = 0.25
#: fastest carrier of an enveloped image: the carrier peak's worst margin over
#: the envelope's low-frequency shoulder (the carrier search needs 2x) was 6x
#: up to 0.6 rad/px, 4.4x in [0.6, 0.7] and below 2x from about 0.8 rad/px
ENVELOPED_K0_MAX = 0.6
#: images / configurations in each workload's edge probe
EDGE_PROBE_SIZE = 16


def _typed_errors() -> frozenset[str]:
    """Names of the exception types the library raises to refuse an input."""
    names = set()
    for module in (su2, plates, interferometer, polarimetry, fringes):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Exception) and value.__module__.startswith("polphase"):
                names.add(value.__name__)
    return frozenset(names)


TYPED_ERRORS = _typed_errors()


@dataclass
class Verdict:
    failure: str | None = None  # why the op failed, None when it passed
    incorrect: bool = False  # the failure shows a broken exact path
    err_2delta: float | None = None
    err_cos2: float | None = None
    fingerprint: object = None  # identical on every rerun of the same input

    def miss(self, check: str, exact: bool) -> None:
        if self.failure is None:
            self.failure = f"tolerance.{check}"
        self.incorrect = self.incorrect or exact


def verdict_for_exception(exc: Exception) -> Verdict:
    kind = type(exc).__name__
    return Verdict(failure=kind, incorrect=kind not in TYPED_ERRORS)


def _angle_pi(rng) -> float:
    """Uniform on (-pi, pi]."""
    return float(math.pi - rng.uniform(0.0, 2.0 * math.pi))


def _conditioned_angles(rng) -> tuple[float, float, float]:
    """(xi, eta, zeta) uniform on (-pi, pi]^3, kept when cos^2 beta >= MIN_COS2_BETA."""
    while True:
        angles = (_angle_pi(rng), _angle_pi(rng), _angle_pi(rng))
        if abs(ref.su2_yzy(*angles)[0, 0]) ** 2 >= MIN_COS2_BETA:
            return angles


def _max_or_none(*values):
    present = [v for v in values if v is not None]
    return max(present) if present else None


class Workload:
    """Seeded pool of inputs; ``run`` is timed, ``check`` is the gate."""

    name = ""
    pool_size = 1
    tracer = NullTracer()  # replaced by the worker for traced runs

    def cross_check(self) -> list[str]:
        """Set-up checks of the program's closed forms against the references."""
        return []

    def final_check(self) -> list[str]:
        """Checks made once after the timed loop."""
        return []

    def edge_probe(self) -> dict[str, float]:
        """Failure rates on known-hard inputs outside the timed pool (untimed)."""
        return {}


# ---------------------------------------------------------------------------

class PolarizationScan(Workload):
    """Compile, round-trip, scan and measure one random SU(2) transformation.

    Nearly all of the time goes to the per-phi Python loop of
    scan_plate_array (5 WavePlates and a compose per point); fringes is
    touched only through the smoothing of the noisy measure_phase.  The
    angles are uniform on the conditioned set cos^2 beta >= MIN_COS2_BETA;
    the edge probe measures noisy measure_phase below it.
    """

    name = "polarization-scan"
    pool_size = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.phis = np.linspace(0.0, 2.0 * math.pi, N_GRID, endpoint=False)
        self.items = []
        for _ in range(self.pool_size):
            xi, eta, zeta = _conditioned_angles(rng)
            u = ref.su2_yzy(xi, eta, zeta)
            self.items.append({
                "angles": (xi, eta, zeta),
                "noise_seed": int(rng.integers(2**31)),
                "u": u,
                "intensity": ref.scan_intensity(u, self.phis),
                "cos2": ref.cos2_delta(u),
                "two_delta": ref.two_delta(u),
            })

    def cross_check(self) -> list[str]:
        """The program's own closed forms must agree with the references."""
        problems = []
        for item in self.items:
            xi, eta, zeta = item["angles"]
            law = polarimetry.polarimetric_intensity(xi, eta, zeta, self.phis)
            if np.max(np.abs(law - item["intensity"])) > TOL_EXACT:
                problems.append("polarimetric_intensity disagrees with the scan law")
            z = su2.to_zyz(item["u"])
            if abs(math.cos(z.delta) ** 2 - item["cos2"]) > TOL_EXACT:
                problems.append("to_zyz(u).delta disagrees with arg(u11)")
        return problems

    def run(self, i: int) -> dict:
        xi, eta, zeta = self.items[i]["angles"]
        out = {}
        out["composed"] = plates.compose(plates.decompose_qhq(xi, eta, zeta))
        out["u"] = su2.from_yzy(xi, eta, zeta)
        out["five"] = plates.polarimetric_array(xi, eta, zeta, 0.0)
        out["parsed"] = plates.parse_plate_array(plates.format_plate_array(out["five"]))
        out["scan"] = polarimetry.scan_plate_array(out["parsed"], self.phis)
        sweep = polarimetry.PolarimetricSweep(self.phis, out["scan"], su2.YzyParams(xi, eta, zeta))
        out["cos2_scan"] = polarimetry.extract_cos2_phase(*polarimetry.sweep_extrema(sweep))
        out["cos2_noisy"] = polarimetry.measure_phase(
            xi, eta, zeta, n_grid=N_GRID, noise_sigma=0.01, seed=self.items[i]["noise_seed"]
        )
        out["shift"] = interferometer.split_beam_shift(out["u"], self.phis)
        return out

    def check(self, i: int, out: dict) -> Verdict:
        item = self.items[i]
        v = Verdict()
        if np.max(np.abs(out["u"] - item["u"])) > TOL_EXACT or np.max(np.abs(out["composed"] - out["u"])) > TOL_EXACT:
            v.miss("compile", exact=True)
        if out["parsed"] != out["five"]:
            v.miss("plate_file_round_trip", exact=True)
        if np.max(np.abs(out["scan"] - item["intensity"])) > TOL_CLEAN:
            v.miss("scan_plate_array", exact=True)
        err_scan = abs(out["cos2_scan"] - item["cos2"])
        if err_scan > TOL_CLEAN:
            v.miss("clean_cos2", exact=True)
        err_noisy = abs(out["cos2_noisy"] - item["cos2"])
        v.err_2delta = abs(float(ref.wrap(out["shift"] - item["two_delta"])))
        if v.err_2delta > TOL_SHIFT:
            v.miss("split_beam_shift", exact=True)
        if err_noisy > TOL_NOISY_COS2:
            v.miss("measure_phase", exact=False)
        v.err_cos2 = max(err_scan, err_noisy)
        v.fingerprint = (out["cos2_scan"], out["cos2_noisy"], out["shift"], float(out["scan"].sum()))
        return v

    def edge_probe(self) -> dict[str, float]:
        """Noisy measure_phase on ill-conditioned draws (cos^2 beta < MIN_COS2_BETA)."""
        rng = np.random.default_rng([self.seed, 4])
        misses, worst, n = 0, 0.0, 0
        while n < EDGE_PROBE_SIZE:
            angles = (_angle_pi(rng), _angle_pi(rng), _angle_pi(rng))
            u = ref.su2_yzy(*angles)
            if abs(u[0, 0]) ** 2 >= MIN_COS2_BETA:
                continue
            n += 1
            try:
                err = abs(polarimetry.measure_phase(*angles, n_grid=N_GRID, noise_sigma=0.01,
                                                    seed=int(rng.integers(2**31))) - ref.cos2_delta(u))
            except Exception as exc:  # a typed refusal is a miss too
                if verdict_for_exception(exc).incorrect:
                    raise
                err = math.inf
            misses += err > TOL_NOISY_COS2
            worst = max(worst, err)
        return {"edge.polarimetry.measure_phase_miss_ratio": misses / n,
                "edge.polarimetry.measure_phase_max_err_cos2": worst}


# ---------------------------------------------------------------------------

class FringeAnalyze(Workload):
    """Read a noisy dual-half PGM from disk and retrieve 2*delta from it.

    All of the time goes to fringes (PGM read, column averages,
    Savitzky-Golay, carrier estimate, both shift estimators); su2 and plates
    are not touched.  Every other image carries a 300 px Gaussian envelope
    and a carrier of at most ENVELOPED_K0_MAX; faster enveloped carriers,
    where the carrier search refuses with NoCarrier, are measured by the
    edge probe instead of the timed pool.
    """

    name = "fringe-analyze"
    pool_size = 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.items = []
        # k0 is stratified within each half of the pool, so every seed covers
        # [0.1, 1] (plain) and [0.1, ENVELOPED_K0_MAX] (enveloped) evenly
        half = self.pool_size // 2
        strata = [rng.permutation(half), rng.permutation(half)]
        for index in range(self.pool_size):
            enveloped = index % 2 == 1
            k0_max = ENVELOPED_K0_MAX if enveloped else 1.0
            delta, beta, phi0, noise_seed = self._draw(rng)
            k0 = 0.1 + (k0_max - 0.1) * (strata[index % 2][index // 2] + float(rng.uniform())) / half
            img = self._render(delta, beta, k0, phi0, noise_seed, enveloped)
            path = workdir / f"img{index:02d}.pgm"
            fringes.save_interferogram(img, path)
            self.items.append({"path": path, "delta": delta, "two_delta": float(ref.wrap(2.0 * delta))})

    @staticmethod
    def _draw(rng) -> tuple[float, float, float, int]:
        """(delta, beta, phi0, noise seed) of one image."""
        delta = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
        beta = float(rng.uniform(0.0, math.pi / 3.0))
        return delta, beta, _angle_pi(rng), int(rng.integers(2**31))

    @staticmethod
    def _render(delta, beta, k0, phi0, noise_seed, enveloped) -> fringes.Interferogram:
        return fringes.generate(delta, beta, k0, size=(480, 640), noise_sigma=0.02,
                                envelope_width=300.0 if enveloped else None, seed=noise_seed, phi0=phi0)

    def run(self, i: int):
        img, meta = fringes.load_interferogram(self.items[i]["path"])
        return meta, fringes.retrieve_phase(img, method="both")

    def check(self, i: int, out) -> Verdict:
        meta, result = out
        item = self.items[i]
        v = Verdict()
        if meta.get("true_delta") != item["delta"]:
            v.miss("sidecar_true_delta", exact=True)
        v.err_2delta = abs(float(ref.wrap(result.estimate - item["two_delta"])))
        if v.err_2delta > TOL_RETRIEVAL:
            v.miss("retrieve_phase", exact=False)
        v.fingerprint = (result.estimate, result.failed_regions, result.method_disagreement)
        return v

    def edge_probe(self) -> dict[str, float]:
        """retrieve_phase on enveloped images with fast carriers, k0 in [0.85, 1]."""
        rng = np.random.default_rng([self.seed, 4])
        refused, misses = 0, 0
        for index in range(EDGE_PROBE_SIZE):
            delta, beta, phi0, noise_seed = self._draw(rng)
            k0 = 0.85 + 0.15 * (index + float(rng.uniform())) / EDGE_PROBE_SIZE
            img = self._render(delta, beta, k0, phi0, noise_seed, enveloped=True)
            try:
                estimate = fringes.retrieve_phase(img, method="both").estimate
            except Exception as exc:
                if verdict_for_exception(exc).incorrect:
                    raise
                refused += 1
                continue
            misses += abs(float(ref.wrap(estimate - 2.0 * delta))) > TOL_RETRIEVAL
        return {"edge.fringes.refused_ratio": refused / EDGE_PROBE_SIZE,
                "edge.fringes.miss_ratio": misses / EDGE_PROBE_SIZE}


# ---------------------------------------------------------------------------

def _values(text: str, key: str) -> list[float]:
    """Every number printed after ``key`` at the start of a line."""
    values = []
    for line in text.splitlines():
        if line.startswith(key):
            try:
                values.append(float(line[len(key):].split()[0]))
            except (IndexError, ValueError):
                pass
    return values


def _value(text: str, key: str) -> float | None:
    values = _values(text, key)
    return values[0] if values else None


class CliBatch(Workload):
    """One in-process pass of polphase.cli.main over every subcommand.

    Exercises the CLI's own per-point loops, its Resolver and the 12-digit
    CSV writer, plus the write side of fringes (generate + PGM save) that
    fringe-analyze does not time.
    """

    name = "cli-batch"
    pool_size = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.items = []
        self._first: bytes | None = None
        for index in range(self.pool_size):
            d = workdir / f"pass{index}"
            d.mkdir()
            xi, eta, zeta = _angle_pi(rng), _angle_pi(rng), _angle_pi(rng)
            xi_curve = _angle_pi(rng)
            t1 = _angle_pi(rng)
            t2, t3, surface_zeta = _angle_pi(rng), _angle_pi(rng), _angle_pi(rng)
            delta = float(rng.uniform(-math.pi / 2.0, math.pi / 2.0))
            beta = float(rng.uniform(0.0, math.pi / 3.0))
            k0 = float(rng.uniform(0.1, 1.0))
            phi0 = _angle_pi(rng)
            poly_seed, img_seed = int(rng.integers(2**20)), int(rng.integers(2**20))
            common = [f"--out-dir={d}"]
            angles = [f"--xi={xi!r}", f"--eta={eta!r}", f"--zeta={zeta!r}"]
            commands = [
                ("decompose", ["decompose", "--mode", "3", *angles, "--out", "plates3.txt", *common]),
                ("decompose", ["decompose", "--mode", "5", "--phi=0", *angles, "--out", "scan.txt", *common]),
                ("interf_sweep", ["interf", "sweep", *angles, "--samples", str(N_GRID), *common]),
                ("interf_surface", ["interf", "surface", f"--zeta={surface_zeta!r}", *common]),
                ("polarimetry", ["polarimetry", "--mode", "zeta2pi", f"--xi={xi_curve!r}", "--eta-steps", "64",
                                 "--noise-sigma", "0.01", "--seed", str(poly_seed), *common]),
                ("polarimetry_plates", ["polarimetry", "--plates", str(d / "scan.txt"), "--n-grid", "1024",
                                        "--out", "plate_scan.csv", *common]),
                ("fringe_generate", ["fringe", "generate", f"--delta={delta!r}", f"--beta={beta!r}", f"--k0={k0!r}",
                                     "--noise-sigma", "0.02", f"--phi0={phi0!r}", "--seed", str(img_seed),
                                     "--out", "img.pgm", *common]),
                ("fringe_analyze", ["fringe", "analyze", "--image", str(d / "img.pgm"), *common]),
                ("visibility", ["visibility", f"--theta1={t1!r}:{t1 + math.pi!r}:41", f"--theta2={t2!r}",
                                f"--theta3={t3!r}", "--check", *common]),
            ]
            u = ref.su2_yzy(xi, eta, zeta)
            etas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
            self.items.append({
                "dir": d,
                "commands": commands,
                "two_delta": ref.two_delta(u),
                "extrema": ref.scan_extrema(u),
                "cos2": ref.cos2_delta(u),
                "curve_cos2": np.array([ref.cos2_delta(ref.su2_yzy(xi_curve, e, 2.0 * math.pi)) for e in etas]),
                "image_two_delta": float(ref.wrap(2.0 * delta)),
            })

    def run(self, i: int):
        results = []
        for name, argv in self.items[i]["commands"]:
            out, err = io.StringIO(), io.StringIO()
            with self.tracer.span(f"cli.{name}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            results.append((name, code, out.getvalue(), err.getvalue()))
        return results

    def _digest(self, i: int, results) -> bytes:
        h = hashlib.sha256()
        for name, code, out, err in results:
            h.update(f"{name}\0{code}\0{out}\0{err}\0".encode())
        for path in sorted(self.items[i]["dir"].iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.digest()

    def check(self, i: int, results) -> Verdict:
        item = self.items[i]
        v = Verdict()
        text = {}
        for name, code, out, err in results:
            text[name] = text.get(name, "") + out
            if code != 0:
                kind = err.partition("error: ")[2].partition(":")[0]
                if v.failure is None:
                    v.failure = f"cli.{name}.{kind or 'exit'}"
                v.incorrect = v.incorrect or kind not in TYPED_ERRORS
        d = item["dir"]
        residuals = _values(text["decompose"], "compose-verify max residual:")
        if len(residuals) != 2 or max(residuals) > TOL_EXACT:
            v.miss("decompose_residual", exact=True)
        shift = _value(text["interf_sweep"], "recovered_2delta=")
        err_sweep = None if shift is None else abs(float(ref.wrap(shift - item["two_delta"])))
        if err_sweep is None or err_sweep > TOL_SHIFT:
            v.miss("interf_sweep", exact=True)
        i_min, i_max = (_value(text["polarimetry_plates"], k) for k in ("I_min=", "I_max="))
        if i_min is None or i_max is None or max(abs(i_min - item["extrema"][0]), abs(i_max - item["extrema"][1])) > TOL_CLEAN:
            v.miss("plate_scan_extrema", exact=True)
        cos2 = _value(text["polarimetry_plates"], "cos2_phase=")
        err_plates = None if cos2 is None else abs(cos2 - item["cos2"])
        est = _value(text["fringe_analyze"], "estimate_2delta=")
        err_image = None if est is None else abs(float(ref.wrap(est - item["image_two_delta"])))
        err_curve = None
        curve = d / "polarimetry.csv"
        if curve.exists():
            rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
            measured = [(k, float(r[1])) for k, r in enumerate(rows) if r[1]]
            if measured:
                err_curve = max(abs(m - item["curve_cos2"][k]) for k, m in measured)
        v.err_2delta = _max_or_none(err_sweep, err_image)
        v.err_cos2 = _max_or_none(err_plates, err_curve)
        v.fingerprint = self._digest(i, results)
        self.tracer.count("cli.bytes_written", sum(p.stat().st_size for p in d.iterdir()))
        if i == 0 and self._first is None:
            self._first = v.fingerprint
        return v

    def final_check(self) -> list[str]:
        """Rerun the first pass; every output byte and line must repeat."""
        if self._first is None:
            return []
        if self._digest(0, self.run(0)) != self._first:
            return ["cli rerun of the first pass is not byte-identical"]
        return []


WORKLOADS = {w.name: w for w in (PolarizationScan, FringeAnalyze, CliBatch)}
