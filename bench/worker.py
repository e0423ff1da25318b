"""One benchmark process: set up a workload, then (role ``measure``) time it.

Started by run.py in a fresh interpreter, so set-up includes the cold
``import polphase``.  Nothing from numpy or the benchmark's own modules is
imported before that import is timed.  Protocol on stdout: one
``READY <json>`` line when set-up and warm-up are done (run.py timestamps
it), and for the measuring role one ``RESULT <json>`` line at the end.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: wall seconds between two timings of the speed kernel in the timed loop
SPEED_EVERY_S = 0.5
#: timings of the speed kernel right after set-up, in every process
SETUP_SPEED_SAMPLES = 4


def _timed_passes(workload, seconds: float, tracer, tally) -> dict:
    """Closed loop, one client: whole passes over the pool for about ``seconds``.

    The loop stops after the pass that brings it closest to ``seconds``, so
    a run measures every input equally often.  Each op is timed twice: on the
    wall clock and in the process's CPU time.  The CPU time leaves out the
    intervals when a shared host takes the virtual CPU away (steal), which
    in wall time add 20-40 ms to a few ops a second and make up the tail;
    work moved to other threads of the process still counts in it.

    Every SPEED_EVERY_S the speed kernel is timed between two ops, and for
    each op the index of the last kernel timing before it is kept, so each op
    lies between timings ``speed_index`` and ``speed_index + 1``.  Like the
    gate, the kernel is left out of loop time.
    """
    import speed
    from workloads import verdict_for_exception

    latencies, cpu_latencies, speed_index, speeds = [], [], [], [speed.sample()]
    gate_s = 0.0
    op_id = 0
    start = time.perf_counter()
    last_speed = start
    while True:
        pass_start = time.perf_counter()
        for i in range(workload.pool_size):
            tracer.begin_op(op_id)
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            try:
                out = workload.run(i)
            except Exception as exc:  # the gate records every failure by type
                t1 = time.perf_counter_ns()
                c1 = time.process_time_ns()
                # keep no reference to exc: its traceback pins the failed op's arrays
                verdict = verdict_for_exception(exc)
            else:
                t1 = time.perf_counter_ns()
                c1 = time.process_time_ns()
                verdict = None
            tracer.end_op()
            latencies.append((t1 - t0) / 1e6)
            cpu_latencies.append((c1 - c0) / 1e6)
            speed_index.append(len(speeds) - 1)
            g0 = time.perf_counter()
            if verdict is None:
                verdict = workload.check(i, out)
            tally.record(i, verdict)
            if g0 - last_speed >= SPEED_EVERY_S:
                speeds.append(speed.sample())
                last_speed = time.perf_counter()
            gate_s += time.perf_counter() - g0
            op_id += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - pass_start) >= seconds:
            break
    loop_s = time.perf_counter() - start - gate_s
    speeds.append(speed.sample())
    return {"latencies_ms": latencies, "cpu_latencies_ms": cpu_latencies, "loop_s": loop_s, "ops": len(latencies),
            "ops_per_s": len(latencies) / loop_s, "speed_samples": speeds, "speed_index": speed_index}


class Tally:
    """Gate outcomes: counts, failure kinds, per-input errors, reproducibility."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.first: dict[int, object] = {}

    def record(self, i: int, verdict, counted: bool = True) -> None:
        if counted:
            self.attempted += 1
            if verdict.failure is not None:
                self.failed += 1
                self.failures[verdict.failure] = self.failures.get(verdict.failure, 0) + 1
        if verdict.incorrect:
            self.problems.append(f"input {i}: {verdict.failure}")
        if i in self.first:
            if self.first[i].fingerprint != verdict.fingerprint or self.first[i].failure != verdict.failure:
                self.problems.append(f"input {i}: rerun gave a different result")
        else:
            self.first[i] = verdict

    def accuracy(self) -> dict:
        """Worst errors and failure rate over the pool (first run of each input)."""
        errs2 = [v.err_2delta for v in self.first.values() if v.err_2delta is not None]
        errsc = [v.err_cos2 for v in self.first.values() if v.err_cos2 is not None]
        return {
            "max_err_2delta_rad": max(errs2) if errs2 else None,
            "max_err_2delta_n": len(errs2),
            "max_err_cos2": max(errsc) if errsc else None,
            "max_err_cos2_n": len(errsc),
            "error_rate": self.failed / self.attempted if self.attempted else None,
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import polphase

    import_s = time.perf_counter() - t0
    if not Path(polphase.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: polphase imported from {polphase.__file__}, not from {src}", file=sys.stderr)
        return 3

    import numpy
    import scipy

    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, verdict_for_exception

    outdir = Path(args.out)
    workdir = outdir / f"work-{args.workload}-{args.role}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        tally.problems.extend(workload.cross_check())
        inputs_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        try:
            warm = workload.run(0)
            verdict = workload.check(0, warm)
        except Exception as exc:  # same gate as the timed ops
            verdict = verdict_for_exception(exc)
        tally.record(0, verdict, counted=False)
        warmup_s = time.perf_counter() - t0
        setup = {"import_s": import_s, "inputs_s": inputs_s, "warmup_s": warmup_s}
        print("READY " + json.dumps(setup), flush=True)
        import speed

        # the host's speed right after set-up, to scale this process's setup_s
        print("SPEED " + json.dumps([speed.sample() for _ in range(SETUP_SPEED_SAMPLES)]), flush=True)
        if args.role == "setup":
            return 0

        result = {"setup": setup, "pool_size": workload.pool_size,
                  "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                               "scipy": scipy.__version__, "polphase": polphase.__version__}}
        if args.trace:
            half = args.seconds / 2.0
            untraced = _timed_passes(workload, half, NullTracer(), tally)
            tracer = Tracer(census=workload.pool_size)
            workload.tracer = tracer
            tracer.install()
            try:
                traced = _timed_passes(workload, half, tracer, tally)
            finally:
                tracer.uninstall()
                workload.tracer = NullTracer()
            layers = tracer.layer_metrics()
            layers.update(workload.edge_probe())
            attempted = layers.get("fringes.regions_attempted", 0.0)
            layers["fringes.regions_ok_ratio"] = layers.get("fringes.regions_ok", 0.0) / attempted if attempted else 0.0
            layers["trace.ops_per_s"] = traced["ops_per_s"]
            layers["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
            layers["trace.overhead_ops_per_s"] = traced["ops_per_s"] - untraced["ops_per_s"]
            layers["trace.census_ops"] = workload.pool_size
            spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            result.update(layers=layers, spans_file=str(spans_path.relative_to(ROOT)),
                          loop={k: untraced[k] for k in ("loop_s", "ops", "ops_per_s")},
                          latencies_ms=untraced["latencies_ms"], cpu_latencies_ms=untraced["cpu_latencies_ms"],
                          **{k: untraced[k] for k in ("speed_samples", "speed_index")})
        else:
            loop = _timed_passes(workload, args.seconds, NullTracer(), tally)
            result.update(loop={k: loop[k] for k in ("loop_s", "ops", "ops_per_s")},
                          latencies_ms=loop["latencies_ms"], cpu_latencies_ms=loop["cpu_latencies_ms"],
                          **{k: loop[k] for k in ("speed_samples", "speed_index")})
        tally.problems.extend(workload.final_check())
        result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
                      problems=tally.problems, accuracy=tally.accuracy(),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
