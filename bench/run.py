"""polphase benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload polarization-scan --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in one process: the next op
starts when the previous one returns.  Set-up is repeated in SETUP_RUNS fresh
interpreters and ``setup_s`` is their median; the last of them goes on to the
timed loop.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones from a traced loop (plus the tracing
overhead).  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A full record (environment, accuracy, failure kinds, sample counts) goes to
bench/out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REFERENCE_S

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("polarization-scan", "fringe-analyze", "cli-batch")
SETUP_RUNS = 3
#: ops per block of the tail-latency estimate (see _tail)
TAIL_BLOCK = 256
#: BLAS/OpenMP pools pinned to one thread in every benchmark process
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, role: str) -> tuple[float, dict, dict | None]:
    """Start one worker; return (setup_s, READY record, RESULT record)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--role", role, "--out", str(OUT)]
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(60.0 + 2.0 * seconds, proc.kill)
    watchdog.start()
    setup_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY "):
                setup_s = time.perf_counter() - start
                ready = json.loads(line[len("READY "):])
            elif line.startswith("SPEED ") and ready is not None:
                ready["speed_samples"] = json.loads(line[len("SPEED "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        code = proc.wait()
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or ready is None or "speed_samples" not in ready or (role == "measure" and result is None):
        raise BenchError(f"{workload} worker ({role}) exited with code {code}")
    return setup_s, ready, result


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Tail latency: (value, percentile, blocks).

    The run's ops are cut into len // TAIL_BLOCK consecutive blocks (at least
    one).  In each block the tail is the highest percentile with at least ten
    samples beyond it, and the value is the median over the blocks.  On the
    shared host about 1% of ops, spread over the run, are slowed by other
    tenants; a single p99.x over a long run would report those instead of the
    program's slowest inputs, while each block's p96 does not.
    """
    blocks = max(1, len(latencies) // TAIL_BLOCK)
    size = len(latencies) / blocks
    tails = []
    for b in range(blocks):
        ordered = sorted(latencies[round(b * size):round((b + 1) * size)])
        tails.append(ordered[-11] if len(ordered) > 10 else ordered[-1])
    n = len(latencies) // blocks
    return statistics.median(tails), (100.0 * (n - 10) / n if n > 10 else 100.0), blocks


def _environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    loc = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "polphase").glob("*.py")))
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "pinned": PINNED,
            "git_commit": commit, "src_polphase_loc": loc}


def _slowness(samples: list, clock: int) -> float:
    """Mean speed-kernel time over REFERENCE_S (clock 0: wall, 1: CPU); > 1 is slower."""
    return statistics.fmean(sample[clock] for sample in samples) / REFERENCE_S


def _per_op_slowness(result: dict, clock: int) -> list[float]:
    """Slowness at each op: the mean of the three kernel timings before it and the three after.

    Op i lies between timings speed_index[i] and speed_index[i] + 1.  One
    25 ms timing is itself noisy; six of them, spanning about 3 s, still
    follow the host's speed swings, which last seconds.
    """
    samples = result["speed_samples"]
    return [_slowness(samples[max(0, i - 2):i + 4], clock) for i in result["speed_index"]]


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> tuple[dict, dict]:
    setups, splits = [], []
    for k in range(SETUP_RUNS):
        role = "measure" if k == SETUP_RUNS - 1 else "setup"
        setup_s, ready, result = _child(workload, seed, seconds, trace, role)
        setups.append(setup_s)
        splits.append(ready)

    setup = {key: statistics.median(s[key] for s in splits) for key in ("import_s", "inputs_s", "warmup_s")}
    # timings at the reference speed: each divided by the slowness measured
    # next to it on the same clock (see speed.py); the raw ones go to "raw"
    setup_slowness = [_slowness(s["speed_samples"], 0) for s in splits]
    wall = result["latencies_ms"]
    cpu = result["cpu_latencies_ms"]
    wall_slowness = sum(wall) / sum(t / k for t, k in zip(wall, _per_op_slowness(result, 0)))
    latencies = [t / k for t, k in zip(cpu, _per_op_slowness(result, 1))]
    tail, tail_pct, tail_blocks = _tail(latencies)
    acc = result["accuracy"]
    values = {
        "setup_s": statistics.median(t / k for t, k in zip(setups, setup_slowness)),
        "ops_per_s": result["loop"]["ops_per_s"] * wall_slowness,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
    }
    if trace:
        values = dict(result["layers"])
        values.update({f"setup.{key}": value for key, value in setup.items()})
        values["accuracy.max_err_2delta_rad"] = acc["max_err_2delta_rad"] or 0.0
        values["accuracy.max_err_cos2"] = acc["max_err_cos2"] or 0.0
        values["accuracy.error_rate"] = acc["error_rate"] or 0.0
        values["process.peak_rss_mb"] = result["peak_rss_mb"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not result["problems"], "problems": result["problems"],
        "attempted": result["attempted"], "failed": result["failed"], "failures": result["failures"],
        "metrics": metrics,
        "samples": {"setup_runs": setups, "ops": result["loop"]["ops"], "loop_s": result["loop"]["loop_s"],
                    "pool_size": result["pool_size"], "latency_tail_percentile": tail_pct,
                    "latency_tail_beyond": 10 if len(latencies) // tail_blocks > 10 else 0,
                    "latency_tail_blocks": tail_blocks,
                    "speed_samples": len(result["speed_samples"])},
        "raw": {"setup_s": setups, "ops_per_s": result["loop"]["ops_per_s"],
                "cpu_latency_p50_ms": statistics.median(cpu), "cpu_latency_tail_ms": _tail(cpu)[0],
                "wall_latency_p50_ms": statistics.median(wall), "wall_latency_tail_ms": _tail(wall)[0],
                "slowness": {"setup_wall": setup_slowness, "loop_wall": wall_slowness,
                             "loop_cpu": _slowness(result["speed_samples"], 1)}},
        "setup_split": setup,
        "accuracy": acc,
        "peak_rss_mb": result["peak_rss_mb"],
        "environment": {**_environment(), **result["versions"]},
    }
    if trace:
        record["spans_file"] = result["spans_file"]
    summary = {"correct": record["correct"], "attempted": record["attempted"],
               "failed": record["failed"], "metrics": metrics}
    return record, summary


def _report(record: dict) -> None:
    s = record["samples"]
    print(f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']:g}  trace={record['trace']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        print(f"  samples: {s['ops']} ops in {s['loop_s']:.2f} s over a pool of {s['pool_size']}; "
              f"tail = median over {s['latency_tail_blocks']} blocks of each block's "
              f"p{s['latency_tail_percentile']:.1f} ({s['latency_tail_beyond']} beyond); "
              f"setup_s = median of {len(s['setup_runs'])}")
        raw = record["raw"]
        print(f"  at host speed (loop slowness {raw['slowness']['loop_wall']:.3f} wall, "
              f"{raw['slowness']['loop_cpu']:.3f} CPU, from {s['speed_samples']} kernel timings): "
              f"ops_per_s {raw['ops_per_s']:.4g}, CPU p50/tail {raw['cpu_latency_p50_ms']:.4g}/"
              f"{raw['cpu_latency_tail_ms']:.4g} ms, wall p50/tail {raw['wall_latency_p50_ms']:.4g}/"
              f"{raw['wall_latency_tail_ms']:.4g} ms, setup_s {statistics.median(raw['setup_s']):.4g}")
        split = record["setup_split"]
        print("  setup split: " + ", ".join(f"{k}={v:.3f} s" for k, v in split.items()))
    a = record["accuracy"]
    for key, unit in (("max_err_2delta_rad", "rad"), ("max_err_cos2", "")):
        value = "n/a" if a[key] is None else f"{a[key]:.6g}"
        print(f"  {key:<40} {value:>14} {unit}  (n={a[key.replace('_rad', '') + '_n']} inputs)")
    print(f"  {'peak_rss_mb':<40} {record['peak_rss_mb']:>14.6g} MiB  (measuring process)")
    print(f"  {'error_rate':<40} {a['error_rate']:>14.6g}    ({record['failed']} failed / {record['attempted']} attempted)")
    if record["failures"]:
        print(f"  failures: {record['failures']}")
    env = record["environment"]
    print(f"  correct: {record['correct']}" + ("" if record["correct"] else f"  problems: {record['problems'][:5]}"))
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
          f"commit {env['git_commit']}, src/polphase {env['src_polphase_loc']} LOC")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polphase" / "__init__.py").is_file():
        print(f"error: no polphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            record, summary = run_workload(name, args.seed, args.seconds, args.trace, spec)
            (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
            _report(record)
            print(json.dumps(summary), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
