"""drrl benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Each workload runs in a fresh child process (`worker.py`) with BLAS threads
capped at the number of usable processors, so that `peak_rss_mb` belongs to
that workload alone. The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`. A traced run starts
an untraced child and then a traced one; the per-layer metrics come from the
traced child and `trace_overhead.*` is traced minus untraced.

`setup_s` and `unit_s` are reported at a fixed reference speed (see
`worker.SpeedProbe`). `--all` runs every workload untraced and traced and
prints each workload's own metrics by name in wall-clock units, the
reference-speed `ref.setup_s` and `ref.unit_s`, the probe time, the tracing
overhead and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_LIMIT_S = 170


def child_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # OpenBLAS helper threads spin for about 2^28 cycles after each call by
    # default. On two vCPUs that spin halves the speed of whatever runs next
    # when the vCPUs share a core, the speed probe included, and whether they
    # share one changes from minute to minute. 2^4 cycles makes them sleep.
    env["OPENBLAS_THREAD_TIMEOUT"] = "4"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_child(workload, seed, seconds, trace, toy, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if toy:
        cmd.append("--toy")
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(result):
    """Contract metrics from a worker result. `setup_s` and `unit_s` (the
    median time of the workload's timed unit: step, epoch, rank-and-stats
    pass or certify pass) are in reference-speed seconds, see worker.SpeedProbe."""
    return {"setup_s": (result["setup_s"], "s"), "unit_s": (result["unit_s"], "s"),
            "peak_rss_mb": result["named"]["peak_rss_mb"]}


def overhead(plain, traced):
    return {f"trace_overhead.{name}": (traced[name][0] - plain[name][0], unit)
            for name, (_, unit) in plain.items()}


def measure(workload, seed, seconds, trace, toy, deadline):
    """Untraced child, plus a traced one when `trace`; returns both results."""
    plain = run_child(workload, seed, seconds, False, toy, deadline)
    traced = run_child(workload, seed, seconds, True, toy, deadline) if trace else None
    return plain, traced


def contract_line(workload, seed, seconds, trace, toy):
    deadline = time.monotonic() + TIME_LIMIT_S
    plain, traced = measure(workload, seed, seconds, trace, toy, deadline)
    runs = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if trace:
        metrics = dict(traced["layers"])
        metrics.update(overhead(end_to_end(plain), end_to_end(traced)))
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    else:
        metrics = end_to_end(plain)
    print(json.dumps({"env": plain["env"], "units": [r["units"] for r in runs]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(seed, seconds, toy):
    failed = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        plain, traced = measure(workload, seed, seconds, True, toy,
                                time.monotonic() + 2 * TIME_LIMIT_S)
        failed += plain["failed"] + traced["failed"]
        print(f"== {workload}  seed={seed}  units={plain['units']}  env={json.dumps(plain['env'])}")
        rows = [(name, value, unit) for name, (value, unit) in plain["named"].items()]
        rows += [(f"ref.{name}", value, unit) for name, (value, unit) in end_to_end(plain).items()
                 if name != "peak_rss_mb"]
        rows += [("probe_ms", plain["probe_ms"], "ms")]
        rows += [(name, value, unit) for name, (value, unit) in
                 overhead(plain["named"], traced["named"]).items()]
        rows += [(name, value, unit + " (computed)" if name in traced["computed"] else unit)
                 for name, (value, unit) in traced["layers"].items()]
        for name, value, unit in rows:
            print(f"  {name:45s} {value:>16.6g} {unit}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny shapes, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "drrl" / "__init__.py").is_file() or not (ROOT / "presets").is_dir():
        sys.exit(f"perfbench: no drrl source tree (src/drrl, presets) under {ROOT}")
    if args.all:
        return run_all(args.seed, args.seconds, args.toy)
    if args.workload is None:
        parser.error("give --workload or --all")
    contract_line(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
