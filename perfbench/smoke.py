"""Smoke test of the benchmark: every workload at a toy shape, in both modes.

    python3 perfbench/smoke.py

Checks that the result line has the contract's keys, that every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json appears with its
unit, that `--all` prints each workload's own metrics with units, and that
the benchmark fails without printing a result when the drrl source tree is
missing. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# each workload's own end-to-end metrics, as `--all` prints them
NAMED = {
    "preset-mf-drrl": ["setup_s", "step_s", "train_pairs_per_s", "peak_rss_mb", "fail_ratio"],
    "epoch-xsimgcl-noisy": ["setup_s", "epoch_s", "step_s", "train_pairs_per_s", "val_ndcg20",
                            "peak_rss_mb", "fail_ratio"],
    "rank-stats": ["setup_s", "rank_users_per_s", "stats_users_per_s", "peak_rss_mb",
                   "fail_ratio"],
    "certify": ["setup_s", "certify_s", "peak_rss_mb", "fail_ratio"],
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def require(ok, message):
    if not ok:
        sys.exit(f"smoke: FAIL {message}")


def check_contract():
    for workload in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = bench("--workload", workload["name"], "--seed", "5", "--seconds", "0.2",
                         "--trace", str(trace), "--toy")
            label = f"{workload['name']} --trace {trace}"
            require(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{label} result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{label} outputs not correct: {result}")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == want, f"{label} metrics differ: {set(got) ^ set(want)}")
            require(all(isinstance(m["value"], (int, float))
                        for m in result["metrics"].values()), f"{label} non-numeric value")
            print(f"smoke: ok {label}")


def check_all():
    done = bench("--all", "--toy", "--seconds", "0.2")
    require(done.returncode == 0, f"--all exited {done.returncode}: {done.stderr}")
    sections = done.stdout.split("== ")[1:]
    require([s.split()[0] for s in sections] == list(NAMED), "--all workload order")
    for section in sections:
        workload = section.split()[0]
        lines = {line.split()[0]: line.split()[1:] for line in section.splitlines()[1:]}
        for name in NAMED[workload] + [f"trace_overhead.{n}" for n in NAMED[workload]]:
            require(len(lines.get(name, [])) == 2, f"--all {workload} lacks {name} with a unit")
    print("smoke: ok --all")


def check_without_source():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    require(done.returncode != 0 and '"metrics"' not in done.stdout,
            "benchmark without the drrl source tree must fail without a result")
    print("smoke: ok without source tree")


if __name__ == "__main__":
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    check_contract()
    check_all()
    check_without_source()
