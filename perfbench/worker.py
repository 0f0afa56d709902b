"""Run one benchmark workload in this process and print its result as one
JSON line. `run.py` starts this script in a fresh child process per workload.

A run imports drrl, sets the workload up SETUPS times (the drrl import plus
the median set-up is `setup_s`), runs one untimed warm-up, then repeats the
workload's timed unit until `--seconds` have passed (the median is
`unit_s`), checking every unit's outputs. `setup_s` and `unit_s` are scaled
to a reference speed by `SpeedProbe`, segment by segment (`ScaledClock`);
the workload's own figures stay in wall-clock units.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class SpeedProbe:
    """A fixed pure-Python loop, a loop of small-array numpy calls and a
    memory-bound numpy pass, timed around the drrl import and at every
    segment boundary of a set-up or a timed unit (see ScaledClock).

    On a shared host the processor's speed can drift by tens of percent
    within minutes, which would swamp any change in the program. Multiplying
    a wall time by `nominal_s` / (mean probe time on either side of it)
    reports it at a fixed reference speed: the seconds it would take where
    one probe takes `nominal_s`. The probe is benchmark code, so a change to
    drrl moves the scaled figures as it moves wall time on a steady machine.
    The memory pass streams `mib` MiB (see `Workload.PROBE`).
    """

    REPS = 3

    def __init__(self, mib, nominal_s):
        self.nominal_s = nominal_s
        self.x = np.random.default_rng(0).random(mib << 17)
        self.y = np.empty_like(self.x)
        self.v = self.x[:6].copy()
        self._once()  # touch the pages once

    def _once(self):
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        v = self.v
        for _ in range(400):
            v = np.maximum(v * 1.0001 - 0.0001, 0.0)
            total += float(v @ self.v) + v.sum()
        np.multiply(self.x, 1.0001, out=self.y)
        self.y += self.x
        return time.perf_counter() - start

    def measure(self):
        return statistics.median(self._once() for _ in range(self.REPS))

    def scale(self, before, after):
        return self.nominal_s / ((before + after) / 2)


# The drrl import (with the scipy.optimize and scipy.sparse it pulls in) is
# the first part of `setup_s`, scaled like a segment by probes on either side.
_probe = SpeedProbe(8, 0.006)
_before = _probe.measure()
_start = time.perf_counter()

from drrl import (  # noqa: E402
    config,
    dataio,
    diagnostics,
    graphmodel,
    losses,
    metrics,
    synthetic,
    trainer,
    verify,
)

IMPORT_S = time.perf_counter() - _start
IMPORT_REF_S = IMPORT_S * _probe.scale(_before, _probe.measure())
del _probe

import tracer as tracing  # noqa: E402

SETUPS = 3
BLOCKS = 8
INTERACTIONS_PER_USER = 20
DIM = 64
RANK_KS = (10, 20, 50)

# Full and toy shapes; the toy shapes only serve the smoke test.
SHAPES = {
    "preset-mf-drrl": {"full": dict(users=2000, items=1000),
                       "toy": dict(users=60, items=40, batch_size=32, n_neg=16)},
    "epoch-xsimgcl-noisy": {"full": dict(users=2000, items=1000, n_neg=64),
                            "toy": dict(users=60, items=40, batch_size=32, n_neg=8)},
    "rank-stats": {"full": dict(users=2000, items=3000), "toy": dict(users=50, items=40)},
    # instance counts of the oracle-backed suites: the first N of each default stream
    "certify": {"full": {"duality": 2, "lambda": 2, "kl-limit": 1, "weights": 2},
                "toy": {"duality": 1, "lambda": 1, "kl-limit": 1, "weights": 1}},
}


class ScaledClock:
    """Wall time and reference-speed time of one timed unit, in segments.

    `start()` probes and opens the first segment; `split()` closes the
    current segment, probes, scales the segment's wall time by the probes on
    either side of it and opens the next; `stop()` closes the last one.
    Workloads split after every step, phase, suite or run of calls (see
    `Workload.SPLITS`), so that no segment lasts more than a second or two:
    the probe follows the host's speed across short segments, not across a
    whole 10 s unit. Probe time is in neither figure, and `on_probe` takes it
    out of the busy time of the traced calls a split falls inside.
    """

    def __init__(self, probe, on_probe):
        self.probe, self.on_probe = probe, on_probe
        self.probes = []
        self.running = False

    def _measure(self):
        start = time.perf_counter()
        speed = self.probe.measure()
        self.on_probe(time.perf_counter() - start)
        self.probes.append(speed)
        return speed

    def start(self):
        self.wall = self.scaled = 0.0
        self.before = self._measure()
        self.running = True
        self.mark = time.perf_counter()

    def split(self):
        wall = time.perf_counter() - self.mark
        after = self._measure()
        self.wall += wall
        self.scaled += wall * self.probe.scale(self.before, after)
        self.before = after
        self.mark = time.perf_counter()

    def stop(self):
        self.split()
        self.running = False


def split_after(clock, owner, attr, every):
    """Wrap `owner.attr` so that every `every`-th call made while `clock`
    runs ends a segment; returns what `restore_splits` needs to undo it."""
    inner = vars(owner)[attr]
    calls = 0

    @functools.wraps(inner)
    def split_call(*args, **kwargs):
        nonlocal calls
        result = inner(*args, **kwargs)
        calls += 1
        if clock.running and calls % every == 0:
            clock.split()
        return result

    setattr(owner, attr, split_call)
    return owner, attr, inner


def restore_splits(undo):
    for owner, attr, inner in reversed(undo):
        setattr(owner, attr, inner)


class Outcome:
    """Attempted operations and output checks, and how many failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok):
        self.attempted += 1
        self.failed += not ok


def _load_preset(name, **train_overrides):
    cfg = config.load_config(ROOT / "presets" / name, with_env=False)
    cfg.train = dataclasses.replace(cfg.train, embed_dim=DIM, **train_overrides)
    return cfg.validate()


def _block_split(users, items, seed):
    log = synthetic.make_block_log(users, items, blocks=BLOCKS,
                                   interactions_per_user=INTERACTIONS_PER_USER, seed=seed)
    return dataio.split_iid(log, seed=0)


def _train_state(split, cfg, seed):
    """Model, margins, optimizer and RNGs initialised as `trainer.train` does."""
    tc = cfg.train
    rngs = np.random.SeedSequence(seed).spawn(3)
    train_pairs = split.train_pairs()
    graph = None
    if cfg.backbone.kind != "mf":
        graph = graphmodel.InteractionGraph(train_pairs, split.num_users, split.num_items)
    table = graphmodel.EmbeddingTable.init_normal(
        split.num_users, split.num_items, tc.embed_dim, std=tc.init_std,
        seed=rngs[0].generate_state(1)[0])
    return dict(
        table=table, graph=graph, margins=losses.MarginState.initialize(split.num_users,
                                                                       cfg.loss.beta0),
        sample_rng=np.random.default_rng(rngs[1]), noise_rng=np.random.default_rng(rngs[2]),
        train_pairs=train_pairs,
        adam=trainer.Adam({"user": table.user.shape, "item": table.item.shape}),
    )


def _step(cfg, split, state, outcome):
    """One `train_step`; checks a finite loss and finite parameters after the
    Adam update (which itself rejects non-finite gradients)."""
    try:
        value = trainer.train_step(
            state["table"], state["graph"], cfg.backbone, cfg.loss, state["margins"], split,
            cfg.train, state["sample_rng"], state["noise_rng"], state["train_pairs"],
            state["adam"])
    except (FloatingPointError, ValueError):
        outcome.check(False)
        return
    table = state["table"]
    outcome.check(math.isfinite(value) and bool(np.isfinite(table.user).all())
                  and bool(np.isfinite(table.item).all()))


class Workload:
    """Set-up, warm-up and timed unit of one workload; `named` returns its
    own metrics {name: (value, unit)} from the timed units' wall times.
    SPLITS lists (module, function name, every) hooks that end a clock
    segment after every `every`-th call in a timed unit. PROBE is the speed
    probe's memory pass in MiB and its nominal time in seconds."""

    SPLITS = ()
    PROBE = (8, 0.006)

    def __init__(self, seed, shape):
        self.seed, self.shape = seed, shape
        self.clock = None  # the ScaledClock of the timed units; set by `run`

    def setup(self):
        pass

    def warmup(self, outcome):
        pass

    def check(self, outcome):
        """Output checks too costly to time with the unit they follow."""

    def teardown(self):
        pass


class PresetMf(Workload):
    """Preset-shape MF DrRL steps: B=1024, n_neg=1024, d=64."""

    # sample_batch looks up each sampled row's held-out items: one call per row
    SPLITS = ((dataio.DatasetSplit, "heldout", 256), (trainer, "sample_batch", 1),
              (losses, "batch_loss", 1), (trainer, "loss_and_gradients", 1))
    # The loss streams (B, n_neg, d) temporaries of 512 MiB each, so the
    # probe streams 32 MiB here. Over three minutes in one process, steps
    # scaled by an 8 MiB probe spread more than raw wall time (0.135 against
    # 0.091), by a 32 MiB probe 0.082; on the other workloads 8 MiB tracks
    # best (0.014 to 0.047 against 0.052 to 0.119 for 16 or 32 MiB).
    PROBE = (32, 0.013)

    def __init__(self, seed, shape):
        super().__init__(seed, shape)
        self.steps = 0

    def setup(self):
        overrides = {k: self.shape[k] for k in ("batch_size", "n_neg") if k in self.shape}
        self.cfg = _load_preset("gowalla-mf-drrl.cfg", noise=0.0, **overrides)
        self.split = _block_split(self.shape["users"], self.shape["items"], self.seed)
        self.state = _train_state(self.split, self.cfg, self.seed)

    def warmup(self, outcome):
        _step(self.cfg, self.split, self.state, outcome)

    def unit(self, outcome):
        _step(self.cfg, self.split, self.state, outcome)
        self.steps += 1

    def named(self, unit_times):
        step_s = statistics.median(unit_times)
        return {
            "step_s": (step_s, "s"),
            "train_pairs_per_s": (self.cfg.train.batch_size * self.steps / sum(unit_times),
                                  "1/s"),
        }


class EpochXsimgcl(Workload):
    """One full `trainer.train` epoch of noisy XSimGCL DrRL with validation."""

    SPLITS = ((trainer, "train_step", 1),)

    def __init__(self, seed, shape):
        super().__init__(seed, shape)
        self.step_times = []
        self.val_ndcg = None

    def setup(self):
        self.cfg = _load_preset(
            "gowalla-xsimgcl-drrl.cfg", noise=0.2, noise_pool="heldout", max_epochs=1,
            seed=self.seed, **{k: v for k, v in self.shape.items() if k not in ("users", "items")})
        self.split = _block_split(self.shape["users"], self.shape["items"], self.seed)
        self.state = _train_state(self.split, self.cfg, self.seed)

    def warmup(self, outcome):
        _step(self.cfg, self.split, self.state, outcome)
        self._time_steps()

    def _time_steps(self):
        """Time each `train_step` that `trainer.train` makes (one clock pair per step)."""
        inner = trainer.train_step

        def timed_step(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.step_times.append(time.perf_counter() - start)

        trainer.train_step = timed_step

    def unit(self, outcome):
        try:
            _, _, report = trainer.train(self.split, self.cfg.backbone, self.cfg.loss,
                                         self.cfg.train)
        except (FloatingPointError, ValueError):
            outcome.check(False)
            return
        ndcg = report.val_ndcg[0] if report.val_ndcg else None
        outcome.check(len(report.epoch_loss) == 1 and math.isfinite(report.epoch_loss[0]))
        outcome.check(report.stop_reason == "max epochs reached")
        outcome.check(ndcg is not None and 0.0 <= ndcg <= 1.0)
        self.val_ndcg = ndcg

    def named(self, unit_times):
        return {
            "epoch_s": (statistics.median(unit_times), "s"),
            "step_s": (statistics.median(self.step_times), "s"),
            "train_pairs_per_s": (self.cfg.train.batch_size * len(self.step_times)
                                  / sum(self.step_times), "1/s"),
            "val_ndcg20": (self.val_ndcg, "ndcg"),
        }


def reference_ranking(scores, exclude_sets, truth_sets, ks):
    """Independent Recall@K / NDCG@K: one stable argsort of every masked row
    (equal scores keep ascending item ids)."""
    masked = scores.copy()
    for user, exclude in enumerate(exclude_sets):
        masked[user, list(exclude)] = -np.inf
    order = np.argsort(-masked, axis=1, kind="stable")
    users = [u for u, truth in enumerate(truth_sets) if truth]
    out = {}
    for k in ks:
        discount = 1.0 / np.log2(np.arange(2, k + 2))
        recall = ndcg = 0.0
        for u in users:
            truth = truth_sets[u]
            top = [i for i in order[u, :k] if np.isfinite(masked[u, i])]
            hits = np.array([i in truth for i in top], dtype=float)
            recall += hits.sum() / len(truth)
            ndcg += float(hits @ discount[:len(top)]) / discount[:min(k, len(truth))].sum()
        out[("recall", k)] = recall / len(users)
        out[("ndcg", k)] = ndcg / len(users)
    return out


class RankStats(Workload):
    """Read side: load a LightGCN checkpoint, score, rank the test split and
    diagnose every user's worst-case weights."""

    # evaluate_ranking sorts 2 x len(RANK_KS) times per user; diagnostics
    # solves one margin per user
    SPLITS = ((metrics, "top_k_items", 1500), (diagnostics, "minimize_beta_objective", 250))

    def __init__(self, seed, shape):
        super().__init__(seed, shape)
        self.rank_s, self.stats_s = [], []
        self.rank_users = self.stats_users = 0
        self.path = ROOT / ".perfbench_work" / f"rank-stats-{os.getpid()}.ckpt"

    def setup(self):
        users, items = self.shape["users"], self.shape["items"]
        self.cfg = _load_preset("gowalla-lightgcn-drrl.cfg")
        self.split = _block_split(users, items, self.seed)
        self.graph = graphmodel.InteractionGraph(self.split.train_pairs(), users, items)
        # block-aligned embeddings, so that rankings carry signal
        rng = np.random.default_rng(self.seed)
        centers = rng.normal(size=(BLOCKS, DIM))
        table = graphmodel.EmbeddingTable(
            centers[np.arange(users) % BLOCKS] + rng.normal(size=(users, DIM)),
            centers[np.arange(items) % BLOCKS] + rng.normal(size=(items, DIM)))
        self.path.parent.mkdir(exist_ok=True)
        graphmodel.save_checkpoint(self.path, table, rng.uniform(0.5, 0.9, users))

    def unit(self, outcome):
        table, margins = graphmodel.load_checkpoint(self.path)
        self.clock.split()
        scores = diagnostics.checkpoint_scores(table, self.graph, self.cfg.backbone)
        self.clock.split()
        ranked = metrics.evaluate_ranking(scores, self.split.train, self.split.test, RANK_KS)
        self.clock.split()
        self.rank_s.append(self.clock.wall)
        rows = diagnostics.user_diagnostics(scores, self.split, self.cfg.loss,
                                            losses.MarginState(margins), resolve_margin=True)
        self.clock.split()
        self.stats_s.append(self.clock.wall - self.rank_s[-1])
        self.rank_users = sum(1 for truth in self.split.test if truth)
        self.stats_users = len(rows)
        self.last = scores, ranked, rows

    def check(self, outcome):
        scores, ranked, rows = self.last
        want = reference_ranking(scores, self.split.train, self.split.test, RANK_KS)
        for key, value in want.items():
            outcome.check(abs(ranked[key] - value) <= 1e-12)
        outcome.check(len(rows) == self.split.num_users)
        outcome.check(all(r.k1 >= 1.0 for r in rows if not r.degenerate))

    def teardown(self):
        self.path.unlink(missing_ok=True)

    def named(self, unit_times):
        return {
            "rank_users_per_s": (self.rank_users / statistics.median(self.rank_s), "1/s"),
            "stats_users_per_s": (self.stats_users / statistics.median(self.stats_s), "1/s"),
        }


class Certify(Workload):
    """All eight verify suites at seed 0 with default tolerances; the
    oracle-backed suites run the first N instances of their default streams."""

    def unit(self, outcome):
        for suite, fn_name in tracing.SUITE_FUNCTIONS.items():
            kwargs = {"count": self.shape[suite]} if suite in self.shape else {}
            for check in getattr(verify, fn_name)(seed=0, **kwargs):
                outcome.check(bool(check["passed"]))
            self.clock.split()

    def named(self, unit_times):
        return {"certify_s": (statistics.median(unit_times), "s")}


WORKLOADS = {
    "preset-mf-drrl": PresetMf,
    "epoch-xsimgcl-noisy": EpochXsimgcl,
    "rank-stats": RankStats,
    "certify": Certify,
}


def run(name, seed, seconds, trace, toy):
    workload = WORKLOADS[name](seed, SHAPES[name]["toy" if toy else "full"])
    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
    outcome = Outcome()
    clock = workload.clock = ScaledClock(SpeedProbe(*workload.PROBE), tracer.exclude)
    try:
        setup_times, scaled_setups = [], []
        for _ in range(SETUPS):
            tracer.phase = "setup"
            clock.start()
            workload.setup()
            clock.stop()
            tracer.phase = None
            setup_times.append(clock.wall)
            scaled_setups.append(clock.scaled)
        workload.warmup(outcome)
        splits = [split_after(clock, *hook) for hook in workload.SPLITS]
        unit_times, scaled_units = [], []
        begin = time.perf_counter()
        while not unit_times or time.perf_counter() - begin < seconds:
            tracer.phase = "timed"
            clock.start()
            workload.unit(outcome)
            clock.stop()
            tracer.phase = None
            unit_times.append(clock.wall)
            scaled_units.append(clock.scaled)
            workload.check(outcome)
        restore_splits(splits)
    finally:
        workload.teardown()
    tracer.restore()

    named = {
        "setup_s": (IMPORT_S + statistics.median(setup_times), "s"),
        **workload.named(unit_times),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (outcome.failed / outcome.attempted, "ratio"),
    }
    result = {
        "workload": name,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "units": len(unit_times),
        # reference-speed seconds (see SpeedProbe): the end-to-end metrics
        "setup_s": IMPORT_REF_S + statistics.median(scaled_setups),
        "unit_s": statistics.median(scaled_units),
        "probe_ms": 1e3 * statistics.median(clock.probes),
        "named": named,
        "env": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
        },
    }
    if trace:
        result["layers"] = tracing.layer_metrics(tracer, SETUPS, len(unit_times))
        result["computed"] = tracing.COMPUTED
        skipped = tracer.stats.get("timed", {}).get("dataio.sample_batch.rows_skipped", 0)
        result["attempted"] += skipped
        result["failed"] += skipped
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
