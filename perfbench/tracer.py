"""Per-layer tracing of drrl from outside the program.

`install` wraps the public names of each layer where their callers look them
up (module globals, imported aliases and class methods) and `Tracer` sums,
per phase, each layer's busy time, self time (busy time minus the time of
traced calls made inside it) and call count, plus the counters a layer's
`_count_*` hook derives from the call's arguments and result. No program
source is edited; `restore` puts the original names back.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from drrl import (
    dataio,
    diagnostics,
    dro_core,
    graphmodel,
    losses,
    metrics,
    synthetic,
    trainer,
    verify,
)


class Tracer:
    def __init__(self):
        self.phase = None  # counts made while None are dropped
        self.stats = {}  # phase -> {counter name: summed value}
        self._stack = []  # traced time of the children of each open call
        self._undo = []
        self._excluded = 0.0  # benchmark time (speed probes) made inside traced calls

    def exclude(self, seconds):
        """Leave `seconds` of benchmark work out of every open call's busy time."""
        self._excluded += seconds

    def add(self, name, value):
        if self.phase is not None:
            bucket = self.stats.setdefault(self.phase, {})
            bucket[name] = bucket.get(name, 0) + value

    def wrap(self, layer, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            excluded = self._excluded
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start - (self._excluded - excluded)
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += busy
                self.add(f"{layer}.busy_s", busy)
                self.add(f"{layer}.self_s", busy - children)
                self.add(f"{layer}.calls", 1)
            if count is not None and self.phase is not None:
                count(self.add, layer, result, *args, **kwargs)
            return result

        return traced

    def patch(self, layer, sites, count=None):
        for owner, attr in sites:
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, count))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# Counters derived from array shapes or from the sampled users' degrees, not
# measured; `run.py --all` labels them "(computed)".
COMPUTED = ("graphmodel.cosine_matrix.bytes", "trainer.loss_and_gradients.tensor_bytes",
            "dataio.sample_batch.accept_ratio", "metrics.top_k_items.useful_ratio")


def _count_sample_batch(add, layer, batch, split, batch_size, n_neg, noise=None, rng=None,
                        train_pairs=None):
    mask = batch.false_negative_mask
    add(f"{layer}.neg_slots", batch.negatives.size)
    add(f"{layer}.flips", int(mask.sum()))
    add(f"{layer}.rows_skipped", batch_size - len(batch.pairs))
    # computed: a uniform slot of a user with d train items takes I / (I - d)
    # rejection draws on average
    degree = np.array([len(split.train[u]) for u in batch.pairs[:, 0]])
    uniform = n_neg - mask.sum(axis=1)
    add(f"{layer}.uniform_slots", int(uniform.sum()))
    add(f"{layer}.expected_draws",
        float(np.sum(uniform * split.num_items / (split.num_items - degree))))


def _count_infonce(add, layer, result, layer_final, *args):
    add(f"{layer}.nodes", len(layer_final))


def _count_cosine_matrix(add, layer, result, user_emb, item_emb):
    add(f"{layer}.bytes", 8 * len(user_emb) * len(item_emb))  # computed


def _count_load_checkpoint(add, layer, result, path):
    add("graphmodel.checkpoint.bytes", os.path.getsize(path))


def _count_batch_loss(add, layer, result, pair_inputs, *args):
    add(f"{layer}.pairs", len(pair_inputs))


def _count_loss_and_gradients(add, layer, result, table, graph, backbone_cfg, spec, margins,
                              batch, *args, **kwargs):
    # computed: one float64 (B, n_neg, d) negative temporary
    add(f"{layer}.tensor_bytes", 8 * batch.negatives.size * table.d)


def _count_adam(add, layer, result, adam, params, grads, lr):
    add(f"{layer}.elements", sum(g.size for g in grads.values()))


def _count_evaluate_ranking(add, layer, result, score_matrix, exclude_sets, truth_sets, ks):
    add(f"{layer}.users", sum(1 for truth in truth_sets if truth))


def _count_user_diagnostics(add, layer, rows, *args, **kwargs):
    add(f"{layer}.users", len(rows))


def _count_inner_max(add, layer, result, *args, **kwargs):
    add(f"{layer}.not_converged", int(not result.converged))


def _count_suite(add, layer, checks, *args, **kwargs):
    worst = [float(v) for c in checks for k, v in c.items() if k.startswith("worst")]
    add(f"{layer}.worst", max(worst))


def install(tracer):
    """Wrap every traced layer; each tuple lists the places callers look it up."""
    G = graphmodel.InteractionGraph
    tracer.patch("synthetic.make_block_log", [(synthetic, "make_block_log")])
    tracer.patch("dataio.split_iid", [(dataio, "split_iid")])
    tracer.patch("graphmodel.InteractionGraph", [(G, "__init__")])
    tracer.patch("dataio.sample_batch", [(dataio, "sample_batch"), (trainer, "sample_batch")],
                 _count_sample_batch)
    tracer.patch("graphmodel.forward", [(trainer, "forward"), (diagnostics, "forward")])
    tracer.patch("graphmodel.backward", [(trainer, "backward")])
    tracer.patch("graphmodel.propagate", [(G, "propagate")])
    tracer.patch("graphmodel.infonce_auxiliary",
                 [(trainer, "infonce_auxiliary"), (verify, "infonce_auxiliary")], _count_infonce)
    tracer.patch("graphmodel.cosine_matrix",
                 [(trainer, "cosine_matrix"), (diagnostics, "cosine_matrix")],
                 _count_cosine_matrix)
    tracer.patch("graphmodel.load_checkpoint", [(graphmodel, "load_checkpoint")],
                 _count_load_checkpoint)
    tracer.patch("losses.batch_loss", [(losses, "batch_loss")], _count_batch_loss)
    tracer.patch("losses.drrl_beta_gradient", [(losses, "drrl_beta_gradient")])
    tracer.patch("losses.beta_step", [(losses, "beta_step")])
    tracer.patch("trainer.loss_and_gradients",
                 [(trainer, "loss_and_gradients"), (verify, "loss_and_gradients")],
                 _count_loss_and_gradients)
    tracer.patch("trainer.train_step", [(trainer, "train_step")])
    tracer.patch("trainer.Adam.step", [(trainer.Adam, "step")], _count_adam)
    tracer.patch("trainer.evaluate_split", [(trainer, "evaluate_split")])
    tracer.patch("metrics.evaluate_ranking",
                 [(metrics, "evaluate_ranking"), (trainer, "evaluate_ranking")],
                 _count_evaluate_ranking)
    tracer.patch("metrics.top_k_items", [(metrics, "top_k_items")])
    tracer.patch("diagnostics.user_diagnostics", [(diagnostics, "user_diagnostics")],
                 _count_user_diagnostics)
    tracer.patch("diagnostics.checkpoint_scores", [(diagnostics, "checkpoint_scores")])
    tracer.patch("dro_core.inner_max_bruteforce", [(dro_core, "inner_max_bruteforce")],
                 _count_inner_max)
    tracer.patch("dro_core.solve_beta", [(dro_core, "solve_beta")])
    tracer.patch("dro_core.minimize_beta_objective",
                 [(dro_core, "minimize_beta_objective"),
                  (diagnostics, "minimize_beta_objective")])
    for suite, fn_name in SUITE_FUNCTIONS.items():
        tracer.patch(f"verify.{suite}", [(verify, fn_name)], _count_suite)


SUITE_FUNCTIONS = {
    "duality": "suite_duality",
    "lambda": "suite_lambda",
    "ccl": "suite_ccl_equivalence",
    "kl-limit": "suite_kl_limit",
    "degeneracy": "suite_degeneracy",
    "gradients": "suite_gradients",
    "convexity": "suite_convexity",
    "weights": "suite_weights",
}

# Set-up layers are reported per set-up repetition, all others per timed unit.
SETUP_LAYERS = ("synthetic.make_block_log", "dataio.split_iid", "graphmodel.InteractionGraph")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, setups, units):
    """Per-layer metrics {name: (value, unit)}; a layer that did not run reads 0."""
    setup = tracer.stats.get("setup", {})
    timed = tracer.stats.get("timed", {})

    def per_setup(name):
        return setup.get(name, 0) / setups

    def per_unit(name):
        return timed.get(name, 0) / units

    out = {f"{layer}.busy_s": (per_setup(f"{layer}.busy_s"), "s") for layer in SETUP_LAYERS}
    seconds = [
        "dataio.sample_batch.busy_s", "graphmodel.forward.busy_s",
        "graphmodel.backward.busy_s", "graphmodel.propagate.busy_s",
        "graphmodel.infonce_auxiliary.busy_s", "graphmodel.cosine_matrix.busy_s",
        "graphmodel.load_checkpoint.busy_s", "losses.batch_loss.busy_s",
        "losses.drrl_beta_gradient.busy_s", "losses.beta_step.busy_s",
        "trainer.loss_and_gradients.busy_s", "trainer.loss_and_gradients.self_s",
        "trainer.train_step.busy_s", "trainer.Adam.step.busy_s",
        "trainer.evaluate_split.busy_s", "metrics.evaluate_ranking.busy_s",
        "diagnostics.user_diagnostics.busy_s", "diagnostics.checkpoint_scores.busy_s",
        "dro_core.inner_max_bruteforce.busy_s", "dro_core.solve_beta.busy_s",
        "dro_core.solve_beta.self_s", "dro_core.minimize_beta_objective.busy_s",
    ] + [f"verify.{suite}.busy_s" for suite in SUITE_FUNCTIONS]
    counts = [
        "dataio.sample_batch.calls", "dataio.sample_batch.neg_slots",
        "dataio.sample_batch.flips", "dataio.sample_batch.rows_skipped",
        "graphmodel.propagate.calls", "graphmodel.infonce_auxiliary.nodes",
        "losses.batch_loss.pairs", "losses.drrl_beta_gradient.calls",
        "trainer.Adam.step.elements", "metrics.evaluate_ranking.users",
        "metrics.top_k_items.calls", "diagnostics.user_diagnostics.users",
        "dro_core.inner_max_bruteforce.calls", "dro_core.inner_max_bruteforce.not_converged",
        "dro_core.minimize_beta_objective.calls",
    ]
    out.update({name: (per_unit(name), "s") for name in seconds})
    out.update({name: (per_unit(name), "count") for name in counts})
    for name in ("graphmodel.cosine_matrix.bytes", "graphmodel.checkpoint.bytes",
                 "trainer.loss_and_gradients.tensor_bytes"):
        out[name] = (per_unit(name), "B")
    out.update({f"verify.{suite}.worst": (per_unit(f"verify.{suite}.worst"), "gap")
                for suite in SUITE_FUNCTIONS})
    out["dataio.sample_batch.accept_ratio"] = (
        _ratio(timed.get("dataio.sample_batch.uniform_slots", 0),
               timed.get("dataio.sample_batch.expected_draws", 0)), "ratio")
    out["metrics.top_k_items.useful_ratio"] = (
        _ratio(timed.get("metrics.evaluate_ranking.users", 0),
               timed.get("metrics.top_k_items.calls", 0)), "ratio")
    return out
