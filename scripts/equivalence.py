"""Compare this tree's numerical outputs with another revision's, field by field.

    python3 scripts/equivalence.py --parent REV [--bound B]

Extracts REV's `src/` with `git archive` into a temporary directory and runs
one fixed matrix on fixed seeds in one child process per tree: this script's
own tree and REV's. Prints, per output field, the number of cases, the
largest element-wise relative difference between the trees, the largest
norm-wise one (a case's largest absolute difference over its largest
element, as the tests bound gradients) and whether every case is
bit-identical. Exits 1 if a field is missing from either tree or differs
element-wise by more than `--bound`; at the default bound 0 every case must
be bit-identical.

The matrix:
- `diagnostics.user_diagnostics` records (user, k1, k2, truncation, beta,
  degenerate) under SL, CCL and DrRL at g* = 1, 2 and 13.5, under both
  noise pools, at given, default and resolved margins, on float32 and
  float64 blocks;
- `losses.worst_case_weights` under the same five specs, at per-row,
  shared and -inf margins, on float32 and float64 blocks;
- `losses.ccl_loss` and `losses.drrl_loss` values and gradients on fully
  truncated, partly live and all-live blocks of 1 x 5 to 1024 x 1024 and
  3 x 40000 scores, in float32 and float64;
- `graphmodel.infonce_auxiliary` losses and gradients on n = 2, 10 and 700
  live nodes plus a zero row in each view, at temperatures 0.2, 0.01 and
  1e-3, in float32 and float64. The views cluster around one direction, so
  that the softmax rows stay spread at 1e-3: on a row one-hot to rounding
  the gradient lies below the rounding of the own node's weight, which two
  correct kernels may round differently;
- `trainer.loss_and_gradients` values and table gradients of one XSimGCL
  step (noise and InfoNCE on) and one LightGCN step, DrRL with per-user
  margins and repeated users, and of MF steps under each of the six losses
  (MSE, BCE, BPR, SL, CCL, DrRL) at one catalogue that takes the dense
  score pullback and one that takes the sparse one, in float32 and float64.
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIAGNOSTIC_FIELDS = ("user", "k1", "k2", "truncation", "beta", "degenerate")


def _diagnostics_case(num_users, num_items, margin_range, seed):
    """A split, scores and margins with the edge users the block code pads
    around: user 3 trains on every item, user 5 scores every item below
    every margin, and some users hold out nothing."""
    from drrl import dataio
    from drrl.losses import MarginState

    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for user in range(num_users):
        items = rng.permutation(num_items)
        n_train = num_items if user == 3 else int(rng.integers(1, num_items // 2))
        n_val, n_test = (int(n) for n in rng.integers(0, 3, 2))
        for part, chosen in zip(parts, np.split(items, [n_train, n_train + n_val,
                                                       n_train + n_val + n_test])):
            part.append(np.sort(chosen))
    split = dataio.DatasetSplit(
        *(dataio.UserItems(np.cumsum([0] + [len(p) for p in part]),
                           np.concatenate(part).astype(np.int64)) for part in parts),
        "iid", num_users, num_items)
    scores = rng.uniform(-1.0, 1.0, (num_users, num_items))
    scores[5] = -0.9
    return split, scores, MarginState(rng.uniform(*margin_range, num_users))


def _kernel_scores(rows, n, case, rng):
    """Scores (rows, n) and margins: fully truncated, partly live (with nan,
    -inf and -0.0 scores and rows whose margin is their largest score) or
    all live."""
    f = rng.uniform(-1.0, 1.0, (rows, n))
    if case == "truncated":
        return np.minimum(f, 0.85), np.full(rows, 0.85)
    if case == "all":
        return f, np.float64(-1.5)
    f[rng.random(f.shape) < 0.1] = -np.inf
    f[rng.random(f.shape) < 0.05] = -0.0
    f[rows // 2:, 0] = np.nan
    beta = rng.uniform(-0.5, 0.5, rows)
    beta[: rows // 3] = 1.0
    beta[-1] = np.nanmax(f[-1, 1:])
    return f, beta


def _entries(d_neg):
    """A negative-score gradient's live flat indices and values."""
    if hasattr(d_neg, "index"):
        return d_neg.index, d_neg.value
    index = np.flatnonzero(d_neg != 0)
    return index, d_neg.ravel()[index]


def _contrast_views(n, seed):
    """Two (n + 2, 16) views around one shared direction, of uneven norms,
    with one zero row in each."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=16)
    views = [(base + 0.1 * rng.normal(size=(n + 2, 16))) * rng.uniform(0.1, 3.0, (n + 2, 1))
             for _ in range(2)]
    views[0][n // 2] = 0.0
    views[1][n + 1] = 0.0
    return views


def _step_case(kind, dtype):
    """`loss_and_gradients` arguments: a DrRL batch of 96 rows (repeated
    users, 32 negatives) over a 120 x 200 random graph, d = 16."""
    from drrl import dataio
    from drrl import losses as L
    from drrl.graphmodel import BackboneConfig, EmbeddingTable, InteractionGraph

    rng = np.random.default_rng(11)
    pairs = np.unique(np.column_stack([rng.integers(0, 120, 1500),
                                       rng.integers(0, 200, 1500)]), axis=0)
    batch = dataio.BatchSample(pairs[rng.choice(len(pairs), 96)],
                               rng.integers(0, 200, (96, 32)), np.zeros((96, 32), bool))
    cfg = BackboneConfig(kind=kind, layers=2, noise_modulus=0.1, infonce_weight=0.5)
    return (EmbeddingTable.init_normal(120, 200, 16, seed=3, dtype=dtype),
            InteractionGraph(pairs, 120, 200), cfg,
            L.LossSpec(kind="drrl", gamma_star=2.0, c=1.3, eps=0.05),
            L.MarginState(rng.uniform(-0.3, 0.6, 120)), batch)


def _mf_step_case(kind, num_items, dtype):
    """`loss_and_gradients` arguments of one MF step under loss `kind`: 96
    rows (repeated users, 32 negatives) over 120 users and `num_items`
    items, d = 16, with CCL's and DrRL's margins low enough that about nine
    in ten negatives are live, so that the catalogue alone picks the
    pullback: the dense one at 200 items, the sparse one at 400, above
    8 (n_neg + 1) = 264."""
    from drrl import dataio
    from drrl import losses as L
    from drrl.graphmodel import BackboneConfig, EmbeddingTable

    rng = np.random.default_rng(13)
    batch = dataio.BatchSample(
        np.column_stack([rng.integers(0, 120, 96), rng.integers(0, num_items, 96)]),
        rng.integers(0, num_items, (96, 32)), np.zeros((96, 32), bool))
    spec = L.LossSpec(kind=kind, tau=0.2, alpha=2.0, margin=-0.3, gamma_star=2.0, c=1.3,
                      eps=0.05)
    return (EmbeddingTable.init_normal(120, num_items, 16, seed=3, dtype=dtype), None,
            BackboneConfig(kind="mf"), spec, L.MarginState(rng.uniform(-0.5, -0.2, 120)), batch)


def run_matrix():
    """Every output of the matrix, keyed "field | case"."""
    from drrl import diagnostics, graphmodel, trainer
    from drrl import losses as L

    out = {}
    specs = {
        "sl": L.LossSpec(kind="sl", tau=0.2),
        "ccl": L.LossSpec(kind="ccl", alpha=2.0, margin=0.1),
        "drrl-1": L.LossSpec(kind="drrl", gamma_star=1.0, c=1.3, eps=0.05),
        "drrl-2": L.LossSpec(kind="drrl", gamma_star=2.0, c=1.3, eps=0.05),
        "drrl-13.5": L.LossSpec(kind="drrl", gamma_star=13.5, c=1.3, eps=0.05),
    }
    cases = {"30x24": (30, 24, (-0.2, 0.6), 0), "300x500": (300, 500, (0.3, 0.9), 1)}
    for name, (users, items, margin_range, seed) in cases.items():
        split, scores, margins = _diagnostics_case(users, items, margin_range, seed)
        for dtype in (np.float32, np.float64):
            for spec_name, spec in specs.items():
                for pool in ("heldout", "train"):
                    for margin in ("given", "default", "resolved"):
                        rows = diagnostics.user_diagnostics(
                            scores.astype(dtype), split, spec, noise_pool=pool,
                            margins=margins if margin == "given" else None,
                            resolve_margin=margin == "resolved")
                        case = f"{name}-{spec_name}-{pool}-{margin}"
                        for field in DIAGNOSTIC_FIELDS:
                            key = f"diagnostics.{field} ({np.dtype(dtype).name})"
                            out[f"{key} | {case}"] = np.asarray(rows[field])

    rng = np.random.default_rng(7)
    f, beta = _kernel_scores(70, 1000, "partly", rng)
    f[np.isnan(f)] = -np.inf  # SL weighs every score
    for dtype in (np.float32, np.float64):
        block = f.astype(dtype)
        for margin_name, margin in (("per-row", beta), ("shared", np.float64(0.2)),
                                    ("-inf", np.full(len(f), -np.inf))):
            for spec_name, spec in specs.items():
                if spec.kind == "sl" and margin_name != "per-row":
                    continue
                w = L.worst_case_weights(block, spec, None if spec.kind == "sl" else margin)
                out[f"worst_case_weights ({np.dtype(dtype).name}) | "
                    f"{spec_name}-{margin_name}"] = w

    drrl_params = [(1.0, 1.0, 0.0), (2.0, 1.3, 0.05), (13.5, 1.0, 1e-10), (400.0, 1.2, 0.25)]
    for rows, n in ((1024, 1024), (70, 1000), (3, 40000), (1, 5)):
        for case in ("truncated", "partly", "all"):
            f, beta = _kernel_scores(rows, n, case, np.random.default_rng(rows * n))
            f_pos = np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 2))
            for dtype in (np.float32, np.float64):
                block, tag = f.astype(dtype), f"{rows}x{n}-{case}-{np.dtype(dtype).name}"
                runs = [("ccl_loss", f"alpha={alpha}",
                         lambda alpha=alpha: L.ccl_loss(f_pos, block, alpha, beta))
                        for alpha in (2.0, 0.0)]
                runs += [("drrl_loss", f"g*={g},c={c},eps={eps}",
                          lambda g=g, c=c, eps=eps: L.drrl_loss(f_pos, block, g, c, eps, beta))
                         for g, c, eps in drrl_params]
                for kernel, params, call in runs:
                    with np.errstate(all="ignore"):
                        value, d_pos, d_neg = call()
                    index, live = _entries(d_neg)
                    for field, array in (("value", value), ("d_pos", d_pos),
                                         ("d_neg.index", index), ("d_neg.value", live)):
                        out[f"{kernel}.{field} | {tag}-{params}"] = array

    for n in (2, 10, 700):
        zf, zl = _contrast_views(n, n)
        for dtype in (np.float32, np.float64):
            for t in (0.2, 0.01, 1e-3):
                value, d_final, d_lstar = graphmodel.infonce_auxiliary(
                    zf.astype(dtype), zl.astype(dtype), t, 0.5)
                for field, array in (("loss", np.float64(value)), ("d_final", d_final),
                                     ("d_lstar", d_lstar)):
                    key = f"infonce_auxiliary.{field} ({np.dtype(dtype).name})"
                    out[f"{key} | n={n}-t={t}"] = array

    for kind in ("xsimgcl", "lightgcn"):
        for dtype in (np.float32, np.float64):
            results = trainer.loss_and_gradients(*_step_case(kind, dtype),
                                                 noise_rng=np.random.default_rng(5),
                                                 margin_update=True)
            for field, array in zip(("value", "grad_user", "grad_item"), results):
                key = f"loss_and_gradients.{field} ({np.dtype(dtype).name})"
                out[f"{key} | {kind}"] = np.asarray(array)
    for loss in ("mse", "bce", "bpr", "sl", "ccl", "drrl"):
        for regime, num_items in (("dense", 200), ("sparse", 400)):
            for dtype in (np.float32, np.float64):
                results = trainer.loss_and_gradients(*_mf_step_case(loss, num_items, dtype),
                                                     margin_update=True)
                for field, array in zip(("value", "grad_user", "grad_item"), results):
                    key = f"loss_and_gradients.{field} ({np.dtype(dtype).name})"
                    out[f"{key} | mf-{loss}-{regime}"] = np.asarray(array)
    return out


def relative_difference(a, b):
    """The largest |a - b| / max(|a|, |b|) over the elements (0 where both
    are equal or nan, inf where only one is nan or the shapes differ)."""
    if a.shape != b.shape:
        return np.inf
    a, b = a.astype(np.float64).ravel(), b.astype(np.float64).ravel()
    with np.errstate(all="ignore"):
        d = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    d[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    d[np.isnan(d)] = np.inf
    return float(d.max(initial=0.0))


def norm_difference(a, b):
    """The largest |a - b| over the largest |a| or |b| (0 where both are
    equal or all zero, inf where the shapes differ): the gap that the tests'
    tolerances bound, which an element left small by cancellation does not
    inflate. Non-finite elements count as in `relative_difference`; the
    largest |a| or |b| skips nan, which both may hold elsewhere."""
    if a.shape != b.shape:
        return np.inf
    a, b = a.astype(np.float64).ravel(), b.astype(np.float64).ravel()
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    with np.errstate(all="ignore"):
        gap = np.abs(a - b)[~same].max() / np.fmax(np.fmax.reduce(np.abs(a)),
                                                    np.fmax.reduce(np.abs(b)))
    return float(gap) if np.isfinite(gap) else np.inf


def _outputs(src, workdir, label):
    """The matrix's outputs of the tree whose package is under `src`, run in
    a child process that imports only that tree."""
    path = Path(workdir) / f"{label}.pickle"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--child", str(path), "--src", str(src)],
                   env=env, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def compare(theirs, ours, bound):
    """Print one line per field and return whether every field is in bound."""
    fields = {}
    for key in sorted(set(theirs) | set(ours)):
        field = key.split(" | ")[0]
        if key not in theirs or key not in ours:
            diff = norm = np.inf
            same = False
        else:
            a, b = theirs[key], ours[key]
            same = a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            diff, norm = (0.0, 0.0) if same else (relative_difference(a, b),
                                                  norm_difference(a, b))
        cases, worst, worst_norm, identical = fields.get(field, (0, 0.0, 0.0, True))
        fields[field] = cases + 1, max(worst, diff), max(worst_norm, norm), identical and same
    ok = True
    print(f"{'field':<40} {'cases':>6} {'max rel diff':>13} {'max norm diff':>14}  bit-identical")
    for field, (cases, worst, worst_norm, identical) in fields.items():
        passed = worst <= bound and (identical or bound > 0)
        ok &= passed
        print(f"{field:<40} {cases:>6} {worst:>13.3g} {worst_norm:>14.3g}  "
              f"{'yes' if identical else 'no'}{'' if passed else '  FAIL'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="the git revision to compare with")
    parser.add_argument("--bound", type=float, default=0.0,
                        help="largest relative difference allowed (0: bit identity)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        import drrl

        # the package must come from the tree under test, not from an install
        if not Path(drrl.__file__).resolve().is_relative_to(Path(args.src).resolve()):
            raise SystemExit(f"imported {drrl.__file__}, not the package under {args.src}")
        with open(args.child, "wb") as fh:
            pickle.dump(run_matrix(), fh)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{args.parent}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as work:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(work, filter="data")
        theirs = _outputs(Path(work) / "src", work, "parent")
        ours = _outputs(ROOT / "src", work, "tree")
    print(f"{args.parent} ({rev[:12]}) against {ROOT / 'src'}, bound {args.bound:g}")
    return 0 if compare(theirs, ours, args.bound) else 1


if __name__ == "__main__":
    sys.exit(main())
