"""End-to-end demo on the synthetic block dataset.

Trains MF (d=16) with each loss, then prints test metrics and, for the
robust losses, the worst-case weight diagnostics at the best checkpoint.

Usage: python3 scripts/run_synthetic.py [--noise 0.25] [--epochs 30]
"""

from __future__ import annotations

import argparse

from drrl.dataio import split_iid
from drrl.diagnostics import aggregate, user_diagnostics
from drrl.graphmodel import BackboneConfig, CosineScores
from drrl.losses import LossSpec, MarginState
from drrl.metrics import evaluate_ranking
from drrl.synthetic import make_block_log, random_ranking_baseline
from drrl.trainer import TrainConfig, train

SPECS = {
    "bpr": LossSpec(kind="bpr"),
    "sl": LossSpec(kind="sl", tau=0.2),
    "ccl": LossSpec(kind="ccl", alpha=2.0, margin=0.4),
    "drrl": LossSpec(kind="drrl", gamma_star=2.0, c=1.2, eps=0.1,
                     beta0=0.3, lr_beta=1e-2),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    log = make_block_log(seed=args.seed)
    split = split_iid(log, seed=args.seed)
    backbone = BackboneConfig(kind="mf")
    baseline = random_ranking_baseline(10, log.num_items)
    print(f"random Recall@10 baseline: {baseline:.4f}")

    for name, spec in SPECS.items():
        cfg = TrainConfig(
            batch_size=256, n_neg=16, lr=0.05, max_epochs=args.epochs,
            embed_dim=16, metric_k=10, noise=args.noise, seed=args.seed,
        )
        table, margins, report = train(split, backbone, spec, cfg)
        scores = CosineScores(table, None, backbone)
        metrics = evaluate_ranking(scores, split.train, split.test, [10])
        line = (f"{name:5s} best_epoch={report.best_epoch:3d} "
                f"test Recall@10={metrics[('recall', 10)]:.4f} "
                f"NDCG@10={metrics[('ndcg', 10)]:.4f}")
        if spec.kind in ("sl", "ccl", "drrl"):
            rows = user_diagnostics(
                scores, split, spec,
                margins=margins if spec.kind == "drrl" else None,
                resolve_margin=spec.kind == "ccl",
            )
            agg = aggregate(rows)
            for label, key in (("k1", "k1_mean"), ("k2", "k2_mean"), ("trunc", "truncation_mean")):
                if agg[key] is not None:
                    line += f" {label}={agg[key]:.2f}"
        print(line)


if __name__ == "__main__":
    main()
