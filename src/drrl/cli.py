"""Command-line surface: split | train | evaluate | stats | verify.

Long-form flags only. Any config key can be overridden through
DRRL_<SECTION>__<KEY> environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import dataio, diagnostics, verify
from .config import config_to_json, dump_config, load_config
from .graphmodel import (
    BackboneConfig,
    InteractionGraph,
    load_checkpoint,
    save_checkpoint,
)
from .losses import LossSpec, MarginState
from .metrics import evaluate_ranking
from .trainer import train


def _atomic_write(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text, output):
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _graph_for(split, backbone_cfg):
    if backbone_cfg.kind == "mf":
        return None
    return InteractionGraph(split.train_pairs(), split.num_users, split.num_items)


def _check_dims(table, split):
    if table.user.shape[0] != split.num_users:
        raise ValueError(
            f"checkpoint has {table.user.shape[0]} users but the split has "
            f"{split.num_users}"
        )
    if table.item.shape[0] != split.num_items:
        raise ValueError(
            f"checkpoint has {table.item.shape[0]} items but the split has "
            f"{split.num_items}"
        )


def _backbone_from_args(args):
    return BackboneConfig(kind=args.backbone, layers=args.layers).validate()


def cmd_split(args):
    log = dataio.load_interactions(args.input)
    if args.user_core > 1 or args.item_core > 1:
        log = dataio.k_core_filter(log, args.user_core, args.item_core)
    if args.kind == "iid":
        split = dataio.split_iid(log, args.train, args.val, seed=args.seed)
    else:
        split = dataio.split_temporal(log, args.test, args.val)
    manifest = dataio.write_split(split, args.outdir)
    print(json.dumps({"outdir": str(args.outdir), **manifest["counts"]}))
    return 0


def _resolve_split(cfg):
    """The config's data.input is either a split directory or a raw log."""
    path = Path(cfg.data.input)
    if path.is_dir():
        return dataio.read_split(path)
    log = dataio.load_interactions(path)
    if cfg.split.kind == "temporal":
        return dataio.split_temporal(log, cfg.split.test_frac, cfg.split.val_frac)
    return dataio.split_iid(log, cfg.split.train_frac, cfg.split.val_frac,
                            seed=cfg.split.seed)


def cmd_train(args):
    cfg = load_config(args.config)
    if args.output:
        cfg.output.dir = args.output
    split = _resolve_split(cfg)
    table, margins, report = train(split, cfg.backbone, cfg.loss, cfg.train)
    outdir = Path(cfg.output.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(outdir / "checkpoint.bin", table,
                    margins.beta if cfg.loss.kind == "drrl" else None)
    report.to_json(outdir / "report.json")
    report.to_csv(outdir / "report.csv")
    _atomic_write(outdir / "config.cfg", dump_config(cfg))
    _atomic_write(outdir / "config.json", config_to_json(cfg))
    print(json.dumps({
        "outdir": str(outdir),
        "best_epoch": report.best_epoch,
        "best_val_ndcg": report.best_metric,
        "stop_reason": report.stop_reason,
    }))
    return 0


def cmd_evaluate(args):
    table, _ = load_checkpoint(args.checkpoint)
    split = dataio.read_split(args.split)
    _check_dims(table, split)
    backbone_cfg = _backbone_from_args(args)
    scores = diagnostics.checkpoint_scores(table, _graph_for(split, backbone_cfg),
                                           backbone_cfg)
    truth = split.test if args.target == "test" else split.validation
    results = evaluate_ranking(scores, split.train, truth, args.k)
    lines = ["metric,k,value"]
    for (metric, k), value in sorted(results.items()):
        lines.append(f"{metric},{k},{value:.6f}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_stats(args):
    table, margin_values = load_checkpoint(args.checkpoint)
    split = dataio.read_split(args.split)
    _check_dims(table, split)
    spec = LossSpec(
        kind=args.loss, tau=args.tau, alpha=args.alpha,
        gamma_star=args.gamma_star, c=args.c, eps=args.eps, beta0=args.beta0,
    ).validate()
    if args.resolve_margin and spec.kind == "drrl" and spec.c == 1.0:
        print("warning: at --c 1 the margin objective has no minimizer, so beta*, "
              "truncation and k1 describe an arbitrary point on its flat tail; "
              "pass --c above 1", file=sys.stderr)
    margins = None
    if margin_values is not None:
        margins = MarginState(np.asarray(margin_values, dtype=float))
    backbone_cfg = _backbone_from_args(args)
    scores = diagnostics.checkpoint_scores(table, _graph_for(split, backbone_cfg),
                                           backbone_cfg)
    rows = diagnostics.user_diagnostics(
        scores, split, spec, margins=margins, resolve_margin=args.resolve_margin,
        noise_pool=args.noise_pool,
    )
    lines = ["user,k1,k2,truncation,beta,degenerate"]
    for r in rows:
        lines.append(
            f"{r.user},{r.k1},"
            f"{'' if r.k2 is None else r.k2},"
            f"{'' if r.truncation is None else r.truncation},"
            f"{'' if r.beta is None else r.beta},"
            f"{int(r.degenerate)}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    print(json.dumps(diagnostics.aggregate(rows)), file=sys.stderr)
    return 0


def _parse_tolerances(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--tolerance expects suite=value, got {item!r}")
        name, _, raw = item.partition("=")
        out[name.strip()] = float(raw)
    return out


def cmd_verify(args):
    options = {}
    if args.n is not None:
        options["n_range"] = (args.n, args.n)
    if args.gamma is not None:
        options["gammas"] = (args.gamma,)
    if args.eta is not None:
        options["etas"] = (args.eta,)
    report = verify.run_suites(
        args.suite or None,
        seed=args.seed,
        tolerances=_parse_tolerances(args.tolerance),
        instance_options=options or None,
    )
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drrl",
        description="Collaborative-filtering training with robust softmax-family losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="partition an interaction log")
    p.add_argument("input", help="user<TAB>item[<TAB>timestamp] log")
    p.add_argument("outdir")
    p.add_argument("--kind", choices=("iid", "temporal"), default="iid")
    p.add_argument("--train", type=float, default=0.8, help="iid train fraction")
    p.add_argument("--val", type=float, default=0.1,
                   help="validation fraction of the train portion")
    p.add_argument("--test", type=float, default=0.2, help="temporal test fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--user-core", type=int, default=0)
    p.add_argument("--item-core", type=int, default=0)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="override output.dir")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="full-ranking metrics at a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True, help="split directory")
    p.add_argument("--k", type=int, action="append", default=None)
    p.add_argument("--target", choices=("validation", "test"), default="test")
    p.add_argument("--backbone", choices=("mf", "lightgcn", "xsimgcl"), default="mf")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("stats", help="worst-case weight diagnostics at a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--loss", choices=diagnostics.DIAGNOSABLE + ("mse", "bce", "bpr"),
                   default="drrl")
    p.add_argument("--tau", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma-star", type=float, default=2.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-10)
    p.add_argument("--beta0", type=float, default=0.5)
    p.add_argument("--resolve-margin", action="store_true",
                   help="recompute each user's margin from the score sweep")
    p.add_argument("--noise-pool", choices=("heldout", "train"), default="heldout",
                   help="which positives count as false negatives for k2")
    p.add_argument("--backbone", choices=("mf", "lightgcn", "xsimgcl"), default="mf")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("verify", help="run the numerical certification suites")
    p.add_argument("--suite", action="append", choices=verify.SUITES,
                   help="repeatable; default runs every suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", action="append", metavar="SUITE=VALUE")
    p.add_argument("--n", type=int, help="fix the instance size")
    p.add_argument("--gamma", type=float, help="fix the divergence order")
    p.add_argument("--eta", type=float, help="fix the robustness radius")
    p.add_argument("--output", help="JSON report path (stdout when omitted)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and not args.k:
        args.k = [20]
    try:
        return args.fn(args)
    except (ValueError, OSError, dataio.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
