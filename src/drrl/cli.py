"""Command-line surface: split | train | evaluate | stats | verify.

Long-form flags only. `train` reads the split directory that `split` wrote
and its config's data.input names. `evaluate` and `stats` read the model
from a run directory written by `train` (its checkpoint.bin and config.cfg)
and the split from that config's data.input. Any config key, there and in
`train`, can be overridden through DRRL_<SECTION>__<KEY> environment
variables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import dataio, diagnostics, verify
from .config import dump_config, load_config
from .graphmodel import CosineScores, InteractionGraph, load_checkpoint, save_checkpoint
from .losses import MarginState
from .metrics import evaluate_ranking
from .trainer import train


def _emit(text, output):
    if output:
        dataio.replace_file(output, text)
    else:
        sys.stdout.write(text)


def _check_dims(table, split):
    for name, have, want in (("users", len(table.user), split.num_users),
                             ("items", len(table.item), split.num_items)):
        if have != want:
            raise ValueError(f"checkpoint has {have} {name} but the split has {want}")


def _load_run(run):
    """The run directory's config and margins, the split its data.input
    names, and the checkpoint's noise-free scores under the run's own
    backbone, read in row blocks."""
    run = Path(run)
    if not (run / "config.cfg").is_file():
        raise ValueError(f"{run} is not a run directory: it has no config.cfg "
                         "(drrl train writes one beside checkpoint.bin)")
    cfg = load_config(run / "config.cfg")
    table, margins = load_checkpoint(run / "checkpoint.bin")
    split = dataio.read_split(cfg.data.input)
    _check_dims(table, split)
    graph = None
    if cfg.backbone.kind != "mf":
        graph = InteractionGraph(split.train_pairs(), split.num_users, split.num_items)
    return cfg, margins, split, CosineScores(table, graph, cfg.backbone)


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


def cmd_train(args):
    cfg = load_config(args.config)
    if args.output:
        cfg.output.dir = args.output
    split = dataio.read_split(cfg.data.input)
    # recorded absolute, so the run directory reads from any working directory
    cfg.data.input = os.path.abspath(cfg.data.input)
    table, margins, report = train(split, cfg.backbone, cfg.loss, cfg.train)
    outdir = Path(cfg.output.dir)
    # an interrupted run leaves no config.cfg, which _load_run rejects by
    # name, rather than a new checkpoint beside the old run's config
    (outdir / "config.cfg").unlink(missing_ok=True)
    save_checkpoint(outdir / "checkpoint.bin", table,
                    margins.beta if cfg.loss.kind == "drrl" else None)
    report.to_json(outdir / "report.json")
    dataio.replace_file(outdir / "config.cfg", dump_config(cfg))
    print(json.dumps({
        "outdir": str(outdir),
        "best_epoch": report.best_epoch,
        "best_val_ndcg": report.best_metric,
        "stop_reason": report.stop_reason,
    }))
    return 0


def cmd_evaluate(args):
    cfg, _, split, scores = _load_run(args.run)
    truth = split.test if args.target == "test" else split.validation
    results = evaluate_ranking(scores, split.train, truth, args.k or [cfg.train.metric_k])
    lines = ["metric,k,value"]
    for (metric, k), value in sorted(results.items()):
        lines.append(f"{metric},{k},{value:.6f}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_stats(args):
    cfg, margin_values, split, scores = _load_run(args.run)
    spec = cfg.loss
    key = {"drrl": "c", "ccl": "alpha"}.get(spec.kind)
    if args.resolve_margin and key and getattr(spec, key) <= 1.0:
        value = getattr(spec, key)
        fix = f"set loss.{key} above 1 (for example DRRL_LOSS__{key.upper()}=1.2)"
        if value < 1.0:
            raise ValueError(f"--resolve-margin needs loss.{key} >= 1, got {value:g}: below 1 "
                             f"the margin objective is unbounded below; {fix}")
        print(f"warning: at loss.{key} = 1 the radius is 0 and the worst case is P itself: the "
              f"margin objective has no minimizer, so beta* reads -inf, k1 and k2 read 1 and "
              f"truncation reads 0; {fix}", file=sys.stderr)
    margins = None if margin_values is None else MarginState(margin_values)
    rows = diagnostics.user_diagnostics(
        scores, split, spec, margins=margins, resolve_margin=args.resolve_margin,
        noise_pool=cfg.train.noise_pool,
    )
    lines = ["user,k1,k2,truncation,beta,degenerate"]
    for user, k1, *optional, degenerate in rows.tolist():
        blanked = ("" if math.isnan(v) else v for v in optional)
        lines.append(",".join(map(str, (user, k1, *blanked, int(degenerate)))))
    _emit("\n".join(lines) + "\n", args.output)
    print(json.dumps(diagnostics.aggregate(rows)), file=sys.stderr)
    return 0


def cmd_verify(args):
    report = verify.run_suites(args.suite, seed=args.seed)
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

    p = sub.add_parser("evaluate", help="full-ranking metrics of a trained run")
    p.add_argument("--run", required=True, help="run directory written by drrl train")
    p.add_argument("--k", type=int, action="append", default=None,
                   help="repeatable; default the run's train.metric_k")
    p.add_argument("--target", choices=("validation", "test"), default="test")
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("stats", help="worst-case weight diagnostics of a trained run")
    p.add_argument("--run", required=True, help="run directory written by drrl train")
    p.add_argument("--resolve-margin", action="store_true",
                   help="recompute each user's margin from the score sweep")
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("verify", help="run the numerical certification suites, each at "
                       "its own fixed tolerance and instance set")
    p.add_argument("--suite", action="append", choices=verify.SUITES,
                   help="repeatable; default runs every suite")
    p.add_argument("--seed", type=int, default=0, help="seed of every suite's instances")
    p.add_argument("--output", help="JSON report path (stdout when omitted)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
