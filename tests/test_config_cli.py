import json
import math
import os
import shutil
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

from drrl import cli, config, dataio, diagnostics, graphmodel, trainer, verify
from drrl.losses import MarginState
from drrl.metrics import evaluate_ranking
from drrl.synthetic import make_block_log

GOOD_CFG = """
[data]
input = {input}

[loss]
kind = sl
tau = 0.2

[train]
batch_size = 64
n_neg = 8
lr = 0.05
max_epochs = 2
embed_dim = 8
metric_k = 5

[output]
dir = {outdir}
"""

# c = 1 leaves the margin objective without a minimizer; k2 flags train positives
LIGHTGCN_DRRL_CFG = """
[data]
input = {input}

[backbone]
kind = lightgcn
layers = 2

[loss]
kind = drrl
gamma_star = 2.0
c = 1.0
eps = 0.1
lr_beta = 0.01

[train]
batch_size = 64
n_neg = 8
lr = 0.05
max_epochs = 3
embed_dim = 8
metric_k = 5
noise_pool = train

[output]
dir = {outdir}
"""


class TestConfigParse:
    def test_roundtrip(self):
        cfg = config.parse_config(GOOD_CFG.format(input="x", outdir="y"))
        again = config.parse_config(config.dump_config(cfg))
        assert config.dump_config(again) == config.dump_config(cfg)

    def test_all_errors_collected(self):
        bad = "\n".join(
            ["[loss]", "kind = sl", "tau = not-a-number", "[mystery]", "x = 1",
             "[train]", "unknown_key = 2"]
        )
        with pytest.raises(ValueError) as exc:
            config.parse_config(bad)
        message = str(exc.value)
        assert "tau" in message
        assert "mystery" in message
        assert "unknown_key" in message

    def test_key_outside_section_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            config.parse_config("lr = 0.1")

    def test_validation_failures_are_named(self):
        cfg = config.parse_config("[loss]\nkind = sl\ntau = -1\n")
        with pytest.raises(ValueError, match="tau"):
            cfg.validate()

    def test_removed_eval_section_rejected(self):
        with pytest.raises(ValueError, match=r"unknown section \[eval\]"):
            config.parse_config("[eval]\nks = 10,20\n")

    def test_removed_split_section_rejected(self):
        # splits are made by `drrl split`; data.input names the directory
        with pytest.raises(ValueError, match=r"line 3: unknown section \[split\]"):
            config.parse_config("[data]\ninput = splits/iid\n[split]\nkind = temporal\n")

    def test_removed_margin_mode_key_rejected(self):
        # DrRL margins always take their per-user step; a config.cfg written
        # before that still names the key
        with pytest.raises(ValueError, match=r"line 2: unknown key train\.margin_mode"):
            config.parse_config("[train]\nmargin_mode = per_user\n")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_float_rejected(self, raw, tmp_path):
        # every bound check is False for nan, so it is refused where it is read
        path = tmp_path / "run.cfg"
        path.write_text(f"[loss]\nc = {raw}\n")
        message = f"line 2: loss.c: must be a finite number, got '{raw}'"
        with pytest.raises(ValueError, match=message):
            config.load_config(path, with_env=False)
        with pytest.raises(ValueError, match="DRRL_LOSS__C: loss.c: must be a finite number"):
            config.apply_env_overrides(config.RunConfig(), {"DRRL_LOSS__C": raw})

    @pytest.mark.parametrize("raw", ["0", "-1e-4"])
    def test_nonpositive_margin_learning_rate_rejected(self, raw, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"[loss]\nkind = drrl\nlr_beta = {raw}\n")
        with pytest.raises(ValueError, match="loss.lr_beta must be positive"):
            config.load_config(path, with_env=False)
        cfg = config.apply_env_overrides(config.RunConfig(), {"DRRL_LOSS__LR_BETA": raw})
        with pytest.raises(ValueError, match="loss.lr_beta must be positive"):
            cfg.validate()

    @pytest.mark.parametrize("key, raw", [("metric_k", "0"), ("init_std", "0")])
    def test_nonpositive_train_key_rejected(self, key, raw, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"[train]\n{key} = {raw}\n")
        with pytest.raises(ValueError, match=f"train.{key} must be positive"):
            config.load_config(path, with_env=False)

    def test_keys_under_an_unknown_section_add_no_error(self):
        # the header is the one error; its keys are inside a section
        with pytest.raises(ValueError) as exc:
            config.parse_config("[data]\ninput = splits/iid\n[split]\nkind = iid\nseed = 0\n")
        assert str(exc.value) == "config errors: line 3: unknown section [split]"

    def test_every_preset_loads(self):
        presets = sorted((Path(__file__).resolve().parent.parent / "presets").glob("*.cfg"))
        assert len(presets) == 80
        for path in presets:
            cfg = config.load_config(path, with_env=False)
            assert cfg.data.input.startswith("data/"), path.name
            assert cfg.output.dir == f"runs/{path.stem}", path.name

    def test_comments_and_blank_lines_ignored(self):
        cfg = config.parse_config("# header\n\n[loss]\nkind = bpr  # inline\n")
        assert cfg.loss.kind == "bpr"

    def test_env_override(self):
        cfg = config.parse_config("[loss]\nkind = sl\ntau = 0.2\n")
        config.apply_env_overrides(cfg, {"DRRL_LOSS__TAU": "0.4"})
        assert cfg.loss.tau == pytest.approx(0.4)

    def test_env_override_unknown_key_rejected(self):
        cfg = config.RunConfig()
        with pytest.raises(ValueError, match="unknown key"):
            config.apply_env_overrides(cfg, {"DRRL_LOSS__TEMP": "0.4"})

    def test_env_override_unknown_section_rejected(self):
        cfg = config.RunConfig()
        with pytest.raises(ValueError, match=r"DRRL_LOSSS__TAU: unknown section \[losss\]"):
            config.apply_env_overrides(cfg, {"DRRL_LOSSS__TAU": "0.4"})


@pytest.fixture(scope="module")
def log_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "log.tsv"
    log = make_block_log(num_users=30, num_items=20, seed=3)
    with open(path, "w") as fh:
        for row in zip(log.users, log.items, log.timestamps):
            fh.write("%d\t%d\t%d\n" % row)
    return path


def _split(log_file, tmp_path_factory, seed):
    out = tmp_path_factory.mktemp("splits") / "iid"
    code = cli.main(["split", str(log_file), str(out), "--kind", "iid", "--seed", str(seed)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def split_dir(log_file, tmp_path_factory):
    return _split(log_file, tmp_path_factory, seed=1)


@pytest.fixture(scope="module")
def other_split(log_file, tmp_path_factory):
    """A second split of the same log: the same user and item counts."""
    return _split(log_file, tmp_path_factory, seed=2)


def _train(text, split_dir, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runs") / "run"
    cfg_path = tmp_path_factory.mktemp("cfgs") / "run.cfg"
    cfg_path.write_text(text.format(input=split_dir, outdir=outdir))
    code = cli.main(["train", "--config", str(cfg_path)])
    assert code == 0
    return outdir


@pytest.fixture(scope="module")
def run_dir(split_dir, tmp_path_factory):
    return _train(GOOD_CFG, split_dir, tmp_path_factory)


@pytest.fixture(scope="module")
def lightgcn_run(split_dir, tmp_path_factory):
    return _train(LIGHTGCN_DRRL_CFG, split_dir, tmp_path_factory)


def _run_state(run, split_dir):
    """The run's config (without env overrides), checkpoint table and margins,
    the split and the split's train graph."""
    cfg = config.load_config(run / "config.cfg", with_env=False)
    table, margins = graphmodel.load_checkpoint(run / "checkpoint.bin")
    split = dataio.read_split(split_dir)
    graph = graphmodel.InteractionGraph(split.train_pairs(), split.num_users, split.num_items)
    return cfg, margins, split, table, graph


def _evaluate_csv(run, split_dir, ks, backbone_cfg=None):
    """The `drrl evaluate` CSV of a run on a split, computed directly; the
    run's own backbone unless one is given."""
    cfg, _, split, table, graph = _run_state(run, split_dir)
    scores = diagnostics.checkpoint_scores(table, graph, backbone_cfg or cfg.backbone)
    results = evaluate_ranking(scores, split.train, split.test, ks)
    return "".join(["metric,k,value\n"] + [f"{metric},{k},{value:.6f}\n"
                                          for (metric, k), value in sorted(results.items())])


def _stats_rows(run, split_dir, noise_pool=None):
    """The `drrl stats` rows of a run on a split, computed directly; the
    run's own noise pool unless one is given."""
    cfg, margins, split, table, graph = _run_state(run, split_dir)
    scores = diagnostics.checkpoint_scores(table, graph, cfg.backbone)
    rows = diagnostics.user_diagnostics(scores, split, cfg.loss, MarginState(margins),
                                        noise_pool=noise_pool or cfg.train.noise_pool)
    return [[str(user), str(k1), "" if math.isnan(k2) else str(k2), str(truncation),
             str(beta), str(int(degenerate))]
            for user, k1, k2, truncation, beta, degenerate in rows.tolist()]


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestCli:
    def test_split_writes_manifest(self, split_dir):
        manifest = json.loads((split_dir / "manifest.json").read_text())
        assert manifest["num_users"] == 30

    def test_temporal_split_on_timestamped_log(self, log_file, tmp_path):
        code = cli.main(
            ["split", str(log_file), str(tmp_path / "t"), "--kind", "temporal"]
        )
        assert code == 0

    def test_temporal_split_rejects_a_validation_fraction_outside_0_1(self, log_file,
                                                                       tmp_path, capsys):
        code = cli.main(["split", str(log_file), str(tmp_path / "t"), "--kind", "temporal",
                         "--val", "-0.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: val_frac_of_train must lie strictly between 0 and 1")
        assert not (tmp_path / "t").exists()

    def test_split_names_a_negative_seed(self, log_file, tmp_path, capsys):
        code = cli.main(["split", str(log_file), str(tmp_path / "s"), "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not (tmp_path / "s").exists()

    def test_split_core_flags_match_the_api(self, tmp_path):
        # a user with one interaction and an item with one user, over the block log
        log = make_block_log(num_users=30, num_items=20, seed=3)
        rows = [*zip(log.users.tolist(), log.items.tolist()), (30, 0), (5, 20)]
        path = tmp_path / "log.tsv"
        path.write_text("".join(f"{u}\t{i}\n" for u, i in rows))
        assert cli.main(["split", str(path), str(tmp_path / "cli"),
                         "--user-core", "2", "--item-core", "2"]) == 0
        filtered = dataio.k_core_filter(dataio.load_interactions(path), 2, 2)
        assert (filtered.num_users, filtered.num_items) == (30, 20)
        dataio.write_split(dataio.split_iid(filtered, seed=0), tmp_path / "api")
        for name in ("train.tsv", "validation.tsv", "test.tsv", "manifest.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    def test_split_error_exits_nonzero(self, tmp_path):
        missing = tmp_path / "missing.tsv"
        assert cli.main(["split", str(missing), str(tmp_path / "o")]) == 1

    def test_train_writes_artifacts(self, run_dir):
        names = sorted(path.name for path in run_dir.iterdir())
        assert names == ["checkpoint.bin", "config.cfg", "report.json"]

    def test_train_output_flag_overrides_output_dir(self, split_dir, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(GOOD_CFG.format(input=split_dir, outdir=tmp_path / "cfg-dir"))
        out = tmp_path / "flag-dir"
        assert cli.main(["train", "--config", str(cfg_path), "--output", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "checkpoint.bin", "config.cfg", "report.json"]
        assert config.load_config(out / "config.cfg", with_env=False).output.dir == str(out)
        assert not (tmp_path / "cfg-dir").exists()

    def test_every_artifact_has_the_mode_of_a_plainly_opened_file(self, log_file, tmp_path):
        split, run = tmp_path / "split", tmp_path / "run"
        outputs = {name: tmp_path / f"{name}.out" for name in ("evaluate", "stats", "verify")}
        umask = os.umask(0o022)
        try:
            assert cli.main(["split", str(log_file), str(split)]) == 0
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(LIGHTGCN_DRRL_CFG.format(input=split, outdir=run))
            assert cli.main(["train", "--config", str(cfg_path)]) == 0
            assert cli.main(["evaluate", "--run", str(run), "--output",
                             str(outputs["evaluate"])]) == 0
            assert cli.main(["stats", "--run", str(run), "--output", str(outputs["stats"])]) == 0
            assert cli.main(["verify", "--suite", "convexity", "--output",
                             str(outputs["verify"])]) == 0
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(umask)
        modes = {path.relative_to(tmp_path).as_posix(): stat.S_IMODE(path.stat().st_mode)
                 for path in tmp_path.rglob("*") if path.is_file()}
        assert len(modes) == 4 + 3 + 3 + 2  # split, run, outputs, run.cfg and plain
        assert modes == dict.fromkeys(modes, modes["plain"])  # no temporary file either

    def test_interrupted_train_leaves_a_directory_load_run_rejects(
            self, lightgcn_run, split_dir, tmp_path, capsys, monkeypatch):
        # an MF run into the LightGCN run's directory fails after its checkpoint
        run = tmp_path / "run"
        shutil.copytree(lightgcn_run, run)
        cfg_path = tmp_path / "mf.cfg"
        cfg_path.write_text(GOOD_CFG.format(input=split_dir, outdir=run))

        def disk_full(report, path):
            raise OSError("disk full")

        monkeypatch.setattr(trainer.TrainReport, "to_json", disk_full)
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        with pytest.raises(ValueError, match=f"^{run} is not a run directory"):
            cli._load_run(run)
        assert cli.main(["evaluate", "--run", str(run), "--k", "5"]) == 1
        assert "is not a run directory" in capsys.readouterr().err

    def test_train_rejects_a_raw_log_input(self, log_file, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(GOOD_CFG.format(input=log_file, outdir=tmp_path / "run"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{log_file} is not a split directory: it has no manifest.json" in err
        assert "drrl split" in err
        assert not (tmp_path / "run").exists()

    def test_train_names_out_of_range_infonce_and_seed_keys(self, split_dir, tmp_path,
                                                            capsys):
        # unchecked, temperature 0 raised ZeroDivisionError in the first
        # XSimGCL step and a negative seed numpy's unnamed error
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(GOOD_CFG.format(input=split_dir, outdir=tmp_path / "run")
                            + "[backbone]\nkind = xsimgcl\ninfonce_temperature = 0\n"
                            "infonce_weight = -1\n[train]\nseed = -1\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for message in ("backbone.infonce_weight must be nonnegative",
                        "backbone.infonce_temperature must be positive",
                        "train.seed must be nonnegative"):
            assert message in err
        assert not (tmp_path / "run").exists()

    def test_evaluate_outputs_rows_per_k(self, run_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        code = cli.main(
            ["evaluate", "--run", str(run_dir), "--k", "5", "--k", "10", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "metric,k,value"
        assert len(lines) == 5  # two metrics x two Ks
        # without --k the run's train.metric_k (5) is the one K
        assert cli.main(["evaluate", "--run", str(run_dir), "--output", str(out)]) == 0
        assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["5", "5"]

    def test_evaluate_scores_under_the_runs_backbone(self, lightgcn_run, split_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        code = cli.main(["evaluate", "--run", str(lightgcn_run), "--k", "5", "--k", "10",
                         "--output", str(out)])
        assert code == 0
        assert out.read_text() == _evaluate_csv(lightgcn_run, split_dir, [5, 10])
        # layer-0 embeddings scored as MF rank differently
        assert out.read_text() != _evaluate_csv(lightgcn_run, split_dir, [5, 10],
                                                graphmodel.BackboneConfig())

    def test_evaluate_and_stats_read_the_split_data_input_names(
            self, lightgcn_run, split_dir, other_split, tmp_path, monkeypatch):
        assert config.load_config(lightgcn_run / "config.cfg").data.input == str(split_dir)
        evaluate = ["evaluate", "--run", str(lightgcn_run), "--k", "5", "--k", "10",
                    "--output", str(tmp_path / "metrics.csv")]
        stats = ["stats", "--run", str(lightgcn_run), "--output", str(tmp_path / "stats.csv")]
        assert cli.main(evaluate) == 0 and cli.main(stats) == 0
        own_csv = (tmp_path / "metrics.csv").read_text()
        own_rows = _csv_rows(tmp_path / "stats.csv")
        assert own_csv == _evaluate_csv(lightgcn_run, split_dir, [5, 10])
        assert own_rows == _stats_rows(lightgcn_run, split_dir)
        # DRRL_DATA__INPUT is the one override: the other split, same counts
        monkeypatch.setenv("DRRL_DATA__INPUT", str(other_split))
        assert cli.main(evaluate) == 0 and cli.main(stats) == 0
        got_csv = (tmp_path / "metrics.csv").read_text()
        assert got_csv == _evaluate_csv(lightgcn_run, other_split, [5, 10]) != own_csv
        got_rows = _csv_rows(tmp_path / "stats.csv")
        assert got_rows == _stats_rows(lightgcn_run, other_split) != own_rows

    def test_relative_data_input_is_recorded_absolute(self, split_dir, tmp_path,
                                                      monkeypatch):
        # train from the split's parent directory with a relative data.input,
        # then read the run from another working directory
        monkeypatch.chdir(split_dir.parent)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(LIGHTGCN_DRRL_CFG.format(input=split_dir.name,
                                                     outdir=tmp_path / "run"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        cfg = config.load_config(tmp_path / "run" / "config.cfg")
        assert cfg.data.input == str(split_dir)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["evaluate", "--run", "run", "--output", "metrics.csv"]) == 0
        assert cli.main(["stats", "--run", "run", "--output", "stats.csv"]) == 0
        assert (tmp_path / "metrics.csv").read_text() == _evaluate_csv(
            tmp_path / "run", split_dir, [5])
        assert _csv_rows(tmp_path / "stats.csv") == _stats_rows(tmp_path / "run", split_dir)

    def test_run_without_config_is_named(self, run_dir, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(run_dir / "checkpoint.bin", bare)
        assert cli.main(["stats", "--run", str(bare)]) == 1
        assert "config.cfg" in capsys.readouterr().err

    def test_bad_manifest_exits_with_a_named_error(self, split_dir, tmp_path, capsys):
        bad = tmp_path / "split"
        shutil.copytree(split_dir, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        del manifest["num_items"]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(GOOD_CFG.format(input=bad, outdir=tmp_path / "run"))
        assert cli.main(["train", "--config", str(cfg_path)]) == 1
        assert f"manifest {bad / 'manifest.json'} has no num_items" in capsys.readouterr().err

    def test_oversized_checkpoint_header_exits_with_a_named_error(self, run_dir, tmp_path,
                                                                 capsys):
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        data = bytearray((run / "checkpoint.bin").read_bytes())
        data[8:16] = struct.pack("<II", 2**31, 2**31 - 1)  # |U| and |I|
        data[16:20] = struct.pack("<I", 2**31 - 1)  # d
        (run / "checkpoint.bin").write_bytes(bytes(data))
        assert cli.main(["evaluate", "--run", str(run)]) == 1
        err = capsys.readouterr().err
        assert f"truncated checkpoint {run / 'checkpoint.bin'}: the user block needs" in err

    def test_evaluate_dimension_mismatch_is_named(self, run_dir, tmp_path, capsys,
                                                  monkeypatch):
        other = tmp_path / "bigger"
        log = make_block_log(num_users=40, num_items=20, seed=4)
        big_log = tmp_path / "big.tsv"
        with open(big_log, "w") as fh:
            for row in zip(log.users, log.items):
                fh.write("%d\t%d\n" % row)
        assert cli.main(["split", str(big_log), str(other)]) == 0
        monkeypatch.setenv("DRRL_DATA__INPUT", str(other))
        code = cli.main(["evaluate", "--run", str(run_dir)])
        assert code == 1
        assert "users" in capsys.readouterr().err

    def test_stats_reports_weight_columns(self, run_dir, tmp_path):
        # the SL run's own loss spec (tau = 0.2) gives the weights
        out = tmp_path / "stats.csv"
        code = cli.main(["stats", "--run", str(run_dir), "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("user,k1,k2")
        assert len(lines) == 31
        assert all(line.split(",")[4] == "" for line in lines[1:])  # SL has no margin

    def test_stats_rows_follow_the_runs_loss_margins_and_noise_pool(self, lightgcn_run,
                                                                    split_dir, tmp_path):
        out = tmp_path / "stats.csv"
        code = cli.main(["stats", "--run", str(lightgcn_run), "--output", str(out)])
        assert code == 0
        got = _csv_rows(out)
        assert got == _stats_rows(lightgcn_run, split_dir)
        assert got != _stats_rows(lightgcn_run, split_dir, noise_pool="heldout")

    def test_stats_warns_when_resolved_margin_has_no_minimizer(self, lightgcn_run, tmp_path,
                                                                 capsys, monkeypatch):
        args = ["stats", "--run", str(lightgcn_run), "--resolve-margin",
                "--output", str(tmp_path / "stats.csv")]
        assert cli.main(args) == 0
        assert "no minimizer" in capsys.readouterr().err
        monkeypatch.setenv("DRRL_LOSS__C", "1.2")
        assert cli.main(args) == 0
        assert "no minimizer" not in capsys.readouterr().err

    def test_stats_warns_when_resolved_ccl_margin_has_no_minimizer(self, lightgcn_run,
                                                                     tmp_path, capsys,
                                                                     monkeypatch):
        args = ["stats", "--run", str(lightgcn_run), "--resolve-margin",
                "--output", str(tmp_path / "stats.csv")]
        monkeypatch.setenv("DRRL_LOSS__KIND", "ccl")
        monkeypatch.setenv("DRRL_LOSS__ALPHA", "1.0")
        assert cli.main(args) == 0
        err = capsys.readouterr().err
        assert "no minimizer" in err and "loss.alpha" in err and "DRRL_LOSS__ALPHA" in err
        monkeypatch.setenv("DRRL_LOSS__ALPHA", "2.0")
        assert cli.main(args) == 0
        assert "no minimizer" not in capsys.readouterr().err

    def test_stats_rejects_a_resolved_ccl_margin_below_one(self, lightgcn_run, tmp_path,
                                                            capsys, monkeypatch):
        out = tmp_path / "stats.csv"
        monkeypatch.setenv("DRRL_LOSS__KIND", "ccl")
        monkeypatch.setenv("DRRL_LOSS__ALPHA", "0.5")
        code = cli.main(["stats", "--run", str(lightgcn_run), "--resolve-margin",
                         "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "loss.alpha >= 1, got 0.5" in err and "DRRL_LOSS__ALPHA" in err
        assert "warning" not in err and "c = 0.5" not in err
        assert not out.exists()

    def test_stats_rejects_pairwise_losses(self, run_dir, capsys, monkeypatch):
        monkeypatch.setenv("DRRL_LOSS__KIND", "bpr")
        code = cli.main(["stats", "--run", str(run_dir)])
        assert code == 1
        assert "weight" in capsys.readouterr().err

    def test_verify_passes_on_fast_suites(self, tmp_path):
        out = tmp_path / "verify.json"
        code = cli.main(
            ["verify", "--suite", "degeneracy", "--suite", "convexity",
             "--suite", "gradients", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"]

    def test_verify_names_a_negative_seed_before_running_any(self, tmp_path, capsys,
                                                             monkeypatch):
        ran = []
        monkeypatch.setitem(verify.SUITES, "convexity", lambda seed: ran.append(seed) or [])
        out = tmp_path / "verify.json"
        code = cli.main(["verify", "--suite", "convexity", "--seed", "-1",
                         "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert ran == [] and not out.exists()

    def test_verify_exits_nonzero_and_reports_a_failed_check(self, tmp_path, monkeypatch):
        # a numpy bool, as the suites' comparisons produce
        failed = {"name": "margin-convexity", "passed": np.bool_(False)}
        monkeypatch.setitem(verify.SUITES, "convexity", lambda seed: [dict(failed)])
        out = tmp_path / "v.json"
        assert cli.main(["verify", "--suite", "convexity", "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["checks"] == [{"name": "margin-convexity", "passed": False}]


def test_run_suites_rejects_an_unknown_suite_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "convexity", lambda seed: ran.append(seed) or [])
    with pytest.raises(ValueError, match="unknown suite 'convexty'"):
        verify.run_suites(["convexity", "convexty"])
    assert ran == []
