import json

import numpy as np
import pytest

from drrl import cli, config
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

    def test_noise_split_kind_rejected(self):
        cfg = config.parse_config("[split]\nkind = noise\n")
        with pytest.raises(ValueError, match="split.kind must be iid or temporal"):
            cfg.validate()

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

    def test_json_export(self):
        cfg = config.RunConfig()
        data = json.loads(config.config_to_json(cfg))
        assert data["loss"]["kind"] == "drrl"
        assert data["train"]["batch_size"] == 1024


@pytest.fixture(scope="module")
def log_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "log.tsv"
    log = make_block_log(num_users=30, num_items=20, seed=3)
    with open(path, "w") as fh:
        for it in log.interactions:
            fh.write(f"{it.user_id}\t{it.item_id}\t{it.timestamp}\n")
    return path


@pytest.fixture(scope="module")
def split_dir(log_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("splits") / "iid"
    code = cli.main(["split", str(log_file), str(out), "--kind", "iid", "--seed", "1"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(split_dir, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runs") / "sl"
    cfg_path = tmp_path_factory.mktemp("cfgs") / "run.cfg"
    cfg_path.write_text(GOOD_CFG.format(input=split_dir, outdir=outdir))
    code = cli.main(["train", "--config", str(cfg_path)])
    assert code == 0
    return outdir


class TestCli:
    def test_split_writes_manifest(self, split_dir):
        manifest = json.loads((split_dir / "manifest.json").read_text())
        assert manifest["num_users"] == 30

    def test_temporal_split_on_timestamped_log(self, log_file, tmp_path):
        code = cli.main(
            ["split", str(log_file), str(tmp_path / "t"), "--kind", "temporal"]
        )
        assert code == 0

    def test_split_error_exits_nonzero(self, tmp_path):
        missing = tmp_path / "missing.tsv"
        assert cli.main(["split", str(missing), str(tmp_path / "o")]) == 1

    def test_train_writes_artifacts(self, run_dir):
        for name in ("checkpoint.bin", "report.json", "report.csv", "config.cfg"):
            assert (run_dir / name).exists()

    def test_evaluate_outputs_rows_per_k(self, run_dir, split_dir, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = cli.main(
            ["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
             "--split", str(split_dir), "--k", "5", "--k", "10",
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "metric,k,value"
        assert len(lines) == 5  # two metrics x two Ks

    def test_evaluate_dimension_mismatch_is_named(self, run_dir, log_file, tmp_path, capsys):
        other = tmp_path / "bigger"
        log = make_block_log(num_users=40, num_items=20, seed=4)
        big_log = tmp_path / "big.tsv"
        with open(big_log, "w") as fh:
            for it in log.interactions:
                fh.write(f"{it.user_id}\t{it.item_id}\n")
        assert cli.main(["split", str(big_log), str(other)]) == 0
        code = cli.main(
            ["evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
             "--split", str(other)]
        )
        assert code == 1
        assert "users" in capsys.readouterr().err

    def test_stats_reports_weight_columns(self, run_dir, split_dir, tmp_path):
        out = tmp_path / "stats.csv"
        code = cli.main(
            ["stats", "--checkpoint", str(run_dir / "checkpoint.bin"),
             "--split", str(split_dir), "--loss", "sl", "--tau", "0.2",
             "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("user,k1,k2")
        assert len(lines) == 31

    def test_stats_warns_when_resolved_margin_has_no_minimizer(self, run_dir, split_dir,
                                                                 tmp_path, capsys):
        args = ["stats", "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--split", str(split_dir), "--loss", "drrl", "--resolve-margin",
                "--output", str(tmp_path / "stats.csv")]
        assert cli.main(args) == 0
        assert "no minimizer" in capsys.readouterr().err
        assert cli.main(args + ["--c", "1.2"]) == 0
        assert "no minimizer" not in capsys.readouterr().err

    def test_stats_rejects_pairwise_losses(self, run_dir, split_dir, capsys):
        code = cli.main(
            ["stats", "--checkpoint", str(run_dir / "checkpoint.bin"),
             "--split", str(split_dir), "--loss", "bpr"]
        )
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

    def test_verify_fails_under_impossible_tolerance(self, tmp_path):
        code = cli.main(
            ["verify", "--suite", "convexity", "--tolerance", "convexity=-1",
             "--output", str(tmp_path / "v.json")]
        )
        assert code == 1
