import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from seqdg.checkpoint import save_checkpoint
from seqdg.cli import main
from seqdg.config import ConfigError, load_run_config
from seqdg.data import write_annotation_csv
from seqdg.model import ModelConfig, ModelParams

SMALL_SYNTH = {
    "synth": {"n_source_domains": 2, "n_target_domains": 1,
              "n_ambiguous_pairs": 3, "n_verbs": 8, "n_nouns": 5,
              "videos_per_domain": 2, "actions_per_video": 16,
              "d_v": 16, "d_t": 16, "clips_per_action": 2, "seed": 0},
    "model": {"W": 3, "D": 16, "D_V": 16, "D_T": 16, "n_enc_layers": 1,
              "n_dec_layers": 1, "n_heads": 2, "n_verbs": 8, "n_nouns": 5,
              "d_ff": 32, "vocab_size": 13},
    "train": {"epochs": 2, "batch_size": 8, "lr": 0.05, "p_mix": 0.5,
              "lr_decay_epochs": [50, 75], "seed": 0},
    "ablate": {"W": [1, 3], "p_mix": [0.0], "lambda_rv": [0.0],
               "lambda_rt": [0.0], "seeds": [0]},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_SYNTH))
    return path


@pytest.fixture
def dataset_dir(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["synth-gen", "--config", str(config_path),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture
def checkpoint_path(tmp_path):
    """An untrained checkpoint that fits the `dataset_dir` dataset."""
    params = ModelParams(ModelConfig(**SMALL_SYNTH["model"]), seed=0)
    return save_checkpoint(tmp_path / "model.ckpt", params)


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestConfigLoading:
    def test_unknown_keys_and_bad_values_reported_together(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "train": {"lr": -1, "batch_size": 0, "mystery": 3},
        }))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert any("mystery" in p for p in err.value.problems)

    def test_value_violations_all_listed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "train": {"lr": -1, "batch_size": 0},
            "model": {"W": 4},
        }))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        text = "\n".join(err.value.problems)
        assert "lr" in text and "batch_size" in text and "W" in text

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trian": {}}))
        with pytest.raises(ConfigError, match="trian"):
            load_run_config(path)

    def test_seed_override_applies_everywhere(self, config_path):
        run = load_run_config(config_path, {"seed": 99})
        assert run.synth.seed == 99
        assert run.train.seed == 99


class TestSynthGen:
    def test_writes_dataset_and_provenance(self, dataset_dir):
        for name in ("manifest.json", "features.f32", "generator_truth.json",
                     "config_resolved.json"):
            assert (dataset_dir / name).exists()
        prov = json.loads((dataset_dir / "config_resolved.json").read_text())
        assert prov["seed"] == 0
        assert prov["data_hashes"]["features.f32"]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synth": {"nope": 1}}))
        assert main(["synth-gen", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2


    @pytest.mark.parametrize("section, key, value", [
        ("model", "clip_agg", "mean"), ("model", "relational_clips", None),
        ("model", "cross_attention_values", "query_stream"),
        ("model", "decoder_self_attention", True),
        ("train", "seqmix_exclude_center", False), ("train", "n_clips_sample", None)])
    def test_retired_keys_are_config_errors(self, tmp_path, section, key, value):
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        cfg[section][key] = value
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(cfg))
        assert main(["synth-gen", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


class TestTrainEval:
    def test_train_then_eval_roundtrip(self, tmp_path, config_path, dataset_dir):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--data",
                     str(dataset_dir), "--out", str(run_dir)]) == 0
        assert (run_dir / "checkpoint.ckpt").exists()
        metrics = (run_dir / "metrics.jsonl").read_text().strip().split("\n")
        assert len(metrics) == 2
        prov = json.loads((run_dir / "config_resolved.json").read_text())
        assert prov["data_hashes"]["manifest.json"]

        eval_dir = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                     "--data", str(dataset_dir), "--out", str(eval_dir),
                     "--dump-predictions"]) == 0
        results = json.loads((eval_dir / "results.json").read_text())
        assert results["split"] == "target"
        assert set(results["metrics"]) == {"top1", "top5"}
        assert (eval_dir / "predictions.jsonl").exists()

    def test_lr_schedule_logged(self, tmp_path, config_path, dataset_dir):
        run_dir = tmp_path / "run_sched"
        cfg = json.loads(Path(config_path).read_text())
        cfg["train"]["epochs"] = 2
        cfg["train"]["lr"] = 0.005
        cfg["train"]["lr_decay_epochs"] = [1]
        sched = tmp_path / "sched.json"
        sched.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(sched), "--data", str(dataset_dir),
                     "--out", str(run_dir)]) == 0
        lrs = [json.loads(line)["lr"] for line in
               (run_dir / "metrics.jsonl").read_text().strip().split("\n")]
        assert lrs == [0.005, 0.0005]

    def test_eval_twice_identical_and_readonly(self, tmp_path, config_path,
                                               dataset_dir):
        run_dir = tmp_path / "run2"
        main(["train", "--config", str(config_path), "--data", str(dataset_dir),
              "--out", str(run_dir)])
        ckpt = run_dir / "checkpoint.ckpt"
        before = {p.name: sha(p) for p in (*dataset_dir.glob("*.f32"),
                                           dataset_dir / "manifest.json", ckpt)}
        outs = []
        for i in range(2):
            d = tmp_path / f"ev{i}"
            assert main(["eval", "--checkpoint", str(ckpt), "--data",
                         str(dataset_dir), "--out", str(d)]) == 0
            outs.append((d / "results.json").read_bytes())
        assert outs[0] == outs[1]
        after = {p.name: sha(p) for p in (*dataset_dir.glob("*.f32"),
                                          dataset_dir / "manifest.json", ckpt)}
        assert before == after

    def test_train_determinism_bitwise_checkpoints(self, tmp_path, config_path,
                                                   dataset_dir):
        hashes = []
        for i in range(2):
            run_dir = tmp_path / f"det{i}"
            assert main(["train", "--config", str(config_path), "--data",
                         str(dataset_dir), "--out", str(run_dir),
                         "--seed", "5"]) == 0
            hashes.append((sha(run_dir / "checkpoint.ckpt"),
                           sha(run_dir / "metrics.jsonl")))
        assert hashes[0] == hashes[1]

    def test_missing_data_dir_is_data_error(self, tmp_path, config_path):
        assert main(["train", "--config", str(config_path), "--data",
                     str(tmp_path / "nowhere"), "--out",
                     str(tmp_path / "r")]) == 3

    def test_divergent_lr_exit_code(self, tmp_path, config_path, dataset_dir):
        cfg = json.loads(Path(config_path).read_text())
        cfg["train"]["lr"] = 1e9
        cfg["train"]["epochs"] = 4
        blowup = tmp_path / "blowup.json"
        blowup.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(blowup), "--data",
                         str(dataset_dir), "--out", str(tmp_path / "div")])
        assert code == 4


class TestAblate:
    def test_all_components_off_is_single_action_baseline(self, tmp_path,
                                                          config_path,
                                                          dataset_dir):
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_path), "--data",
                     str(dataset_dir), "--out", str(out), "--epochs", "1"]) == 0
        rows = json.loads((out / "ablation.json").read_text())["rows"]
        assert any(r["W"] == 1 and r["p_mix"] == 0.0 and r["lambda_rv"] == 0.0
                   for r in rows)
        assert len(rows) == 2  # W in {1, 3}, all other axes single-valued


class TestSeqStats:
    def test_writes_tables(self, tmp_path):
        csv_path = tmp_path / "ann.csv"
        write_annotation_csv(csv_path, [
            {"video_id": "v0", "domain_id": "D0", "temporal_index": 0,
             "verb_class": 0, "noun_class": 0, "narration": "a"},
            {"video_id": "v0", "domain_id": "D0", "temporal_index": 1,
             "verb_class": 1, "noun_class": 1, "narration": "b"},
            {"video_id": "v1", "domain_id": "D1", "temporal_index": 0,
             "verb_class": 0, "noun_class": 0, "narration": "a"},
            {"video_id": "v1", "domain_id": "D1", "temporal_index": 1,
             "verb_class": 1, "noun_class": 1, "narration": "b"},
        ])
        out = tmp_path / "stats"
        assert main(["seq-stats", "--csv", str(csv_path), "--out", str(out)]) == 0
        table = json.loads((out / "seq_stats.json").read_text())
        assert table["action"]["distinct"]["2"] == 1

    def test_missing_csv_is_data_error(self, tmp_path):
        assert main(["seq-stats", "--csv", str(tmp_path / "no.csv"),
                     "--out", str(tmp_path / "o")]) == 3


class TestGradCheckCommand:
    def test_passes_and_writes_report(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["grad-check", "--out", str(out), "--tol", "1e-3"]) == 0
        report = json.loads((out / "grad_check.json").read_text())
        assert set(report) == {"mse", "token_cross_entropy"}
        assert all(r["passed"] for r in report.values())


def split_checkpoint(raw: bytes):
    """(header dict, payload bytes) of a checkpoint file's contents."""
    n = struct.unpack("<Q", raw[12:20])[0]
    return json.loads(raw[20:20 + n]), raw[20 + n:]


def with_header(raw: bytes, edit) -> bytes:
    """The checkpoint bytes `raw` with `edit` applied to the JSON header."""
    header, payload = split_checkpoint(raw)
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    return raw[:12] + struct.pack("<Q", len(encoded)) + encoded + payload


def header_length(raw: bytes) -> int:
    return struct.unpack("<Q", raw[12:20])[0]


CORRUPT_CHECKPOINTS = {
    "truncated_payload": lambda raw: raw[:-100],
    "half_length": lambda raw: raw[:len(raw) // 2],
    "header_past_end": lambda raw: raw[:12] + struct.pack("<Q", len(raw)) + raw[20:],
    "undecodable_header": lambda raw: (raw[:20] + b"\xff" * header_length(raw)
                                       + raw[20 + header_length(raw):]),
    "unknown_config_key": lambda raw: with_header(
        raw, lambda h: h["config"].update(mystery=1)),
    "invalid_config_value": lambda raw: with_header(raw, lambda h: h["config"].update(W=4)),
    "retired_key_changed": lambda raw: with_header(
        raw, lambda h: h["config"].update(decoder_self_attention=False)),
    "nan_in_payload": lambda raw: raw[:-8] + struct.pack("<d", float("nan")),
}

RETIRED_DEFAULTS = {"cross_attention_values": "query_stream",
                    "decoder_self_attention": True, "clip_agg": "mean",
                    "relational_clips": None}


class TestCheckpointInputErrors:
    def eval(self, tmp_path, ckpt, dataset_dir):
        return main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "ev")])

    @pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
    def test_malformed_checkpoint_is_data_error(self, case, tmp_path, dataset_dir,
                                                checkpoint_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(CORRUPT_CHECKPOINTS[case](checkpoint_path.read_bytes()))
        assert self.eval(tmp_path, bad, dataset_dir) == 3
        assert "data error" in capsys.readouterr().err

    def test_retired_keys_at_their_old_defaults_still_load(self, tmp_path, dataset_dir,
                                                           checkpoint_path):
        # checkpoints written before the keys were retired echo all four
        old = tmp_path / "old.ckpt"
        old.write_bytes(with_header(checkpoint_path.read_bytes(),
                                    lambda h: h["config"].update(RETIRED_DEFAULTS)))
        assert self.eval(tmp_path, old, dataset_dir) == 0
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "ev_current")]) == 0
        assert ((tmp_path / "ev" / "results.json").read_bytes()
                == (tmp_path / "ev_current" / "results.json").read_bytes())


CORRUPT_MANIFESTS = {
    "missing_key": lambda actions: actions[0].pop("verb"),
    "wrong_type": lambda actions: actions[0].update(verb="3"),
    "duplicate_id": lambda actions: actions[1].update(action_id=actions[0]["action_id"]),
    "id_out_of_range": lambda actions: actions[0].update(action_id=len(actions)),
}


class TestManifestInputErrors:
    @pytest.mark.parametrize("case", sorted(CORRUPT_MANIFESTS))
    def test_malformed_action_is_data_error(self, case, tmp_path, dataset_dir,
                                            checkpoint_path, capsys):
        path = dataset_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        CORRUPT_MANIFESTS[case](manifest["actions"])
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "ev")]) == 3
        assert "data error" in capsys.readouterr().err
