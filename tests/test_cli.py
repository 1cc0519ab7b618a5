import hashlib
import json
import math
import multiprocessing
import shutil
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqdg import cli, evaluate
from seqdg.checkpoint import load_model, save_checkpoint
from seqdg.cli import main
from seqdg.config import ABLATE_FIELDS, ConfigError, field_defaults, load_run_config
from seqdg.data import (
    ActionRecord,
    FeatureStore,
    build_windows,
    write_annotation_csv,
)
from seqdg.evaluate import Prediction, sliding_window_predict
from seqdg.model import ModelConfig, ModelParams, SeqDGModel
from seqdg.synth import SynthConfig, bayes_accuracy_on_store, context_oracle_accuracy, generate
from seqdg.tensor import NonFiniteError
from seqdg.train import CellScore, DivergenceError, TrainConfig, fit
from test_data import to_v1
from test_train import patch_fit, pin

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


CONFIG_KEYS = {"synth": sorted(field_defaults(SynthConfig)),
               "model": sorted(field_defaults(ModelConfig)),
               "train": sorted(set(field_defaults(TrainConfig)) - {"model"}),
               "ablate": sorted(ABLATE_FIELDS)}
# ints on both sides of the float range, which ends near 1.8e308
BOUNDARY_INTS = st.builds(lambda sign, digits: sign * 10**digits,
                          st.sampled_from([-1, 1]), st.integers(300, 320))


@st.composite
def fuzzed_configs(draw) -> dict:
    """SMALL_SYNTH with a few of its values, or a whole section, replaced
    by drawn JSON values, or with unknown keys or sections added."""
    cfg = json.loads(json.dumps(SMALL_SYNTH))
    values = st.one_of(BOUNDARY_INTS, st.lists(BOUNDARY_INTS, min_size=1, max_size=2),
                       JSON_VALUES, st.lists(st.floats(), max_size=3))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from([*CONFIG_KEYS, "mystery"]))
        if draw(st.integers(0, 9)) == 0:
            cfg[section] = draw(values)
            continue
        if not isinstance(cfg.get(section), dict):
            cfg[section] = {}
        key = draw(st.sampled_from([*CONFIG_KEYS.get(section, []), "mystery"]))
        cfg[section][key] = draw(values)
    return cfg


class TestConfigLoading:
    @given(config=fuzzed_configs())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_config_loads_or_is_config_error(self, config, tmp_path):
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(config))
        try:
            run = load_run_config(path)
        except ConfigError:
            return
        # what loads is usable: every float field holds a finite float
        for section in (run.synth, run.model, run.train):
            for key, default in field_defaults(type(section)).items():
                if isinstance(default, float):
                    assert math.isfinite(float(getattr(section, key))), key

    @pytest.mark.parametrize("text", [b"\xff{}", b"{\"train\": {\"lr\": " + b"9" * 5000 + b"}}",
                                      b"[" * 100_000],
                             ids=["not_utf8", "int_past_the_digit_limit",
                                  "nested_past_the_recursion_limit"])
    def test_unreadable_config_file_is_config_error(self, text, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

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

    @pytest.mark.parametrize("flag", ["lambda_rv", "lambda_rt", "p_mix"])
    def test_non_finite_flag_value_is_config_error(self, flag, config_path):
        with pytest.raises(ConfigError, match=flag):
            load_run_config(config_path, {flag: float("nan")})

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

    @pytest.mark.parametrize("command", ["synth-gen", "train", "ablate"])
    def test_config_path_that_is_a_directory_is_config_error(self, command, tmp_path,
                                                             dataset_dir, capsys):
        argv = [command, "--config", str(tmp_path), "--out", str(tmp_path / "out")]
        if command != "synth-gen":
            argv += ["--data", str(dataset_dir)]
        assert main(argv) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("model", "clip_agg", "mean"), ("model", "relational_clips", None),
        ("model", "cross_attention_values", "query_stream"),
        ("model", "decoder_self_attention", True),
        ("train", "seqmix_exclude_center", False), ("train", "n_clips_sample", None),
        ("synth", "context_margin", 30.0)])
    def test_retired_keys_are_config_errors(self, tmp_path, section, key, value):
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        cfg[section][key] = value
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(cfg))
        assert main(["synth-gen", "--config", str(path), "--out", str(tmp_path / "x")]) == 2


WRONG_TYPED_CONFIGS = {
    "model_W_str": ({"model": {"W": "5"}}, "W"),
    "model_W_float": ({"model": {"W": 5.0}}, "W"),
    "train_lr_str": ({"train": {"lr": "0.1"}}, "lr"),
    "train_epochs_null": ({"train": {"epochs": None}}, "epochs"),
    "train_decay_not_list": ({"train": {"lr_decay_epochs": 5}}, "lr_decay_epochs"),
    "train_batch_bool": ({"train": {"batch_size": True}}, "batch_size"),
    "model_not_object": ({"model": [1]}, "model"),
    "ablate_W_str": ({"ablate": {"W": ["3"]}}, "W"),
    "ablate_seed_null": ({"ablate": {"seeds": [None]}}, "seeds"),
    "ablate_p_mix_str": ({"ablate": {"p_mix": ["0.5"]}}, "p_mix"),
    "train_lr_nan": ({"train": {"lr": float("nan")}}, "lr"),
    "train_lambda_rv_inf": ({"train": {"lambda_rv": float("inf")}}, "lambda_rv"),
    "synth_noise_sigma_nan": ({"synth": {"noise_sigma": float("nan")}}, "noise_sigma"),
    "ablate_lambda_rt_minus_inf": ({"ablate": {"lambda_rt": [float("-inf")]}}, "lambda_rt"),
    "model_n_heads_zero": ({"model": {"n_heads": 0}}, "n_heads"),
    # an int converts to a float only below ~1.8e308
    "synth_domain_shift_past_float_range": ({"synth": {"domain_shift": 10**400}},
                                            "domain_shift"),
    "model_layer_norm_eps_past_float_range": ({"model": {"layer_norm_eps": 10**309}},
                                              "layer_norm_eps"),
    "train_lr_past_float_range": ({"train": {"lr": 10**400}}, "lr"),
    "ablate_lambda_rv_past_float_range": ({"ablate": {"lambda_rv": [1.0, -10**400]}},
                                          "lambda_rv"),
}


@pytest.mark.parametrize("command", ["synth-gen", "ablate"])
@pytest.mark.parametrize("case", sorted(WRONG_TYPED_CONFIGS))
def test_wrong_typed_config_value_is_config_error(case, command, tmp_path, dataset_dir,
                                                  capsys):
    config, key = WRONG_TYPED_CONFIGS[case]
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "x")]
    if command == "ablate":
        argv += ["--data", str(dataset_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


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

    def test_eval_labels_follow_the_manifest_for_interleaved_videos(self, tmp_path,
                                                                     config_path):
        # two target videos whose rows alternate, each listed back to front
        rng = np.random.default_rng(0)
        rows = [{"video_id": f"s{d}", "domain_id": f"S{d}", "temporal_index": t,
                 "verb_class": int(rng.integers(8)), "noun_class": int(rng.integers(5)),
                 "narration": f"w{t % 3} x{d}"} for d in range(2) for t in range(8)]
        rows += [{"video_id": video, "domain_id": "T0", "temporal_index": t,
                  "verb_class": int(rng.integers(8)), "noun_class": int(rng.integers(5)),
                  "narration": "w0"} for t in reversed(range(6)) for video in ("ta", "tb")]
        csv_path = tmp_path / "ann.csv"
        write_annotation_csv(csv_path, rows)
        features = tmp_path / "features.f32"
        rng.standard_normal(len(rows) * 2 * 16).astype("<f4").tofile(features)
        data_dir = tmp_path / "imported"
        assert main(["import", "--csv", str(csv_path), "--features", str(features),
                     "--d-v", "16", "--clips", "2", "--d-t", "16",
                     "--target-domains", "T0", "--out", str(data_dir)]) == 0
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--data", str(data_dir),
                     "--out", str(run_dir)]) == 0
        eval_dir = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                     "--data", str(data_dir), "--out", str(eval_dir),
                     "--dump-predictions"]) == 0
        columns = json.loads((data_dir / "manifest.json").read_text())["actions"]
        labels = {i: (verb, noun) for i, verb, noun, domain in zip(
            columns["action_id"], columns["verb"], columns["noun"], columns["domain_id"])
            if domain == "T0"}
        preds = [json.loads(line) for line in
                 (eval_dir / "predictions.jsonl").read_text().splitlines()]
        assert sorted(p["action_id"] for p in preds) == sorted(labels)
        assert all((p["verb"], p["noun"]) == labels[p["action_id"]] for p in preds)
        recount = {}
        for k in (1, 5):
            verb = [p["verb"] in p["topk_verbs"][:k] for p in preds]
            noun = [p["noun"] in p["topk_nouns"][:k] for p in preds]
            action = [v and n for v, n in zip(verb, noun)]
            recount[f"top{k}"] = {name: round(100.0 * sum(hits) / len(preds), 1)
                                  for name, hits in (("verb", verb), ("noun", noun),
                                                     ("action", action))}
        results = json.loads((eval_dir / "results.json").read_text())
        assert results["metrics"] == recount

    def test_default_k_beyond_the_class_counts_scores_every_class(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        cfg["synth"].update(n_ambiguous_pairs=0, n_verbs=4, n_nouns=3)
        cfg["model"].update(n_verbs=4, n_nouns=3, vocab_size=7)
        path = tmp_path / "few_classes.json"
        path.write_text(json.dumps(cfg))
        data_dir, run_dir, eval_dir = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        assert main(["synth-gen", "--config", str(path), "--out", str(data_dir)]) == 0
        assert main(["train", "--config", str(path), "--data", str(data_dir),
                     "--out", str(run_dir)]) == 0
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                     "--data", str(data_dir), "--out", str(eval_dir)]) == 0
        results = json.loads((eval_dir / "results.json").read_text())
        assert results["k"] == {"verb": 4, "noun": 3}
        store = FeatureStore.load(data_dir)
        records = store.records_for(store.split.target)
        preds = sliding_window_predict(store, load_model(run_dir / "checkpoint.ckpt"))
        for k in (1, 5):
            hits = {}
            for head, label in (("verb", 0), ("noun", 1)):
                logits = getattr(preds, f"{head}_logits")
                ranked = np.argsort(-logits, axis=-1, kind="stable")[:, :k]
                hits[head] = [r.label[label] in row for r, row in zip(records, ranked)]
            hits["action"] = [v and n for v, n in zip(hits["verb"], hits["noun"])]
            assert results["metrics"][f"top{k}"] == {
                name: round(100.0 * sum(h) / len(records), 1) for name, h in hits.items()}

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_config_error(self, k, tmp_path, dataset_dir, checkpoint_path):
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "ev"), f"--k={k}"]) == 2

    def test_missing_data_dir_is_data_error(self, tmp_path, config_path):
        assert main(["train", "--config", str(config_path), "--data",
                     str(tmp_path / "nowhere"), "--out",
                     str(tmp_path / "r")]) == 3

    @pytest.mark.parametrize("command, case", [
        pytest.param("train", "n_verbs", id="train"),
        pytest.param("ablate", "n_verbs", id="ablate"),
        pytest.param("train", "vocab_size", id="train-vocab_size"),
        pytest.param("ablate", "vocab_size", id="ablate-vocab_size"),
        pytest.param("eval", "n_verbs", id="eval"),
        pytest.param("eval", "n_nouns", id="eval-n_nouns")])
    def test_label_beyond_n_verbs_is_data_error(self, command, case, tmp_path, dataset_dir,
                                                capsys):
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        if case == "n_verbs":
            cfg["model"]["n_verbs"] = 4  # the dataset has 8 verbs
        elif case == "n_nouns":
            cfg["model"]["n_nouns"] = 2  # and 5 nouns
        else:
            # the dataset's narrations use 13 tokens
            cfg["model"]["vocab_size"] = 5
            cfg["train"]["text_loss"] = "token_cross_entropy"
        out = tmp_path / "run"
        if command == "eval":
            # the scored (target) split's labels are checked against the checkpoint
            params = ModelParams(ModelConfig(**cfg["model"]), seed=0)
            source = ["--checkpoint", str(save_checkpoint(tmp_path / "small.ckpt", params))]
        else:
            path = tmp_path / "small_label_space.json"
            path.write_text(json.dumps(cfg))
            source = ["--config", str(path)]
        assert main([command, *source, "--data", str(dataset_dir), "--out", str(out)]) == 3
        assert f"{case}={cfg['model'][case]}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_nonfinite_feature_while_scoring_on_threads_exits_4(self, tmp_path, dataset_dir,
                                                                checkpoint_path, monkeypatch,
                                                                capsys):
        # two scoring threads over 4-window chunks; action 5 of the target
        # split is the centre of window 5, in chunk 1 (a pool thread's NaN
        # is `test_evaluate`'s case)
        monkeypatch.setattr(evaluate, "INFERENCE_BATCH", 4)
        monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        store = FeatureStore.load(dataset_dir)
        target = store.records_for(store.split.target)
        assert evaluate.scoring_threads(-(-len(target) // 4)) == 2
        features = np.fromfile(dataset_dir / "features.f32", dtype="<f4")
        features[target[5].blob_offset] = np.nan
        features.tofile(dataset_dir / "features.f32")
        before = threading.active_count()
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "ev")]) == 4
        assert "numerical failure" in capsys.readouterr().err
        assert threading.active_count() == before


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

    @pytest.mark.parametrize("axis, values", [("W", [1, 4]), ("p_mix", [0.0, 2.0]),
                                              ("lambda_rv", [0.0, -1.0])])
    def test_bad_late_grid_value_trains_nothing(self, axis, values, tmp_path, dataset_dir,
                                               monkeypatch, capsys):
        trained = []

        def train_and_score_cells(cells):
            trained.extend(cells)
            return [CellScore(50.0, 0.0)] * len(cells)

        monkeypatch.setattr(cli, "train_and_score_cells", train_and_score_cells)
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        cfg["ablate"][axis] = values
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(path), "--data", str(dataset_dir),
                     "--out", str(out)]) == 2
        assert trained == []
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def grid(self, tmp_path, **train):
        """SMALL_SYNTH with a four-cell grid (W 1 and 3, seeds 0 and 1),
        its `train` section updated by `train`; the config's path."""
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        cfg["train"].update(train)
        cfg["ablate"]["seeds"] = [0, 1]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(cfg))
        return path

    def ablate_on(self, cpus, config, dataset_dir, out, monkeypatch, capsys):
        """`seqdg ablate` with `cpus` usable CPUs and BLAS on one thread;
        its exit code, standard output and standard error."""
        pin(monkeypatch, cpus)
        capsys.readouterr()
        code = main(["ablate", "--config", str(config), "--data", str(dataset_dir),
                     "--out", str(out)])
        assert multiprocessing.active_children() == []
        return (code, *capsys.readouterr())

    def test_rows_are_byte_identical_on_one_and_two_cpus(self, tmp_path, dataset_dir,
                                                         monkeypatch, capsys):
        config = self.grid(tmp_path, lambda_rv=1.0, lambda_rt=1.0)
        outputs, pids = [], []
        for cpus in (1, 2):
            log = patch_fit(monkeypatch, tmp_path, wait=cpus == 2)
            outputs.append(self.ablate_on(cpus, config, dataset_dir, tmp_path / f"cpus{cpus}",
                                          monkeypatch, capsys)[:2])
            pids.append({line.split()[0] for line in log.read_text().splitlines()})
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        assert [len(p) for p in pids] == [1, 2]  # with two CPUs a worker fitted cells
        assert ((tmp_path / "cpus1" / "ablation.json").read_bytes()
                == (tmp_path / "cpus2" / "ablation.json").read_bytes())

    def test_divergence_exits_4_as_in_one_process(self, tmp_path, dataset_dir, monkeypatch,
                                                  capsys):
        # every cell diverges, so the caller's own cell 0 raises first
        config = self.grid(tmp_path, lr=1e9, epochs=4)
        with np.errstate(over="ignore", invalid="ignore"):
            runs = [self.ablate_on(cpus, config, dataset_dir, tmp_path / f"cpus{cpus}",
                                   monkeypatch, capsys) for cpus in (1, 2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 4 and runs[0][2].startswith("numerical failure: non-finite")
        for cpus in (1, 2):
            assert not (tmp_path / f"cpus{cpus}" / "ablation.json").exists()

    @pytest.mark.parametrize("exc", [DivergenceError(1, 2, "overflow"),
                                     NonFiniteError("add produced inf")])
    def test_an_error_in_a_worker_exits_4_as_in_one_process(self, exc, tmp_path, dataset_dir,
                                                             monkeypatch, capsys):
        # the first seed-1 cell raises; with two CPUs a worker fits it
        def fail_seed_1(config, in_worker):
            if config.seed == 1:
                assert in_worker == (cpus == 2)
                raise exc

        config = self.grid(tmp_path)
        runs = []
        for cpus in (1, 2):
            patch_fit(monkeypatch, tmp_path, wait=cpus == 2, before=fail_seed_1)
            runs.append(self.ablate_on(cpus, config, dataset_dir, tmp_path / f"cpus{cpus}",
                                       monkeypatch, capsys))
            assert not (tmp_path / f"cpus{cpus}" / "ablation.json").exists()
        assert runs[0] == runs[1]
        assert runs[0][0] == 4 and runs[0][2] == f"numerical failure: {exc}\n"

    def test_token_text_loss_records_the_vocab_size_it_trains_with(self, tmp_path,
                                                                   dataset_dir):
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        del cfg["model"]["vocab_size"]
        cfg["train"]["text_loss"] = "token_cross_entropy"
        cfg["ablate"] = {"W": [3], "p_mix": [0.0], "lambda_rv": [0.0],
                         "lambda_rt": [1.0], "seeds": [0]}
        path = tmp_path / "token.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(path), "--data", str(dataset_dir),
                     "--out", str(out), "--epochs", "1"]) == 0
        vocab = json.loads((dataset_dir / "manifest.json").read_text())["vocab"]
        prov = json.loads((out / "config_resolved.json").read_text())
        assert prov["config"]["model"]["vocab_size"] == len(vocab)


class TestProvenance:
    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_manifest_path_records_the_hashes_of_its_directory(self, command, tmp_path,
                                                               dataset_dir, config_path,
                                                               checkpoint_path):
        hashes = []
        for data in (dataset_dir, dataset_dir / "manifest.json"):
            out = tmp_path / f"out{len(hashes)}"
            extra = (["--checkpoint", str(checkpoint_path)] if command == "eval"
                     else ["--config", str(config_path), "--epochs", "1"])
            assert main([command, "--data", str(data), "--out", str(out), *extra]) == 0
            hashes.append(json.loads((out / "config_resolved.json").read_text())["data_hashes"])
        assert hashes[0] == hashes[1] == {
            "manifest.json": sha(dataset_dir / "manifest.json"),
            "features.f32": sha(dataset_dir / "features.f32")}

    def test_blobs_named_otherwise_are_hashed(self, tmp_path, dataset_dir, checkpoint_path):
        (dataset_dir / "features.f32").rename(dataset_dir / "clips.bin")
        n_actions = len(json.loads((dataset_dir / "manifest.json").read_text())
                        ["actions"]["action_id"])
        np.zeros(n_actions * 16, dtype="<f4").tofile(dataset_dir / "narrations.bin")
        edit_manifest(dataset_dir, lambda m: m.update(feature_blob="clips.bin",
                                                      text_blob="narrations.bin"))
        (dataset_dir / "manifest.json").rename(dataset_dir / "dataset.json")
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir / "dataset.json"), "--out", str(out)]) == 0
        prov = json.loads((out / "config_resolved.json").read_text())
        assert prov["data_hashes"] == {
            name: sha(dataset_dir / name)
            for name in ("dataset.json", "clips.bin", "narrations.bin")}


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

    def test_runs_in_one_second_get_their_own_default_directories(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.setattr(cli, "time_tag", lambda: "20260101-000000")
        monkeypatch.setenv("SEQDG_OUT_ROOT", str(tmp_path / "runs"))
        csvs = [tmp_path / f"ann{i}.csv" for i in range(3)]
        for csv_path in csvs:
            write_annotation_csv(csv_path, small_csv_rows())
            assert main(["seq-stats", "--csv", str(csv_path)]) == 0
        root = tmp_path / "runs" / "seq-stats"
        names = ["20260101-000000", "20260101-000000-1", "20260101-000000-2"]
        assert sorted(path.name for path in root.iterdir()) == names
        for name, csv_path in zip(names, csvs):
            prov = json.loads((root / name / "config_resolved.json").read_text())
            assert prov["config"]["csv"] == str(csv_path)

    def test_default_root_naming_a_file_is_config_error(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "ann.csv"
        write_annotation_csv(csv_path, small_csv_rows())
        (tmp_path / "taken").write_bytes(b"")
        monkeypatch.setenv("SEQDG_OUT_ROOT", str(tmp_path / "taken"))
        assert main(["seq-stats", "--csv", str(csv_path)]) == 2
        assert "cannot create the output directory" in capsys.readouterr().err


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


def with_entry(raw: bytes, index: int, edit) -> bytes:
    """The checkpoint bytes `raw` with `edit` applied to its index-th
    parameter entry."""
    return with_header(raw, lambda h: edit(h["params"][index]))


def with_named_entry(raw: bytes, name: str, edit) -> bytes:
    header, _payload = split_checkpoint(raw)
    return with_entry(raw, [e["name"] for e in header["params"]].index(name), edit)


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
    # the header config obeys the config-file typing rule
    "W_float": lambda raw: with_header(raw, lambda h: h["config"].update(W=3.0)),
    "n_heads_float": lambda raw: with_header(raw, lambda h: h["config"].update(n_heads=2.0)),
    "n_enc_layers_bool": lambda raw: with_header(
        raw, lambda h: h["config"].update(n_enc_layers=True)),
    "layer_norm_eps_nan": lambda raw: with_header(
        raw, lambda h: h["config"].update(layer_norm_eps=float("nan"))),
    "layer_norm_eps_past_float_range": lambda raw: with_header(
        raw, lambda h: h["config"].update(layer_norm_eps=10**400)),
    "n_heads_zero": lambda raw: with_header(raw, lambda h: h["config"].update(n_heads=0)),
    # the header agrees with its payload and with the model
    "n_verbs_changed": lambda raw: with_header(raw, lambda h: h["config"].update(n_verbs=7)),
    "D_V_changed": lambda raw: with_header(raw, lambda h: h["config"].update(D_V=18)),
    "head_shape_transposed": lambda raw: with_named_entry(
        raw, "head_verb.weight", lambda e: e.update(shape=e["shape"][::-1])),
    "offset_shifted": lambda raw: with_entry(
        raw, 1, lambda e: e.update(offset=e["offset"] + 3)),
    "offset_shifted_by_a_word": lambda raw: with_entry(
        raw, 1, lambda e: e.update(offset=e["offset"] + 8)),
    "bytes_after_last_parameter": lambda raw: raw + struct.pack("<d", 0.0),
    "layers_beyond_the_header": lambda raw: with_header(
        raw, lambda h: h["config"].update(n_enc_layers=100_000)),
    # found by test_fuzzed_checkpoint_loads_or_is_data_error
    "W_changed": lambda raw: with_header(raw, lambda h: h["config"].update(W=5)),
    "n_verbs_beyond_float_range": lambda raw: with_header(
        raw, lambda h: h["config"].update(n_verbs=2 ** 70)),
    "size_beyond_int64": lambda raw: with_entry(raw, 0, lambda e: e.update(size=-2 ** 70)),
}

# any JSON value: null, bool, int of any size, float including NaN and
# +-Infinity, a short string, a short int list
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.text(max_size=8), st.lists(st.integers(), max_size=4))


@st.composite
def fuzzed_checkpoints(draw, raw: bytes) -> bytes:
    """`raw` with one header config value or one field of one parameter
    entry replaced by a drawn JSON value, or cut at a drawn length."""
    header, _payload = split_checkpoint(raw)
    kind = draw(st.sampled_from(["config", "entry", "truncate"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw)))]
    value = draw(JSON_VALUES)
    if kind == "config":
        key = draw(st.sampled_from(sorted(header["config"])))
        return with_header(raw, lambda h: h["config"].update({key: value}))
    index = draw(st.integers(0, len(header["params"]) - 1))
    field = draw(st.sampled_from(["offset", "size", "shape", "name"]))
    return with_entry(raw, index, lambda e: e.update({field: value}))


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

    def test_checkpoint_path_that_is_a_directory_is_data_error(self, tmp_path, dataset_dir,
                                                               capsys):
        assert self.eval(tmp_path, tmp_path, dataset_dir) == 3
        assert "cannot read checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_checkpoint_loads_or_is_data_error(self, data, tmp_path, dataset_dir,
                                                      checkpoint_path):
        # the fixtures are only read; each example rewrites the one file
        bad = tmp_path / "fuzzed.ckpt"
        bad.write_bytes(data.draw(fuzzed_checkpoints(checkpoint_path.read_bytes())))
        assert self.eval(tmp_path, bad, dataset_dir) in (0, 3)

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


def set_entry(manifest, column, index, value):
    manifest["actions"][column][index] = value


def column_of(manifest, column, replace):
    """Set each entry of the action column `column` to `replace(entry)`."""
    manifest["actions"][column] = list(map(replace, manifest["actions"][column]))


CORRUPT_MANIFESTS = {
    "missing_key": lambda m: m["actions"].pop("verb"),
    "wrong_type": lambda m: set_entry(m, "verb", 0, "3"),
    "duplicate_id": lambda m: set_entry(m, "action_id", 1, m["actions"]["action_id"][0]),
    "id_out_of_range": lambda m: set_entry(m, "action_id", 0,
                                           len(m["actions"]["action_id"])),
    "d_v_str": lambda m: m.update(d_v="x"),
    "d_t_float": lambda m: m.update(d_t=16.0),
    "clips_per_action_null": lambda m: m.update(clips_per_action=None),
    "d_t_zero": lambda m: m.update(d_t=0),
    "clips_per_action_negative": lambda m: m.update(clips_per_action=-3),
    # the dataset's domains are S0 and S1 (source) and T0 (target)
    "unknown_split": lambda m: m["domains"][1].update(split="validation"),
    "unlisted_domain": lambda m: column_of(m, "domain_id",
                                           lambda d: "S9" if d == "S1" else d),
    # a string as long as the vocabulary, so that every narration token
    # still indexes it
    "vocab_str": lambda m: m.update(vocab="x" * len(m["vocab"])),
    "domain_listed_twice": lambda m: m["domains"].append(dict(m["domains"][0])),
    "temporal_index_gap": lambda m: set_entry(m, "temporal_index", 2, 100),
    # blob names that resolve to the manifest's own directory
    "feature_blob_empty": lambda m: m.update(feature_blob=""),
    "text_blob_dot": lambda m: m.update(text_blob="."),
}


def negative_first_length(manifest):
    # the second narration takes the first's tokens, so the lengths still sum
    # to the token count
    lengths = manifest["actions"]["narration_lengths"]
    lengths[:2] = [-1, lengths[0] + lengths[1] + 1]


# malformed action columns, and the message that names each one's column
# and entry
CORRUPT_COLUMNS = {
    "missing_column": (lambda m: m["actions"].pop("noun"), "has no column 'noun'"),
    "unknown_column": (lambda m: m["actions"].update(narration=[]),
                       "has an unknown column 'narration'"),
    "ragged_column": (lambda m: m["actions"]["temporal_index"].pop(),
                      "column 'temporal_index' holds 95 entries, 'action_id' 96"),
    "true_in_an_int_column": (lambda m: set_entry(m, "n_clips", 5, True),
                              "column 'n_clips', entry 5: must be int, got True"),
    "int_past_int64": (lambda m: set_entry(m, "blob_offset", 7, 2**63),
                       "column 'blob_offset', entry 7: 9223372036854775808 is outside int64"),
    "negative_narration_length": (negative_first_length,
                                  "column 'narration_lengths', entry 0: negative length -1"),
    "lengths_off_the_token_count": (lambda m: m["actions"]["narration_tokens"].append(0),
                                    "'narration_lengths' sums to 192, but "
                                    "'narration_tokens' holds 193 tokens"),
    "actions_a_list": (lambda m: m.update(actions=[m["actions"]]),
                       "'actions' must be an object of columns"),
}

# any JSON value an action entry could be set to: ints past either end of
# int64, bools, floats including NaN and +-Infinity, strings, null, and
# lists mixing these
MANIFEST_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**63), st.integers(max_value=-2**63 - 1), st.floats(),
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(), st.integers(min_value=2**63), st.booleans(),
                       st.none(), st.floats(), st.text(max_size=3)), max_size=4))


@st.composite
def fuzzed_manifests(draw, manifest: dict) -> dict:
    """A copy of `manifest` (version 2) with one entry of one action column
    set to a drawn JSON value, or one whole column deleted or replaced by
    one."""
    manifest = json.loads(json.dumps(manifest))
    columns = manifest["actions"]
    name = draw(st.sampled_from(sorted(columns)))
    edit = draw(st.sampled_from(["entry", "delete", "replace"]))
    if edit == "entry":
        columns[name][draw(st.integers(0, len(columns[name]) - 1))] = draw(MANIFEST_VALUES)
    elif edit == "delete":
        del columns[name]
    else:
        columns[name] = draw(MANIFEST_VALUES)
    return manifest


@st.composite
def fuzzed_v1_manifests(draw, manifest: dict) -> dict:
    """A copy of `manifest` (version 1) with one key of one action deleted
    or set to a drawn JSON value."""
    manifest = json.loads(json.dumps(manifest))
    action = manifest["actions"][draw(st.integers(0, len(manifest["actions"]) - 1))]
    key = draw(st.sampled_from(sorted(action)))
    if draw(st.booleans()):
        del action[key]
    else:
        action[key] = draw(MANIFEST_VALUES)
    return manifest


class TestManifestInputErrors:
    @pytest.mark.parametrize("case", sorted(CORRUPT_MANIFESTS))
    def test_malformed_action_is_data_error(self, case, tmp_path, dataset_dir,
                                            checkpoint_path, capsys):
        path = dataset_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        CORRUPT_MANIFESTS[case](manifest)
        path.write_text(json.dumps(manifest))
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "ev")]) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("damage", [lambda raw: raw + b"\xff",
                                        lambda raw: b"[" * 100_000],
                             ids=["not_utf8", "nested_past_the_recursion_limit"])
    def test_unreadable_manifest_is_data_error(self, damage, tmp_path, dataset_dir,
                                               checkpoint_path, capsys):
        path = dataset_dir / "manifest.json"
        path.write_bytes(damage(path.read_bytes()))
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "ev")]) == 3
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("case", sorted(CORRUPT_COLUMNS))
    def test_malformed_column_names_its_column_and_entry(self, case, tmp_path, dataset_dir,
                                                         checkpoint_path, capsys):
        edit, message = CORRUPT_COLUMNS[case]
        edit_manifest(dataset_dir, edit)
        assert main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "ev")]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "ev").exists()

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_manifest_loads_or_is_data_error(self, data, tmp_path, dataset_dir,
                                                    checkpoint_path):
        # the fixtures are only read; each example rewrites the one
        # manifest next to a copy of the feature blob, once fuzzed as
        # columns and once in the version-1 layout
        fuzzed, out = tmp_path / "fuzzed", tmp_path / "ev"
        if not fuzzed.exists():
            fuzzed.mkdir()
            shutil.copy(dataset_dir / "features.f32", fuzzed)
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        for drawn in (fuzzed_manifests(manifest), fuzzed_v1_manifests(to_v1(manifest))):
            (fuzzed / "manifest.json").write_text(json.dumps(data.draw(drawn)))
            shutil.rmtree(out, ignore_errors=True)
            code = main(["eval", "--checkpoint", str(checkpoint_path), "--data", str(fuzzed),
                         "--out", str(out)])
            assert code in (0, 3)
            assert code == 0 or not out.exists()


NEGATIVE_LABELS = {
    "negative_verb": lambda m: set_entry(m, "verb", 3, -1),
    "negative_noun": lambda m: set_entry(m, "noun", 3, -1),
}


def no_actions(manifest, dataset_dir):
    manifest["actions"] = {name: [] for name in manifest["actions"]}
    (dataset_dir / "features.f32").write_bytes(b"")


EMPTY_DATA = {
    "no_actions": no_actions,
    # every action moved to the target domain, or the target's moved to a source one
    "empty_source": lambda m, _dir: column_of(m, "domain_id", lambda d: "T0"),
    "empty_target": lambda m, _dir: column_of(m, "domain_id",
                                              lambda d: "S0" if d == "T0" else d),
}


def edit_manifest(dataset_dir, edit):
    path = dataset_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestLabelAndEmptyDataErrors:
    def run(self, command, tmp_path, dataset_dir, config_path, checkpoint_path):
        argv = [command, "--data", str(dataset_dir), "--out", str(tmp_path / "out")]
        if command == "eval":
            return main(argv + ["--checkpoint", str(checkpoint_path)])
        return main(argv + ["--config", str(config_path)])

    @pytest.mark.parametrize("case", sorted(NEGATIVE_LABELS))
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_negative_label_is_data_error(self, command, case, tmp_path, dataset_dir,
                                          config_path, checkpoint_path, capsys):
        edit_manifest(dataset_dir, NEGATIVE_LABELS[case])
        assert self.run(command, tmp_path, dataset_dir, config_path, checkpoint_path) == 3
        assert "negative label" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_csv_label_is_data_error(self, tmp_path, capsys):
        rows = [{"video_id": "v", "domain_id": "S0", "temporal_index": t,
                 "verb_class": 1 - t, "noun_class": 0, "narration": "a"} for t in range(3)]
        csv_path = tmp_path / "ann.csv"
        write_annotation_csv(csv_path, rows)
        features = tmp_path / "features.f32"
        np.zeros(3 * 4, dtype="<f4").tofile(features)
        # `import` and `seq-stats` read the CSV through one parser
        for argv in (["import", "--features", str(features), "--d-v", "4", "--clips", "1"],
                     ["seq-stats"]):
            assert main(argv + ["--csv", str(csv_path), "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert "negative label at line 4" in err, argv[0]
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["token_loss", "embedded_narration"])
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_empty_narration_on_a_text_path_is_data_error(self, command, case, tmp_path,
                                                          capsys):
        # 16 imported actions: 12 source, 4 target. Under the token-level
        # text loss only the first has a narration, so whole batches of
        # centres have none; without a text blob one narration is empty.
        rng = np.random.default_rng(0)
        rows = [{"video_id": f"v{domain}", "domain_id": domain, "temporal_index": t,
                 "verb_class": int(rng.integers(8)), "noun_class": int(rng.integers(5)),
                 "narration": f"w{t % 3}"}
                for domain, length in (("S0", 6), ("S1", 6), ("T0", 4)) for t in range(length)]
        if case == "token_loss":
            for row in rows[1:]:
                row["narration"] = ""
        else:
            rows[7]["narration"] = ""
        csv_path, features = tmp_path / "ann.csv", tmp_path / "features.f32"
        write_annotation_csv(csv_path, rows)
        rng.standard_normal(len(rows) * 2 * 16).astype("<f4").tofile(features)
        argv = ["import", "--csv", str(csv_path), "--features", str(features), "--d-v", "16",
                "--clips", "2", "--d-t", "16", "--target-domains", "T0",
                "--out", str(tmp_path / "data")]
        if case == "token_loss":
            text = tmp_path / "text.f32"
            rng.standard_normal(len(rows) * 16).astype("<f4").tofile(text)
            argv += ["--text-features", str(text)]
        assert main(argv) == 0
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        cfg["train"]["batch_size"] = 4
        if case == "token_loss":
            cfg["train"]["text_loss"] = "token_cross_entropy"
        if command == "ablate":
            # only the grid's second lambda_rt reads narrations
            cfg["train"].update(lambda_rv=0.0, lambda_rt=0.0)
            cfg["ablate"]["lambda_rt"] = [0.0, 1.0]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == 3
        assert "empty narration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, case", [
        ("train", "no_actions"), ("train", "empty_source"),
        ("eval", "no_actions"), ("eval", "empty_target"),
        ("ablate", "no_actions"), ("ablate", "empty_source"), ("ablate", "empty_target")])
    def test_empty_data_is_data_error(self, command, case, tmp_path, dataset_dir,
                                      config_path, checkpoint_path, capsys):
        edit_manifest(dataset_dir, lambda m: EMPTY_DATA[case](m, dataset_dir))
        assert self.run(command, tmp_path, dataset_dir, config_path, checkpoint_path) == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def small_csv_rows():
    """Three annotation rows: two of video vS0 in domain S0, one of vT0 in T0."""
    return [{"video_id": f"v{domain}", "domain_id": domain, "temporal_index": t,
             "verb_class": t, "noun_class": 0, "narration": "a"}
            for domain, length in (("S0", 2), ("T0", 1)) for t in range(length)]


def csv_dataset(tmp_path, rows, d_v=4):
    """`rows` as an annotation CSV and a feature blob of one clip of `d_v`
    floats per row; the `import` arguments that read them."""
    csv_path, features = tmp_path / "ann.csv", tmp_path / "features.f32"
    write_annotation_csv(csv_path, rows)
    np.zeros(len(rows) * d_v, dtype="<f4").tofile(features)
    return ["--csv", str(csv_path), "--features", str(features), "--d-v", str(d_v),
            "--clips", "1"]


def small_csv_dataset(tmp_path, d_v=4):
    """The three-action CSV of `small_csv_rows` and its feature blob."""
    return csv_dataset(tmp_path, small_csv_rows(), d_v)


class TestStoreConsistencyErrors:
    def eval(self, tmp_path, dataset_dir, checkpoint_path):
        return main(["eval", "--checkpoint", str(checkpoint_path), "--data",
                     str(dataset_dir), "--out", str(tmp_path / "out")])

    def test_manifest_feature_width_zero_is_data_error(self, tmp_path, dataset_dir,
                                                       checkpoint_path, capsys):
        def zero_width(manifest):
            # every feature handle stays inside the (now empty) blob
            manifest["d_v"] = 0
            column_of(manifest, "blob_offset", lambda offset: 0)

        edit_manifest(dataset_dir, zero_width)
        (dataset_dir / "features.f32").write_bytes(b"")
        assert self.eval(tmp_path, dataset_dir, checkpoint_path) == 3
        assert "d_v must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_import_width_below_one_is_data_error(self, tmp_path, capsys):
        argv = small_csv_dataset(tmp_path, d_v=0)
        assert main(["import", *argv, "--out", str(tmp_path / "out")]) == 3
        assert "d_v must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synth_text_width_below_one_is_config_error(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SMALL_SYNTH))
        cfg["synth"]["d_t"] = 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["synth-gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "d_t must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_import_target_domain_absent_from_csv_is_data_error(self, tmp_path, capsys):
        argv = small_csv_dataset(tmp_path)
        assert main(["import", *argv, "--target-domains", "S9",
                     "--out", str(tmp_path / "out")]) == 3
        assert "'S9'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_checkpoint_of_another_feature_width_is_data_error(self, tmp_path, dataset_dir,
                                                               capsys):
        wide = ModelConfig(**{**SMALL_SYNTH["model"], "D_V": 32})
        ckpt = save_checkpoint(tmp_path / "wide.ckpt", ModelParams(wide, seed=0))
        assert self.eval(tmp_path, dataset_dir, ckpt) == 3
        assert "reads 32" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["import", "eval", "seq-stats"])
def test_seed_flag_is_rejected_where_nothing_reads_it(command, tmp_path, dataset_dir,
                                                      checkpoint_path):
    if command == "eval":
        argv = ["--checkpoint", str(checkpoint_path), "--data", str(dataset_dir)]
    else:
        argv = small_csv_dataset(tmp_path)
        argv = argv[:2] if command == "seq-stats" else argv
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--seed", "0", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_eval_and_fit_build_no_record_or_window_views(tmp_path, config_path, monkeypatch):
    # `synth-gen`, `import`, `seqdg eval`, a SeqMix epoch, `synth.generate`
    # and both synth oracles run on the columns alone; windows have no
    # per-window view, and `--dump-predictions` writes from stacked arrays
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(ActionRecord, "__init__", refuse)
    monkeypatch.setattr(Prediction, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a ActionRecord"):
        ActionRecord(action_id=0, video_id="v", domain_id="S0", verb=0, noun=0,
                          narration=(), temporal_index=0, blob_offset=0, n_clips=1)
    dataset_dir = tmp_path / "data"
    assert main(["synth-gen", "--config", str(config_path), "--out", str(dataset_dir)]) == 0
    assert main(["import", *small_csv_dataset(tmp_path), "--target-domains", "T0",
                 "--out", str(tmp_path / "imported")]) == 0
    params = ModelParams(ModelConfig(**SMALL_SYNTH["model"]), seed=0)
    checkpoint_path = save_checkpoint(tmp_path / "model.ckpt", params)
    assert main(["eval", "--checkpoint", str(checkpoint_path), "--data", str(dataset_dir),
                 "--out", str(tmp_path / "ev"), "--dump-predictions"]) == 0
    store = FeatureStore.load(dataset_dir)
    config = TrainConfig(model=ModelConfig(**SMALL_SYNTH["model"]), p_mix=0.5, epochs=1,
                         batch_size=8, lr=0.05)
    result = fit(store, SeqDGModel.init(config.model, seed=0), config)
    assert result.seqmix_stats.replaced > 0
    store, truth = generate(SynthConfig(**SMALL_SYNTH["synth"]))
    assert context_oracle_accuracy(build_windows(store.actions, 5), truth.grammar) > 0
    assert bayes_accuracy_on_store(store, truth) > 0


@pytest.mark.parametrize("under", [False, True], ids=["the_file", "under_the_file"])
@pytest.mark.parametrize("command", ["synth-gen", "import", "seq-stats", "train", "eval",
                                     "ablate", "grad-check"])
def test_out_naming_an_existing_file_is_config_error(command, under, tmp_path, config_path,
                                                     dataset_dir, checkpoint_path, capsys):
    argv = {"synth-gen": ["--config", str(config_path)],
            "import": small_csv_dataset(tmp_path),
            "seq-stats": small_csv_dataset(tmp_path)[:2],
            "train": ["--config", str(config_path), "--data", str(dataset_dir)],
            "eval": ["--checkpoint", str(checkpoint_path), "--data", str(dataset_dir)],
            "ablate": ["--config", str(config_path), "--data", str(dataset_dir)],
            "grad-check": []}[command]
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    out = taken / "run" if under else taken
    assert main([command, *argv, "--out", str(out)]) == 2
    assert f"cannot create the output directory {out}" in capsys.readouterr().err
    assert taken.read_bytes() == b"not a directory\n"


class TestImportInputErrors:
    @pytest.mark.parametrize("value", [10**20, 2**63, -2**63 - 1])
    @pytest.mark.parametrize("key", ["temporal_index", "verb_class", "noun_class"])
    def test_csv_int_outside_int64_is_data_error(self, key, value, tmp_path, capsys):
        rows = small_csv_rows()
        rows[1][key] = value
        argv = csv_dataset(tmp_path, rows)
        # `import` and `seq-stats` read the CSV through one parser
        for command in (["import", *argv], ["seq-stats", *argv[:2]]):
            assert main([*command, "--out", str(tmp_path / "out")]) == 3
            assert f"{key} {value} at line 3 is outside int64" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_csv_error_names_the_file_line_after_a_multiline_narration(self, tmp_path,
                                                                      capsys):
        rows = small_csv_rows()
        rows[0]["narration"] = "open\nthe door"     # quoted, file lines 2 and 3
        rows[1]["noun_class"] = -2                   # file line 4
        argv = csv_dataset(tmp_path, rows)
        for command in (["import", *argv], ["seq-stats", *argv[:2]]):
            assert main([*command, "--out", str(tmp_path / "out")]) == 3
            assert "negative label at line 4" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_csv_row_missing_a_field_is_data_error(self, tmp_path, capsys):
        argv = small_csv_dataset(tmp_path)
        csv_path = Path(argv[1])
        # the last row loses its narration field
        csv_path.write_text(csv_path.read_text().rstrip("\r\n").rsplit(",", 1)[0] + "\n")
        for command in (["import", *argv], ["seq-stats", *argv[:2]]):
            assert main([*command, "--out", str(tmp_path / "out")]) == 3
            assert "malformed row at line 4: too few fields" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_csv_row_with_a_field_past_the_header_is_data_error(self, tmp_path, capsys):
        argv = small_csv_dataset(tmp_path)
        csv_path = Path(argv[1])
        # an unquoted comma splits the last row's narration in two
        csv_path.write_text(csv_path.read_text().rstrip("\r\n") + ",onion\n")
        for command in (["import", *argv], ["seq-stats", *argv[:2]]):
            assert main([*command, "--out", str(tmp_path / "out")]) == 3
            assert "malformed row at line 4: too many fields" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--csv", "--features", "--text-features"])
    def test_input_path_that_is_a_directory_is_data_error(self, flag, tmp_path, capsys):
        argv = small_csv_dataset(tmp_path)
        if flag == "--text-features":
            argv += [flag, str(tmp_path)]
        else:
            argv[argv.index(flag) + 1] = str(tmp_path)
        commands = [["import", *argv]] + ([["seq-stats", *argv[:2]]] if flag == "--csv" else [])
        for command in commands:
            assert main([*command, "--out", str(tmp_path / "out")]) == 3
            assert "Is a directory" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_video_with_a_temporal_gap_is_data_error(self, tmp_path, capsys):
        rows = [{**small_csv_rows()[0], "temporal_index": t} for t in (0, 1, 3)]
        assert main(["import", *csv_dataset(tmp_path, rows),
                     "--out", str(tmp_path / "out")]) == 3
        assert "'vS0': temporal indices must be consecutive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        argv = small_csv_dataset(tmp_path)
        csv_path = Path(argv[1])
        # a Latin-1 e-acute in the first row's narration
        csv_path.write_bytes(csv_path.read_bytes().replace(b",a\r\n", b",caf\xe9\r\n", 1))
        for command in (["import", *argv], ["seq-stats", *argv[:2]]):
            assert main([*command, "--out", str(tmp_path / "out")]) == 3
            assert f"{csv_path}: not UTF-8 text" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_csv_field_past_the_csv_module_limit_is_data_error(self, tmp_path, capsys):
        rows = small_csv_rows()
        rows[1]["narration"] = "a" * 200_000         # file line 3
        argv = csv_dataset(tmp_path, rows)
        for command in (["import", *argv], ["seq-stats", *argv[:2]]):
            assert main([*command, "--out", str(tmp_path / "out")]) == 3
            assert ("malformed row at line 3: field larger than field limit"
                    in capsys.readouterr().err)
            assert not (tmp_path / "out").exists()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_import_writes_a_windowable_dataset_or_is_data_error(self, data,
                                                                         tmp_path):
        rows = data.draw(fuzzed_annotation_rows())
        csv_path, features, out = tmp_path / "ann.csv", tmp_path / "f.f32", tmp_path / "out"
        write_annotation_csv(csv_path, rows)
        # two floats per action, now and then give or take a few
        size = max(0, 2 * len(rows) + data.draw(st.sampled_from([0] * 6 + [-1, 1, 2])))
        np.zeros(size, dtype="<f4").tofile(features)
        targets = data.draw(st.sampled_from(["", "T0"]))
        shutil.rmtree(out, ignore_errors=True)
        code = main(["import", "--csv", str(csv_path), "--features", str(features),
                     "--d-v", "2", "--clips", "1", "--target-domains", targets,
                     "--out", str(out)])
        assert code in (0, 3)
        assert code == 0 or not out.exists()
        if code == 0:
            store = FeatureStore.load(out)
            for domains in (store.split.source, store.split.target):
                build_windows(store.records_for(domains), 3)


# any int an annotation CSV could hold: mostly small ones (negative labels,
# gaps and repeats in temporal indices), else the ends of int64 and ints past them
CSV_INTS = st.one_of(st.integers(-2, 6), st.integers(-2, 6), st.integers(-2, 6),
                     st.sampled_from([2**63 - 1, -2**63]), st.integers(min_value=2**63),
                     st.integers(max_value=-2**63 - 1))


@st.composite
def fuzzed_annotation_rows(draw) -> list[dict]:
    """Annotation rows of up to three videos, each in temporal order from
    0, with up to two ints set to drawn values, in any row order; some
    narrations are empty."""
    videos = draw(st.lists(st.tuples(st.sampled_from(["S0", "S1", "T0"]), st.integers(1, 4)),
                           min_size=1, max_size=3))
    rows = [{"video_id": f"v{i}", "domain_id": domain, "temporal_index": t,
             "verb_class": draw(st.integers(0, 5)), "noun_class": draw(st.integers(0, 3)),
             "narration": draw(st.sampled_from(["", "open", "open fridge", "close door"]))}
            for i, (domain, length) in enumerate(videos) for t in range(length)]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from(["temporal_index", "temporal_index", "verb_class",
                                    "noun_class"]))
        row[key] = draw(CSV_INTS)
    return draw(st.permutations(rows))


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_video_with_a_temporal_gap_writes_nothing(command, tmp_path, dataset_dir,
                                                  config_path, capsys):
    edit_manifest(dataset_dir, CORRUPT_MANIFESTS["temporal_index_gap"])
    assert main([command, "--config", str(config_path), "--data", str(dataset_dir),
                 "--out", str(tmp_path / "out")]) == 3
    assert "temporal indices must be consecutive and unique" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def with_section(tmp_path, section, **values):
    """A copy of the SMALL_SYNTH config file with `values` set in `section`."""
    cfg = json.loads(json.dumps(SMALL_SYNTH))
    cfg[section].update(values)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunFailsBeforeAnyOutput:
    def run(self, command, config, tmp_path, dataset_dir, *flags):
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), *flags]
        return main(argv if command == "synth-gen" else argv + ["--data", str(dataset_dir)])

    @pytest.mark.parametrize("command", ["synth-gen", "train", "ablate"])
    def test_negative_seed_is_config_error(self, command, tmp_path, dataset_dir,
                                           config_path, capsys):
        if command == "ablate":
            # the grid's second seed
            code = self.run(command, with_section(tmp_path, "ablate", seeds=[0, -1]),
                            tmp_path, dataset_dir)
        else:
            code = self.run(command, config_path, tmp_path, dataset_dir, "--seed", "-1")
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # every size holds 2^55 floats (2^58 bytes), past any address space, so
    # the allocation fails at once without touching memory
    @pytest.mark.parametrize("command, section, key, value", [
        ("train", "model", "W", 2**51 + 1),
        ("train", "model", "d_ff", 2**51),
        ("train", "model", "vocab_size", 2**51),
        ("ablate", "model", "d_ff", 2**51),
        ("ablate", "ablate", "W", [1, 2**51 + 1]),
        # sized before any per-layer object is built, so these fail at once too
        ("train", "model", "n_enc_layers", 2**44),
        ("ablate", "model", "n_dec_layers", 2**43),
    ])
    def test_model_too_large_to_allocate_is_config_error(self, command, section, key, value,
                                                         tmp_path, dataset_dir, capsys):
        config = with_section(tmp_path, section, **{key: value})
        assert self.run(command, config, tmp_path, dataset_dir) == 2
        assert "cannot allocate the model" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # every float field that training reads, as an int past the float range
    @pytest.mark.parametrize("command, section, key", [
        ("train", "train", "lr"),
        ("train", "train", "lambda_rv"),
        ("train", "train", "lambda_rt"),
        ("train", "train", "lr_decay_factor"),
        ("train", "model", "layer_norm_eps"),
        ("synth-gen", "synth", "domain_shift"),
        ("synth-gen", "synth", "offset_shift"),
        ("synth-gen", "synth", "noise_sigma"),
    ])
    def test_int_past_the_float_range_is_config_error(self, command, section, key,
                                                      tmp_path, dataset_dir, capsys):
        config = with_section(tmp_path, section, **{key: 10**400})
        assert self.run(command, config, tmp_path, dataset_dir) == 2
        assert f"{section}: {key} cannot be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
