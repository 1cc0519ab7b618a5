"""The benchmark workloads: the three that BENCHMARK.json lists, and
`train_paper_width`, which runs by name only (see its docstring).

Each workload makes its inputs from the seed (a run config file and the
synthetic datasets it describes), then repeats whole rounds of the same
program operations, then checks the program's outputs against the
helpers in `reference.py` and against properties the method must have.

Every workload reports every end-to-end metric:

- `train_windows_per_s`: windows trained per second of `fit` wall time,
  in the median epoch of the run's fits.
- `eval_actions_per_s`: target actions scored per second, in the median
  scoring call of the run: `seqdg eval` where a checkpoint exists, else
  `sliding_window_predict`.
- `ablate_s`: wall time of the round's training cells, a cell being one
  `fit` plus one target-split scoring of the model it trained. On
  `ablate_synth` that is the whole `seqdg ablate` call.

On `eval_synth` the training figures come from the set-up run that
trains the evaluated checkpoint.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

import reference
from seqdg import checkpoint, cli, data, evaluate, synth, train
from seqdg import config as config_mod
from seqdg import model as model_mod

# demos/bench_config.json as it stood when the benchmark was defined; kept
# here so that an edit to the demo config cannot change the workloads
BENCH_MODEL = {"W": 5, "D": 64, "D_V": 64, "D_T": 64, "n_enc_layers": 2,
               "n_dec_layers": 1, "n_heads": 4, "n_verbs": 24, "n_nouns": 15,
               "d_ff": 128, "vocab_size": 39}
BENCH_TRAIN = {"batch_size": 16, "lr": 0.1, "lr_decay_epochs": [9, 12], "epochs": 15,
               "p_mix": 0.5, "lambda_rv": 1.0, "lambda_rt": 1.0}
# four epochs instead of fifteen keep an ablation sweep and the evaluated
# checkpoint's training inside one run's time budget
SHORT_SCHEDULE = {"epochs": 4, "lr_decay_epochs": [3]}
W_SWEEP = [1, 3, 5, 7]

# the paper's widths are the ModelConfig defaults; 96 verbs x 300 nouns
PAPER_MODEL = {"W": 5, "D": 768, "D_V": 1024, "D_T": 768, "n_enc_layers": 2,
               "n_dec_layers": 2, "n_heads": 8, "n_verbs": 96, "n_nouns": 300}
PAPER_SYNTH = {"n_source_domains": 2, "n_target_domains": 1, "n_ambiguous_pairs": 0,
               "n_verbs": 96, "n_nouns": 300, "videos_per_domain": 2,
               "actions_per_video": 6, "d_v": 1024, "d_t": 768}
PAPER_TRAIN = {"batch_size": 8, "lr": 0.005, "epochs": 1, "p_mix": 0.5,
               "lambda_rv": 1.0, "lambda_rt": 1.0}
EVAL_VIDEOS_PER_DOMAIN = 30          # 12000 actions, 2400 in the target split

# correctness thresholds, in percentage points of action top-1
FULL_MARGIN = 15.0      # a W=5 model over the single-action ceiling
SWEEP_MARGIN = 10.0     # each W >= 3 cell of the sweep over the ceiling
W1_SLACK = 5.0          # how far a W=1 cell may sit above it by chance
BINOMIAL_SIGMAS = 5.0
LOGIT_TOL = 1e-8        # reference vs program logits, relative to their scale
SCORING_CALLS = 11      # scoring calls per trained model, for a steadier rate


class Run:
    """State of one benchmark run: its inputs, operation counts and the
    problems its checks found."""

    def __init__(self, work: Path, seed: int, recorder):
        self.work = work
        self.seed = seed
        self.rec = recorder
        self.probe = recorder.probe
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stores = {}
        self.hashes: list[dict] = []
        self.config = None

    def check(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    def attempt(self, fn, *args, **kwargs):
        """Call one program operation; count it, and count it failed when
        it raises or, for a CLI call, exits non-zero."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is counted
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    @contextlib.contextmanager
    def untraced(self):
        """Program calls made for a check, kept out of the trace."""
        active = self.rec.active
        self.rec.active = False
        try:
            yield
        finally:
            self.rec.active = active

    def timed(self, fn, *args, **kwargs) -> float:
        """Call `fn` between two speed probes; return its wall time at the
        reference machine speed."""
        first = self.probe.sample()
        fn(*args, **kwargs)
        return self.probe.seconds(first, self.probe.sample())

    def cli(self, *argv) -> float:
        """Run one `seqdg` subcommand in process; return its wall time."""
        def call():
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main([str(a) for a in argv])
            if code != 0:
                raise RuntimeError(f"seqdg {argv[0]} exited with code {code}")

        return self.timed(self.attempt, call)


# ---------------------------------------------------------------------------
# shared steps


def prepare_inputs(run: Run, config: dict, datasets: dict[str, dict]):
    """One set-up repetition: write the run config, load it, generate each
    dataset it describes, load the datasets back and hash their files.
    `datasets` maps a directory name to overrides of the config's synth
    section."""
    path = run.work / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    run.config = config_mod.load_run_config(path)
    hashes = {}
    for name, overrides in datasets.items():
        directory = run.work / name
        synth_config = synth.SynthConfig(**{**run.config.synth.to_dict(), **overrides})
        synth.generate_to(synth_config, directory)
        run.stores[name] = data.FeatureStore.load(directory)
        for file in ("manifest.json", "features.f32", "generator_truth.json"):
            hashes[f"{name}/{file}"] = config_mod.file_sha256(directory / file)
    run.hashes.append(hashes)


def check_checkpoint_format(run: Run):
    """Save a freshly initialised bench-width model, load it and save it
    again: the two files must be byte-identical."""
    config = model_mod.ModelConfig(**BENCH_MODEL)
    model = model_mod.SeqDGModel.init(config, seed=run.seed)
    first = run.work / "format" / "first.ckpt"
    second = run.work / "format" / "second.ckpt"
    checkpoint.save_checkpoint(first, model.params)
    params, _header = checkpoint.load_checkpoint(first)
    checkpoint.save_checkpoint(second, params)
    run.check(first.read_bytes() == second.read_bytes(),
              "checkpoint save -> load -> save is not byte-identical")


def ceiling(run: Run, name: str) -> float:
    store = run.stores[name]
    truth = json.loads((run.work / name / "generator_truth.json").read_text(encoding="utf-8"))
    return reference.single_action_ceiling(truth, store.records_for(store.split.target))


def check_top1(run: Run, results, name: str):
    """Target action top-1 of `results.json` clears the single-action
    ceiling of dataset `name` by FULL_MARGIN."""
    top1 = results["metrics"]["top1"]["action"] if results else None
    limit = ceiling(run, name) + FULL_MARGIN
    run.check(top1 is not None and top1 > limit,
              f"target action top-1 {top1} is not above {limit:.1f}")
    return top1


def check_fit(run: Run, entry: dict, useful_swaps: bool):
    """Losses finite, and SeqMix swaps within binomial bounds of p_mix.
    With `useful_swaps` the bound applies to swaps made, else to swaps
    attempted (made, or dropped for want of a candidate)."""
    for epoch, losses in enumerate(entry["losses"]):
        run.check(all(math.isfinite(v) for v in losses), f"non-finite loss in epoch {epoch}")
    draws, p = entry["draws"], entry["p_mix"]
    windows = entry["windows_per_epoch"] * len(entry["losses"])
    run.check(draws == windows, f"SeqMix made {draws} draws for {windows} windows")
    swaps = entry["replaced"] + (0 if useful_swaps else entry["no_candidate"])
    bound = BINOMIAL_SIGMAS * math.sqrt(draws * p * (1 - p))
    run.check(abs(swaps - p * draws) <= bound,
              f"SeqMix swapped {swaps} of {draws} windows, p_mix={p}")


def program_logits(model, x, batch: int = 512):
    parts = [model.predict_logits(x[i:i + batch]) for i in range(0, len(x), batch)]
    return (np.concatenate([v for v, _n in parts]), np.concatenate([n for _v, n in parts]))


def check_reference(run: Run, model, x):
    """`predict_logits` agrees with the numpy reference forward."""
    verb, noun = program_logits(model, x)
    ref_verb, ref_noun = reference.reference_logits(model.params.named(), model.config, x)
    scale = 1.0 + max(np.abs(ref_verb).max(), np.abs(ref_noun).max())
    err = max(np.abs(verb - ref_verb).max(), np.abs(noun - ref_noun).max()) / scale
    run.check(err <= LOGIT_TOL, f"predict_logits differs from the reference by {err:.3e}")
    return verb, noun


def check_results(run: Run, results: dict, verb, noun, records, k: int = 5):
    """`results.json` top-1 and top-k equal a recount from the logits."""
    if results is None:
        run.check(False, "seqdg eval wrote no results.json")
        return
    verbs = [r.verb for r in records]
    nouns = [r.noun for r in records]
    for kk in (1, k):
        want = [round(v, 1) for v in reference.topk_recount(verb, noun, verbs, nouns, kk)]
        got = results["metrics"][f"top{kk}"]
        run.check([got["verb"], got["noun"], got["action"]] == want,
                  f"results.json top{kk} {got} differs from the recount {want}")


def train_rate(fits) -> float:
    """Windows per second of the median epoch of these fits."""
    return statistics.median(e["windows_per_epoch"] / s for e in fits for s in e["epoch_s"])


def eval_rate(rounds) -> float:
    """Target actions per second of the median scoring call."""
    return statistics.median(r["actions"] / s for r in rounds for s in r["eval_s"])


def read_json(path: Path):
    """A JSON output file of the program, or None when the operation that
    writes it failed."""
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else None


# ---------------------------------------------------------------------------
# workloads


class TrainSynth:
    """One `fit` of the full objective on the default synthetic benchmark,
    then `seqdg eval` of the saved checkpoint on the target split."""

    scaled = True

    def config(self, seed):
        return {"synth": {"seed": seed}, "model": BENCH_MODEL,
                "train": {**BENCH_TRAIN, "seed": seed}}

    def setup(self, run):
        prepare_inputs(run, self.config(run.seed), {"data": {}})

    def fixtures(self, run):
        check_checkpoint_format(run)

    def round(self, run):
        cfg = run.config.train
        store = run.stores["data"]
        model = model_mod.SeqDGModel.init(cfg.model, seed=cfg.seed)
        start = len(run.rec.stage_log)
        result = run.attempt(train.fit, store, model, cfg)
        path = run.work / "train" / "checkpoint.ckpt"
        run.attempt(checkpoint.save_checkpoint, path, model.params,
                    rng_state=result.rng_state if result else None)
        eval_s = [run.cli("eval", "--checkpoint", path, "--data", run.work / "data",
                          "--out", run.work / f"eval{i}") for i in range(SCORING_CALLS)]
        fits = [e for e in run.rec.stage_log[start:] if e["name"] == "train.fit"]
        results = [read_json(run.work / f"eval{i}" / "results.json")
                   for i in range(SCORING_CALLS)]
        records = store.records_for(store.split.target)
        with run.untraced():
            logits = program_logits(model, reference.window_features(store, records, cfg.W))
        return {"fits": fits, "logits": logits, "eval_s": eval_s, "results": results,
                "actions": len(records)}

    def verify(self, run, rounds):
        store = run.stores["data"]
        records = store.records_for(store.split.target)
        for r in rounds:
            for entry in r["fits"]:
                check_fit(run, entry, useful_swaps=True)
            run.check(all(res == rounds[0]["results"][0] for res in r["results"]),
                      "seqdg eval results differ between identical runs")
        results = rounds[-1]["results"][0]
        check_results(run, results, *rounds[-1]["logits"], records)
        return check_top1(run, results, "data")

    def metrics(self, run, rounds):
        return single_cell_metrics(rounds)


def single_cell_metrics(rounds):
    """`ablate_s` of a round is its `fit` plus its median scoring call."""
    fits = [e for r in rounds for e in r["fits"]]
    cells = [sum(e["seconds"] for e in r["fits"]) + statistics.median(r["eval_s"])
             for r in rounds]
    return {"train_windows_per_s": train_rate(fits), "eval_actions_per_s": eval_rate(rounds),
            "ablate_s": statistics.median(cells)}


class TrainPaperWidth:
    """A short `fit` of the full objective at the paper's model widths,
    then target-split scoring of the trained model.

    Not listed in BENCHMARK.json: on the shared 2-vCPU virtual machine of
    the reference figures, ten runs of it spread by 17-24% between quartiles, close
    to the largest bound a listed metric may have. Its traced run shows
    the paper-width costs (`tensor.backward_peak_mb`, matmul times)."""

    # unscaled: the bench-width probe does not track this BLAS-bound step;
    # on six back-to-back fits it raised the variation of the fit's rate
    # from 6% to 23% (coefficient of variation)
    scaled = False

    def config(self, seed):
        return {"synth": {**PAPER_SYNTH, "seed": seed}, "model": PAPER_MODEL,
                "train": {**PAPER_TRAIN, "seed": seed}}

    def setup(self, run):
        prepare_inputs(run, self.config(run.seed), {"data": {}})

    def fixtures(self, run):
        check_checkpoint_format(run)
        store = run.stores["data"]
        batch = store.records_for(store.split.source)[:PAPER_TRAIN["batch_size"]]
        self.fixed_batch = (reference.window_features(store, batch, PAPER_MODEL["W"]),
                           [r.verb for r in batch], [r.noun for r in batch])

    def _loss(self, model):
        x, verbs, nouns = self.fixed_batch
        return reference.reference_cross_entropy(model.params.named(), model.config,
                                                 x, verbs, nouns)

    def round(self, run):
        cfg = run.config.train
        store = run.stores["data"]
        records = store.records_for(store.split.target)
        labels = [(r.verb, r.noun) for r in records]
        model = model_mod.SeqDGModel.init(cfg.model, seed=cfg.seed)
        loss_before = self._loss(model)
        start = len(run.rec.stage_log)
        run.attempt(train.fit, store, model, cfg)
        loss_after = self._loss(model)
        scored = []

        def score():
            preds = run.attempt(evaluate.sliding_window_predict, store, model)
            scored.append(run.attempt(evaluate.accuracy, preds, labels, k=1))

        eval_s = [run.timed(score) for _ in range(SCORING_CALLS)]
        top1 = scored[-1][2] if scored[-1] else None
        fits = [e for e in run.rec.stage_log[start:] if e["name"] == "train.fit"]
        with run.untraced():
            check_reference(run, model, self.fixed_batch[0])
        return {"fits": fits, "eval_s": eval_s, "actions": len(records),
                "losses": (loss_before, loss_after), "top1": top1}

    def verify(self, run, rounds):
        start_loss = math.log(PAPER_MODEL["n_verbs"]) + math.log(PAPER_MODEL["n_nouns"])
        for r in rounds:
            for entry in r["fits"]:
                check_fit(run, entry, useful_swaps=False)
            before, after = r["losses"]
            run.check(abs(before - start_loss) < 1.0,
                      f"initial cross entropy {before:.3f} is not near {start_loss:.3f}")
            run.check(after < before, f"cross entropy rose from {before:.3f} to {after:.3f}")
        return rounds[-1]["top1"]

    def metrics(self, run, rounds):
        return single_cell_metrics(rounds)


class EvalSynth:
    """`seqdg eval` of a trained checkpoint and of its text-stripped copy on
    the target split of a ten-times larger synthetic benchmark."""

    scaled = True

    def config(self, seed):
        return {"synth": {"seed": seed}, "model": BENCH_MODEL,
                "train": {**BENCH_TRAIN, **SHORT_SCHEDULE, "seed": seed}}

    def setup(self, run):
        # the same seed gives the same domains, so the small training set's
        # videos are the first three of each domain of the large one
        prepare_inputs(run, self.config(run.seed),
                       {"train": {}, "data": {"videos_per_domain": EVAL_VIDEOS_PER_DOMAIN}})

    def fixtures(self, run):
        check_checkpoint_format(run)
        cfg = run.config.train
        model = model_mod.SeqDGModel.init(cfg.model, seed=cfg.seed)
        run.attempt(train.fit, run.stores["train"], model, cfg)
        self.fixture_fits = run.rec.stages("train.fit")
        self.full = run.work / "ckpt" / "full.ckpt"
        self.stripped = run.work / "ckpt" / "stripped.ckpt"
        run.attempt(checkpoint.save_checkpoint, self.full, model.params)
        run.attempt(checkpoint.strip_text_parameters, self.full, self.stripped)

    def round(self, run):
        eval_s, results = [], []
        for path in (self.full, self.stripped):
            out = run.work / f"eval-{path.stem}"
            eval_s.append(run.cli("eval", "--checkpoint", path, "--data",
                                  run.work / "data", "--out", out))
            results.append(read_json(out / "results.json"))
        store = run.stores["data"]
        return {"eval_s": eval_s, "results": results,
                "actions": len(store.records_for(store.split.target))}

    def verify(self, run, rounds):
        first = rounds[0]["results"][0]
        for r in rounds:
            run.check(all(res == first for res in r["results"]),
                      "results.json differs between the full and the stripped checkpoint "
                      "or between rounds")
        store = run.stores["data"]
        records = store.records_for(store.split.target)
        x = reference.window_features(store, records, BENCH_MODEL["W"])
        verb, noun = check_reference(run, checkpoint.load_model(self.full), x)
        s_verb, s_noun = program_logits(checkpoint.load_model(self.stripped), x)
        run.check(np.array_equal(verb, s_verb) and np.array_equal(noun, s_noun),
                  "the stripped checkpoint's logits are not bitwise identical")
        check_results(run, first, verb, noun, records)
        return check_top1(run, first, "data")

    def metrics(self, run, rounds):
        fit_s = sum(e["seconds"] for e in self.fixture_fits)
        calls = [s for r in rounds for s in r["eval_s"]]
        return {"train_windows_per_s": train_rate(self.fixture_fits),
                "eval_actions_per_s": eval_rate(rounds),
                "ablate_s": fit_s + statistics.median(calls)}


class AblateSynth:
    """`seqdg ablate` over the window lengths 1, 3, 5 and 7 on the default
    synthetic benchmark, with the short schedule."""

    scaled = True

    def config(self, seed):
        return {"synth": {"seed": seed}, "model": BENCH_MODEL,
                "train": {**BENCH_TRAIN, **SHORT_SCHEDULE, "seed": seed},
                "ablate": {"W": W_SWEEP, "p_mix": [0.5], "lambda_rv": [1.0],
                           "lambda_rt": [1.0], "seeds": [seed]}}

    def setup(self, run):
        prepare_inputs(run, self.config(run.seed), {"data": {}})

    def fixtures(self, run):
        check_checkpoint_format(run)

    def round(self, run):
        start = len(run.rec.stage_log)
        out = run.work / "ablate"
        seconds = run.cli("ablate", "--config", run.work / "config.json",
                          "--data", run.work / "data", "--out", out)
        stages = run.rec.stage_log[start:]
        return {"seconds": seconds, "rows": (read_json(out / "ablation.json") or {}).get("rows"),
                "fits": [e for e in stages if e["name"] == "train.fit"],
                "predicts": [e for e in stages if e["name"] == "evaluate.predict"]}

    def verify(self, run, rounds):
        limit = ceiling(run, "data")
        for r in rounds:
            for entry in r["fits"]:
                check_fit(run, entry, useful_swaps=True)
            run.check(r["rows"] == rounds[0]["rows"], "ablation rows differ between rounds")
        rows = {row["W"]: row["target_action_top1"] for row in rounds[-1]["rows"] or []}
        run.check(sorted(rows) == W_SWEEP, f"ablation covers W={sorted(rows)}")
        for w, top1 in rows.items():
            if w == 1:
                run.check(top1 <= limit + W1_SLACK,
                          f"W=1 top-1 {top1} exceeds the single-action ceiling "
                          f"{limit:.1f} by more than {W1_SLACK}")
            else:
                run.check(top1 > limit + SWEEP_MARGIN,
                          f"W={w} top-1 {top1} is not above {limit + SWEEP_MARGIN:.1f}")
        return rows.get(BENCH_MODEL["W"])

    def metrics(self, run, rounds):
        predicts = [e for r in rounds for e in r["predicts"]]
        return {"train_windows_per_s": train_rate([e for r in rounds for e in r["fits"]]),
                # the four calls differ in W, so their total, not a median
                "eval_actions_per_s": (sum(e["actions"] for e in predicts)
                                       / sum(e["seconds"] for e in predicts)),
                "ablate_s": statistics.median(r["seconds"] for r in rounds)}


WORKLOADS = {"train_synth": TrainSynth, "train_paper_width": TrainPaperWidth,
             "eval_synth": EvalSynth, "ablate_synth": AblateSynth}
