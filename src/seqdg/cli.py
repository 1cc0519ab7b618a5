"""Command-line entry point.

Subcommands cover the whole pipeline: `synth-gen` (benchmark datasets),
`import` (CSV + feature blobs), `train`, `eval`, `ablate` (component and
window-length grid), `seq-stats` (repeated-sequence tables), and
`grad-check` (finite-difference verification of the full model).

`ablate` trains its grid through `train.train_and_score_cells`: with
BLAS pinned to one thread, its cells are fitted in as many processes as
there are usable CPUs (at most one per cell), and the rows are bitwise
those of one process; `taskset -c 0 seqdg ablate ...` fits them in one.

Every run writes its resolved configuration, the seed, and the hashes of
its input data into the output directory, so a run is reproducible from
that directory alone. Exit codes: 0 success, 2 configuration error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from seqdg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from seqdg.config import ConfigError, file_sha256, load_run_config
from seqdg.data import (
    Actions,
    DataError,
    FeatureStore,
    import_csv_dataset,
    read_annotation_csv,
)
from seqdg.evaluate import accuracy, head_k, sliding_window_predict
from seqdg.model import ModelConfig, SeqDGModel
from seqdg.seqstats import count_all_categories, format_table, table_to_dict
from seqdg.synth import generate_to
from seqdg.tensor import NonFiniteError
from seqdg.train import (
    DivergenceError,
    TrainConfig,
    fit,
    objective_grad_check,
    train_and_score_cells,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _out_dir(args) -> Path:
    """`--out`, reused if it exists; without it, a new directory
    `$SEQDG_OUT_ROOT/<command>/<time>`, or `<time>-N` for the first N whose
    name no other run has taken."""
    root = os.environ.get("SEQDG_OUT_ROOT", "runs")
    out = base = Path(args.out) if args.out else Path(root) / args.command / time_tag()
    for suffix in itertools.count(1):
        try:
            out.mkdir(parents=True, exist_ok=bool(args.out))
            return out
        except OSError as exc:
            if args.out or not isinstance(exc, FileExistsError):
                # e.g. the path, or a directory on it, is an existing file
                raise ConfigError([f"cannot create the output directory {out}: {exc}"]) from exc
        out = base.with_name(f"{base.name}-{suffix}")


def time_tag() -> str:
    return time.strftime("%Y%m%d-%H%M%S")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def _write_provenance(out: Path, command: str, config: dict, seed,
                      data_hashes: dict | None = None):
    _write_json(out / "config_resolved.json", {
        "command": command,
        "seed": seed,
        "config": config,
        "data_hashes": data_hashes or {},
    })


def _data_hashes(store: FeatureStore) -> dict:
    """The SHA-256 of each file `store` was loaded from, by file name."""
    return {name: file_sha256(path) for name, path in store.files.items()}


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth_gen(args) -> int:
    run = load_run_config(args.config, {"seed": args.seed})
    out = _out_dir(args)
    store = FeatureStore.load(generate_to(run.synth, out))
    _write_provenance(out, "synth-gen", run.to_dict(), run.synth.seed, _data_hashes(store))
    print(f"wrote {len(store.actions)} actions across "
          f"{len(store.split.source)} source + {len(store.split.target)} target "
          f"domains to {out}")
    return EXIT_OK


def cmd_import(args) -> int:
    targets = tuple(d for d in (args.target_domains or "").split(",") if d)
    store = import_csv_dataset(args.csv, args.features, d_v=args.d_v,
                               clips_per_action=args.clips, d_t=args.d_t,
                               text_features_path=args.text_features,
                               target_domains=targets)
    out = _out_dir(args)
    # read back, so that provenance hashes the files as they were written
    store = FeatureStore.load(store.save(out))
    _write_provenance(out, "import", {
        "csv": str(args.csv), "features": str(args.features),
        "d_v": args.d_v, "d_t": args.d_t, "clips_per_action": args.clips,
        "target_domains": list(targets),
    }, seed=None, data_hashes=_data_hashes(store))
    print(f"imported {len(store.actions)} actions "
          f"({len(store.vocab)} vocab tokens) to {out}")
    return EXIT_OK


def _train_config_for(store: FeatureStore, args):
    """The run config of `train` and `ablate`: the config file, then the
    flags and the dataset's feature widths, then, for a token-level text
    loss the file leaves unsized, the dataset's vocabulary size; checked,
    also against the dataset's labels."""
    overrides = {"seed": args.seed, "W": args.W, "lambda_rv": args.lambda_rv,
                 "lambda_rt": args.lambda_rt, "p_mix": args.p_mix,
                 "epochs": args.epochs, "D_V": store.d_v, "D_T": store.d_t}
    run = load_run_config(args.config, overrides)
    if run.train.text_loss == "token_cross_entropy" and run.model.vocab_size is None:
        run.model.vocab_size = len(store.vocab)
    run.train.check()
    store.split_actions("source")
    _check_labels(store, run.train)
    return run


def _check_label_space(actions: Actions, model_config: ModelConfig):
    """Every label of the (non-empty) `actions` must fall inside the
    model's verb and noun label spaces."""
    max_verb = int(actions.verbs.max())
    max_noun = int(actions.nouns.max())
    if max_verb >= model_config.n_verbs or max_noun >= model_config.n_nouns:
        raise DataError(
            f"dataset labels exceed the configured label space: verbs up to "
            f"{max_verb} (n_verbs={model_config.n_verbs}), nouns up to "
            f"{max_noun} (n_nouns={model_config.n_nouns})")


def _check_labels(store: FeatureStore, config: TrainConfig):
    """Every label, and under the token-level text loss every narration
    token, must fall inside the configured label spaces; and when a text
    path reads narrations (the token-level text loss, or any reconstruction
    on a store without text features, whose narrations are embedded), every
    source-split action must have one."""
    model_config = config.model
    _check_label_space(store.actions, model_config)
    if config.text_loss == "token_cross_entropy":
        max_token = int(store.actions.tokens.max(initial=-1))
        if max_token >= model_config.vocab_size:
            raise DataError(
                f"narration tokens up to {max_token} exceed the token-level text "
                f"loss's vocabulary (vocab_size={model_config.vocab_size})")
    reads_narrations = (
        (config.lambda_rt > 0 and config.text_loss == "token_cross_entropy")
        or (store.text is None and (config.lambda_rv > 0 or config.lambda_rt > 0)))
    if reads_narrations:
        source = store.split_actions("source")
        empty = np.flatnonzero(source.token_end == source.token_start)
        if empty.size:
            raise DataError(f"source action {source.ids[empty[0]]} has an empty narration, "
                            "which the configured text reconstruction needs")


def cmd_train(args) -> int:
    store = FeatureStore.load(args.data)
    run = _train_config_for(store, args)
    config = run.train
    model = SeqDGModel.init(config.model, seed=config.seed)
    out = _out_dir(args)
    _write_provenance(out, "train", run.to_dict(), config.seed, _data_hashes(store))
    result = fit(store, model, config, metrics_path=out / "metrics.jsonl")
    save_checkpoint(out / "checkpoint.ckpt", model.params,
                    rng_state=result.rng_state,
                    extra={"train": config.to_dict()})
    final = result.metrics[-1] if result.metrics else None
    _write_json(out / "summary.json", {
        "epochs": config.epochs,
        "final": final.to_dict() if final else None,
        "seqmix": {"draws": result.seqmix_stats.draws,
                   "replaced": result.seqmix_stats.replaced,
                   "no_candidate": result.seqmix_stats.no_candidate},
    })
    if final:
        print(f"trained {config.epochs} epochs: source action top-1 "
              f"{final.source_action_acc:.1f}%, checkpoint at "
              f"{out / 'checkpoint.ckpt'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    store = FeatureStore.load(args.data)
    params, header = load_checkpoint(args.checkpoint)
    model = SeqDGModel(params)
    if store.d_v != model.config.D_V:
        raise DataError(f"the dataset's features are {store.d_v} wide, the "
                        f"checkpoint's model reads {model.config.D_V}")
    actions = store.split_actions(args.split)
    _check_label_space(actions, model.config)
    preds = sliding_window_predict(store, model, split=args.split, k=args.k)
    labels = actions.labels()
    results = {"split": args.split, "domains": list(getattr(store.split, args.split)),
               "n_actions": len(actions), "metrics": {},
               "k": {"verb": head_k(args.k, model.config.n_verbs),
                     "noun": head_k(args.k, model.config.n_nouns)}}
    for k in (1, args.k):
        verb, noun, action = accuracy(preds, labels, k=k)
        results["metrics"][f"top{k}"] = {"verb": round(verb, 1),
                                         "noun": round(noun, 1),
                                         "action": round(action, 1)}
    out = _out_dir(args)
    _write_json(out / "results.json", results)
    _write_provenance(out, "eval", {"checkpoint": str(args.checkpoint),
                                    "split": args.split, "k": args.k},
                      seed=None, data_hashes=_data_hashes(store))
    if args.dump_predictions:
        with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
            for action_id, (verb, noun), topk_verbs, topk_nouns in zip(
                    preds.action_ids.tolist(), labels, preds.topk_verbs.tolist(),
                    preds.topk_nouns.tolist()):
                fh.write(json.dumps({
                    "action_id": action_id, "verb": verb, "noun": noun,
                    "topk_verbs": topk_verbs, "topk_nouns": topk_nouns}) + "\n")
    top1 = results["metrics"]["top1"]
    print(f"{args.split} top-1: verb {top1['verb']:.1f} noun {top1['noun']:.1f} "
          f"action {top1['action']:.1f} ({len(actions)} actions)")
    return EXIT_OK


def cmd_ablate(args) -> int:
    store = FeatureStore.load(args.data)
    run = _train_config_for(store, args)
    store.split_actions("target")
    grid = run.ablate
    # every cell's config is checked, also against the dataset, and its
    # model allocated once, before the first one trains
    cells = [(w, p_mix, lam_v, lam_t,
              [replace(run.train, model=replace(run.model, W=w), p_mix=p_mix,
                       lambda_rv=lam_v, lambda_rt=lam_t, seed=seed).check()
               for seed in grid["seeds"]])
             for w, p_mix, lam_v, lam_t in itertools.product(
                 grid["W"], grid["p_mix"], grid["lambda_rv"], grid["lambda_rt"])]
    for *_, configs in cells:
        for config in configs:
            _check_labels(store, config)
            SeqDGModel.init(config.model, seed=config.seed)
    out = _out_dir(args)
    _write_provenance(out, "ablate", run.to_dict(), run.train.seed, _data_hashes(store))
    scores = iter(train_and_score_cells([(store, config) for *_, configs in cells
                                         for config in configs]))
    rows = []
    for w, p_mix, lam_v, lam_t, configs in cells:
        accs = [next(scores).top1 for _config in configs]
        rows.append({"W": w, "p_mix": p_mix, "lambda_rv": lam_v, "lambda_rt": lam_t,
                     "target_action_top1": round(float(np.mean(accs)), 2),
                     "per_seed": [round(a, 2) for a in accs]})
        print(f"W={w} p_mix={p_mix} lrv={lam_v} lrt={lam_t}: "
              f"{rows[-1]['target_action_top1']:.2f}")
    _write_json(out / "ablation.json", {"grid": grid, "rows": rows})
    return EXIT_OK


def cmd_seq_stats(args) -> int:
    rows = read_annotation_csv(args.csv)
    tables = count_all_categories(rows, args.max_len)
    out = _out_dir(args)
    text = format_table(tables)
    (out / "seq_stats.txt").write_text(text + "\n", encoding="utf-8")
    _write_json(out / "seq_stats.json", table_to_dict(tables))
    _write_provenance(out, "seq-stats", {"csv": str(args.csv),
                                         "max_len": args.max_len},
                      seed=None, data_hashes={"csv": file_sha256(args.csv)})
    print(text)
    return EXIT_OK


def cmd_grad_check(args) -> int:
    out = _out_dir(args)
    seed = args.seed or 0
    reports = {}
    elapsed = {}
    for kind in ("mse", "token_cross_entropy"):
        start = time.monotonic()
        reports[kind] = objective_grad_check(kind, seed=seed, data_seed=seed,
                                             h=args.h, tol=args.tol)
        elapsed[kind] = time.monotonic() - start
        print(f"[{kind}] {reports[kind].summary()}  ({elapsed[kind]:.1f}s)")
    _write_json(out / "grad_check.json", {
        kind: {"passed": bool(r.passed), "max_rel_err": r.max_rel_err,
               "worst_param": r.worst_param, "tol": r.tol, "h": r.h,
               "seconds": round(elapsed[kind], 2)}
        for kind, r in reports.items()})
    _write_provenance(out, "grad-check", {"tol": args.tol, "h": args.h}, seed=seed)
    return EXIT_OK if all(r.passed for r in reports.values()) else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdg",
        description="sequence-context action recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, config=True):
        p.add_argument("--out", help="output directory (default: "
                       "$SEQDG_OUT_ROOT/<command>/<timestamp>)")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if config:
            p.add_argument("--config", help="JSON config file")

    p = sub.add_parser("synth-gen", help="generate a synthetic multi-domain dataset")
    common(p)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("import", help="build a dataset from CSV + feature blobs")
    common(p, seed=False, config=False)
    p.add_argument("--csv", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--d-v", type=int, required=True, dest="d_v")
    p.add_argument("--clips", type=int, required=True)
    p.add_argument("--d-t", type=int, default=768, dest="d_t")
    p.add_argument("--text-features", default=None)
    p.add_argument("--target-domains", default="",
                   help="comma-separated domain ids for the target split")
    p.set_defaults(func=cmd_import)

    def train_like(p):
        common(p)
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--W", type=int, default=None)
        p.add_argument("--lambda-rv", type=float, default=None, dest="lambda_rv")
        p.add_argument("--lambda-rt", type=float, default=None, dest="lambda_rt")
        p.add_argument("--p-mix", type=float, default=None, dest="p_mix")
        p.add_argument("--epochs", type=int, default=None)

    p = sub.add_parser("train", help="train on the source split")
    train_like(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="sliding-window evaluation of a checkpoint")
    common(p, seed=False, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("source", "target"), default="target")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--dump-predictions", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="grid over window length, mixing, and "
                                      "reconstruction weights")
    train_like(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("seq-stats", help="cross-domain repeated-sequence counts")
    common(p, seed=False, config=False)
    p.add_argument("--csv", required=True)
    p.add_argument("--max-len", type=int, default=5, dest="max_len")
    p.set_defaults(func=cmd_seq_stats)

    p = sub.add_parser("grad-check", help="finite-difference check of the full "
                                          "model gradient")
    common(p, config=False)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--h", type=float, default=1e-5)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        # invalid configs assembled programmatically surface as ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
