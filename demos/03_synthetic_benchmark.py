"""End-to-end on the synthetic cross-domain benchmark: generate a
dataset whose center actions are deliberately ambiguous without context,
check the oracle floor and ceiling, then train the full sequence model
against the single-action baseline and compare on the unseen domain.

The model and schedule are `bench_config.json`'s; the two arms, each the
fields it sets on that config, run through `train.score_arms`, as `seqdg
ablate` and the acceptance grid do. Reduced sizes; the acceptance suite
runs five seeds.
"""

from pathlib import Path

from seqdg.config import load_run_config
from seqdg.data import build_windows
from seqdg.synth import (
    SynthConfig,
    bayes_accuracy_on_store,
    context_oracle_accuracy,
    generate,
)
from seqdg.train import score_arms

synth = SynthConfig(seed=0, videos_per_domain=2, actions_per_video=56)
store, truth = generate(synth)
print(f"dataset: {len(store.actions)} actions, "
      f"{len(store.split.source)} source + {len(store.split.target)} target domains")
print(f"ambiguous verb pairs: {truth.pairs}")

print()
print("== oracle floor and ceiling ==")
bayes = bayes_accuracy_on_store(store, truth)
oracle = context_oracle_accuracy(build_windows(store.actions, 5), truth.grammar)
print(f"single-action Bayes accuracy (features only): {bayes:.1f}%")
print(f"context oracle accuracy (neighbor labels):    {oracle:.1f}%")
print(f"the gap a sequence model can exploit:         {oracle - bayes:.1f} points")

print()
print("== single-action baseline vs the full sequence model ==")
bench = load_run_config(Path(__file__).resolve().parent / "bench_config.json")
arms = {"baseline W=1": dict(W=1, lambda_rv=0.0, lambda_rt=0.0, p_mix=0.0),
        "full model W=5": dict(W=5, lambda_rv=1.0, lambda_rt=1.0, p_mix=0.5)}
scores = {tag: cells[0] for tag, cells in score_arms(bench.train, arms, [0], {0: store}).items()}
for tag, score in scores.items():
    print(f"{tag:<14}: target action top-1 {score.top1:.1f} ({score.seconds:.0f}s)")
gain = scores["full model W=5"].top1 - scores["baseline W=1"].top1
print(f"cross-domain gain from sequence context: {gain:+.1f} points")
