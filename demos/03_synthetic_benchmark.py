"""End-to-end on the synthetic cross-domain benchmark: generate a
dataset whose center actions are deliberately ambiguous without context,
check the oracle floor and ceiling, then train the full sequence model
against the single-action baseline and compare on the unseen domain.

Runs in about 10 s (9-11 s over three runs on a 2-vCPU VM; reduced
sizes, the acceptance suite runs the full benchmark over five seeds).
"""

import time

from seqdg.evaluate import accuracy, sliding_window_predict
from seqdg.model import ModelConfig, SeqDGModel
from seqdg.synth import (
    SynthConfig,
    bayes_accuracy_on_store,
    context_oracle_accuracy,
    generate,
)
from seqdg.data import build_windows
from seqdg.train import TrainConfig, fit

synth = SynthConfig(seed=0, videos_per_domain=2, actions_per_video=56)
store, truth = generate(synth)
print(f"dataset: {len(store.records)} actions, "
      f"{len(store.split.source)} source + {len(store.split.target)} target domains")
print(f"ambiguous verb pairs: {truth.pairs}")

print()
print("== oracle floor and ceiling ==")
bayes = bayes_accuracy_on_store(store, truth)
oracle = context_oracle_accuracy(build_windows(store.records, 5), truth.grammar)
print(f"single-action Bayes accuracy (features only): {bayes:.1f}%")
print(f"context oracle accuracy (neighbor labels):    {oracle:.1f}%")
print(f"the gap a sequence model can exploit:         {oracle - bayes:.1f} points")


def train_and_eval(W, lam, p_mix, tag):
    model_cfg = ModelConfig(W=W, D=64, D_V=synth.d_v, D_T=synth.d_t,
                            n_enc_layers=2, n_dec_layers=1, n_heads=4,
                            n_verbs=synth.n_verbs, n_nouns=synth.n_nouns,
                            d_ff=128, vocab_size=synth.n_verbs + synth.n_nouns)
    train_cfg = TrainConfig(model=model_cfg, lambda_rv=lam, lambda_rt=lam,
                            p_mix=p_mix, batch_size=16, lr=0.1,
                            lr_decay_epochs=(9, 12), epochs=15, seed=0)
    model = SeqDGModel.init(model_cfg, seed=0)
    start = time.time()
    result = fit(store, model, train_cfg)
    preds = sliding_window_predict(store, model)
    labels = [(r.verb, r.noun) for r in store.records_for(store.split.target)]
    verb, noun, action = accuracy(preds, labels, k=1)
    print(f"{tag}: target verb {verb:.1f} noun {noun:.1f} action {action:.1f} "
          f"(source {result.metrics[-1].source_action_acc:.1f}, "
          f"{time.time() - start:.0f}s)")
    return action


print()
print("== single-action baseline vs the full sequence model ==")
base = train_and_eval(W=1, lam=0.0, p_mix=0.0, tag="baseline W=1      ")
full = train_and_eval(W=5, lam=1.0, p_mix=0.5, tag="full model W=5    ")
print(f"cross-domain gain from sequence context: {full - base:+.1f} points")
