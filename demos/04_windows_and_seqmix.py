"""Window construction at video edges and the cross-domain mixing
augmentation, with its bookkeeping, on the columnar action table. Windows
are arrays only: rows of the table and a padding mask."""

import numpy as np

from seqdg.data import SeqMixPool, SeqMixStats, build_windows, seqmix
from seqdg.synth import SynthConfig, generate

synth = SynthConfig(seed=3, videos_per_domain=1, actions_per_video=30)
store, _ = generate(synth)

print("== sliding windows with replicate padding ==")
one_video = store.records_for(("S0",))          # S0 holds one video, S0_v0
windows = build_windows(one_video, W=5)
print(f"{len(one_video)} actions -> {len(windows)} windows (one per action)")
print("first window action ids:", one_video.ids[windows.rows[0]].tolist())
print("padding flags:          ", windows.padding[0].tolist())
print("(the two leading slots replicate action 0 and are flagged)")

print()
print("== SeqMix: swapping in a same-label action from another domain ==")
# training windows and the pool are rows of one table, the source split;
# S0's video is its first 30 rows
source = store.records_for(store.split.source)
pool = SeqMixPool(source, store.split.source)
source_windows = build_windows(source, W=5)
rng = np.random.default_rng(0)
stats = SeqMixStats()


def describe(slots):
    return [(source.domain_names[source.domain[row]],
             (int(source.verbs[row]), int(source.nouns[row]))) for row in slots]


before = source_windows[[7]]
print("before:", describe(before.rows[0]))
after = before
while (after.rows == before.rows).all():
    after = seqmix(before, pool, 0.5, rng, stats)
print("after: ", describe(after.rows[0]))
print("(one slot changed domain; its verb/noun label is identical)")

print()
print("== the empirical replacement rate tracks the probability ==")
# one call mixes a whole batch: here 10,000 windows of S0's video
stats = SeqMixStats()
seqmix(source_windows[np.arange(10_000) % len(one_video)], pool, 0.5, rng, stats)
print(f"draws {stats.draws}, replaced {stats.replaced} "
      f"(rate {stats.replaced / stats.draws:.3f}), "
      f"no candidate {stats.no_candidate}")
