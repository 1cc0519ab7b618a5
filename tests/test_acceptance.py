"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured values when it holds (pytest shows the prints with -s,
and always on failure).

Criteria 5-7 share one grid of seeded training runs on the default
synthetic benchmark (six settings x five seeds), built once per session
and fitted on every usable CPU (`train.train_and_score_cells`).
"""

import os
import time

import numpy as np
import pytest

import seqdg.tensor as T
from seqdg.checkpoint import load_model, save_checkpoint, strip_text_parameters
from seqdg.data import SeqMixPool, SeqMixStats, build_windows, seqmix
from seqdg.evaluate import sliding_window_predict
from seqdg.model import (
    ModelConfig,
    SeqDGModel,
    encode_sequence,
    mask_center,
)
from seqdg.seqstats import count_all_categories, count_repeats, format_table
from seqdg.synth import SynthConfig, generate
from seqdg.tensor import Tensor
from seqdg.train import (
    TrainConfig,
    fit,
    lr_at,
    objective_grad_check,
    train_and_score_cells,
)

from test_data import domain_windows, label_of, mixing_setup
from test_seqstats import CRAFTED, brute_force_counts, corpus_from_label_rows


def ok(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


# ---------------------------------------------------------------------------
# shared synthetic-benchmark grid (criteria 5-7)

SEEDS = (0, 1, 2, 3, 4)
ARMS = {
    "baseline": dict(W=1, lam=0.0, p_mix=0.0),
    "sequence": dict(W=5, lam=0.0, p_mix=0.0),
    "seqmix": dict(W=5, lam=0.0, p_mix=0.5),
    "full": dict(W=5, lam=1.0, p_mix=0.5),
    "w3": dict(W=3, lam=1.0, p_mix=0.5),
    "w7": dict(W=7, lam=1.0, p_mix=0.5),
}


def bench_model_config(synth: SynthConfig, W: int) -> ModelConfig:
    return ModelConfig(W=W, D=64, D_V=synth.d_v, D_T=synth.d_t, n_enc_layers=2,
                       n_dec_layers=1, n_heads=4, n_verbs=synth.n_verbs,
                       n_nouns=synth.n_nouns, d_ff=128,
                       vocab_size=synth.n_verbs + synth.n_nouns)


def bench_train_config(synth: SynthConfig, W: int, lam: float, p_mix: float) -> TrainConfig:
    """One arm's training config on the default benchmark of `synth`."""
    return TrainConfig(model=bench_model_config(synth, W), lambda_rv=lam, lambda_rt=lam,
                       p_mix=p_mix, batch_size=16, lr=0.1, lr_decay_epochs=(9, 12),
                       epochs=15, seed=synth.seed)


@pytest.fixture(scope="session")
def bench_grid():
    """Every arm on every seed's store, the 30 cells trained and scored by
    `train_and_score_cells`. An arm's timing sums, per seed, the
    generation of the seed's store and the cell's fit and scoring."""
    stores, generate_s = {}, {}
    for seed in SEEDS:
        start = time.monotonic()
        stores[seed] = generate(SynthConfig(seed=seed))[0]
        generate_s[seed] = time.monotonic() - start
    cells = [(seed, arm) for seed in SEEDS for arm in ARMS]
    scores = train_and_score_cells(
        [(stores[seed], bench_train_config(SynthConfig(seed=seed), **ARMS[arm]))
         for seed, arm in cells])
    results = {arm: {} for arm in ARMS}
    timings = {arm: 0.0 for arm in ARMS}
    for (seed, arm), score in zip(cells, scores):
        results[arm][seed] = score.top1
        timings[arm] += generate_s[seed] + score.seconds
    means = {arm: float(np.mean(list(per_seed.values())))
             for arm, per_seed in results.items()}
    return {"results": results, "means": means, "timings": timings}


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity of the full objective


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    worst = {}
    for kind in ("mse", "token_cross_entropy"):
        report = objective_grad_check(kind, seed=0, data_seed=1, h=1e-5, tol=1e-3)
        assert report.passed, f"{kind}: {report.summary()}"
        worst[kind] = report.max_rel_err
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"grad check took {elapsed:.1f}s (limit 60s)"
    ok(1, f"max rel err {max(worst.values()):.2e} over both text-loss variants, "
          f"every parameter checked, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: shape and wiring contracts


def test_criterion_2_shapes_and_wiring():
    config = ModelConfig(W=5, D=768, D_V=1024, D_T=768, n_enc_layers=1,
                         n_dec_layers=0, n_verbs=97, n_nouns=300, d_ff=512)
    model = SeqDGModel.init(config, seed=0)
    rng = np.random.default_rng(2)
    with T.no_grad():
        enc = encode_sequence(rng.standard_normal((5, 1024)), model.params)
    assert enc.total_length == 7
    assert enc.positions.shape == (5, 768)
    assert enc.cls_slots.shape == (2, 768)

    z = Tensor(rng.standard_normal((5, 8)))
    once = mask_center(z)
    assert np.array_equal(once.data[2], np.zeros(8))
    for row in (0, 1, 3, 4):
        assert once.data[row].tobytes() == z.data[row].tobytes()
    twice = mask_center(once)
    assert twice.data.tobytes() == once.data.tobytes()

    big = Tensor(rng.uniform(-1e6, 1e6, (64, 33)))
    sums = T.softmax_rows(big).data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() < 1e-9

    tiny = SeqDGModel.init(ModelConfig(W=3, D=8, D_V=6, D_T=8, n_enc_layers=0,
                                       n_dec_layers=1, n_heads=2, n_verbs=3,
                                       n_nouns=3, d_ff=16), seed=1)
    attn = tiny.params.dec_visual[0].cross
    q4 = T.linear(Tensor(rng.standard_normal((4, 8))), attn.q.weight, attn.q.bias)
    context = Tensor(rng.standard_normal((1, 8)))
    k1 = T.linear(context, attn.k.weight, attn.k.bias)
    v1 = T.linear(context, attn.v.weight, attn.v.bias)
    _, weights = T.attention(q4, k1, v1, 2)
    assert np.array_equal(weights.data, np.ones((2, 4, 1)))
    ok(2, "encoder length W+2, exact idempotent center mask, softmax row sums "
          "within 1e-9 at 1e6 magnitude, single-key attention weight 1.0")


# ---------------------------------------------------------------------------
# criterion 3: permutation equivariance


def test_criterion_3_permutation_property():
    config = ModelConfig(W=5, D=32, D_V=16, D_T=32, n_enc_layers=2,
                         n_dec_layers=0, n_heads=4, n_verbs=5, n_nouns=5, d_ff=64)
    model = SeqDGModel.init(config, seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 16))

    saved_pos = model.params.pos.data.copy()
    model.params.pos.data[:] = 0.0
    with T.no_grad():
        base = encode_sequence(x, model.params)
        worst = 0.0
        for _ in range(50):
            perm = rng.permutation(5)
            enc = encode_sequence(x[perm], model.params)
            worst = max(worst,
                        np.abs(enc.positions.data - base.positions.data[perm]).max(),
                        np.abs(enc.cls_slots.data - base.cls_slots.data).max())
    assert worst < 1e-9, f"equivariance violated by {worst:.2e}"

    model.params.pos.data[:] = saved_pos
    with T.no_grad():
        base = encode_sequence(x, model.params)
        enc = encode_sequence(x[[3, 1, 4, 0, 2]], model.params)
    broken = np.abs(enc.cls_slots.data - base.cls_slots.data).max()
    assert broken > 1e-3, f"positional encodings failed to break symmetry ({broken:.2e})"
    ok(3, f"zeroed positions: max deviation {worst:.2e} over 50 permutations; "
          f"learned positions break symmetry by {broken:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: the SeqMix contract


def test_criterion_4_seqmix_contract():
    records = mixing_setup(n_domains=4, actions_per_domain=6)
    pool = SeqMixPool(records, [f"S{d}" for d in range(4)])
    windows = domain_windows(records, "S0", 3)
    rng = np.random.default_rng(20_240)
    stats = SeqMixStats()
    n_draws = 20_000
    for i in range(n_draws):
        win = windows[[i % len(windows)]]
        out = seqmix(win, pool, 0.5, rng, stats=stats)
        changed = np.flatnonzero(out.rows[0] != win.rows[0])
        if len(changed):
            assert len(changed) == 1
            old, new = win.rows[0, changed[0]], out.rows[0, changed[0]]
            assert (records.domain[new] != records.domain[old]
                    and label_of(records, new) == label_of(records, old))
    rate = stats.replaced / n_draws
    assert 0.48 <= rate <= 0.52, f"replacement rate {rate:.4f}"
    assert stats.no_candidate == 0

    # unsatisfiable pool: same label exists only in the window's own domain
    iso = mixing_setup(n_domains=1, actions_per_domain=3)
    iso_pool = SeqMixPool(iso, ["S0"])
    iso_stats = SeqMixStats()
    win = build_windows(iso, W=3)[[1]]
    out = seqmix(win, iso_pool, 1.0, np.random.default_rng(0), stats=iso_stats)
    assert out.rows.tolist() == win.rows.tolist()
    assert iso_stats.no_candidate == 1
    ok(4, f"replacement rate {rate:.4f} in [0.48, 0.52] over 20000 draws, all "
          f"replacements cross-domain same-label, unsatisfiable pool counted")


# ---------------------------------------------------------------------------
# criteria 5-7: synthetic benchmark behavior


def test_criterion_5_cross_domain_win(bench_grid):
    means = bench_grid["means"]
    gap = means["full"] - means["baseline"]
    runtime = bench_grid["timings"]["full"] + bench_grid["timings"]["baseline"]
    assert gap >= 15.0, f"gap {gap:.2f} points"
    assert runtime < 600.0, f"criterion runs took {runtime:.0f}s (limit 600s)"
    ok(5, f"target action top-1 {means['full']:.2f} vs baseline "
          f"{means['baseline']:.2f} (gap {gap:.2f} >= 15) over {len(SEEDS)} "
          f"seeds in {runtime:.0f}s")


def test_criterion_6_ablation_trend(bench_grid):
    means = bench_grid["means"]
    chain = ["baseline", "sequence", "seqmix", "full"]
    values = [means[a] for a in chain]
    for prev, cur, a, b in zip(values, values[1:], chain, chain[1:]):
        assert cur >= prev - 1.0, (f"{b} ({cur:.2f}) dropped more than 1 point "
                                   f"below {a} ({prev:.2f})")
    ok(6, " -> ".join(f"{a} {means[a]:.2f}" for a in chain)
       + " (non-decreasing within 1 point)")


def test_criterion_7_window_length_sweep(bench_grid):
    means = bench_grid["means"]
    assert means["full"] >= means["w3"], \
        f"W=5 ({means['full']:.2f}) below W=3 ({means['w3']:.2f})"
    spread = abs(means["w7"] - means["full"])
    assert spread <= 2.0, f"|W7 - W5| = {spread:.2f} points"
    ok(7, f"W3 {means['w3']:.2f} <= W5 {means['full']:.2f}; W7 {means['w7']:.2f} "
          f"within {spread:.2f} points of W5")


# ---------------------------------------------------------------------------
# criterion 8: inference purity


def test_criterion_8_inference_purity(tmp_path):
    synth = SynthConfig(seed=7, videos_per_domain=2, actions_per_video=24)
    store, _ = generate(synth)
    model_cfg = bench_model_config(synth, W=5)
    train_cfg = TrainConfig(model=model_cfg, batch_size=16, lr=0.1,
                            lr_decay_epochs=(50, 75), epochs=2, seed=7)
    model = SeqDGModel.init(model_cfg, seed=7)
    fit(store, model, train_cfg)
    full_path = save_checkpoint(tmp_path / "full.ckpt", model.params)
    stripped_path = strip_text_parameters(full_path, tmp_path / "stripped.ckpt")

    before = sliding_window_predict(store, load_model(full_path))
    after = sliding_window_predict(store, load_model(stripped_path))
    assert len(before) == len(after) > 0
    assert before.verb_logits.tobytes() == after.verb_logits.tobytes()
    assert before.noun_logits.tobytes() == after.noun_logits.tobytes()
    assert before.topk_verbs.tolist() == after.topk_verbs.tolist()
    ok(8, f"{len(before)} predictions bitwise identical after deleting every "
          f"text-side parameter from the checkpoint")


# ---------------------------------------------------------------------------
# criterion 9: learning-rate schedule


def test_criterion_9_lr_schedule():
    config = TrainConfig(lr=0.005, lr_decay_epochs=(50, 75), lr_decay_factor=10)
    assert lr_at(49, config) == 0.005
    assert lr_at(50, config) == 0.0005
    assert lr_at(75, config) == pytest.approx(5e-5)
    ok(9, "lr 0.005 at epoch 49, 0.0005 at 50, 0.00005 at 75")


# ---------------------------------------------------------------------------
# criterion 10: repeated-sequence counting vs brute force


def test_criterion_10_seq_stats_oracle():
    rows = corpus_from_label_rows(CRAFTED)
    assert len(rows) == 12 and len({r["domain_id"] for r in rows}) == 2
    for category in ("verb", "noun", "action"):
        table = count_repeats(rows, 5, category)
        distinct, occurrences = brute_force_counts(CRAFTED, 5, category)
        assert table.distinct == distinct, category
        assert table.occurrences == occurrences, category

    # the reporting path used for real annotation dumps
    tables = count_all_categories(rows, 5)
    text = format_table(tables)
    assert all(c in text for c in ("verb", "noun", "action"))

    ek100 = os.environ.get("SEQDG_EK100_CSV")
    note = "EK100 CSV not provided (set SEQDG_EK100_CSV to compare against " \
           "the 5882/4649/1852 reference)"
    if ek100:
        from seqdg.data import read_annotation_csv
        real = count_all_categories(read_annotation_csv(ek100), 5)
        print(format_table(real))
        note = "EK100 table emitted above for comparison with 5882/4649/1852"
    ok(10, f"counts match the brute-force enumerator exactly on the crafted "
           f"corpus; {note}")


# ---------------------------------------------------------------------------
# criterion 11: end-to-end determinism


def test_criterion_11_determinism(tmp_path):
    synth = SynthConfig(seed=11, videos_per_domain=2, actions_per_video=24)
    model_cfg = bench_model_config(synth, W=3)
    artifacts = []
    for run in range(2):
        store, _ = generate(synth)
        train_cfg = TrainConfig(model=model_cfg, batch_size=16, lr=0.1,
                                lr_decay_epochs=(50, 75), epochs=2, seed=11)
        model = SeqDGModel.init(model_cfg, seed=11)
        result = fit(store, model, train_cfg,
                     metrics_path=tmp_path / f"metrics{run}.jsonl")
        ckpt = save_checkpoint(tmp_path / f"run{run}.ckpt", model.params,
                               rng_state=result.rng_state)
        artifacts.append((ckpt.read_bytes(),
                          (tmp_path / f"metrics{run}.jsonl").read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
    assert artifacts[0][1] == artifacts[1][1], "metrics logs differ"
    ok(11, "two identical (seed, config, data) runs produced bitwise-identical "
           "checkpoints and metrics logs")
