import gc
import json
import multiprocessing
import os
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

import seqdg.tensor as T
import seqdg.train
from seqdg import evaluate
from seqdg.data import Batch, DataError, DatasetSplit, FeatureStore
from seqdg.model import ModelConfig, SeqDGModel
from seqdg.tensor import NonFiniteError
from seqdg.train import (
    DivergenceError,
    _claims,
    TrainConfig,
    composite_loss,
    fit,
    fit_processes,
    lr_at,
    train_and_score,
    train_and_score_cells,
)
from seqdg.data import ActionRecord
from test_data import table


def toy_store(n_videos=2, actions_per_video=8, d_v=6, d_t=8, n_verbs=3, n_nouns=2,
              seed=0, domains=("S0", "S1"), target=()):
    rng = np.random.default_rng(seed)
    records, blobs = [], []
    offset = 0
    i = 0
    for v in range(n_videos):
        domain = domains[v % len(domains)]
        for t in range(actions_per_video):
            verb, noun = i % n_verbs, i % n_nouns
            records.append(ActionRecord(
                action_id=i, video_id=f"{domain}_v{v}", domain_id=domain,
                verb=verb, noun=noun, narration=(verb, n_verbs + noun),
                temporal_index=t, blob_offset=offset, n_clips=2))
            blobs.append(rng.standard_normal(2 * d_v).astype("<f4"))
            offset += 2 * d_v
            i += 1
    split = DatasetSplit(source=tuple(d for d in domains if d not in target),
                         target=tuple(target))
    meta = {"name": "toy", "d_v": d_v, "d_t": d_t, "clips_per_action": 2}
    vocab = [f"t{j}" for j in range(n_verbs + n_nouns)]
    return FeatureStore(meta, table(records), vocab, split, np.concatenate(blobs))


def toy_train_config(**kw):
    model = ModelConfig(W=3, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=1,
                        n_heads=2, n_verbs=3, n_nouns=2, d_ff=16, vocab_size=5)
    base = dict(model=model, lambda_rv=1.0, lambda_rt=1.0, p_mix=0.5,
                batch_size=4, lr=0.05, lr_decay_epochs=(50, 75), epochs=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestLearningRateSchedule:
    def test_reference_schedule_values(self):
        config = TrainConfig(lr=0.005, lr_decay_epochs=(50, 75), lr_decay_factor=10)
        assert lr_at(49, config) == 0.005
        assert lr_at(50, config) == 0.0005
        assert lr_at(75, config) == pytest.approx(0.00005)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, TrainConfig())

    def test_decay_epochs_must_increase(self):
        cfg = toy_train_config(lr_decay_epochs=(10, 10))
        assert any("increasing" in e for e in cfg.validate())


class TestCompositeLoss:
    def batch(self, seed=0):
        rng = np.random.default_rng(seed)
        visual = rng.standard_normal((4, 3, 6))
        text = rng.standard_normal((4, 3, 8))
        verbs = rng.integers(0, 3, size=4)
        nouns = rng.integers(0, 2, size=4)
        tokens = tuple((int(v), 3 + int(n)) for v, n in zip(verbs, nouns))
        return Batch(visual=visual, text=text, verbs=verbs, nouns=nouns,
                     center_tokens=tokens)

    def test_zero_weights_reduce_to_classification(self):
        config = toy_train_config(lambda_rv=0.0, lambda_rt=0.0)
        model = SeqDGModel.init(config.model, seed=0)
        total, breakdown = composite_loss(model, self.batch(), config)
        assert breakdown.total == breakdown.l_c
        assert total.item() == breakdown.l_c

    def test_forced_perfect_reconstruction_zeroes_l_rv(self):
        config = toy_train_config()
        model = SeqDGModel.init(config.model, seed=0)
        batch = self.batch()
        with T.no_grad():
            out = model.forward_train(batch.visual, batch.text, recon_v=True, recon_t=True)
        # the visual target is this very forward's reconstruction
        frozen = (out.recon_v.data.copy(), out.target_t.data.copy())
        _, breakdown = composite_loss(model, batch, config, frozen_targets=frozen)
        assert breakdown.l_rv == 0.0
        assert breakdown.l_rt > 0.0

    def test_total_matches_recomputed_sum(self):
        config = toy_train_config(lambda_rv=0.7, lambda_rt=1.3)
        model = SeqDGModel.init(config.model, seed=0)
        total, b = composite_loss(model, self.batch(), config)
        assert abs(b.total - (b.l_c + 0.7 * b.l_rv + 1.3 * b.l_rt)) < 1e-12
        assert abs(total.item() - b.total) < 1e-12
        assert b.l_c >= 0 and b.l_rv >= 0 and b.l_rt >= 0

    def test_token_text_loss_path(self):
        config = toy_train_config(text_loss="token_cross_entropy")
        model = SeqDGModel.init(config.model, seed=0)
        total, b = composite_loss(model, self.batch(), config)
        assert b.l_rt > 0
        assert np.isfinite(total.item())

    def test_zero_weight_skips_its_decoder(self):
        config = toy_train_config(lambda_rv=0.0, lambda_rt=1.0)
        model = SeqDGModel.init(config.model, seed=0)
        total, _ = composite_loss(model, self.batch(), config)
        total.backward()
        named = model.params.named()
        dec_v = [name for name in named if name.startswith("dec_v.")]
        dec_t = [name for name in named if name.startswith("dec_t.")]
        assert dec_v and dec_t
        assert [name for name in dec_v if named[name].grad is not None] == []
        assert [name for name in dec_t if named[name].grad is None] == []

    def test_gradient_is_lambda_weighted_sum_of_components(self):
        # gradients at (1, lv, lt) equal g_c + lv*g_v + lt*g_t measured
        # by zeroing the other components
        base = toy_train_config(p_mix=0.0, epochs=0)
        model = SeqDGModel.init(base.model, seed=3)
        rng = np.random.default_rng(4)
        visual = rng.standard_normal((2, 3, 6))
        text = rng.standard_normal((2, 3, 8))
        batch = Batch(visual=visual, text=text, verbs=np.array([0, 1]),
                      nouns=np.array([1, 0]), center_tokens=((0, 4), (1, 3)))
        with T.no_grad():
            frozen_out = model.forward_train(visual, text, recon_v=True, recon_t=True)
            frozen = (frozen_out.target_v.data.copy(), frozen_out.target_t.data.copy())
        probe = model.params.named()["enc.0.attn.q.weight"]

        def grad_for(lv, lt):
            cfg = toy_train_config(lambda_rv=lv, lambda_rt=lt)
            total, _ = composite_loss(model, batch, cfg, frozen_targets=frozen)
            probe.grad = None
            total.backward()
            return probe.grad.copy()

        g_c = grad_for(0.0, 0.0)
        g_v = grad_for(1.0, 0.0) - g_c
        g_t = grad_for(0.0, 1.0) - g_c
        combined = grad_for(0.6, 1.4)
        np.testing.assert_allclose(combined, g_c + 0.6 * g_v + 1.4 * g_t,
                                   rtol=0, atol=1e-9)


class TestFit:
    def test_zero_lr_leaves_parameters_bitwise_unchanged(self):
        store = toy_store()
        config = toy_train_config(lr=0.0, epochs=1)
        model = SeqDGModel.init(config.model, seed=1)
        before = {k: v.data.copy() for k, v in model.params.named().items()}
        fit(store, model, config)
        for k, v in model.params.named().items():
            assert v.data.tobytes() == before[k].tobytes(), k

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        store = toy_store()
        results = []
        for run in range(2):
            config = toy_train_config(epochs=2, seed=7)
            model = SeqDGModel.init(config.model, seed=7)
            res = fit(store, model, config,
                      metrics_path=tmp_path / f"metrics{run}.jsonl")
            results.append({k: v.data.tobytes()
                            for k, v in model.params.named().items()})
        assert results[0] == results[1]
        assert (tmp_path / "metrics0.jsonl").read_bytes() == \
            (tmp_path / "metrics1.jsonl").read_bytes()

    def test_different_seeds_differ(self):
        store = toy_store()
        outs = []
        for seed in (1, 2):
            config = toy_train_config(epochs=1, seed=seed)
            model = SeqDGModel.init(config.model, seed=seed)
            fit(store, model, config)
            outs.append(model.params.named()["proj.weight"].data.copy())
        assert not np.array_equal(outs[0], outs[1])

    def test_initial_classification_loss_near_uniform(self):
        # untrained logits are near zero, so the classification loss sits
        # near ln(n_verbs) + ln(n_nouns)
        store = toy_store(n_verbs=3, n_nouns=2)
        config = toy_train_config(lambda_rv=0.0, lambda_rt=0.0, p_mix=0.0,
                                  epochs=1, lr=1e-300)
        model = SeqDGModel.init(config.model, seed=5)
        res = fit(store, model, config)
        expected = np.log(3) + np.log(2)
        assert abs(res.metrics[0].l_c - expected) / expected < 0.10

    def test_memorizes_tiny_dataset(self):
        store = toy_store(n_videos=1, actions_per_video=8, domains=("S0",), d_t=32)
        model_cfg = ModelConfig(W=3, D=32, D_V=6, D_T=32, n_enc_layers=1,
                                n_dec_layers=1, n_heads=4, n_verbs=3, n_nouns=2,
                                d_ff=64, vocab_size=5)
        config = TrainConfig(model=model_cfg, lambda_rv=1.0, lambda_rt=1.0,
                             p_mix=0.0, batch_size=4, lr=0.05, momentum=0.9,
                             lr_decay_epochs=(100, 150), epochs=200, seed=11)
        model = SeqDGModel.init(config.model, seed=11)
        res = fit(store, model, config)
        assert res.metrics[-1].source_action_acc == 100.0

    def test_target_domain_records_never_touched(self):
        store = toy_store(domains=("S0", "T0"), target=("T0",))
        config = toy_train_config(epochs=1)
        model = SeqDGModel.init(config.model, seed=2)
        res = fit(store, model, config)
        assert res is not None  # the source-only feature cache would raise otherwise

    def test_divergence_guard_reports_epoch_and_batch(self):
        store = toy_store()
        config = toy_train_config(lr=1e18, epochs=5, p_mix=0.0)
        model = SeqDGModel.init(config.model, seed=3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="epoch"):
            fit(store, model, config)

    def test_metrics_log_is_line_delimited_json(self, tmp_path):
        store = toy_store()
        config = toy_train_config(epochs=2)
        model = SeqDGModel.init(config.model, seed=0)
        path = tmp_path / "metrics.jsonl"
        fit(store, model, config, metrics_path=path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        entry = json.loads(lines[0])
        for key in ("epoch", "lr", "l_c", "l_rv", "l_rt", "total",
                    "source_action_acc"):
            assert key in entry

    def test_epoch_losses_are_window_weighted_batch_means(self, monkeypatch):
        # 16 windows in batches of 5: the last batch holds one window
        calls = []

        def recording(model, batch, *args, **kwargs):
            total, parts = composite_loss(model, batch, *args, **kwargs)
            calls.append((len(batch), parts))
            return total, parts

        monkeypatch.setattr(seqdg.train, "composite_loss", recording)
        store = toy_store()
        config = toy_train_config(epochs=2, batch_size=5)
        res = fit(store, SeqDGModel.init(config.model, seed=0), config)
        assert [n for n, _ in calls] == [5, 5, 5, 1] * 2
        for epoch, entry in enumerate(res.metrics):
            batches = calls[4 * epoch:4 * epoch + 4]
            for key in ("l_c", "l_rv", "l_rt", "total"):
                mean = sum(n * getattr(parts, key) for n, parts in batches) / 16
                assert getattr(entry, key) == pytest.approx(mean, rel=1e-12), key
        assert res.metrics[0].l_c != calls[3][1].l_c  # not the last batch's value

    @pytest.mark.parametrize("logged", [False, True], ids=["no_metrics_file",
                                                           "metrics_file"])
    def test_source_split_is_scored_only_for_a_reader(self, logged, tmp_path,
                                                      monkeypatch):
        calls = []
        predict = seqdg.train.predict_windows

        def counting(*args, **kwargs):
            calls.append(1)
            return predict(*args, **kwargs)

        monkeypatch.setattr(seqdg.train, "predict_windows", counting)
        store = toy_store()
        config = toy_train_config(epochs=3)
        res = fit(store, SeqDGModel.init(config.model, seed=0), config,
                  metrics_path=tmp_path / "metrics.jsonl" if logged else None)
        assert len(calls) == (3 if logged else 1)
        scored = [m.source_action_acc is not None for m in res.metrics]
        assert scored == ([True] * 3 if logged else [False, False, True])

    def test_metrics_file_changes_no_parameter_or_final_metric(self, tmp_path):
        store = toy_store()
        config = toy_train_config(epochs=3, seed=4)
        runs = []
        for path in (None, tmp_path / "metrics.jsonl"):
            model = SeqDGModel.init(config.model, seed=4)
            res = fit(store, model, config, metrics_path=path)
            runs.append(({k: v.data.tobytes() for k, v in model.params.named().items()},
                         res.metrics))
        (params, metrics), (logged_params, logged_metrics) = runs
        assert params == logged_params
        assert metrics[-1] == logged_metrics[-1]
        for quiet, logged in zip(metrics[:-1], logged_metrics[:-1]):
            for key in ("l_c", "l_rv", "l_rt", "total"):
                assert getattr(quiet, key) == getattr(logged, key), key
            assert (quiet.source_verb_acc, quiet.source_noun_acc,
                    quiet.source_action_acc) == (None, None, None)

    def test_each_step_releases_the_graph_of_the_one_before(self, monkeypatch):
        # with the cycle collector off, only reference counting frees a
        # graph: step i's loss must be gone when step i + 1's objective
        # starts, and the last step's when the source split is scored
        losses, alive = [], []

        def tracking(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in losses))
            total, parts = composite_loss(*args, **kwargs)
            losses.append(weakref.ref(total))
            return total, parts

        def scoring(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in losses))
            return predict(*args, **kwargs)

        predict = seqdg.train.predict_windows
        monkeypatch.setattr(seqdg.train, "composite_loss", tracking)
        monkeypatch.setattr(seqdg.train, "predict_windows", scoring)
        store = toy_store()
        config = toy_train_config(epochs=2, batch_size=5)
        gc.disable()
        try:
            fit(store, SeqDGModel.init(config.model, seed=0), config)
        finally:
            gc.enable()
        assert len(losses) == 8
        assert alive == [0] * 9

    def test_store_without_source_actions_is_data_error(self):
        store = toy_store(domains=("T0",), target=("T0",))
        config = toy_train_config(epochs=1)
        with pytest.raises(DataError, match="source domains hold no actions"):
            fit(store, SeqDGModel.init(config.model, seed=0), config)

    def test_seqmix_stats_populated(self):
        store = toy_store()
        config = toy_train_config(epochs=2, p_mix=1.0)
        model = SeqDGModel.init(config.model, seed=0)
        res = fit(store, model, config)
        assert res.seqmix_stats.draws > 0
        assert res.seqmix_stats.replaced > 0


class TestFlatSGD:
    @staticmethod
    def reference_step(tensors, velocity, momentum, lr):
        """The per-tensor update the flat step replaced: tensors without a
        gradient are skipped."""
        for i, t in enumerate(tensors):
            if t.grad is None:
                continue
            if momentum == 0:
                t.data -= lr * t.grad
            else:
                velocity[i] = momentum * velocity[i] + t.grad
                t.data -= lr * velocity[i]

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_flat_update_equals_the_per_tensor_update_bitwise(self, momentum):
        # lambda_rv = 0: the visual decoder never gets a gradient
        config = toy_train_config(lambda_rv=0.0, momentum=momentum)
        flat, ref = (SeqDGModel.init(config.model, seed=7) for _ in range(2))
        optimizer = seqdg.train._SGD(flat.params, momentum)
        ref_tensors = ref.params.tensors()
        velocity = [np.zeros_like(t.data) for t in ref_tensors]
        rng = np.random.default_rng(8)
        for step, lr in enumerate((0.05, 0.05, 0.01)):
            batch = Batch(visual=rng.standard_normal((4, 3, 6)),
                          text=rng.standard_normal((4, 3, 8)),
                          verbs=rng.integers(0, 3, 4), nouns=rng.integers(0, 2, 4),
                          center_tokens=((1,),) * 4)
            optimizer.zero()
            composite_loss(flat, batch, config)[0].backward()
            optimizer.step(lr)
            for t in ref_tensors:
                t.grad = None
            composite_loss(ref, batch, config)[0].backward()
            self.reference_step(ref_tensors, velocity, momentum, lr)
            assert flat.params.flat.tobytes() == ref.params.flat.tobytes(), step
        untouched = [t for name, t in ref.params.named().items() if name.startswith("dec_v.")]
        assert untouched and all(t.grad is None for t in untouched)

    def test_a_gradient_left_from_an_earlier_step_is_not_applied(self):
        config = toy_train_config()
        model = SeqDGModel.init(config.model, seed=9)
        optimizer = seqdg.train._SGD(model.params, 0.0)
        head = model.params.head_verb.weight
        T.sum_all(head).backward()
        optimizer.zero()
        before = model.params.flat.copy()
        optimizer.step(0.1)
        assert model.params.flat.tobytes() == before.tobytes()


def test_train_and_score_without_target_actions_is_data_error(monkeypatch):
    # refused before any training
    monkeypatch.setattr(seqdg.train, "fit", None)
    with pytest.raises(DataError, match="target domains hold no actions"):
        train_and_score(toy_store(), toy_train_config(epochs=1))


def pin(monkeypatch, cpus, blas="1"):
    """Make the CPU budget (`evaluate.cpu_slots`) see `cpus` usable CPUs
    and BLAS on `blas` threads (None: unset)."""
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if blas is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)


def patch_fit(monkeypatch, tmp_path, wait=True, before=None):
    """Patch `fit` to log the pid, seed and W of each fit to
    `tmp_path/fits.log`, from whichever process runs it, then call
    `before(config, in_worker)` if given. With `wait`, the calling
    process's fit of seed 0 first waits (up to 10 s) until a worker has
    begun a fit, so that a worker claims a cell. Returns the log's path."""
    caller = os.getpid()
    log = tmp_path / "fits.log"
    log.unlink(missing_ok=True)

    def logged_fit(store, model, config, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {config.seed} {config.W}\n")
        in_worker = os.getpid() != caller
        deadline = time.monotonic() + 10
        while wait and not in_worker and config.seed == 0 and len(log.read_text().split()) < 6:
            assert time.monotonic() < deadline, "no worker began a fit"
            time.sleep(0.01)
        if before:
            before(config, in_worker)
        return fit(store, model, config, **kwargs)

    monkeypatch.setattr(seqdg.train, "fit", logged_fit)
    return log


class Unpicklable(Exception):
    def __init__(self, code, why):
        super().__init__(f"{why} ({code})")


class TestCellRunner:
    """`train_and_score_cells` on a three-domain toy store. The runs that
    fork start one worker at most: two processes in all."""

    @pytest.fixture
    def store(self):
        return toy_store(n_videos=3, domains=("S0", "S1", "T0"), target=("T0",))

    def cells(self, store, seeds=(0, 1, 2), Ws=(1, 3)):
        return [(store, toy_train_config(model=replace(toy_train_config().model, W=w),
                                         seed=seed))
                for w in Ws for seed in seeds]

    @pytest.mark.parametrize("env, cpus, n_cells, n", [
        ({}, 4, 10, 1),                                     # BLAS unpinned
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 4, 2),
        ({"OMP_NUM_THREADS": "1"}, 64, 30, 30),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),           # one process per cell
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 10, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 5, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 0, 1),
    ])
    def test_process_count_follows_cpus_blas_and_cells(self, env, cpus, n_cells, n,
                                                       monkeypatch):
        pin(monkeypatch, cpus, blas=None)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert fit_processes(n_cells) == n
        # one budget: scoring threads read the same CPUs over BLAS threads
        assert fit_processes(10**6) == evaluate.cpu_slots() == evaluate.scoring_threads(10**7)

    def test_one_process_without_fork(self, monkeypatch):
        pin(monkeypatch, 4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert fit_processes(10) == 1

    def test_two_processes_claim_every_cell_once(self):
        context = multiprocessing.get_context("fork")
        counter = context.Value("q", 0)
        receiver, sender = context.Pipe(duplex=False)
        worker = context.Process(target=lambda: sender.send(list(_claims(counter, 20000))))
        worker.start()
        mine = list(_claims(counter, 20000))
        theirs = receiver.recv()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert sorted(mine + theirs) == list(range(20000))

    def test_scores_are_bitwise_equal_in_one_and_two_processes(self, store, monkeypatch,
                                                               tmp_path):
        scored = []
        original = seqdg.train.sliding_window_predict

        def recording(store, model, **kwargs):
            preds = original(store, model, **kwargs)
            scored.append(preds.verb_logits.tobytes() + preds.noun_logits.tobytes())
            return preds

        monkeypatch.setattr(seqdg.train, "sliding_window_predict", recording)
        runs = {}
        for cpus in (1, 2):
            pin(monkeypatch, cpus)
            log = patch_fit(monkeypatch, tmp_path, wait=cpus == 2)
            scored.clear()
            scores = train_and_score_cells(self.cells(store))
            assert multiprocessing.active_children() == []
            assert all(score.seconds > 0 for score in scores)
            runs[cpus] = ([score.top1 for score in scores], list(scored),
                          [line.split() for line in log.read_text().splitlines()])
        assert runs[1][:2] == runs[2][:2]
        assert len(runs[1][1]) == 6
        # in one process the caller fitted every cell; in two, it fitted
        # cell 0 and a worker at least one other, each cell once
        assert {pid for pid, *_ in runs[1][2]} == {str(os.getpid())}
        assert [str(os.getpid()), "0", "1"] in runs[2][2]
        assert len({pid for pid, *_ in runs[2][2]}) == 2
        assert sorted(fit[1:] for fit in runs[2][2]) == sorted(fit[1:] for fit in runs[1][2])

    @pytest.mark.parametrize("exc, raised, message", [
        (DivergenceError(2, 5, "overflow"), DivergenceError,
         "non-finite training loss at epoch 2, batch 5: overflow"),
        (NonFiniteError("add produced inf"), NonFiniteError, "add produced inf"),
        (Unpicklable(7, "no pickling"), RuntimeError, "Unpicklable: no pickling (7)"),
    ])
    def test_an_error_in_a_worker_is_raised_and_no_worker_outlives_it(
            self, exc, raised, message, store, monkeypatch, tmp_path):
        pin(monkeypatch, 2)

        def fail_in_worker(config, in_worker):
            if in_worker:
                raise exc

        patch_fit(monkeypatch, tmp_path, before=fail_in_worker)
        with pytest.raises(raised) as info:
            train_and_score_cells(self.cells(store))
        assert str(info.value) == message
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_an_error(self, store, monkeypatch, tmp_path):
        pin(monkeypatch, 2)

        def die_in_worker(config, in_worker):
            if in_worker:
                os._exit(3)

        patch_fit(monkeypatch, tmp_path, before=die_in_worker)
        with pytest.raises(RuntimeError, match="exit code 3"):
            train_and_score_cells(self.cells(store))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc", [DivergenceError(0, 1), KeyboardInterrupt()])
    def test_the_callers_error_terminates_a_busy_worker(self, exc, store, monkeypatch,
                                                        tmp_path):
        pin(monkeypatch, 2)

        def stall_worker_fail_caller(config, in_worker):
            if in_worker:
                time.sleep(60)
            raise exc

        start = time.monotonic()
        patch_fit(monkeypatch, tmp_path, before=stall_worker_fail_caller)
        with pytest.raises(type(exc)):
            train_and_score_cells(self.cells(store))
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30
