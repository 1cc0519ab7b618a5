import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdg import data, evaluate
from seqdg import tensor as T
from seqdg.data import DataError, DatasetSplit, FeatureCache, FeatureStore, build_windows
from seqdg.evaluate import (
    Prediction,
    Predictions,
    accuracy,
    predict_windows,
    sliding_window_predict,
    topk_indices,
)
from seqdg.model import ModelConfig, SeqDGModel, classify, encode_sequence
from seqdg.tensor import NonFiniteError, ShapeError
from test_train import pin, toy_store


def pred_from(verb_logits, noun_logits, k=5):
    v = np.asarray(verb_logits, dtype=float)
    n = np.asarray(noun_logits, dtype=float)
    return Prediction(action_id=0, verb_logits=v, noun_logits=n,
                      topk_verbs=topk_indices(v, min(k, v.size)),
                      topk_nouns=topk_indices(n, min(k, n.size)))


def argsort_accuracy(verb_logits, noun_logits, verbs, nouns, k):
    """Top-k verb%, noun% and action% counted from a stable argsort of
    each head: the oracle `accuracy` must match."""
    hits = [(np.argsort(-logits, axis=1, kind="stable")[:, :k]
             == np.asarray(labels)[:, None]).any(axis=1)
            for logits, labels in ((verb_logits, verbs), (noun_logits, nouns))]
    return tuple(100.0 * int(hit.sum()) / len(hit) for hit in (*hits, hits[0] & hits[1]))


def logits_of(preds):
    return preds.verb_logits, preds.noun_logits


class TestTopK:
    def test_descending_with_ascending_tiebreak(self):
        logits = np.array([1.0, 3.0, 3.0, 0.5])
        assert topk_indices(logits, 3).tolist() == [1, 2, 0]

    def test_k_beyond_classes_rejected(self):
        with pytest.raises(ValueError):
            topk_indices(np.zeros(3), 4)


class TestAccuracy:
    def test_all_correct(self):
        preds = [pred_from([0, 1], [1, 0]) for _ in range(4)]
        assert accuracy(preds, [(1, 0)] * 4, k=1) == (100.0, 100.0, 100.0)

    def test_action_requires_both(self):
        preds = [pred_from([0, 5], [5, 0]) for _ in range(3)]
        verb, noun, action = accuracy(preds, [(1, 1)] * 3, k=1)
        assert (verb, noun, action) == (100.0, 0.0, 0.0)

    def test_chance_level_top5_of_300_nouns(self):
        rng = np.random.default_rng(123)
        n = 10_000
        preds = [pred_from(rng.standard_normal(5), rng.standard_normal(300))
                 for _ in range(n)]
        labels = [(0, int(rng.integers(300))) for _ in range(n)]
        _, noun5, _ = accuracy(preds, labels, k=5)
        p = 5 / 300
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(noun5 / 100.0 - p) < 3 * sigma

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=9))
    def test_action_never_exceeds_verb_or_noun(self, k, seed):
        rng = np.random.default_rng(seed)
        preds = [pred_from(rng.standard_normal(6), rng.standard_normal(5))
                 for _ in range(40)]
        labels = [(int(rng.integers(6)), int(rng.integers(5))) for _ in range(40)]
        verb, noun, action = accuracy(preds, labels, k=k)
        assert action <= min(verb, noun)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=99))
    def test_stacked_logits_rank_ties_like_topk_indices(self, k, seed):
        # few distinct values, signed zeros among them, so ties are common;
        # some labels fall outside the class range
        rng = np.random.default_rng(seed)
        values = np.array([-1.0, -0.0, 0.0, 1.0])
        verb = values[rng.integers(4, size=(30, 6))]
        noun = values[rng.integers(4, size=(30, 5))]
        verbs, nouns = rng.integers(-1, 7, size=30), rng.integers(-1, 6, size=30)

        def oracle(row):
            return sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]

        for logits in (verb, noun):
            want = [oracle(row) for row in logits.tolist()]
            assert topk_indices(logits, k).tolist() == want
            assert [topk_indices(row, k).tolist() for row in logits] == want
        v_ok = [v in oracle(row) for row, v in zip(verb.tolist(), verbs)]
        n_ok = [n in oracle(row) for row, n in zip(noun.tolist(), nouns)]
        want = (100.0 * sum(v_ok) / 30, 100.0 * sum(n_ok) / 30,
                100.0 * sum(a and b for a, b in zip(v_ok, n_ok)) / 30)
        assert argsort_accuracy(verb, noun, verbs, nouns, k) == want
        # ranked at width 1, so every k above it is ranked afresh
        preds = Predictions(np.arange(30), verb, noun, topk_indices(verb, 1),
                            topk_indices(noun, 1))
        assert accuracy(preds, np.stack((verbs, nouns), axis=1), k) == want

    def test_predictions_are_scored_from_the_ranking_they_hold(self, monkeypatch):
        # tie-heavy logits, ranked once at width 3: every k up to 3 reads
        # that ranking and ranks nothing again; k = 4 ranks afresh
        rng = np.random.default_rng(0)
        values = np.array([-1.0, -0.0, 0.0, 1.0])
        verb = values[rng.integers(4, size=(30, 6))]
        noun = values[rng.integers(4, size=(30, 5))]
        labels = list(zip(rng.integers(-1, 7, size=30).tolist(),
                          rng.integers(-1, 6, size=30).tolist()))
        preds = Predictions(np.arange(30), verb, noun, topk_indices(verb, 3),
                            topk_indices(noun, 3))
        calls = []
        monkeypatch.setattr(evaluate, "topk_indices",
                            lambda logits, k: calls.append(k) or topk_indices(logits, k))
        verbs, nouns = np.array(labels).T
        for k in (1, 2, 3, 4):
            want = argsort_accuracy(verb, noun, verbs, nouns, k)
            calls.clear()
            assert accuracy(preds, labels, k) == want
            assert calls == ([] if k < 4 else [4, 4])
        with pytest.raises(ValueError, match="top-0 of 6 classes"):
            accuracy(preds, labels, 0)

    def test_label_outside_class_range_is_a_miss(self):
        preds = [pred_from([0.0, 1.0], [1.0, 0.0])]
        assert accuracy(preds, [(7, 0)], k=1) == (0.0, 100.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy([pred_from([0.0], [0.0])], [])


class TestSlidingWindow:
    def trained_setup(self, seed=0):
        store = toy_store(n_videos=3, actions_per_video=6,
                          domains=("S0", "S1", "T0"), target=("T0",))
        cfg = ModelConfig(W=3, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=0,
                          n_heads=2, n_verbs=3, n_nouns=2, d_ff=16)
        return store, SeqDGModel.init(cfg, seed=seed)

    def test_one_prediction_per_action(self):
        store, model = self.trained_setup()
        preds = sliding_window_predict(store, model)
        target_records = store.records_for(("T0",))
        assert len(preds) == len(target_records)
        assert preds.action_ids.tolist() == [r.action_id for r in target_records]

    def test_single_action_video_fully_padded(self):
        store = toy_store(n_videos=1, actions_per_video=1, domains=("T0",),
                          target=("T0",))
        cfg = ModelConfig(W=5, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=0,
                          n_heads=2, n_verbs=3, n_nouns=2, d_ff=16)
        preds = sliding_window_predict(store, SeqDGModel.init(cfg, seed=1))
        assert len(preds) == 1

    def test_per_video_isolation(self):
        # predictions for one video must not depend on other videos: S0's
        # video scored with S1's (the source split) and alone (a store
        # whose target split is S0)
        store, model = self.trained_setup()
        full = sliding_window_predict(store, model, split="source")
        alone = FeatureStore(store.meta, store.actions, store.vocab,
                             DatasetSplit(source=("S1", "T0"), target=("S0",)), store.visual)
        solo = sliding_window_predict(alone, model)
        n = len(solo)
        assert 0 < n < len(full)
        assert solo.action_ids.tolist() == full.action_ids[:n].tolist()
        assert solo.verb_logits.tobytes() == full.verb_logits[:n].tobytes()

    def test_predictions_deterministic(self):
        store, model = self.trained_setup()
        a = sliding_window_predict(store, model)
        b = sliding_window_predict(store, model)
        assert a.verb_logits.tobytes() == b.verb_logits.tobytes()
        assert a.noun_logits.tobytes() == b.noun_logits.tobytes()

    def test_predictions_identical_with_and_without_stored_text(self):
        # the inference path must never read text features from the store
        store, model = self.trained_setup()
        with_text = FeatureStore(store.meta, store.actions, store.vocab,
                                 store.split, store.visual,
                                 np.ones(len(store.actions) * store.d_t,
                                         dtype="<f4"))
        a = sliding_window_predict(store, model)
        b = sliding_window_predict(with_text, model)
        assert a.verb_logits.tobytes() == b.verb_logits.tobytes()
        assert a.noun_logits.tobytes() == b.noun_logits.tobytes()

    def test_stacked_predictions_score_like_their_rows(self):
        store, model = self.trained_setup()
        preds = sliding_window_predict(store, model, k=2)
        labels = store.records_for(("T0",)).labels()
        rows = [Prediction(action_id, preds.verb_logits[i], preds.noun_logits[i],
                           preds.topk_verbs[i], preds.topk_nouns[i])
                for i, action_id in enumerate(preds.action_ids.tolist())]
        for k in (1, 2, 3):
            assert accuracy(preds, labels, k) == accuracy(rows, labels, k)

    def test_evaluation_touches_no_gradient_machinery(self):
        store, model = self.trained_setup()
        sliding_window_predict(store, model)
        assert all(t.grad is None for t in model.params.tensors())


def serial_logits(cache, model, windows, batch):
    """The one-thread loop that `predict_windows` must equal bitwise."""
    parts = [model.predict_logits(cache.batch(windows[start:start + batch]).visual)
             for start in range(0, len(windows), batch)]
    return (np.concatenate([verb for verb, _noun in parts]),
            np.concatenate([noun for _verb, noun in parts]))


class ThreadLog:
    """Wraps a `predict_rows` to record the thread and the window rows of
    every chunk it scores. With `pool_first`, the calling thread's calls
    wait (up to 10 s) until a pool thread has begun one, so that a pool
    thread scores at least one chunk; with `poison`, a pool thread's chunk
    is scored from a table of NaN."""

    def __init__(self, predict, pool_first=False, poison=False):
        self.predict, self.pool_first, self.poison = predict, pool_first, poison
        self.calls = []
        self.pool_began = threading.Event()

    def __call__(self, table, rows):
        thread = threading.current_thread()
        self.calls.append((thread, rows.tobytes()))
        if thread is threading.main_thread():
            if self.pool_first:
                assert self.pool_began.wait(timeout=10), "no pool thread scored a chunk"
        else:
            self.pool_began.set()
            if self.poison:
                table = np.full_like(table, np.nan)
        return self.predict(table, rows)

    def threads(self) -> set:
        return {thread for thread, _chunk in self.calls}


def check_threads_ended(before: int):
    """The thread count is back to `before`; leftovers are joined with a
    timeout so that a failure cannot hang the run."""
    after = threading.active_count()
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=10)
    assert after == before


class TestThreadedScoring:
    BATCH = 2

    @pytest.fixture
    def scoring(self, monkeypatch):
        """A 24-window store scored `BATCH` windows at a time."""
        monkeypatch.setattr(evaluate, "INFERENCE_BATCH", self.BATCH)
        store = toy_store(n_videos=3, actions_per_video=8)
        actions = store.records_for(store.split.source)
        cfg = ModelConfig(W=3, D=8, D_V=6, D_T=8, n_enc_layers=2, n_dec_layers=0,
                          n_heads=2, n_verbs=3, n_nouns=2, d_ff=16)
        return (FeatureCache(store, actions), SeqDGModel.init(cfg, seed=3),
                build_windows(actions, cfg.W))

    def chunks(self, windows):
        return sorted(windows.rows[start:start + self.BATCH].tobytes()
                      for start in range(0, len(windows), self.BATCH))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n_windows", [1, 3, 4, 5, 6, 7, 12, 13, 24])
    def test_logits_bitwise_equal_the_serial_loop(self, cpus, n_windows, scoring,
                                                  monkeypatch):
        # 1 to 12 chunks: below, at and above each thread count
        cache, model, windows = scoring
        windows = windows[:n_windows]
        want = serial_logits(cache, model, windows, self.BATCH)
        pin(monkeypatch, cpus)
        chunks = -(-n_windows // self.BATCH)
        n = min(cpus, chunks // 2) or 1
        assert evaluate.scoring_threads(chunks) == n
        log = model.predict_rows = ThreadLog(model.predict_rows, pool_first=n > 1)
        before = threading.active_count()
        verb, noun = logits_of(predict_windows(cache, model, windows))
        check_threads_ended(before)
        assert verb.tobytes() == want[0].tobytes() and noun.tobytes() == want[1].tobytes()
        # every chunk scored once, by at most n threads, and by a pool
        # thread exactly when n > 1 (on tiny chunks a pool thread may claim
        # them all before the calling thread claims one)
        assert sorted(chunk for _thread, chunk in log.calls) == self.chunks(windows)
        assert len(log.threads()) <= n
        assert (log.threads() != {threading.main_thread()}) == (n > 1)

    def test_nonfinite_chunk_on_a_pool_thread_propagates(self, scoring, monkeypatch):
        cache, model, windows = scoring
        pin(monkeypatch, 2)
        log = model.predict_rows = ThreadLog(model.predict_rows, pool_first=True,
                                             poison=True)
        before = threading.active_count()
        with pytest.raises(NonFiniteError):
            predict_windows(cache, model, windows)
        check_threads_ended(before)
        assert log.threads() != {threading.main_thread()}

    def test_four_threads_on_two_cores_with_constant_switching(self, scoring, monkeypatch):
        cache, model, windows = scoring
        want = serial_logits(cache, model, windows, self.BATCH)
        pin(monkeypatch, 4)
        predict = model.predict_rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = threading.active_count()
            for _ in range(3):
                log = model.predict_rows = ThreadLog(predict)
                verb, noun = logits_of(predict_windows(cache, model, windows))
                assert verb.tobytes() == want[0].tobytes()
                assert noun.tobytes() == want[1].tobytes()
                assert sorted(chunk for _t, chunk in log.calls) == self.chunks(windows)
                assert len(log.threads()) <= 4
        finally:
            sys.setswitchinterval(interval)
        check_threads_ended(before)

    @pytest.mark.parametrize("env, cpus, n", [
        ({}, 2, 1),                                         # BLAS unpinned
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "x"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ])
    def test_thread_count_follows_cpus_and_blas(self, env, cpus, n, monkeypatch):
        pin(monkeypatch, cpus, blas=None)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert evaluate.scoring_threads(100) == n

    def test_each_thread_gets_two_chunks(self, monkeypatch):
        pin(monkeypatch, 4)
        assert [evaluate.scoring_threads(c) for c in range(10)] == [1, 1, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_cpu_count_when_affinity_is_unknown(self, monkeypatch):
        pin(monkeypatch, 1)
        monkeypatch.delattr(evaluate.os, "sched_getaffinity")
        monkeypatch.setattr(evaluate.os, "cpu_count", lambda: 3)
        assert evaluate.scoring_threads(100) == 3


class TestProjectedScoring:
    """`predict_windows` projects each action of the cache once and scores
    every chunk from that table."""

    BATCH = 4

    def setup(self, monkeypatch, W, cpus=1, n_videos=3, actions_per_video=7):
        """By default 21 windows (6 chunks, the last one short) over three
        videos."""
        monkeypatch.setattr(evaluate, "INFERENCE_BATCH", self.BATCH)
        pin(monkeypatch, cpus)
        store = toy_store(n_videos=n_videos, actions_per_video=actions_per_video)
        actions = store.records_for(store.split.source)
        cfg = ModelConfig(W=W, D=8, D_V=6, D_T=8, n_enc_layers=2, n_dec_layers=0,
                          n_heads=2, n_verbs=3, n_nouns=2, d_ff=16)
        return (FeatureCache(store, actions), SeqDGModel.init(cfg, seed=W),
                build_windows(actions, W))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("W", [1, 3, 5, 7])
    def test_bitwise_equal_to_the_per_window_oracle(self, W, cpus, monkeypatch):
        cache, model, windows = self.setup(monkeypatch, W, cpus)
        assert evaluate.scoring_threads(6) == cpus
        verb, noun = logits_of(predict_windows(cache, model, windows))
        with T.no_grad():
            want = [classify(encode_sequence(cache.batch(windows[i:i + 1]).visual,
                                             model.params).cls_slots, model.params)
                    for i in range(len(windows))]
        assert verb.tobytes() == np.concatenate([v.data for v, _n in want]).tobytes()
        assert noun.tobytes() == np.concatenate([n.data for _v, n in want]).tobytes()

    @pytest.mark.parametrize("W", [1, 3, 5, 7])
    def test_a_one_action_table_scores_like_its_window(self, W, monkeypatch):
        # every slot of the one window is the one action
        cache, model, windows = self.setup(monkeypatch, W, n_videos=1, actions_per_video=1)
        assert len(cache.actions) == 1
        verb, _noun = logits_of(predict_windows(cache, model, windows))
        with T.no_grad():
            want, _ = classify(encode_sequence(cache.batch(windows).visual,
                                               model.params).cls_slots, model.params)
        assert verb.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("W", [1, 5])
    def test_each_action_is_projected_once_per_call(self, W, cpus, monkeypatch):
        cache, model, windows = self.setup(monkeypatch, W, cpus)
        rows = []
        affine = T._affine

        def counting_affine(x, w, b):
            if w is model.params.proj.weight.data:
                rows.append(int(np.prod(x.shape[:-1])))
            return affine(x, w, b)

        monkeypatch.setattr(T, "_affine", counting_affine)
        predict_windows(cache, model, windows)
        assert rows == [len(cache.actions)] == [21]
        rows.clear()
        predict_windows(cache, model, windows[:5])
        assert rows == [21]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_shuffled_windows_give_their_centres_in_that_order(self, cpus, monkeypatch):
        cache, model, windows = self.setup(monkeypatch, 5, cpus)
        idx = np.random.default_rng(0).permutation(len(windows))
        whole = predict_windows(cache, model, windows, k=2)
        preds = predict_windows(cache, model, windows[idx], k=2)
        assert whole.action_ids.tolist() == cache.actions.ids.tolist()
        centres = windows.rows[idx, windows.center]
        assert preds.action_ids.tolist() == cache.actions.ids[centres].tolist()
        assert preds.action_ids.tolist() == whole.action_ids[idx].tolist()
        np.testing.assert_allclose(preds.verb_logits, whole.verb_logits[idx])
        np.testing.assert_allclose(preds.noun_logits, whole.noun_logits[idx])
        assert preds.topk_verbs.shape == preds.topk_nouns.shape == (len(idx), 2)

    def test_no_windows_give_empty_predictions(self, monkeypatch):
        cache, model, windows = self.setup(monkeypatch, 3)
        preds = predict_windows(cache, model, windows[:0], k=2)
        assert len(preds) == 0
        assert preds.verb_logits.shape == (0, 3) and preds.noun_logits.shape == (0, 2)
        assert preds.topk_verbs.shape == preds.topk_nouns.shape == (0, 2)

    def test_scoring_builds_no_batch_and_reads_no_narration(self, monkeypatch):
        cache, model, windows = self.setup(monkeypatch, 5, cpus=2)
        calls = []
        for owner, name in ((FeatureCache, "batch"), (data, "_token_gather")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, _name=name, _original=original:
                                calls.append(_name) or _original(*args))
        predict_windows(cache, model, windows)
        assert calls == []
        cache.batch(windows[:1])
        assert calls == ["batch", "_token_gather"]

    def test_windows_over_another_table_are_a_data_error(self, monkeypatch):
        cache, model, windows = self.setup(monkeypatch, 3)
        other = build_windows(cache.actions[:], 3)
        with pytest.raises(DataError, match="windows over another table"):
            predict_windows(cache, model, other)

    def test_windows_of_another_length_are_a_shape_error(self, monkeypatch):
        cache, model, _windows = self.setup(monkeypatch, 3, cpus=2)
        before = threading.active_count()
        with pytest.raises(ShapeError, match="expected windows of 3 rows"):
            predict_windows(cache, model, build_windows(cache.actions, 5))
        check_threads_ended(before)

    @pytest.mark.parametrize("row", [0, 20])
    def test_a_nan_feature_is_nonfinite_and_no_thread_outlives_the_call(self, row,
                                                                        monkeypatch):
        cache, model, windows = self.setup(monkeypatch, 5, cpus=2)
        cache.visual[row, 1] = np.nan
        before = threading.active_count()
        with pytest.raises(NonFiniteError):
            predict_windows(cache, model, windows)
        check_threads_ended(before)
