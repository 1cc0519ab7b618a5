import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdg.evaluate import (
    Prediction,
    accuracy,
    sliding_window_predict,
    topk_accuracy,
    topk_indices,
)
from seqdg.model import ModelConfig, SeqDGModel
from test_train import toy_store


def pred_from(verb_logits, noun_logits, k=5):
    v = np.asarray(verb_logits, dtype=float)
    n = np.asarray(noun_logits, dtype=float)
    return Prediction(action_id=0, verb_logits=v, noun_logits=n,
                      topk_verbs=topk_indices(v, min(k, v.size)),
                      topk_nouns=topk_indices(n, min(k, n.size)))


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
        assert topk_accuracy(verb, noun, verbs, nouns, k) == want

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
        assert [p.action_id for p in preds] == [r.action_id for r in target_records]

    def test_single_action_video_fully_padded(self):
        store = toy_store(n_videos=1, actions_per_video=1, domains=("T0",),
                          target=("T0",))
        cfg = ModelConfig(W=5, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=0,
                          n_heads=2, n_verbs=3, n_nouns=2, d_ff=16)
        preds = sliding_window_predict(store, SeqDGModel.init(cfg, seed=1))
        assert len(preds) == 1

    def test_per_video_isolation(self):
        # predictions for one video must not depend on other videos
        store, model = self.trained_setup()
        full = sliding_window_predict(store, model, domains=("S0", "S1"))
        solo = sliding_window_predict(store, model, domains=("S0",))
        for a, b in zip(solo, full[:len(solo)]):
            assert a.action_id == b.action_id
            assert a.verb_logits.tobytes() == b.verb_logits.tobytes()

    def test_predictions_deterministic(self):
        store, model = self.trained_setup()
        a = sliding_window_predict(store, model)
        b = sliding_window_predict(store, model)
        for x, y in zip(a, b):
            assert x.verb_logits.tobytes() == y.verb_logits.tobytes()
            assert x.noun_logits.tobytes() == y.noun_logits.tobytes()

    def test_predictions_identical_with_and_without_stored_text(self):
        # the inference path must never read text features from the store
        from seqdg.data import FeatureStore

        store, model = self.trained_setup()
        with_text = FeatureStore(store.meta, store.records, store.vocab,
                                 store.split, store.visual,
                                 np.ones(len(store.records) * store.d_t,
                                         dtype="<f4"))
        a = sliding_window_predict(store, model)
        b = sliding_window_predict(with_text, model)
        for x, y in zip(a, b):
            assert x.verb_logits.tobytes() == y.verb_logits.tobytes()
            assert x.noun_logits.tobytes() == y.noun_logits.tobytes()

    def test_evaluation_touches_no_gradient_machinery(self):
        store, model = self.trained_setup()
        sliding_window_predict(store, model)
        assert all(t.grad is None for t in model.params.tensors())
