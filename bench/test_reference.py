"""Tests of the benchmark's correctness helpers and of the speed probe's
arithmetic. Each helper is checked on a case worked out by hand or
against the program, and on a case where one corrupted parameter must be
caught."""

import numpy as np
import pytest

import reference
import speed
from seqdg.data import ActionRecord
from seqdg.evaluate import Prediction, accuracy
from seqdg.model import ModelConfig, SeqDGModel
from seqdg.synth import SynthConfig, generate

SMALL = ModelConfig(W=3, D=8, D_V=6, D_T=8, n_enc_layers=2, n_dec_layers=1,
                    n_heads=2, n_verbs=5, n_nouns=4, d_ff=16)


def _record(i, video, t, verb=0, noun=0, domain="T0"):
    return ActionRecord(action_id=i, video_id=video, domain_id=domain, verb=verb,
                        noun=noun, narration=(0,), temporal_index=t,
                        blob_offset=0, n_clips=1)


def _max_logit_error(named, model, x):
    verb, noun = model.predict_logits(x)
    ref_verb, ref_noun = reference.reference_logits(named, model.config, x)
    return max(np.abs(verb - ref_verb).max(), np.abs(noun - ref_noun).max())


class TestReferenceForward:
    def test_matches_predict_logits(self):
        model = SeqDGModel.init(SMALL, seed=3)
        x = np.random.default_rng(0).standard_normal((4, 3, 6))
        assert _max_logit_error(model.params.named(), model, x) < 1e-12

    def test_corrupted_parameter_is_caught(self):
        model = SeqDGModel.init(SMALL, seed=3)
        x = np.random.default_rng(0).standard_normal((4, 3, 6))
        named = {k: v.data.copy() for k, v in model.params.named().items()}
        named["enc.1.ff_in.weight"][2, 5] += 1e-3
        assert _max_logit_error(named, model, x) > 1e-8

    def test_cross_entropy_of_uniform_logits(self):
        model = SeqDGModel.init(SMALL, seed=0)
        named = {k: v.data.copy() for k, v in model.params.named().items()}
        for head in ("head_verb", "head_noun"):
            named[f"{head}.weight"][:] = 0.0
            named[f"{head}.bias"][:] = 0.0
        x = np.zeros((2, 3, 6))
        loss = reference.reference_cross_entropy(named, SMALL, x, [0, 4], [1, 3])
        assert loss == pytest.approx(np.log(5) + np.log(4))


class TestWindows:
    def test_replicate_padding_per_video_in_temporal_order(self):
        records = [_record(0, "a", 2), _record(1, "b", 0), _record(2, "a", 0),
                   _record(3, "a", 1)]
        assert reference.window_indices(records, 5) == [
            [2, 3, 0, 0, 0], [1, 1, 1, 1, 1], [2, 2, 2, 3, 0], [2, 2, 3, 0, 0]]

    def test_matches_the_store_features(self):
        store, _truth = generate(SynthConfig(seed=1, videos_per_domain=1,
                                             actions_per_video=6))
        records = store.records_for(store.split.target)
        x = reference.window_features(store, records, 3)
        assert x.shape == (6, 3, store.d_v)
        np.testing.assert_array_equal(
            x[0, 1], store.clips(records[0]).astype(np.float64).mean(axis=0))
        np.testing.assert_array_equal(x[0, 0], x[0, 1])


class TestCeiling:
    def test_hand_worked_groups(self):
        truth = {"verb_protos": [[0.0], [0.0], [1.0]], "noun_protos": [[0.0]]}
        # verbs 0 and 1 share a prototype: 3 + 1 actions, of which at most 3 right
        records = [_record(i, "v", i, verb=v) for i, v in enumerate([0, 0, 0, 1, 2, 2])]
        assert reference.single_action_ceiling(truth, records) == pytest.approx(500 / 6)

    def test_generated_pairs_cap_the_ceiling_and_a_corrupted_prototype_lifts_it(self):
        store, truth = generate(SynthConfig(seed=0))
        payload = truth.to_dict()
        records = store.records_for(store.split.target)
        ceiling = reference.single_action_ceiling(payload, records)
        assert 50.0 < ceiling < 80.0
        for a, b in payload["pairs"]:
            payload["verb_protos"][b] = [v + 1.0 for v in payload["verb_protos"][b]]
        assert reference.single_action_ceiling(payload, records) == 100.0


class TestTopkRecount:
    def test_ties_rank_the_smaller_class_first(self):
        verb = np.array([[1.0, 3.0, 3.0], [0.0, 0.0, 0.0]])
        noun = np.array([[2.0, 1.0], [0.0, 5.0]])
        assert reference.topk_recount(verb, noun, [2, 0], [0, 1], 1) == (50.0, 100.0, 50.0)
        assert reference.topk_recount(verb, noun, [2, 0], [0, 1], 2) == (100.0, 100.0, 100.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_agrees_with_the_program_and_catches_a_corrupted_logit(self, k):
        rng = np.random.default_rng(k)
        verb = rng.standard_normal((50, 6))
        noun = rng.standard_normal((50, 5))
        verbs = rng.integers(0, 6, 50)
        nouns = rng.integers(0, 5, 50)
        preds = [Prediction(i, verb[i], noun[i], None, None) for i in range(50)]
        labels = list(zip(verbs.tolist(), nouns.tolist()))
        assert reference.topk_recount(verb, noun, verbs, nouns, k) == accuracy(preds, labels, k)
        hit = next(i for i in range(50)
                   if verbs[i] in np.argsort(-verb[i], kind="stable")[:k])
        corrupted = verb.copy()
        corrupted[hit, verbs[hit]] = -100.0
        assert reference.topk_recount(corrupted, noun, verbs, nouns, k) != accuracy(
            preds, labels, k)


class TestSpeedProbe:
    def test_stretches_scale_by_the_mean_of_their_probes_and_skip_probe_time(self):
        probe = speed.SpeedProbe(enabled=False)
        ref = speed.REFERENCE_S
        probe.marks = [(0.0, 1.0, ref), (3.0, 4.0, 3 * ref), (4.5, 5.0, ref)]
        assert probe.seconds(0, 1) == pytest.approx(2.0 / 2)
        assert probe.seconds(0, 2) == pytest.approx(2.0 / 2 + 0.5 / 2)

    def test_a_disabled_probe_takes_no_time_and_scales_by_one(self):
        probe = speed.SpeedProbe(enabled=False)
        first = probe.sample()
        last = probe.sample()
        assert probe.marks[first][1] - probe.marks[first][0] < 1e-3
        assert probe.seconds(first, last) == pytest.approx(
            probe.marks[last][0] - probe.marks[first][1])
        assert probe.speed() == 1.0
