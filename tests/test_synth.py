import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqdg.data import DataError, build_windows
from seqdg.synth import (
    Grammar,
    SynthConfig,
    bayes_accuracy_on_store,
    bayes_accuracy_sampled,
    build_recipe_grammar,
    build_truth,
    context_oracle,
    context_oracle_accuracy,
    generate,
    generate_to,
    load_truth,
    uniform_grammar,
)


def small_config(**kw):
    base = dict(n_source_domains=2, n_target_domains=1, n_ambiguous_pairs=3,
                n_verbs=8, n_nouns=5, videos_per_domain=2, actions_per_video=20,
                d_v=16, d_t=16, clips_per_action=2, seed=0)
    base.update(kw)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_default_config_is_valid(self):
        assert SynthConfig().validate() == []

    def test_pair_count_ties_verb_and_noun_counts(self):
        errs = SynthConfig(n_ambiguous_pairs=3, n_verbs=10, n_nouns=5).validate()
        assert any("n_verbs must be 8" in e for e in errs)

    def test_pair_count_must_be_multiple_of_three(self):
        errs = SynthConfig(n_ambiguous_pairs=4).validate()
        assert any("multiple of 3" in e for e in errs)

    def test_odd_feature_width_rejected(self):
        errs = SynthConfig(d_v=63).validate()
        assert any("even" in e for e in errs)


class TestGrammar:
    def test_recipe_cycle_structure(self):
        grammar, pairs = build_recipe_grammar(small_config())
        assert grammar.n_states == 8  # 2 chains of 4
        assert len(pairs) == 3
        # deterministic cycle
        assert np.array_equal(grammar.transitions.sum(axis=1), np.ones(8))
        assert np.array_equal(np.diag(grammar.transitions[:, list(range(1, 8)) + [0]]),
                              np.ones(8))

    def test_pair_members_share_noun_but_not_verb(self):
        grammar, pairs = build_recipe_grammar(small_config())
        labels = grammar.labels()
        for a, b in pairs:
            noun_a = {n for v, n in labels if v == a}
            noun_b = {n for v, n in labels if v == b}
            assert noun_a == noun_b and len(noun_a) == 1

    def test_no_pairs_variant(self):
        grammar, pairs = build_recipe_grammar(small_config(
            n_ambiguous_pairs=0, n_verbs=8, n_nouns=4))
        assert pairs == []
        assert sorted(grammar.verbs.tolist()) == list(range(8))

    def test_walk_follows_cycle(self):
        grammar, _ = build_recipe_grammar(small_config())
        states = grammar.walk(12, np.random.default_rng(0))
        for a, b in zip(states, states[1:]):
            assert b == (a + 1) % grammar.n_states


def choice_walk(grammar: Grammar, length: int, rng) -> np.ndarray:
    """The reference walk: one `rng.choice` per step."""
    states = np.empty(length, dtype=np.int64)
    state = int(rng.choice(grammar.n_states, p=grammar.start))
    for t in range(length):
        states[t] = state
        state = int(rng.choice(grammar.n_states, p=grammar.transitions[state]))
    return states


def random_grammar(n_states: int, seed: int) -> Grammar:
    rng = np.random.default_rng(seed)
    transitions = rng.random((n_states, n_states))
    transitions /= transitions.sum(axis=1, keepdims=True)
    start = rng.random(n_states)
    return Grammar(transitions=transitions, verbs=np.arange(n_states),
                   nouns=np.arange(n_states), start=start / start.sum())


WALK_GRAMMARS = {
    "recipe": lambda: build_recipe_grammar(SynthConfig())[0],
    "recipe_no_pairs": lambda: build_recipe_grammar(
        SynthConfig(n_ambiguous_pairs=0, n_verbs=24, n_nouns=15))[0],
    "uniform": lambda: uniform_grammar(range(10), [0, 1] * 5),
    "random_7": lambda: random_grammar(7, seed=11),
}


class TestWalkMatchesChoice:
    @pytest.mark.parametrize("name", sorted(WALK_GRAMMARS))
    @pytest.mark.parametrize("length", [1, 2, 7, 80])
    def test_states_and_generator_state(self, name, length):
        grammar = WALK_GRAMMARS[name]()
        for seed in range(5):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            states = grammar.walk(length, rng)
            assert states.dtype == np.int64
            assert np.array_equal(states, choice_walk(grammar, length, reference_rng))
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("bad, message", [
        ([np.nan, 0.5, 0.5], "contain NaN"),
        ([-0.1, 0.6, 0.5], "not non-negative"),
        ([0.3, 0.3, 0.3], "do not sum to 1"),
    ])
    @pytest.mark.parametrize("where", ["start", "transition row"])
    def test_bad_probabilities_raise_as_choice_does(self, bad, message, where):
        grammar = uniform_grammar(range(3), range(3))
        if where == "start":
            grammar.start = np.array(bad)
        else:
            grammar.transitions[1] = bad
        with pytest.raises(ValueError, match=message):
            np.random.default_rng(0).choice(3, p=bad)
        with pytest.raises(ValueError, match=f"{message} \\({where}"):
            grammar.walk(5, np.random.default_rng(0))

    def test_a_start_vector_of_the_wrong_size_raises(self):
        grammar = uniform_grammar(range(3), range(3))
        grammar.start = np.full(4, 0.25)
        with pytest.raises(ValueError, match="a and p must have same size"):
            np.random.default_rng(0).choice(3, p=grammar.start)
        with pytest.raises(ValueError, match="start vector: shape"):
            grammar.walk(5, np.random.default_rng(0))


class TestGenerate:
    def test_deterministic_files(self, tmp_path):
        cfg = small_config()
        generate_to(cfg, tmp_path / "a")
        generate_to(cfg, tmp_path / "b")
        for name in ("manifest.json", "actions.i64", "features.f32", "generator_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_noise_free_identity_domain_reproduces_prototypes(self):
        cfg = small_config(n_source_domains=1, n_target_domains=0,
                           n_ambiguous_pairs=0, n_verbs=8, n_nouns=4,
                           noise_sigma=0.0, domain_shift=0.0, offset_shift=0.0)
        store, truth = generate(cfg)
        for rec in store.actions[:20]:
            proto = truth.prototype(rec.verb, rec.noun)
            for clip in store.clips(rec).astype(np.float64):
                np.testing.assert_allclose(clip, proto, atol=1e-6)  # float32 storage

    def test_ambiguous_pair_prototypes_bitwise_identical(self):
        _, truth = generate(small_config())
        for a, b in truth.pairs:
            assert truth.verb_protos[a].tobytes() == truth.verb_protos[b].tobytes()

    def test_split_disjoint_and_sized(self):
        store, _ = generate(small_config())
        assert store.split.source == ("S0", "S1")
        assert store.split.target == ("T0",)
        per_domain = 2 * 20
        assert len(store.actions) == 3 * per_domain

    def test_every_ngram_repeats_across_all_domains(self):
        store, _ = generate(SynthConfig(seed=1))
        by_video = {}
        for r in store.actions:
            by_video.setdefault(r.video_id, []).append(r)
        ngram_domains = {}
        for recs in by_video.values():
            recs.sort(key=lambda r: r.temporal_index)
            labels = [r.label for r in recs]
            for n in range(2, 6):
                for i in range(len(labels) - n + 1):
                    key = tuple(labels[i:i + n])
                    ngram_domains.setdefault(key, set()).add(recs[0].domain_id)
        assert min(len(v) for v in ngram_domains.values()) >= 2

    def test_truth_roundtrip(self, tmp_path):
        cfg = small_config()
        store, truth = generate(cfg)
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth.to_dict(), sort_keys=True))
        again = load_truth(path)
        assert again.pairs == truth.pairs
        np.testing.assert_array_equal(again.verb_protos, truth.verb_protos)
        np.testing.assert_array_equal(again.transforms["S0"].rotation,
                                      truth.transforms["S0"].rotation)


def reference_generate(config):
    """The per-video draws in plain numpy: `choice_walk`, then each clip's
    float64 class mean plus `noise_sigma` times its normals, cast to
    float32, with video and domain names interned in order of appearance.
    Returns the features, the int64 columns and the two name tables."""
    truth = build_truth(config)
    grammar, length = truth.grammar, config.actions_per_video
    domains = [f"S{i}" for i in range(config.n_source_domains)] + \
              [f"T{i}" for i in range(config.n_target_domains)]
    blobs, walks, videos, domain_ids = [], [], [], []
    for d_index, domain in enumerate(domains):
        means = np.stack([truth.transforms[domain].apply(truth.prototype(verb, noun))
                          for verb, noun in grammar.labels()])
        for v_index in range(config.videos_per_domain):
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2, d_index, v_index)))
            walk = choice_walk(grammar, length, rng)
            noise = rng.standard_normal((length, config.clips_per_action, config.d_v))
            blobs.append((means[walk][:, None] + config.noise_sigma * noise).astype("<f4"))
            walks.append(walk)
            videos += [f"{domain}_v{v_index}"] * length
            domain_ids += [domain] * length
    video_names, domain_names = tuple(dict.fromkeys(videos)), tuple(dict.fromkeys(domain_ids))
    states = np.concatenate(walks)
    verbs, nouns = grammar.verbs[states], grammar.nouns[states]
    ids = np.arange(len(states))
    columns = {
        "action_id": ids, "video_id": np.array([video_names.index(v) for v in videos]),
        "domain_id": np.array([domain_names.index(d) for d in domain_ids]),
        "verb": verbs, "noun": nouns, "temporal_index": ids % length,
        "blob_offset": ids * config.clips_per_action * config.d_v,
        "n_clips": np.full(len(ids), config.clips_per_action),
        "narration_lengths": np.full(len(ids), 2),
        "narration_tokens": np.stack([verbs, config.n_verbs + nouns], 1).reshape(-1)}
    return np.concatenate([b.reshape(-1) for b in blobs]), columns, video_names, domain_names


class TestGenerateMatchesReference:
    @pytest.mark.parametrize("overrides", [
        {}, {"n_ambiguous_pairs": 0, "n_verbs": 24, "n_nouns": 15},
        {"noise_sigma": 0.3, "seed": 3}, {"n_target_domains": 0}, {"n_target_domains": 8},
        {"clips_per_action": 1},
    ], ids=["default", "no_pairs", "sigma_0.3_seed_3", "no_targets", "8_targets", "one_clip"])
    def test_features_columns_and_names_bitwise(self, overrides):
        config = SynthConfig(**overrides)
        store, _ = generate(config)
        features, columns, video_names, domain_names = reference_generate(config)
        assert store.visual.dtype == features.dtype
        assert store.visual.tobytes() == features.tobytes()
        arrays = store.actions.to_arrays()
        assert list(arrays) == list(columns)
        for name, column in columns.items():
            assert arrays[name].dtype == np.int64, name
            assert np.array_equal(arrays[name], column), name
        assert store.actions.video_names == video_names
        assert store.actions.domain_names == domain_names

    def test_one_finiteness_scan_per_generated_store(self, monkeypatch):
        config = small_config()
        size = 3 * 2 * 20 * 2 * 16  # domains, videos, actions, clips, d_v
        isfinite, scans = np.isfinite, []

        def counting_isfinite(values, *args, **kwargs):
            scans.extend([1] if np.size(values) == size else [])
            return isfinite(values, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        store, _ = generate(config)
        assert store.visual.size == size and len(scans) == 1


def truth_arrays(truth):
    """Every array of a truth, keyed by where it sits."""
    arrays = {"verb_protos": truth.verb_protos, "noun_protos": truth.noun_protos,
              "transitions": truth.grammar.transitions, "verbs": truth.grammar.verbs,
              "nouns": truth.grammar.nouns, "start": truth.grammar.start}
    for domain, t in truth.transforms.items():
        arrays.update({f"{domain}.rotation": t.rotation, f"{domain}.scaling": t.scaling,
                       f"{domain}.offset": t.offset})
    return arrays


def assert_truths_bitwise_equal(a, b):
    assert a.config == b.config and a.pairs == b.pairs
    assert list(a.transforms) == list(b.transforms)
    arrays_a, arrays_b = truth_arrays(a), truth_arrays(b)
    for key, array in arrays_a.items():
        assert array.dtype == arrays_b[key].dtype, key
        assert array.tobytes() == arrays_b[key].tobytes(), key


class TestTruthFile:
    def test_build_truth_equals_generates_truth(self):
        cfg = small_config(videos_per_domain=3)
        _, truth = generate(cfg)
        assert_truths_bitwise_equal(build_truth(cfg), truth)

    def test_file_holds_config_pairs_and_prototypes_only(self, tmp_path):
        cfg = small_config()
        generate_to(cfg, tmp_path)
        payload = json.loads((tmp_path / "generator_truth.json").read_text())
        assert sorted(payload) == ["config", "noun_protos", "pairs", "verb_protos"]
        assert payload["config"] == cfg.to_dict()
        assert payload["pairs"] == [[0, 1], [2, 3], [4, 5]]

    def test_loaded_truth_equals_generates_bitwise(self, tmp_path):
        cfg = small_config()
        generate_to(cfg, tmp_path)
        _, truth = generate(cfg)
        assert_truths_bitwise_equal(load_truth(tmp_path / "generator_truth.json"), truth)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["verb_protos"][2].__setitem__(0, p["verb_protos"][2][0] + 1e-12),
         "'verb_protos' differs"),
        (lambda p: p["noun_protos"].pop(), "'noun_protos' differs"),
        (lambda p: p["pairs"].reverse(), "'pairs' differs"),
        (lambda p: p.pop("noun_protos"), "generator truth has no key 'noun_protos'"),
        (lambda p: p.pop("config"), "generator truth has no key 'config'"),
        # the retired generator setting, and the file layout that also wrote
        # out the grammar and every transform
        (lambda p: p["config"].update(context_margin=30.0),
         "config: unknown key 'context_margin'"),
        (lambda p: p.update(grammar={}, transforms={}),
         "generator truth has an unknown key 'grammar'"),
        (lambda p: p["config"].update(mystery=1), "config: unknown key 'mystery'"),
        (lambda p: p["config"].update(seed="0"), "config: seed cannot be '0'"),
        # refused before the rebuild allocates 8 rows of 2^39 floats
        (lambda p: p["config"].update(d_v=2**40), "'verb_protos' differs"),
        (lambda p: p["noun_protos"][1].append(0.0), "'noun_protos' differs"),
        # past the rebuild's bounds, with prototypes of the shape the config
        # gives: refused before 2^40 transforms, or a 2^16 x 2^16 array
        (lambda p: p["config"].update(n_source_domains=2**40),
         "'n_source_domains' and 'n_target_domains': 1099511627777 domains, past the 1024"),
        (lambda p: p["config"].update(n_target_domains=2**40),
         "'n_source_domains' and 'n_target_domains': 1099511627778 domains, past the 1024"),
        (lambda p: p.update(config={**p["config"], "n_ambiguous_pairs": 0, "n_verbs": 4,
                                    "n_nouns": 1, "d_v": 2**16},
                            verb_protos=[[0.0] * 2**15] * 4, noun_protos=[[0.0] * 2**15]),
         f"config 'd_v': {3 * 2**32} transform floats, past the {2**25}"),
        (lambda p: p.update(config={**p["config"], "n_ambiguous_pairs": 0, "n_verbs": 2**16,
                                    "n_nouns": 1, "d_v": 2},
                            verb_protos=[[0.0]] * 2**16, noun_protos=[[0.0]]),
         f"config 'n_verbs': {2**32} transition floats, past the {2**25}"),
    ], ids=["verb_proto_nudged", "noun_proto_dropped", "pairs_reordered",
            "noun_protos_missing", "config_missing", "context_margin_retired",
            "grammar_and_transforms", "unknown_config_key", "seed_a_string",
            "d_v_past_any_allocation", "noun_proto_row_too_long",
            "source_domains_past_the_bound", "target_domains_past_the_bound",
            "transforms_past_the_bound", "transitions_past_the_bound"])
    def test_edited_file_is_data_error(self, edit, message, tmp_path):
        generate_to(small_config(), tmp_path)
        path = tmp_path / "generator_truth.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=re.escape(message)):
            load_truth(path)

    @pytest.mark.parametrize("text, message", [
        ('{"config": {', "not valid JSON"), ("[]", "generator truth must be a JSON object"),
    ], ids=["invalid_json", "a_list"])
    def test_file_not_in_the_written_form_is_data_error(self, text, message, tmp_path):
        path = tmp_path / "generator_truth.json"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_truth(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_truth_loads_or_is_data_error(self, data, tmp_path):
        path = tmp_path / "generator_truth.json"
        if not path.exists():
            generate_to(small_config(), tmp_path)
        text = path.read_text()
        try:
            path.write_text(data.draw(fuzzed_truths(text)))
            load_truth(path)
        except DataError:
            pass
        finally:
            path.write_text(text)


# a JSON value, its ints small enough that no config they set builds a
# truth past a few MB
TRUTH_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 64), st.floats(),
                         st.text(max_size=8), st.lists(st.integers(-3, 64), max_size=4))
# config keys that the prototypes' shapes or the rebuild's bounds refuse
# before a large rebuild, so any int may set them
BOUNDED_KEYS = ("n_verbs", "n_nouns", "d_v", "n_source_domains", "n_target_domains")


@st.composite
def fuzzed_truths(draw, text: str) -> str:
    """A generated truth file's `text` cut at a drawn character, with drawn
    characters appended, or with one config value, top-level value or
    prototype entry set to a drawn JSON value (or deleted)."""
    kind = draw(st.sampled_from(["cut", "pad", "config", "top", "proto"]))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "pad":
        return text + draw(st.text(min_size=1, max_size=4))
    payload = json.loads(text)
    if kind == "proto":
        rows = payload[draw(st.sampled_from(["verb_protos", "noun_protos"]))]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(TRUTH_VALUES)
        return json.dumps(payload)
    owner = payload["config"] if kind == "config" else payload
    key = draw(st.sampled_from([*sorted(owner), "mystery"]))
    if draw(st.booleans()):
        owner.pop(key, None)
    elif kind == "config" and key in BOUNDED_KEYS:
        owner[key] = draw(st.one_of(TRUTH_VALUES, st.integers(-3, 2**40)))
    else:
        owner[key] = draw(TRUTH_VALUES)
    return json.dumps(payload)


class TestContextOracle:
    def test_deterministic_grammar_reaches_full_accuracy(self):
        cfg = small_config()
        store, truth = generate(cfg)
        windows = build_windows(store.actions, W=5)
        assert context_oracle_accuracy(windows, truth.grammar) == 100.0

    def test_uniform_grammar_is_chance_on_ambiguous_pairs(self):
        # two states, identical nouns, uniform transitions: the posterior
        # ties and the tie-break picks the smaller verb every time
        grammar = uniform_grammar(verbs=[0, 1], nouns=[0, 0])
        preds = [context_oracle([(9, 9), (v, 0), (9, 9)], grammar, center=1,
                                padding=[True, False, True])
                 for v in (0, 1)]
        assert preds == [(0, 0), (0, 0)]  # 50% over a balanced sample

    def test_padding_slots_are_ignored(self):
        grammar, _ = build_recipe_grammar(small_config())
        all_labels = grammar.labels()
        # window over cycle states [0, 0(pad copy), 1(center), 2]; treating
        # the padded copy of state 0 as a real observation would make the
        # window impossible under the deterministic cycle
        labels = [all_labels[0], all_labels[0], all_labels[1], all_labels[2]]
        pred = context_oracle(labels, grammar, center=2,
                              padding=[True, False, False, False])
        assert pred == all_labels[1]

    def test_brute_force_enumeration_matches_dp(self):
        grammar, _ = build_recipe_grammar(small_config())
        rng = np.random.default_rng(7)
        labels_all = grammar.labels()
        n = grammar.n_states
        for _ in range(25):
            # random window of labels, some impossible under the cycle
            window = [labels_all[int(rng.integers(n))] for _ in range(5)]
            center = 2
            # oracle probability by brute force over all state paths
            scores = {}
            for path in np.ndindex(*(n,) * 5):
                p = grammar.start[path[0]]
                for a, b in zip(path, path[1:]):
                    p *= grammar.transitions[a, b]
                if p == 0:
                    continue
                ok = all(i == center or labels_all[s] == window[i]
                         for i, s in enumerate(path))
                if ok:
                    lab = labels_all[path[center]]
                    scores[lab] = scores.get(lab, 0.0) + p
            if scores:
                top = max(scores.values())
                expected = min(lab for lab, s in scores.items() if s == top)
            else:
                expected = min(set(labels_all))
            assert context_oracle(window, grammar, center) == expected


class TestBayesOracle:
    def test_ambiguous_samples_score_chance(self):
        _, truth = generate(small_config())
        acc = bayes_accuracy_sampled(truth, n_samples=10_000, seed=3,
                                     only_ambiguous=True)
        assert 48.0 <= acc <= 52.0

    def test_margin_between_bayes_and_context_oracle(self):
        cfg = SynthConfig(seed=2)
        store, truth = generate(cfg)
        windows = build_windows(store.actions, W=5)
        oracle = context_oracle_accuracy(windows, truth.grammar)
        bayes = bayes_accuracy_on_store(store, truth)
        assert oracle - bayes >= 30.0

    def test_noise_free_unambiguous_bayes_is_perfect(self):
        cfg = small_config(n_ambiguous_pairs=0, n_verbs=8, n_nouns=4,
                           noise_sigma=0.0)
        store, truth = generate(cfg)
        assert bayes_accuracy_on_store(store, truth) == 100.0
