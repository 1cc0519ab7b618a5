import itertools
import json
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdg.data import (
    ActionRecord,
    Actions,
    DataError,
    DatasetSplit,
    FeatureCache,
    FeatureStore,
    NarrationEmbedder,
    SeqMixPool,
    SeqMixStats,
    Windows,
    build_windows,
    import_csv_dataset,
    read_annotation_csv,
    seqmix,
    write_annotation_csv,
)
from seqdg.data import _first_failing_action


def record_columns(records) -> dict:
    """The manifest columns of `ActionRecord`s, in their order."""
    columns = {f.name: [getattr(r, f.name) for r in records]
               for f in fields(ActionRecord) if f.name != "narration"}
    columns["narration_lengths"] = [len(r.narration) for r in records]
    columns["narration_tokens"] = [token for r in records for token in r.narration]
    return columns


def table(records):
    """The `Actions` table of hand-built `ActionRecord`s, in their order."""
    return Actions.from_columns(**record_columns(records))


def table_values(actions: Actions) -> tuple:
    """A table as plain values: its int64 columns and its name tables."""
    return ({name: column.tolist() for name, column in actions.to_arrays().items()},
            actions.video_names, actions.domain_names)


def to_v2(manifest: dict, records) -> dict:
    """A manifest in the version-2 layout: its header, with the action
    columns of `records` (the store's, in order) as JSON lists."""
    return {**manifest, "version": 2, "actions": record_columns(records)}


def to_v1(manifest: dict) -> dict:
    """A version-2 manifest in the version-1 layout: one object per action,
    its narration a list of tokens."""
    columns = dict(manifest["actions"])
    tokens = iter(columns.pop("narration_tokens"))
    columns["narration"] = [list(itertools.islice(tokens, n))
                            for n in columns.pop("narration_lengths")]
    return {**manifest, "version": 1,
            "actions": [dict(zip(columns, values)) for values in zip(*columns.values())]}


def make_record(i, video="v0", domain="S0", verb=0, noun=0, t=None, d_v=4, clips=2):
    return ActionRecord(action_id=i, video_id=video, domain_id=domain, verb=verb,
                        noun=noun, narration=(verb, noun), temporal_index=t if t is not None else i,
                        blob_offset=i * clips * d_v, n_clips=clips)


def make_store(n_actions=6, d_v=4, clips=2, n_videos=2, domains=("S0", "S1"),
               targets=(), seed=0, with_text=False, d_t=3):
    rng = np.random.default_rng(seed)
    per_video = n_actions // n_videos
    records = []
    for i in range(n_actions):
        vid = i // per_video
        records.append(ActionRecord(
            action_id=i, video_id=f"v{vid}", domain_id=domains[vid % len(domains)],
            verb=i % 3, noun=i % 2, narration=(i % 3, 3 + i % 2),
            temporal_index=i % per_video, blob_offset=i * clips * d_v, n_clips=clips))
    visual = rng.standard_normal(n_actions * clips * d_v).astype("<f4")
    text = rng.standard_normal(n_actions * d_t).astype("<f4") if with_text else None
    vocab = ["a", "b", "c", "d", "e"]
    split = DatasetSplit(source=tuple(d for d in domains if d not in targets),
                         target=tuple(targets))
    meta = {"name": "toy", "d_v": d_v, "d_t": d_t, "clips_per_action": clips}
    return FeatureStore(meta, table(records), vocab, split, visual, text)


# one bad value per action that leaves the blob size unchanged, and the
# start of the message that names it
CORRUPT_ACTIONS = {
    "id_out_of_range": (lambda r: replace(r, action_id=-1), "action id -1 outside"),
    "duplicate_id": (lambda r: replace(r, action_id=0), "duplicate action id 0"),
    "negative_noun": (lambda r: replace(r, noun=-1), "action {id}: negative label"),
    "offset_past_the_end": (lambda r: replace(r, blob_offset=10**6),
                            "action {id}: feature handle out of bounds"),
    "token_out_of_vocab": (lambda r: replace(r, narration=(0, 5)),
                           "action {id}: narration token out of vocab"),
}


EXTREME_INTS = st.sampled_from([-2**64, -2**63, 2**31, 2**62, 2**63 - 1, 2**63, 10**30])
# ints an int64 column can hold: each action rule's boundary values and
# both ends of int64
INT64_INTS = st.sampled_from([0, -1, 1, 2, 5, 8, -2, -2**63, 2**31, 2**62, 2**63 - 1])


def window_indices(records, W):
    """Index lists of W consecutive actions, one window per record, in
    record order. Each video is ordered by temporal index and slots past
    either end repeat the nearest action of the video. (The benchmark's
    reference window builder, kept apart from the program.)"""
    by_video = {}
    for i, rec in enumerate(records):
        by_video.setdefault(rec.video_id, []).append(i)
    half = (W - 1) // 2
    windows = {}
    for members in by_video.values():
        members.sort(key=lambda i: records[i].temporal_index)
        n = len(members)
        for pos, i in enumerate(members):
            windows[i] = [members[min(max(pos + off, 0), n - 1)]
                          for off in range(-half, half + 1)]
    return [windows[i] for i in range(len(records))]


def first_failing_reference(records, d_v, size, vocab):
    """The index of the first action that fails a manifest check, one
    action at a time in plain Python integers; None when all pass."""
    seen = set()
    for i, r in enumerate(records):
        if (not 0 <= r.action_id < len(records) or r.action_id in seen
                or r.verb < 0 or r.noun < 0 or r.n_clips < 1 or r.blob_offset < 0
                or r.blob_offset + r.n_clips * d_v > size
                or any(t < 0 or t >= vocab for t in r.narration)):
            return i
        seen.add(r.action_id)
    return None


class TestFeatureStore:
    def test_blob_length_validated(self):
        with pytest.raises(DataError, match="blob"):
            store = make_store()
            FeatureStore(store.meta, store.actions, store.vocab, store.split,
                         store.visual[:-1])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_built_store_refuses_non_finite_floats(self, value):
        # actions in reverse blob order: the action named is the one whose
        # floats hold the value, not the one at its row
        store = make_store(with_text=True)
        actions = store.actions.take(np.arange(len(store.actions))[::-1])
        for what, index, action in (("feature blob", 9, 1), ("text blob", 14, 4)):
            visual, text = store.visual.copy(), store.text.copy()
            (visual if what == "feature blob" else text)[index] = value
            with pytest.raises(DataError, match=f"^{what} holds NaN or Inf, first in the "
                                                f"features of action {action}$"):
                FeatureStore(store.meta, actions, store.vocab, store.split, visual, text)

    def test_a_non_finite_float_no_action_reads_is_named_by_index(self):
        # two actions share their clips, so the blob's last 8 floats are read by none
        records = [make_record(0), make_record(1, t=1)]
        records[1] = replace(records[1], blob_offset=0)
        visual = np.zeros(16, dtype="<f4")
        visual[12] = np.nan
        with pytest.raises(DataError, match="^feature blob holds NaN or Inf, first in "
                                            "float 12$"):
            FeatureStore({"name": "shared", "d_v": 4, "d_t": 1, "clips_per_action": 2},
                         table(records), ["a"], DatasetSplit(("S0",), ()), visual)

    def test_roundtrip_is_bitwise(self, tmp_path):
        store = make_store(with_text=True, seed=3)
        store.save(tmp_path / "ds")
        again = FeatureStore.load(tmp_path / "ds")
        assert again.visual.tobytes() == store.visual.tobytes()
        assert again.text.tobytes() == store.text.tobytes()
        assert list(again.actions) == list(store.actions)
        assert again.vocab == store.vocab
        assert again.split == store.split
        for rec in store.actions:
            assert np.array_equal(again.clips(rec), store.clips(rec))

    @pytest.mark.parametrize("with_text", [False, True])
    def test_save_load_save_is_byte_identical(self, tmp_path, with_text):
        make_store(with_text=with_text, seed=4).save(tmp_path / "a")
        FeatureStore.load(tmp_path / "a").save(tmp_path / "b")
        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("with_text", [False, True])
    def test_manifest_is_compact_json_of_the_indented_layouts_value(self, tmp_path, with_text):
        store = make_store(n_actions=12, n_videos=3, domains=("S0", "T0", "S1"),
                           targets=("T0",), with_text=with_text, seed=5)
        # the version-3 value: a header whose action table is an int64 blob
        # of the columns back to back, then the tokens, built from the
        # store's own fields
        records = list(store.actions)
        expected = {
            "format": "seqdg.dataset", "version": 3, "name": "toy", "d_v": 4, "d_t": 3,
            "clips_per_action": 2, "feature_blob": "features.f32", "vocab": store.vocab,
            "domains": [{"id": "S0", "split": "source"}, {"id": "S1", "split": "source"},
                        {"id": "T0", "split": "target"}],
            "actions": {"blob": "actions.i64", "n_actions": 12, "n_tokens": 24,
                        "video_names": ["v0", "v1", "v2"], "domain_names": ["S0", "T0", "S1"]}}
        if with_text:
            expected["text_blob"] = "text_features.f32"
        text = store.save(tmp_path / "ds").read_text(encoding="utf-8")
        assert json.loads(text) == expected
        assert text == json.dumps(expected, sort_keys=True, separators=(",", ":"))
        codes = {"video_id": expected["actions"]["video_names"].index,
                 "domain_id": expected["actions"]["domain_names"].index}
        blob = [codes.get(name, int)(getattr(r, name)) for name in (
            "action_id", "video_id", "domain_id", "verb", "noun", "temporal_index",
            "blob_offset", "n_clips") for r in records]
        blob += [len(r.narration) for r in records] + [t for r in records for t in r.narration]
        assert (tmp_path / "ds" / "actions.i64").read_bytes() == struct.pack(f"<{len(blob)}q",
                                                                          *blob)

    @pytest.mark.parametrize("with_text", [False, True])
    def test_an_indented_manifest_loads_the_same_store(self, tmp_path, with_text):
        store = make_store(n_actions=12, n_videos=3, domains=("S0", "T0", "S1"),
                           targets=("T0",), with_text=with_text, seed=6)
        path = store.save(tmp_path / "ds")
        path.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8")),
                                   indent=1, sort_keys=True), encoding="utf-8")
        again = FeatureStore.load(path)
        assert table_values(again.actions) == table_values(store.actions)
        assert (again.split, again.vocab, again.meta) == (store.split, store.vocab, store.meta)
        assert again.visual.tobytes() == store.visual.tobytes()
        if with_text:
            assert again.text.tobytes() == store.text.tobytes()

    def test_each_split_is_one_table_and_an_empty_one_is_refused(self):
        store = make_store(domains=("S0", "T0"), targets=("T0",))
        for split in ("source", "target"):
            actions = store.split_actions(split)
            assert actions is store.split_actions(split)
            domains = getattr(store.split, split)
            assert actions.ids.tolist() == store.records_for(domains).ids.tolist()
        with pytest.raises(DataError, match="the dataset's target domains hold no actions"):
            make_store().split_actions("target")

    def test_split_domains_must_be_disjoint(self):
        with pytest.raises(DataError, match="overlap"):
            DatasetSplit(source=("S0", "S1"), target=("S1",))

    @pytest.mark.parametrize("ids", [(0, 0, 2, 3, 4, 5), (0, 1, 2, 3, 4, 6), (-1, 1, 2, 3, 4, 5)])
    def test_action_ids_must_be_dense_and_unique(self, ids):
        store = make_store()
        records = [replace(r, action_id=i) for r, i in zip(store.actions, ids)]
        with pytest.raises(DataError, match="action id"):
            FeatureStore(store.meta, table(records), store.vocab, store.split, store.visual)

    @pytest.mark.parametrize("first, second",
                             itertools.permutations(sorted(CORRUPT_ACTIONS), 2))
    def test_first_of_two_corrupt_actions_is_named(self, first, second):
        store = make_store(n_actions=12)
        records = list(store.actions)
        records[4] = CORRUPT_ACTIONS[first][0](records[4])
        records[9] = CORRUPT_ACTIONS[second][0](records[9])
        with pytest.raises(DataError) as exc:
            FeatureStore(store.meta, table(records), store.vocab, store.split, store.visual)
        assert str(exc.value).startswith(CORRUPT_ACTIONS[first][1].format(id=4))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 8),
           d_v=st.one_of(st.integers(-1, 4), st.integers(1, 4), EXTREME_INTS),
           size=st.integers(0, 40), data=st.data())
    def test_masks_find_the_action_the_scalar_checks_reject(self, n, d_v, size, data):
        # rows that keep the id, label, clip and token rules, then one to
        # three fields set to drawn ints inside int64, as one table of int64
        # columns, so that the first failing row is often not the first row
        # and breaks one rule only; `d_v` comes from the manifest's JSON, so
        # it may be any int
        small = st.integers(0, 3)
        rows = [[i, data.draw(small), data.draw(small), data.draw(st.integers(0, 4)),
                 data.draw(st.integers(1, 2)), data.draw(st.lists(st.integers(0, 4), max_size=3))]
                for i in data.draw(st.permutations(range(n)))]
        for _ in range(data.draw(st.integers(1, 3)) if n else 0):
            row = rows[data.draw(st.integers(0, n - 1))]
            field = data.draw(st.integers(0, 5))
            if field == 5:
                row[5] = row[5] + [data.draw(INT64_INTS)]
            else:
                row[field] = data.draw(INT64_INTS)
        records = [ActionRecord(action_id=a, video_id="v", domain_id="S0", verb=v, noun=u,
                                narration=tuple(tokens), temporal_index=0, blob_offset=o,
                                n_clips=c) for a, v, u, o, c, tokens in rows]
        got = _first_failing_action(table(records), d_v, size, vocab=5)
        if d_v < 1:
            assert got == 0  # the scalar checks then run over every action
        else:
            assert got == first_failing_reference(records, d_v, size, vocab=5)

    @pytest.mark.parametrize("temporal", [(0, 1, 3), (0, 1, 1), (1, 0, 0)])
    def test_each_split_orders_into_videos(self, temporal):
        # the split's actions must window: each video's temporal indices
        # consecutive and unique, in any row order
        records = [make_record(i, t=t) for i, t in enumerate(temporal)]
        with pytest.raises(DataError, match="'v0': temporal indices must be consecutive"):
            FeatureStore({"name": "gap", "d_v": 4, "d_t": 1, "clips_per_action": 2},
                         table(records), ["a"], DatasetSplit(("S0",), ()),
                         np.zeros(3 * 2 * 4, dtype="<f4"))

    def test_clips_shape(self):
        store = make_store()
        clips = store.clips(store.actions[0])
        assert clips.shape == (2, 4)


class TestBuildWindows:
    def test_replicate_padding_at_video_start(self):
        records = [make_record(i) for i in range(7)]
        windows = build_windows(table(records), W=5)
        assert len(windows) == 7
        assert windows.actions.ids[windows.rows[0]].tolist() == [0, 0, 0, 1, 2]
        assert windows.padding[0].tolist() == [True, True, False, False, False]
        assert windows.center == 2

    def test_degenerate_single_slot_windows(self):
        records = [make_record(i) for i in range(3)]
        windows = build_windows(table(records), W=1)
        assert windows.rows.tolist() == [[0], [1], [2]]
        assert windows.padding.tolist() == [[False]] * 3

    def test_counting_bijection_on_random_corpus(self):
        rng = np.random.default_rng(5)
        records = []
        i = 0
        for vid in range(10):
            length = int(rng.integers(1, 20))
            for t in range(length):
                records.append(make_record(i, video=f"v{vid}", t=t))
                i += 1
        windows = build_windows(table(records), W=5)
        assert len(windows) == len(records)
        centers = sorted(windows.actions.ids[windows.rows[:, windows.center]].tolist())
        assert centers == sorted(r.action_id for r in records)

    def test_even_window_rejected(self):
        with pytest.raises(DataError):
            build_windows(table([make_record(0)]), W=4)

    def test_nonconsecutive_indices_rejected(self):
        bad = [make_record(0, t=0), make_record(1, t=2)]
        with pytest.raises(DataError, match="consecutive"):
            build_windows(table(bad), W=3)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6)), min_size=1,
                    max_size=4),
           st.sampled_from([1, 3, 5, 7]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_array_windows_match_the_reference_oracle(self, videos, w, data):
        # several videos, each starting at its own temporal index, their
        # records in any order
        ordered = [(f"v{v}", start + t) for v, (start, n) in enumerate(videos)
                   for t in range(n)]
        shuffled = data.draw(st.permutations(ordered))
        records = [make_record(i, video=video, t=t) for i, (video, t) in enumerate(shuffled)]
        windows = build_windows(table(records), W=w)
        assert windows.rows.tolist() == window_indices(records, w)
        half = w // 2
        assert windows.padding.tolist() == [
            [not videos[int(r.video_id[1:])][0] <= r.temporal_index + off
             < sum(videos[int(r.video_id[1:])]) for off in range(-half, half + 1)]
            for r in records]

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
           st.sampled_from([1, 3, 5, 7]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_center_of_window_i_is_action_i(self, lengths, w, data):
        # several videos, their records in any order
        ordered = [(f"v{v}", t) for v, n in enumerate(lengths) for t in range(n)]
        shuffled = data.draw(st.permutations(ordered))
        records = [make_record(i, video=video, t=t) for i, (video, t) in enumerate(shuffled)]
        windows = build_windows(table(records), W=w)
        centers = windows.actions.ids[windows.rows[:, windows.center]]
        assert centers.tolist() == list(range(len(records)))
        half = w // 2
        for rec, rows in zip(records, windows.rows.tolist()):
            last = lengths[int(rec.video_id[1:])] - 1
            assert all(records[r].video_id == rec.video_id for r in rows)
            assert [records[r].temporal_index for r in rows] == [
                min(max(rec.temporal_index + off, 0), last) for off in range(-half, half + 1)]

    def test_indexing_gives_windows_over_the_same_table(self):
        actions = table([make_record(i) for i in range(7)])
        windows = build_windows(actions, W=3)
        for index in (slice(2, 5), np.array([6, 0, 0]), [1]):
            part = windows[index]
            assert part.actions is actions
            assert part.rows.tolist() == windows.rows[index].tolist()
            assert part.padding.tolist() == windows.padding[index].tolist()
        with pytest.raises(TypeError, match="slice or an index array"):
            windows[0]


def single_action_store(clips):
    """A store holding one action with the given (n_clips, D_V) clip stack."""
    clips = np.asarray(clips, dtype="<f4")
    record = ActionRecord(action_id=0, video_id="v0", domain_id="S0", verb=0, noun=0,
                          narration=(0,), temporal_index=0, blob_offset=0,
                          n_clips=clips.shape[0])
    meta = {"name": "one", "d_v": clips.shape[1], "d_t": 2,
            "clips_per_action": clips.shape[0]}
    return FeatureStore(meta, table([record]), ["a"], DatasetSplit(("S0",), ()),
                        clips.reshape(-1))


class TestClipAggregation:
    def test_mean_of_identical_clips(self):
        c = np.array([1.5, -2.0, 0.5])
        store = single_action_store(np.stack([c] * 5))
        np.testing.assert_array_equal(FeatureCache(store, store.actions).visual[0], c)

    def test_mean_of_simple_clips(self):
        store = single_action_store([[1.0], [2.0], [3.0]])
        assert FeatureCache(store, store.actions).visual[0].tolist() == [2.0]

    @staticmethod
    def unaligned_store():
        """Four actions of 1, 3, 5 and 1000 clips (d_v=4) at element offsets
        32, 21, 1 and 35: none a multiple of d_v, out of blob order, and
        some overlapping. At 1000 clips a stacked `np.add.reduceat` sums in
        another order than `mean(axis=0)`."""
        d_v = 4
        layout = [(32, 1), (21, 3), (1, 5), (35, 1000)]
        records = [ActionRecord(action_id=i, video_id="v0", domain_id="S0", verb=0,
                                noun=0, narration=(0,), temporal_index=i,
                                blob_offset=offset, n_clips=n)
                   for i, (offset, n) in enumerate(layout)]
        rng = np.random.default_rng(5)
        size = sum(n for _, n in layout) * d_v
        visual = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)
        meta = {"name": "unaligned", "d_v": d_v, "d_t": 2, "clips_per_action": 3}
        return FeatureStore(meta, table(records), ["a"], DatasetSplit(("S0",), ()),
                            visual.astype("<f4"))

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 1, 0], [1], [2, 0], []])
    def test_clip_means_match_per_record_means(self, order):
        store = self.unaligned_store()
        actions = store.actions.take(order)
        visual = FeatureCache(store, actions).visual
        assert visual.shape == (len(actions), store.d_v)
        for row, rec in zip(visual, actions):
            assert row.tobytes() == store.clips(rec).astype(np.float64).mean(axis=0).tobytes()


class TestNarrationEmbedder:
    def test_same_tokens_bitwise_identical(self):
        emb = NarrationEmbedder(vocab_size=10, dim=8, seed=1)
        actions = narration_table([(1, 2, 3), (1, 2, 3)])
        a, b = emb.embed(actions)
        assert a.tobytes() == b.tobytes() == emb.embed(actions)[0].tobytes()

    def test_single_token_is_table_row(self):
        emb = NarrationEmbedder(vocab_size=10, dim=8, seed=1)
        np.testing.assert_array_equal(emb.embed(narration_table([(4,)])),
                                      emb.table[[4]])

    def test_default_width(self):
        emb = NarrationEmbedder(vocab_size=10, dim=768, seed=0)
        assert emb.embed(narration_table([(0,)])).shape == (1, 768)

    def test_unknown_token_rejected(self):
        emb = NarrationEmbedder(vocab_size=4, dim=2, seed=0)
        with pytest.raises(DataError, match="^narration token 4 outside vocab of 4$"):
            emb.embed(narration_table([(4,)]))

    @pytest.mark.parametrize("narrations, message", [
        ([(0,), (1, 4), ()], "narration token 4 outside vocab of 4"),
        ([(1,), (), (2, 4)], "cannot embed an empty narration"),
        ([(3,), (1, -1, 5)], "narration token -1 outside vocab of 4"),
    ])
    def test_first_bad_narration_rejected(self, narrations, message):
        emb = NarrationEmbedder(vocab_size=4, dim=2, seed=0)
        with pytest.raises(DataError, match=f"^{message}$"):
            emb.embed(narration_table(narrations))

    def test_seed_controls_table(self):
        a = NarrationEmbedder(5, 4, seed=1).table
        b = NarrationEmbedder(5, 4, seed=2).table
        assert not np.array_equal(a, b)


def mixing_setup(n_domains=3, actions_per_domain=8):
    """Every (verb, noun) label exists in every domain."""
    records = []
    i = 0
    for d in range(n_domains):
        for t in range(actions_per_domain):
            records.append(ActionRecord(
                action_id=i, video_id=f"S{d}_v0", domain_id=f"S{d}",
                verb=t % 2, noun=t % 2, narration=(0,), temporal_index=t,
                blob_offset=0, n_clips=1))
            i += 1
    return table(records)


def domain_windows(actions, domain, W):
    """The windows over `actions` centred on the actions of `domain`."""
    return build_windows(actions, W)[np.flatnonzero(actions.in_domains([domain]))]


def label_of(actions, row):
    return (int(actions.verbs[row]), int(actions.nouns[row]))


class TestSeqMix:
    def test_probability_zero_never_changes_window(self):
        records = mixing_setup()
        pool = SeqMixPool(records, [f"S{d}" for d in range(3)])
        windows = build_windows(records, W=3)
        rng = np.random.default_rng(0)
        for i in range(len(windows)):
            win = windows[[i]]
            out = seqmix(win, pool, 0.0, rng)
            assert out.rows.tolist() == win.rows.tolist()
            assert out.padding is win.padding

    def test_unsatisfiable_pool_counts_no_candidate(self):
        # the only matching labels live in the window's own domain
        records = table([make_record(i, video="S0_v0", domain="S0", verb=9, noun=9, t=i)
                         for i in range(3)])
        pool = SeqMixPool(records, ["S0"])
        window = build_windows(records, W=3)[[1]]
        stats = SeqMixStats()
        rng = np.random.default_rng(1)
        out = seqmix(window, pool, 1.0, rng, stats=stats)
        assert out.rows.tolist() == window.rows.tolist()
        assert stats.no_candidate == 1

    def test_replacement_swaps_whole_tuple(self):
        # a swapped row carries its features, narration and domain id
        records = mixing_setup()
        pool = SeqMixPool(records, ["S0", "S1", "S2"])
        window = domain_windows(records, "S0", 3)[[1]]
        rng = np.random.default_rng(2)
        out = seqmix(window, pool, 1.0, rng)
        changed = np.flatnonzero(out.rows[0] != window.rows[0])
        assert len(changed) == 1
        old, new = window.rows[0, changed[0]], out.rows[0, changed[0]]
        assert records.domain[new] != records.domain[old]
        assert label_of(records, new) == label_of(records, old)
        assert out.padding.tolist() == window.padding.tolist()

    def test_center_labels_never_change(self):
        records = mixing_setup()
        pool = SeqMixPool(records, ["S0", "S1", "S2"])
        windows = domain_windows(records, "S0", 3)
        rng = np.random.default_rng(3)
        for i in range(len(windows)):
            win = windows[[i]]
            out = seqmix(win, pool, 1.0, rng)
            assert (label_of(records, out.rows[0, out.center])
                    == label_of(records, win.rows[0, win.center]))

    def test_cross_domain_slot_present_iff_replaced(self):
        records = mixing_setup()
        pool = SeqMixPool(records, ["S0", "S1", "S2"])
        windows = domain_windows(records, "S1", 3)
        s1 = records.domain_names.index("S1")
        rng = np.random.default_rng(4)
        stats = SeqMixStats()
        for i in list(range(len(windows))) * 30:
            before = stats.replaced
            out = seqmix(windows[[i]], pool, 0.5, rng, stats=stats)
            mixed = bool((records.domain[out.rows[0]] != s1).any())
            assert mixed == (stats.replaced > before)

    def test_windows_over_another_table_are_refused(self):
        # the windows' rows must index the pool's table: these are S0's own
        records = mixing_setup()
        pool = SeqMixPool(records, ["S0", "S1", "S2"])
        s0 = records.take(np.flatnonzero(records.in_domains(["S0"])))
        stats = SeqMixStats()
        with pytest.raises(DataError, match="another table"):
            seqmix(build_windows(s0, W=3), pool, 0.5, np.random.default_rng(0), stats)
        assert stats.draws == 0

    def test_candidate_index_matches_a_scan_of_the_table(self):
        rng = np.random.default_rng(30)
        records = table([make_record(i, video=f"{d}_v0", domain=d, verb=int(rng.integers(3)),
                                     noun=int(rng.integers(2)), t=t)
                         for i, (d, t) in enumerate((d, t) for d in ("S0", "S1", "S2", "T0")
                                                    for t in range(10))])
        pool = SeqMixPool(records, ["S0", "S1", "S2"])
        for row, rec in enumerate(records):
            want = [other for other, cand in enumerate(records)
                    if cand.label == rec.label and cand.domain_id != rec.domain_id
                    and cand.domain_id != "T0"]
            start, count = pool.start[row], pool.count[row]
            assert pool.candidates[start:start + count].tolist() == want, row

    def test_batch_draw_keeps_the_contract(self):
        # W=5 windows of 6-action videos: most carry padding slots
        records = mixing_setup(n_domains=4, actions_per_domain=6)
        pool = SeqMixPool(records, [f"S{d}" for d in range(4)])
        windows = build_windows(records, W=5)
        picked = np.arange(20_000) % len(windows)
        rows, padding = windows.rows[picked], windows.padding[picked]
        stats = SeqMixStats()
        mixed = seqmix(windows[picked], pool, 0.5, np.random.default_rng(31), stats).rows
        changed = mixed != rows
        assert changed.sum(axis=1).max() == 1
        assert not (changed & padding).any()
        old, new = rows[changed], mixed[changed]
        assert (records.verbs[new] == records.verbs[old]).all()
        assert (records.nouns[new] == records.nouns[old]).all()
        assert (records.domain[new] != records.domain[old]).all()
        n = len(rows)
        assert (stats.draws, stats.replaced, stats.no_candidate) == (
            n, int(changed.any(axis=1).sum()), 0)
        assert abs(stats.replaced - 0.5 * n) <= 5 * np.sqrt(n * 0.25)
        # each real slot of the unpadded windows is the one mixed about as often
        full = ~padding.any(axis=1)
        per_slot = changed[full & changed.any(axis=1)].sum(axis=0)
        expected = per_slot.sum() / 5
        assert (np.abs(per_slot - expected) <= 5 * np.sqrt(expected)).all()

    def test_batch_draw_without_candidates_leaves_rows_and_counts(self):
        records = mixing_setup(n_domains=1, actions_per_domain=3)
        pool = SeqMixPool(records, ["S0"])
        windows = build_windows(records, W=3)
        stats = SeqMixStats()
        mixed = seqmix(windows, pool, 1.0, np.random.default_rng(0), stats).rows
        assert mixed.tobytes() == windows.rows.tobytes()
        assert (stats.draws, stats.replaced, stats.no_candidate) == (3, 0, 3)


def narration_table(narrations):
    """The one-video table of one single-clip action per narration."""
    return table([ActionRecord(action_id=i, video_id="v0", domain_id="S0", verb=0, noun=0,
                               narration=tuple(tokens), temporal_index=i, blob_offset=i,
                               n_clips=1)
                  for i, tokens in enumerate(narrations)])


def narration_store(narrations, vocab=50, d_t=3):
    """A store over `narration_table(narrations)`."""
    meta = {"name": "tokens", "d_v": 1, "d_t": d_t, "clips_per_action": 1}
    return FeatureStore(meta, narration_table(narrations), [f"w{i}" for i in range(vocab)],
                        DatasetSplit(("S0",), ()), np.zeros(len(narrations), dtype="<f4"))


class TestFeatureCache:
    def test_mean_aggregated_batch_shapes(self):
        store = make_store(with_text=False)
        windows = build_windows(store.actions, W=3)
        cache = FeatureCache(store, store.actions, text_seed=0)
        batch = cache.batch(windows[:4])
        assert batch.visual.shape == (4, 3, 4)
        assert batch.text.shape == (4, 3, 3)
        assert batch.verbs.shape == (4,)
        assert batch.token_rows.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
        assert batch.tokens.dtype == batch.token_rows.dtype == np.int64

    def test_no_text_seed_caches_no_text(self):
        for store in (make_store(), make_store(with_text=True)):
            cache = FeatureCache(store, store.actions)
            assert cache.text is None
            assert cache.batch(build_windows(store.actions, W=3)).text is None

    def test_store_text_features_take_precedence(self):
        store = make_store(with_text=True)
        windows = build_windows(store.actions, W=1)
        batch = FeatureCache(store, store.actions, text_seed=0).batch(windows[:1])
        center = store.actions[windows.rows[0, windows.center]]
        expected = store.text[center.action_id * store.d_t:(center.action_id + 1) * store.d_t]
        np.testing.assert_allclose(batch.visual[0, 0],
                                   store.clips(center).astype(np.float64).mean(axis=0))
        np.testing.assert_allclose(batch.text[0, 0], expected.astype(np.float64))
        other = FeatureCache(store, store.actions, text_seed=1)
        assert other.text.tobytes() == FeatureCache(store, store.actions, text_seed=0).text.tobytes()

    @pytest.mark.parametrize("dim", [1, 5])
    def test_narration_embeddings_match_per_record_embed(self, dim):
        # lengths in no order, some repeated, one past the 128 rows at
        # which a pairwise sum would start to differ
        rng = np.random.default_rng(7)
        lengths = [3, 1, 130, 2, 3, 9, 1]
        narrations = [rng.integers(0, 50, n).tolist() for n in lengths]
        store = narration_store(narrations, d_t=dim)
        emb = NarrationEmbedder(vocab_size=50, dim=dim, seed=3)
        text = FeatureCache(store, store.actions, text_seed=3).text
        assert text.tobytes() == emb.embed(store.actions).tobytes()
        emb.table = emb.table * 10.0 ** rng.integers(-3, 4, emb.table.shape)
        for row, tokens in zip(emb.embed(store.actions), narrations):
            assert row.tobytes() == emb.table[tokens].mean(axis=0).tobytes()

    @pytest.mark.parametrize("lengths", [(0, 1, 3), (3, 0, 0, 1), (1, 1, 1)])
    def test_batch_tokens_are_each_centres_narration(self, lengths):
        rng = np.random.default_rng(len(lengths))
        narrations = [rng.integers(0, 50, n).tolist() for n in lengths]
        store = narration_store(narrations)
        windows = build_windows(store.actions, W=3)
        for idx in (np.arange(len(windows)), np.arange(len(windows))[::-1]):
            batch = FeatureCache(store, store.actions).batch(windows[idx])
            got = [batch.tokens[batch.token_rows == i].tolist() for i in range(len(idx))]
            assert got == [narrations[i] for i in idx]
            assert batch.token_rows.tolist() == sorted(batch.token_rows.tolist())

    def test_batch_tokens_of_a_taken_table_with_scattered_tokens(self):
        # rows taken out of order and with gaps, so the table's tokens are
        # not its rows' narrations back to back
        narrations = [[1], [2, 3, 4], [], [5, 6], [7], [8, 9, 10]]
        store = narration_store(narrations)
        taken = np.array([5, 1, 2, 3])
        actions = store.actions.take(taken)
        assert actions.token_start[1:].tolist() != actions.token_end[:-1].tolist()
        windows = Windows(actions, np.array([[0, 1, 2], [2, 0, 1], [3, 2, 3], [0, 0, 0]]),
                          np.zeros((4, 3), dtype=bool))
        batch = FeatureCache(store, actions).batch(windows)
        got = [batch.tokens[batch.token_rows == i].tolist() for i in range(len(windows))]
        assert got == [narrations[taken[r]] for r in (1, 0, 2, 0)]
        assert got == [list(actions[r].narration) for r in (1, 0, 2, 0)]

    def test_batch_reads_the_cache_row_of_each_table_row(self):
        # a table whose ids are not its row numbers, windowed on itself
        store = make_store(n_actions=8)
        actions = store.actions.take(np.array([5, 7, 4, 6, 1, 0, 3, 2]))
        windows = build_windows(actions, W=3)
        batch = FeatureCache(store, actions).batch(windows)
        for rows, visual in zip(windows.rows.tolist(), batch.visual):
            for record, row in zip((actions[r] for r in rows), visual):
                mean = store.clips(record).astype(np.float64).mean(axis=0)
                assert row.tobytes() == mean.tobytes()

    def test_serves_only_its_records(self):
        store = make_store()
        first_video = table([r for r in store.actions if r.video_id == "v0"])
        cache = FeatureCache(store, first_video)
        assert cache.visual.shape == (len(first_video), store.d_v)
        other = build_windows(table([r for r in store.actions if r.video_id == "v1"]), W=1)
        with pytest.raises(DataError, match="not among the cached records"):
            cache.batch(other[:1])
        # the cache serves windows over the table it was built on, and no copy of it
        copy = build_windows(first_video.take(np.arange(len(first_video))), W=1)
        with pytest.raises(DataError, match="not among the cached records"):
            cache.batch(copy)


class TestAnnotationCSV:
    def rows(self):
        return [
            {"video_id": "v0", "domain_id": "P01", "temporal_index": 0,
             "verb_class": 1, "noun_class": 2, "narration": "open fridge"},
            {"video_id": "v0", "domain_id": "P01", "temporal_index": 1,
             "verb_class": 0, "noun_class": 2, "narration": "close fridge"},
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ann.csv"
        write_annotation_csv(path, self.rows())
        assert read_annotation_csv(path) == self.rows()

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("video_id,domain_id,temporal_index,verb_class,noun_class,narration\n"
                        "v0,P01,zero,1,2,open fridge\n")
        with pytest.raises(DataError, match="line 2"):
            read_annotation_csv(path)

    def test_row_longer_than_the_header_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("video_id,domain_id,temporal_index,verb_class,noun_class,narration\n"
                        "v1,d1,0,1,2,cut the,onion\n")
        with pytest.raises(DataError, match="line 2: too many fields"):
            read_annotation_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("video_id,domain_id\nv0,P01\n")
        with pytest.raises(DataError, match="missing columns"):
            read_annotation_csv(path)

    def test_import_builds_store(self, tmp_path):
        csv_path = tmp_path / "ann.csv"
        write_annotation_csv(csv_path, self.rows())
        rng = np.random.default_rng(0)
        blob = rng.standard_normal(2 * 3 * 4).astype("<f4")
        blob.tofile(tmp_path / "feat.f32")
        store = import_csv_dataset(csv_path, tmp_path / "feat.f32", d_v=4,
                                   clips_per_action=3, d_t=2,
                                   target_domains=())
        assert len(store.actions) == 2
        assert store.vocab == ["open", "fridge", "close"]
        assert store.actions[1].narration == (2, 1)
        assert store.split.source == ("P01",)
        np.testing.assert_array_equal(store.clips(store.actions[1]),
                                      blob[12:].reshape(3, 4))

    def test_import_checks_blob_size(self, tmp_path):
        csv_path = tmp_path / "ann.csv"
        write_annotation_csv(csv_path, self.rows())
        np.zeros(5, dtype="<f4").tofile(tmp_path / "feat.f32")
        with pytest.raises(DataError, match="expected"):
            import_csv_dataset(csv_path, tmp_path / "feat.f32", d_v=4,
                               clips_per_action=3)

    def test_import_splits_through_the_one_builder(self, tmp_path):
        csv_path = tmp_path / "ann.csv"
        write_annotation_csv(csv_path, self.rows() + [dict(self.rows()[0], video_id="v1",
                                                           domain_id="P00")])
        np.zeros(3 * 4, dtype="<f4").tofile(tmp_path / "feat.f32")

        def imported(targets):
            return import_csv_dataset(csv_path, tmp_path / "feat.f32", d_v=4,
                                      clips_per_action=1, target_domains=targets)

        assert imported(("P00",)).split == DatasetSplit(("P01",), ("P00",))
        for targets in ((), ("P01",), ("P01", "P00", "P01")):
            assert imported(targets).split == DatasetSplit.from_targets(("P01", "P00"), targets)
        for targets in (("P09",), ("P01", "P09", "P08")):
            with pytest.raises(DataError) as built:
                DatasetSplit.from_targets(("P01", "P00"), targets)
            with pytest.raises(DataError) as raised:
                imported(targets)
            assert str(raised.value) == str(built.value)
        assert str(built.value) == "target domains ['P08', 'P09'] have no actions"
