"""Dataset ingestion, window construction, and sequence mixing.

A dataset on disk is a JSON manifest plus a flat little-endian float32
feature blob (clips-major per action), optionally joined by a second blob
of precomputed per-action text features. In memory it becomes a
`FeatureStore`; training and evaluation slice it into `SequenceWindow`s
of W consecutive actions and assemble dense batches from those through a
`FeatureCache`, the one place where an action's clips are averaged.

SeqMix lives here too: with a configured probability, one slot of a
window is swapped for a same-label action from a different source
domain, features, narration tokens and domain id travelling together.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "ActionRecord",
    "SequenceWindow",
    "DatasetSplit",
    "FeatureStore",
    "NarrationEmbedder",
    "SeqMixPool",
    "SeqMixStats",
    "Batch",
    "FeatureCache",
    "build_windows",
    "seqmix",
    "read_annotation_csv",
    "write_annotation_csv",
    "import_csv_dataset",
]

MANIFEST_FORMAT = "seqdg.dataset"
MANIFEST_VERSION = 1
ANNOTATION_COLUMNS = ["video_id", "domain_id", "temporal_index",
                      "verb_class", "noun_class", "narration"]


class DataError(Exception):
    """Malformed or inconsistent dataset input."""


# every key of a manifest action, in ActionRecord's field order, and the
# exact JSON type of its value (a JSON true is not an int); `save` writes
# and `_action_record` reads these keys
_ACTION_KEYS = ("action_id", "video_id", "domain_id", "verb", "noun", "narration",
                "temporal_index", "blob_offset", "n_clips")
_ACTION_TYPES = (int, str, str, int, int, list, int, int, int)
_action_values = operator.itemgetter(*_ACTION_KEYS)


@dataclass(frozen=True)
class ActionRecord:
    """One annotated action: labels, narration tokens, and where its
    per-clip features live in the blob."""

    action_id: int
    video_id: str
    domain_id: str
    verb: int
    noun: int
    narration: tuple[int, ...]
    temporal_index: int
    blob_offset: int          # float32 elements into the visual blob
    n_clips: int

    @property
    def label(self) -> tuple[int, int]:
        return (self.verb, self.noun)


@dataclass(frozen=True)
class SequenceWindow:
    """W consecutive actions centered on the one being classified.
    Slots outside the video replicate the nearest real action and are
    flagged as padding; the center is never padding."""

    records: tuple[ActionRecord, ...]
    padding: tuple[bool, ...]
    center: int

    def __post_init__(self):
        if self.padding[self.center]:
            raise DataError("window center cannot be a padding slot")

    @property
    def center_record(self) -> ActionRecord:
        return self.records[self.center]


@dataclass(frozen=True)
class DatasetSplit:
    source: tuple[str, ...]
    target: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.source) & set(self.target)
        if overlap:
            raise DataError(f"source and target domains overlap: {sorted(overlap)}")


class FeatureStore:
    """Immutable view over a manifest and its feature blobs."""

    def __init__(self, meta: dict, records: list[ActionRecord], vocab: list[str],
                 split: DatasetSplit, visual: np.ndarray,
                 text: np.ndarray | None = None):
        self.meta = meta
        self.records = records
        self.vocab = vocab
        self.split = split
        self.visual = visual
        self.text = text
        self._validate()

    def _validate(self):
        for key in ("d_v", "d_t", "clips_per_action"):
            if self.meta[key] < 1:
                raise DataError(f"{key} must be >= 1, got {self.meta[key]}")
        d_v = self.d_v
        expected = sum(r.n_clips * d_v for r in self.records)
        if self.visual.size != expected:
            raise DataError(f"feature blob holds {self.visual.size} floats, "
                            f"manifest expects {expected}")
        start = _first_failing_action(self.records, d_v, self.visual.size, len(self.vocab))
        if start is not None:
            self._check_actions(start)
        if self.text is not None and self.text.size != len(self.records) * self.d_t:
            raise DataError("text feature blob does not match action count")
        stray = {r.domain_id for r in self.records}.difference(self.split.source,
                                                                self.split.target)
        if stray:
            raise DataError(f"actions of domains {sorted(stray)} belong to neither "
                            "the source nor the target split")

    def _check_actions(self, start: int):
        """The per-action checks, in record order from action `start` on;
        the first action that fails one is named. Every action before
        `start` must pass them all."""
        d_v = self.d_v
        # ids index the text blob and the feature cache, so they must be
        # exactly 0 .. n-1
        seen = {r.action_id for r in self.records[:start]}
        for r in self.records[start:]:
            if not 0 <= r.action_id < len(self.records):
                raise DataError(f"action id {r.action_id} outside [0, {len(self.records)})")
            if r.action_id in seen:
                raise DataError(f"duplicate action id {r.action_id}")
            seen.add(r.action_id)
            if r.verb < 0 or r.noun < 0:
                raise DataError(f"action {r.action_id}: negative label (verb {r.verb}, "
                                f"noun {r.noun})")
            if r.n_clips < 1:
                raise DataError(f"action {r.action_id}: needs at least one clip")
            if r.blob_offset < 0 or r.blob_offset + r.n_clips * d_v > self.visual.size:
                raise DataError(f"action {r.action_id}: feature handle out of bounds")
            if any(t < 0 or t >= len(self.vocab) for t in r.narration):
                raise DataError(f"action {r.action_id}: narration token out of vocab")

    @property
    def d_v(self) -> int:
        return int(self.meta["d_v"])

    @property
    def d_t(self) -> int:
        return int(self.meta["d_t"])

    @property
    def clips_per_action(self) -> int:
        return int(self.meta["clips_per_action"])

    def clips(self, record: ActionRecord) -> np.ndarray:
        """Per-clip features for one action, shape (n_clips, D_V)."""
        start = record.blob_offset
        out = self.visual[start:start + record.n_clips * self.d_v]
        return out.reshape(record.n_clips, self.d_v)

    def text_feature(self, record: ActionRecord) -> np.ndarray | None:
        if self.text is None:
            return None
        return self.text[record.action_id * self.d_t:(record.action_id + 1) * self.d_t]

    def records_for(self, domains) -> list[ActionRecord]:
        wanted = set(domains)
        return [r for r in self.records if r.domain_id in wanted]

    # -- persistence ---------------------------------------------------------

    def save(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.visual.astype("<f4").tofile(directory / "features.f32")
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "name": self.meta.get("name", "dataset"),
            "d_v": self.d_v,
            "d_t": self.d_t,
            "clips_per_action": self.clips_per_action,
            "feature_blob": "features.f32",
            "vocab": self.vocab,
            "domains": ([{"id": d, "split": "source"} for d in self.split.source]
                        + [{"id": d, "split": "target"} for d in self.split.target]),
            "actions": [{**{key: getattr(r, key) for key in _ACTION_KEYS},
                         "narration": list(r.narration)} for r in self.records],
        }
        if self.text is not None:
            self.text.astype("<f4").tofile(directory / "text_features.f32")
            manifest["text_blob"] = "text_features.f32"
        path = directory / "manifest.json"
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
        return path

    @classmethod
    def load(cls, manifest_path) -> "FeatureStore":
        manifest_path = Path(manifest_path)
        if manifest_path.is_dir():
            manifest_path = manifest_path / "manifest.json"
        if not manifest_path.exists():
            raise DataError(f"no manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}: not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise DataError(f"{manifest_path}: manifest must be a JSON object")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise DataError(f"unrecognized manifest format {manifest.get('format')!r}")
        if manifest.get("version") != MANIFEST_VERSION:
            raise DataError(f"unsupported manifest version {manifest.get('version')!r}")
        base = manifest_path.parent
        try:
            records = [_action_record(i, a) for i, a in enumerate(manifest["actions"])]
            unsplit = [d["id"] for d in manifest["domains"]
                       if d["split"] not in ("source", "target")]
            if unsplit:
                raise DataError(f"{manifest_path}: domains {unsplit} have a split that "
                                "is neither 'source' nor 'target'")
            split = DatasetSplit(
                source=tuple(d["id"] for d in manifest["domains"] if d["split"] == "source"),
                target=tuple(d["id"] for d in manifest["domains"] if d["split"] == "target"))
            visual = np.fromfile(base / manifest["feature_blob"], dtype="<f4")
            text = None
            if manifest.get("text_blob"):
                text = np.fromfile(base / manifest["text_blob"], dtype="<f4")
            meta = {k: manifest[k] for k in ("name", "d_v", "d_t", "clips_per_action")}
            vocab = list(manifest["vocab"])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{manifest_path}: malformed manifest: {exc!r}") from exc
        for key in ("d_v", "d_t", "clips_per_action"):
            if type(meta[key]) is not int:
                raise DataError(f"{manifest_path}: {key!r} must be int, got {meta[key]!r}")
        return cls(meta, records, vocab, split, visual, text)


def _first_failing_action(records, d_v: int, size: int, vocab: int) -> int | None:
    """The index of the first record that `FeatureStore._check_actions`
    rejects, found with one mask per check over columns of the records; None
    when every record passes. Values too large for int64, or a `d_v` below
    one, give 0: the scalar checks then run over every record."""
    if d_v < 1:
        return 0
    n = len(records)
    narrations = [r.narration for r in records]
    try:
        ids, verbs, nouns, offsets, n_clips = (np.array(column, dtype=np.int64) for column in (
            [r.action_id for r in records], [r.verb for r in records],
            [r.noun for r in records], [r.blob_offset for r in records],
            [r.n_clips for r in records]))
        lengths = np.fromiter(map(len, narrations), np.int64, n)
        tokens = np.fromiter(itertools.chain.from_iterable(narrations), np.int64,
                             int(lengths.sum()))
        # whole clips that fit after each offset (none past the end); a
        # negative offset fails on its own, so a wrapped value does not matter
        room = (size - offsets) // d_v
    except OverflowError:
        return 0
    repeated = np.ones(n, dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    bad = ((ids < 0) | (ids >= n) | repeated | (verbs < 0) | (nouns < 0) | (n_clips < 1)
           | (offsets < 0) | (n_clips > room))
    bad[np.repeat(np.arange(n), lengths)[(tokens < 0) | (tokens >= vocab)]] = True
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def _action_record(index: int, action) -> ActionRecord:
    """One manifest action, every key present with its exact type and every
    narration token an int."""
    if type(action) is not dict:
        raise DataError(f"manifest action {index} is not an object")
    try:
        values = _action_values(action)
    except KeyError as exc:
        raise DataError(f"manifest action {index} has no {exc}") from None
    if tuple(map(type, values)) != _ACTION_TYPES:
        key, kind, value = next(entry for entry in zip(_ACTION_KEYS, _ACTION_TYPES, values)
                                if type(entry[2]) is not entry[1])
        raise DataError(f"manifest action {index}: {key!r} must be {kind.__name__}, "
                        f"got {value!r}")
    if not {int}.issuperset(map(type, values[5])):
        raise DataError(f"manifest action {index}: narration tokens must be ints")
    return ActionRecord(*values[:5], tuple(values[5]), *values[6:])


# ---------------------------------------------------------------------------
# windows


def build_windows(records, W: int) -> list[SequenceWindow]:
    """One window per record, window i centred on `records[i]`. Each video
    is ordered by temporal index; edges replicate the nearest real action
    and flag those slots as padding."""
    if W < 1 or W % 2 == 0:
        raise DataError(f"window length must be odd and >= 1, got {W}")
    by_video: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_video.setdefault(r.video_id, []).append(i)
    half = (W - 1) // 2
    windows: list[SequenceWindow] = [None] * len(records)
    for video_id, members in by_video.items():
        members.sort(key=lambda i: records[i].temporal_index)
        video = [records[i] for i in members]
        first = video[0].temporal_index
        if [r.temporal_index for r in video] != list(range(first, first + len(video))):
            raise DataError(f"video {video_id!r}: temporal indices must be "
                            "consecutive and unique")
        n = len(video)
        for pos, i in enumerate(members):
            slots, pads = [], []
            for off in range(-half, half + 1):
                j = pos + off
                clamped = min(max(j, 0), n - 1)
                slots.append(video[clamped])
                pads.append(j != clamped)
            windows[i] = SequenceWindow(records=tuple(slots), padding=tuple(pads),
                                        center=half)
    return windows


# ---------------------------------------------------------------------------
# narration embedding


class NarrationEmbedder:
    """Frozen random token table, mean-pooled over a narration's tokens.

    Stands in for a pretrained text encoder at desk scale; per-action
    features imported through the store's text blob take precedence.
    """

    def __init__(self, vocab_size: int, dim: int, seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x7E)))
        self.table = rng.standard_normal((vocab_size, dim))
        self.vocab_size = vocab_size
        self.dim = dim

    def embed(self, tokens) -> np.ndarray:
        tokens = [int(t) for t in tokens]
        if not tokens:
            raise DataError("cannot embed an empty narration")
        for t in tokens:
            if t < 0 or t >= self.vocab_size:
                raise DataError(f"narration token {t} outside vocab of "
                                f"{self.vocab_size}")
        return self.table[tokens].mean(axis=0)


# ---------------------------------------------------------------------------
# SeqMix


@dataclass
class SeqMixStats:
    draws: int = 0
    replaced: int = 0
    no_candidate: int = 0


class SeqMixPool:
    """Replacement candidates indexed by (verb, noun), restricted to the
    source domains."""

    def __init__(self, records, source_domains):
        allowed = set(source_domains)
        self._by_label: dict[tuple[int, int], list[ActionRecord]] = {}
        for r in records:
            if r.domain_id in allowed:
                self._by_label.setdefault(r.label, []).append(r)

    def candidates(self, label: tuple[int, int], exclude_domain: str) -> list[ActionRecord]:
        return [r for r in self._by_label.get(label, ())
                if r.domain_id != exclude_domain]


def seqmix(window: SequenceWindow, pool: SeqMixPool, p_mix: float, rng,
           stats: SeqMixStats | None = None) -> SequenceWindow:
    """With probability `p_mix`, swap one non-padding slot for a same-label
    action from a different source domain. The swap carries features,
    narration tokens and domain id; labels are equal by construction. If
    no candidate exists the window comes back unchanged."""
    if stats is not None:
        stats.draws += 1
    if rng.random() >= p_mix:
        return window
    slots = [i for i, pad in enumerate(window.padding) if not pad]
    slot = slots[int(rng.integers(len(slots)))]
    current = window.records[slot]
    cands = pool.candidates(current.label, current.domain_id)
    if not cands:
        if stats is not None:
            stats.no_candidate += 1
        return window
    pick = cands[int(rng.integers(len(cands)))]
    new_records = list(window.records)
    new_records[slot] = pick
    if stats is not None:
        stats.replaced += 1
    return replace(window, records=tuple(new_records))


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Dense, model-ready arrays for a list of windows."""

    visual: np.ndarray                    # (B, W, D_V), clip means
    text: np.ndarray | None               # (B, W, D_T)
    verbs: np.ndarray                     # (B,) center labels
    nouns: np.ndarray
    center_tokens: tuple[tuple[int, ...], ...]

    def __len__(self):
        return self.visual.shape[0]


def _clip_means(store: FeatureStore, records) -> np.ndarray:
    """(len(records), d_v) float64 means of each record's clips, bitwise
    equal to `store.clips(rec).astype(np.float64).mean(axis=0)`.

    Records are taken in groups of equal clip count. A group's clip rows
    are gathered by element offset (an offset need not be a multiple of
    d_v) into one (records, clips, d_v) array and summed over the clip axis
    in float64, in the order `mean(axis=0)` sums them. (`np.add.reduceat`
    over the stacked rows sums in another order past ~128 clips.)
    """
    d_v = store.d_v
    means = np.empty((len(records), d_v))
    if not records:
        return means
    offsets = np.array([r.blob_offset for r in records], dtype=np.int64)
    n_clips = np.array([r.n_clips for r in records], dtype=np.int64)
    rows = np.lib.stride_tricks.sliding_window_view(store.visual, d_v)
    for count in np.unique(n_clips):
        group = np.flatnonzero(n_clips == count)
        clips = rows[offsets[group, None] + d_v * np.arange(count)]
        means[group] = clips.sum(axis=1, dtype=np.float64) / count
    return means


class FeatureCache:
    """Dense per-action features of the records it serves.

    Each action's stored clips are averaged, and its narration embedded,
    once; batches then become fancy indexing. The clip means are taken
    with one gather and one sum per distinct clip count (`_clip_means`).
    """

    def __init__(self, store: FeatureStore, records, *,
                 embedder: NarrationEmbedder | None = None, with_text: bool = False):
        self._row = {rec.action_id: row for row, rec in enumerate(records)}
        self.visual = _clip_means(store, records)
        self.text = np.empty((len(records), store.d_t)) if with_text else None
        for row, rec in enumerate(records if with_text else ()):
            stored = store.text_feature(rec)
            if stored is not None:
                self.text[row] = stored.astype(np.float64)
            elif embedder is not None:
                self.text[row] = embedder.embed(rec.narration)
            else:
                raise DataError("text requested but the store has no text "
                                "features and no embedder was given")

    def batch(self, windows) -> Batch:
        if not windows:
            raise DataError("cannot materialize an empty batch")
        try:
            ids = np.array([[self._row[r.action_id] for r in w.records] for w in windows])
        except KeyError as exc:
            raise DataError(f"action {exc.args[0]} is not among the cached records") from None
        return Batch(
            visual=self.visual[ids],
            text=self.text[ids] if self.text is not None else None,
            verbs=np.array([w.center_record.verb for w in windows], dtype=np.int64),
            nouns=np.array([w.center_record.noun for w in windows], dtype=np.int64),
            center_tokens=tuple(w.center_record.narration for w in windows))


# ---------------------------------------------------------------------------
# annotation CSV


def read_annotation_csv(path) -> list[dict]:
    """Rows of the annotation format: video_id, domain_id, temporal_index,
    verb_class, noun_class, narration. Class ids must be >= 0."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ANNOTATION_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise DataError(f"annotation CSV missing columns: {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                parsed = {
                    "video_id": row["video_id"],
                    "domain_id": row["domain_id"],
                    "temporal_index": int(row["temporal_index"]),
                    "verb_class": int(row["verb_class"]),
                    "noun_class": int(row["noun_class"]),
                    "narration": row["narration"],
                }
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed row at line {lineno}: {exc}") from exc
            if parsed["verb_class"] < 0 or parsed["noun_class"] < 0:
                raise DataError(f"{path}: negative label at line {lineno} (verb "
                                f"{parsed['verb_class']}, noun {parsed['noun_class']})")
            rows.append(parsed)
    return rows


def write_annotation_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=ANNOTATION_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in ANNOTATION_COLUMNS})


def import_csv_dataset(csv_path, features_path, *, d_v: int, clips_per_action: int,
                       d_t: int = 768, text_features_path=None,
                       target_domains=()) -> FeatureStore:
    """Join an annotation CSV with raw feature blobs into a FeatureStore.

    Blob rows must follow CSV row order, clips-major. The narration vocab
    is built from whitespace tokens in order of first appearance.
    """
    rows = read_annotation_csv(csv_path)
    if not rows:
        raise DataError(f"{csv_path}: no annotation rows")
    visual = np.fromfile(features_path, dtype="<f4")
    expected = len(rows) * clips_per_action * d_v
    if visual.size != expected:
        raise DataError(f"{features_path}: got {visual.size} floats, expected "
                        f"{expected} ({len(rows)} actions x {clips_per_action} "
                        f"clips x {d_v})")
    vocab: list[str] = []
    vocab_index: dict[str, int] = {}
    records = []
    for i, row in enumerate(rows):
        token_ids = []
        for tok in row["narration"].split():
            if tok not in vocab_index:
                vocab_index[tok] = len(vocab)
                vocab.append(tok)
            token_ids.append(vocab_index[tok])
        records.append(ActionRecord(
            action_id=i, video_id=row["video_id"], domain_id=row["domain_id"],
            verb=row["verb_class"], noun=row["noun_class"], narration=tuple(token_ids),
            temporal_index=row["temporal_index"],
            blob_offset=i * clips_per_action * d_v, n_clips=clips_per_action))
    text = None
    if text_features_path is not None:
        text = np.fromfile(text_features_path, dtype="<f4")
        if text.size != len(rows) * d_t:
            raise DataError(f"{text_features_path}: got {text.size} floats, "
                            f"expected {len(rows) * d_t}")
    domains = sorted({r.domain_id for r in records})
    absent = sorted(set(target_domains).difference(domains))
    if absent:
        raise DataError(f"{csv_path}: target domains {absent} have no actions")
    target = tuple(d for d in domains if d in set(target_domains))
    source = tuple(d for d in domains if d not in set(target_domains))
    meta = {"name": Path(csv_path).stem, "d_v": d_v, "d_t": d_t,
            "clips_per_action": clips_per_action}
    return FeatureStore(meta, records, vocab, DatasetSplit(source, target), visual, text)
