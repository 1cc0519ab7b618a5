"""Dataset ingestion, window construction, and sequence mixing.

A dataset on disk is a JSON manifest plus a flat little-endian float32
feature blob (clips-major per action), optionally joined by a second
blob of precomputed per-action text features. The manifest (version 3)
is a small header: the action table lives in a third blob that it
names, little-endian int64, one column per field back to back in
`_COLUMNS` order and then every narration's tokens. The header gives
the action and token counts and the tables of video and domain names
that the video and domain columns are codes into. It is written as
compact JSON with sorted keys (any indentation would force Python's
pure-Python encoder); `load` reads any layout of the same value. Each
blob is read as bytes that must hold a whole number of its values
(`_blob`), and the action blob exactly the columns and tokens the
header counts; the table then passes one check (codes inside their
tables, narration lengths against the token count). Every float of the
feature and text blobs must be finite, in a loaded store and in a built
one alike. Versions 1 and 2,
which kept the actions in the manifest, are no longer read: `seqdg
synth-gen` and `seqdg import` rewrite a store. In memory the
columns become a `FeatureStore` over an `Actions` table: one int64
column per integer field, video and domain ids as codes, and the
narrations as one ragged token array. The store builds each split's
table once and hands it out through `split_actions`, and a loaded store
records the files it was read from, the action blob among them.
Training and evaluation slice a
split's table into `Windows` of W consecutive actions, an (N, W) array
of row indices with a padding mask, and assemble dense batches from
those through a `FeatureCache`, the one place where an action's clips
are averaged; its rows are the table's, so a batch indexes it by the
windows' rows. Windows are arrays only: indexing them by a slice or an
index array gives the `Windows` of those windows. `ActionRecord` is a
per-row view of the table, built only when something asks for it.

SeqMix lives here too: `seqmix` takes a batch of windows and, with a
configured probability per window, swaps one slot for a same-label action
from a different source domain, features, narration tokens and domain id
travelling together; `SeqMixPool` holds each row's candidates.
"""

from __future__ import annotations

import csv
import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "ActionRecord",
    "Actions",
    "Windows",
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
MANIFEST_VERSION = 3
ACTION_BLOB = "actions.i64"
ANNOTATION_COLUMNS = ["video_id", "domain_id", "temporal_index",
                      "verb_class", "noun_class", "narration"]


class DataError(Exception):
    """Malformed or inconsistent dataset input."""


# every column of an action table, in the order the action blob holds
# them, back to back as int64, the video and domain ids as codes into the
# header's name tables. Each column holds one entry per action, except
# `narration_tokens`: the narrations concatenated, as many tokens as
# `narration_lengths` sums to. `Actions.to_arrays` gives and
# `Actions.from_codes` takes the columns, `_blob_table` reads them, and
# `Actions.from_columns` takes them as Python values with the ids as names.
_COLUMNS = ("action_id", "video_id", "domain_id", "verb", "noun", "temporal_index",
            "blob_offset", "n_clips", "narration_lengths", "narration_tokens")
_INT64 = range(-2**63, 2**63)
# the keys of a manifest's `actions` header
_BLOB_KEYS = {"blob", "n_actions", "n_tokens", "video_names", "domain_names"}


@dataclass(frozen=True)
class ActionRecord:
    """A view of one row of an `Actions` table: labels, narration tokens,
    and where the action's per-clip features live in the blob."""

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


def _intern(names: list) -> tuple[tuple, np.ndarray]:
    """The distinct `names` in order of first appearance, and each name's
    index among them."""
    distinct = tuple(dict.fromkeys(names))
    code = {name: i for i, name in enumerate(distinct)}
    return distinct, np.fromiter(map(code.__getitem__, names), np.int64, len(names))


# the columns with one entry per action; `tokens` and the name tables are
# shared by every table taken from the same one
_ROW_COLUMNS = ("ids", "video", "domain", "verbs", "nouns", "temporal", "offsets",
                "n_clips", "token_start", "token_end")


@dataclass(eq=False)
class Actions(Sequence):
    """A table of actions. Each integer field is an int64 column; video
    and domain ids are codes into `video_names` and `domain_names`; the
    narration of row i is `tokens[token_start[i]:token_end[i]]`.

    As a sequence it holds one `ActionRecord` view per row, all built on
    the first access and kept."""

    ids: np.ndarray
    video: np.ndarray
    video_names: tuple[str, ...]
    domain: np.ndarray
    domain_names: tuple[str, ...]
    verbs: np.ndarray
    nouns: np.ndarray
    temporal: np.ndarray
    offsets: np.ndarray       # float32 elements into the visual blob
    n_clips: np.ndarray
    token_start: np.ndarray
    token_end: np.ndarray
    tokens: np.ndarray
    _views: list | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_columns(cls, *, action_id, video_id, domain_id, verb, noun, temporal_index,
                     blob_offset, n_clips, narration_lengths, narration_tokens) -> "Actions":
        """The table of one sequence of values per column (`_COLUMNS`):
        video and domain ids interned into codes and name tables in order of
        first appearance, every other column made int64 (an int outside
        int64 raises OverflowError), then `from_codes`."""
        video_names, video = _intern(video_id)
        domain_names, domain = _intern(domain_id)
        ids, verbs, nouns, temporal, offsets, n_clips, lengths, tokens = (
            np.array(column, dtype=np.int64) for column in (
                action_id, verb, noun, temporal_index, blob_offset, n_clips,
                narration_lengths, narration_tokens))
        return cls.from_codes(video_names, domain_names, ids, video, domain, verbs, nouns,
                              temporal, offsets, n_clips, lengths, tokens)

    @classmethod
    def from_codes(cls, video_names, domain_names, *columns) -> "Actions":
        """The one builder of a table: the int64 `columns` in `_COLUMNS`
        order, video and domain ids as codes into `video_names` and
        `domain_names`, row i's narration being the next `narration_lengths[i]`
        entries of `narration_tokens`. The codes must index their tables and
        the lengths be non-negative and sum to the token count (`_checked`)."""
        ids, video, domain, verbs, nouns, temporal, offsets, n_clips, lengths, tokens = columns
        token_end = np.cumsum(lengths)
        return cls(ids, video, tuple(video_names), domain, tuple(domain_names), verbs, nouns,
                   temporal, offsets, n_clips, token_end - lengths, token_end, tokens)

    def take(self, rows) -> "Actions":
        """The table of `rows` (an index array), in that order."""
        return replace(self, **{name: getattr(self, name)[rows] for name in _ROW_COLUMNS})

    def in_domains(self, domains) -> np.ndarray:
        """Per row, whether its domain is one of `domains`."""
        wanted = set(domains)
        return np.isin(self.domain, [code for code, name in enumerate(self.domain_names)
                                     if name in wanted])

    def labels(self) -> list[tuple[int, int]]:
        """The (verb, noun) label of each row."""
        return list(zip(self.verbs.tolist(), self.nouns.tolist()))

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The table as int64 columns (`_COLUMNS`), as `from_codes` takes
        them and the action blob holds them: video and domain ids as
        codes, and `narration_tokens` only the rows' own narrations, in row
        order."""
        lengths = self.token_end - self.token_start
        return dict(zip(_COLUMNS, (self.ids, self.video, self.domain, self.verbs, self.nouns,
                                   self.temporal, self.offsets, self.n_clips, lengths,
                                   self.tokens[_token_gather(self.token_start, lengths)])))

    def views(self) -> list[ActionRecord]:
        """One `ActionRecord` per row, built once."""
        if self._views is None:
            narrations = (tuple(self.tokens[start:end].tolist()) for start, end in
                          zip(self.token_start.tolist(), self.token_end.tolist()))
            self._views = list(map(
                ActionRecord, self.ids.tolist(),
                map(self.video_names.__getitem__, self.video.tolist()),
                map(self.domain_names.__getitem__, self.domain.tolist()),
                self.verbs.tolist(), self.nouns.tolist(), narrations,
                self.temporal.tolist(), self.offsets.tolist(), self.n_clips.tolist()))
        return self._views

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return self.views()[index]

    def __iter__(self):
        return iter(self.views())


@dataclass(frozen=True)
class DatasetSplit:
    source: tuple[str, ...]
    target: tuple[str, ...]

    @classmethod
    def from_targets(cls, domains, target_domains) -> "DatasetSplit":
        """`domains` split into the rest and `target_domains`, each in name order."""
        absent = sorted(set(target_domains).difference(domains))
        if absent:
            raise DataError(f"target domains {absent} have no actions")
        return cls(source=tuple(sorted(set(domains).difference(target_domains))),
                   target=tuple(sorted(set(target_domains))))

    def __post_init__(self):
        overlap = set(self.source) & set(self.target)
        if overlap:
            raise DataError(f"source and target domains overlap: {sorted(overlap)}")
        listed = self.source + self.target
        repeated = sorted({d for d in listed if listed.count(d) > 1})
        if repeated:
            raise DataError(f"domains {repeated} are listed more than once")


class FeatureStore:
    """Immutable view over a manifest and its feature blobs, with its
    actions as one `Actions` table. `files` maps the name of each file a
    loaded store was read from to its path."""

    def __init__(self, meta: dict, actions: Actions, vocab: list[str],
                 split: DatasetSplit, visual: np.ndarray,
                 text: np.ndarray | None = None):
        self.meta = meta
        self.d_v, self.d_t, self.clips_per_action = (
            int(meta[key]) for key in ("d_v", "d_t", "clips_per_action"))
        self.actions = actions
        self.vocab = vocab
        self.split = split
        self.visual = visual
        self.text = text
        self.files: dict[str, Path] = {}
        self._validate()

    def _validate(self):
        for key in ("d_v", "d_t", "clips_per_action"):
            if self.meta[key] < 1:
                raise DataError(f"{key} must be >= 1, got {self.meta[key]}")
        actions = self.actions
        expected = sum(actions.n_clips.tolist()) * self.d_v
        if self.visual.size != expected:
            raise DataError(f"feature blob holds {self.visual.size} floats, "
                            f"manifest expects {expected}")
        checked = (actions, self.d_v, self.visual.size, len(self.vocab))
        row = _first_failing_action(*checked)
        if row is not None:
            # the first rule the first failing row breaks names it
            message = next(message for mask, message in _action_rules(*checked) if mask[row])
            raise DataError(message.format(id=int(actions.ids[row]),
                                           verb=int(actions.verbs[row]),
                                           noun=int(actions.nouns[row])))
        if self.text is not None and self.text.size != len(actions) * self.d_t:
            raise DataError("text feature blob does not match action count")
        _check_finite("feature blob", self.visual, actions,
                      actions.offsets, actions.offsets + actions.n_clips * self.d_v)
        if self.text is not None:
            _check_finite("text blob", self.text, actions,
                          actions.ids * self.d_t, (actions.ids + 1) * self.d_t)
        counts = np.bincount(actions.domain, minlength=len(actions.domain_names))
        present = {name for name, count in zip(actions.domain_names, counts) if count}
        stray = present.difference(self.split.source, self.split.target)
        if stray:
            raise DataError(f"actions of domains {sorted(stray)} belong to neither "
                            "the source nor the target split")
        # each split is windowed on its own, so each must order into videos
        self._splits = {name: self.records_for(getattr(self.split, name))
                        for name in ("source", "target")}
        for table in self._splits.values():
            _video_order(table)

    def clips(self, record: ActionRecord) -> np.ndarray:
        """Per-clip features for one action, shape (n_clips, D_V)."""
        start = record.blob_offset
        out = self.visual[start:start + record.n_clips * self.d_v]
        return out.reshape(record.n_clips, self.d_v)

    def records_for(self, domains) -> Actions:
        """The actions of `domains`, in store order: a table that is also
        a sequence of `ActionRecord` views."""
        return self.actions.take(np.flatnonzero(self.actions.in_domains(domains)))

    def split_actions(self, split: str) -> Actions:
        """The actions of the `split` ("source" or "target") domains, in
        store order, as one table built once; there must be at least one."""
        actions = self._splits[split]
        if not len(actions):
            raise DataError(f"the dataset's {split} domains hold no actions")
        return actions

    # -- persistence ---------------------------------------------------------

    def save(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.visual.astype("<f4", copy=False).tofile(directory / "features.f32")
        columns = self.actions.to_arrays()
        np.concatenate(list(columns.values())).astype("<i8", copy=False).tofile(
            directory / ACTION_BLOB)
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
            "actions": {"blob": ACTION_BLOB, "n_actions": len(self.actions),
                        "n_tokens": len(columns["narration_tokens"]),
                        "video_names": list(self.actions.video_names),
                        "domain_names": list(self.actions.domain_names)},
        }
        if self.text is not None:
            self.text.astype("<f4", copy=False).tofile(directory / "text_features.f32")
            manifest["text_blob"] = "text_features.f32"
        path = directory / "manifest.json"
        path.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")),
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, manifest_path) -> "FeatureStore":
        manifest_path = Path(manifest_path)
        if manifest_path.is_dir():
            manifest_path = manifest_path / "manifest.json"
        try:
            manifest = json.loads(_read("manifest", Path.read_text, manifest_path,
                                        encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError, an int past Python's digit
            # limit, or nesting past the recursion limit
            raise DataError(f"{manifest_path}: not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise DataError(f"{manifest_path}: manifest must be a JSON object")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise DataError(f"unrecognized manifest format {manifest.get('format')!r}")
        version = manifest.get("version")
        if type(version) is int and version in (1, 2):
            raise DataError(f"manifest version {version} is no longer read; re-run `seqdg "
                            "synth-gen` or `seqdg import` to rewrite the store")
        if type(version) is not int or version != MANIFEST_VERSION:
            raise DataError(f"unsupported manifest version {version!r}")
        base = manifest_path.parent
        try:
            actions, action_blob = _blob_table(manifest["actions"], base)
            unsplit = [d["id"] for d in manifest["domains"]
                       if d["split"] not in ("source", "target")]
            if unsplit:
                raise DataError(f"{manifest_path}: domains {unsplit} have a split that "
                                "is neither 'source' nor 'target'")
            split = DatasetSplit(
                source=tuple(d["id"] for d in manifest["domains"] if d["split"] == "source"),
                target=tuple(d["id"] for d in manifest["domains"] if d["split"] == "target"))
            visual = _blob("feature blob", base / manifest["feature_blob"], "<f4")
            text = None
            if manifest.get("text_blob"):
                text = _blob("text blob", base / manifest["text_blob"], "<f4")
            meta = {k: manifest[k] for k in ("name", "d_v", "d_t", "clips_per_action")}
            vocab = list(manifest["vocab"])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{manifest_path}: malformed manifest: {exc!r}") from exc
        for key in ("d_v", "d_t", "clips_per_action"):
            if type(meta[key]) is not int:
                raise DataError(f"{manifest_path}: {key!r} must be int, got {meta[key]!r}")
        if type(manifest["vocab"]) is not list or not {str}.issuperset(map(type, vocab)):
            raise DataError(f"{manifest_path}: 'vocab' must be a list of strings")
        store = cls(meta, actions, vocab, split, visual, text)
        store.files = {name: base / name for name in (manifest_path.name, manifest["feature_blob"],
                                                      manifest.get("text_blob"), action_blob)
                       if name}
        return store


def _read(what: str, read, path, **kwargs):
    """`read(path, **kwargs)`; an OSError is a DataError naming `what`."""
    try:
        return read(path, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {what}: {exc}") from exc


def _blob(what: str, path: Path, dtype: str) -> np.ndarray:
    """The blob at `path` as `dtype` values: its bytes, viewed as `dtype`
    once they hold a whole number of values. A trailing part of a value, or
    a name no file can have, is a DataError naming `what` and the blob,
    never a value dropped."""
    try:
        raw = _read(what, np.fromfile, path, dtype=np.uint8)
    except ValueError as exc:  # a NUL in the name
        raise DataError(f"{what} {Path(path).name!r}: {exc}") from exc
    size = np.dtype(dtype).itemsize
    if raw.size % size:
        raise DataError(f"{what} {Path(path).name!r} holds {raw.size} bytes, not a whole "
                        f"number of {size}-byte values")
    return raw.view(dtype)


def _blob_table(header, base: Path) -> tuple[Actions, str]:
    """The table of a manifest's `actions` header, read from the
    int64 blob it names (relative to `base`), and the blob's name. The
    header must hold exactly `_BLOB_KEYS`: the counts ints >= 0, each name
    table a list of distinct strings. The blob must hold exactly the
    columns and tokens the counts give; then the table passes `_checked`.
    A failing check raises a DataError that names the key or column and
    its first bad entry."""
    if type(header) is not dict:
        raise DataError("manifest 'actions' must be an object")
    for names, what in ((_BLOB_KEYS - header.keys(), "no key"),
                        (header.keys() - _BLOB_KEYS, "an unknown key")):
        if names:
            raise DataError(f"manifest 'actions' has {what} {sorted(names)[0]!r}")
    name = header["blob"]
    if type(name) is not str:
        raise DataError(f"manifest 'actions' key 'blob' must be str, got {name!r}")
    for key in ("n_actions", "n_tokens"):
        if type(header[key]) is not int or header[key] < 0:
            raise DataError(f"manifest 'actions' key {key!r} must be an int >= 0, "
                            f"got {header[key]!r}")
    for key in ("video_names", "domain_names"):
        names = header[key]
        if type(names) is not list:
            raise DataError(f"manifest 'actions' key {key!r} must be a list of distinct "
                            f"strings, got {type(names).__name__}")
        if not {str}.issuperset(map(type, names)) or len(set(names)) != len(names):
            seen = set()
            for index, value in enumerate(names):
                if type(value) is not str or value in seen:
                    raise DataError(f"manifest 'actions' key {key!r}, entry {index}: must "
                                    f"be a distinct str, got {value!r}")
                seen.add(value)
    n, n_tokens = header["n_actions"], header["n_tokens"]
    values = _blob("action blob", base / name, "<i8")
    rows = len(_COLUMNS) - 1
    if values.size != rows * n + n_tokens:
        raise DataError(f"action blob {name!r} holds {values.nbytes} bytes, the manifest's "
                        f"{n} actions and {n_tokens} tokens need {(rows * n + n_tokens) * 8}")
    values = values.astype(np.int64, copy=False)
    actions = Actions.from_codes(header["video_names"], header["domain_names"],
                                 *values[:rows * n].reshape(rows, n), values[rows * n:])
    return _checked(actions), name


def _checked(actions: Actions) -> Actions:
    """`actions`, once every video and domain code indexes its name table,
    no narration length is negative and the lengths sum to the token count;
    otherwise a DataError names the column and its first bad entry."""
    for name, codes, names in (("video_id", actions.video, actions.video_names),
                               ("domain_id", actions.domain, actions.domain_names)):
        outside = np.flatnonzero((codes < 0) | (codes >= len(names)))
        if outside.size:
            index = outside[0]
            raise DataError(f"manifest column {name!r}, entry {index}: code {codes[index]} "
                            f"is outside its {len(names)} names")
    lengths = actions.token_end - actions.token_start
    negative = np.flatnonzero(lengths < 0)
    if negative.size:
        index = negative[0]
        raise DataError(f"manifest column 'narration_lengths', entry {index}: negative "
                        f"length {lengths[index]}")
    n_tokens = len(actions.tokens)
    # a length past the token count could wrap the int64 sum back onto it
    if lengths.max(initial=0) > n_tokens or actions.token_end[-1:].sum() != n_tokens:
        raise DataError(f"manifest column 'narration_lengths' sums to {sum(lengths.tolist())}, "
                        f"but 'narration_tokens' holds {n_tokens} tokens")
    return actions


def _token_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices into a token array of the runs of `lengths` tokens that
    begin at `starts`, back to back in run order."""
    # each run's tokens moved from its own start to where its output starts
    return np.arange(lengths.sum()) + np.repeat(starts + lengths - np.cumsum(lengths), lengths)


def _any_token(actions: Actions, flags: np.ndarray) -> np.ndarray:
    """Per row, whether any of its narration tokens is flagged; `flags`
    has one entry per entry of `actions.tokens`."""
    seen = np.concatenate(([0], np.cumsum(flags)))
    return seen[actions.token_end] > seen[actions.token_start]


def _action_rules(actions: Actions, d_v: int, size: int, vocab: int) -> list:
    """The per-action rules in the order they are checked, each as a mask
    of the rows that break it and a message naming such a row (a format
    string over the row's `id`, `verb` and `noun`). Within a row, a rule's
    mask is exact only when the row keeps every rule before it; `d_v` is
    at least one."""
    ids, offsets, n_clips = actions.ids, actions.offsets, actions.n_clips
    n = len(ids)
    # whole clips that fit after each offset (none past the end); a
    # negative offset fails on its own, so a wrapped value does not matter.
    # Any d_v past the blob size leaves no room, so clamping it changes no
    # verdict and keeps the division inside int64.
    room = (size - offsets) // min(d_v, size + 1)
    # ids index the text blob and the feature cache, so they must be
    # exactly 0 .. n-1; a repeat is any id an earlier row holds
    repeated = np.ones(n, dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    tokens = actions.tokens
    return [
        ((ids < 0) | (ids >= n), f"action id {{id}} outside [0, {n})"),
        (repeated, "duplicate action id {id}"),
        ((actions.verbs < 0) | (actions.nouns < 0),
         "action {id}: negative label (verb {verb}, noun {noun})"),
        (n_clips < 1, "action {id}: needs at least one clip"),
        ((offsets < 0) | (n_clips > room), "action {id}: feature handle out of bounds"),
        (_any_token(actions, (tokens < 0) | (tokens >= vocab)),
         "action {id}: narration token out of vocab"),
    ]


def _check_finite(what: str, values: np.ndarray, actions: Actions, starts, ends):
    """Refuse NaN and Inf in the blob `values`, whose floats
    `values[starts[i]:ends[i]]` belong to row i of `actions`: a DataError
    names `what` and the first row holding one, or else its first index."""
    finite = np.isfinite(values)
    if finite.all():
        return
    seen = np.concatenate(([0], np.cumsum(~finite)))
    rows = np.flatnonzero(seen[ends] > seen[starts])
    where = (f"the features of action {actions.ids[rows[0]]}" if rows.size
             else f"float {finite.argmin()}")
    raise DataError(f"{what} holds NaN or Inf, first in {where}")


def _first_failing_action(actions: Actions, d_v: int, size: int, vocab: int) -> int | None:
    """The index of the first row that breaks one of the `_action_rules`;
    None when every row passes. A `d_v` below one, which `FeatureStore`
    rejects before, gives 0."""
    if d_v < 1:
        return 0
    bad = np.logical_or.reduce([mask for mask, _ in _action_rules(actions, d_v, size, vocab)])
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# windows


@dataclass(eq=False)
class Windows:
    """Windows as rows of one `Actions` table: `rows[i]` holds the W slots
    of window i and `padding[i]` flags the slots that replicate an edge
    action. The center slot is W // 2, and window i's center action is
    row `rows[i, center]`. Indexing by a slice or an index array gives
    the `Windows` of those windows, over the same table."""

    actions: Actions
    rows: np.ndarray          # (N, W) int64
    padding: np.ndarray       # (N, W) bool

    @property
    def center(self) -> int:
        return self.rows.shape[1] // 2

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index) -> "Windows":
        rows = self.rows[index]
        if rows.ndim != 2:
            raise TypeError("index Windows by a slice or an index array, not "
                            f"{type(index).__name__}")
        return Windows(self.actions, rows, self.padding[index])


def _video_order(actions: Actions) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `actions` sorted by video, then temporal index, and for
    each sorted position whether it starts a video. Every video's temporal
    indices must be consecutive and unique; the first video in table order
    whose are not is named."""
    order = np.lexsort((actions.temporal, actions.video))
    video = actions.video[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = video[1:] != video[:-1]
    broken = ~first[1:] & (np.diff(actions.temporal[order]) != 1)
    if broken.any():
        row = np.flatnonzero(np.isin(actions.video, video[1:][broken]))[0]
        raise DataError(f"video {actions.video_names[actions.video[row]]!r}: temporal "
                        "indices must be consecutive and unique")
    return order, first


def build_windows(actions: Actions, W: int) -> Windows:
    """One window per row of the table `actions`, window i centred on row
    i. Each video is ordered by temporal index; edges replicate the nearest
    real action and flag those slots as padding."""
    if W < 1 or W % 2 == 0:
        raise DataError(f"window length must be odd and >= 1, got {W}")
    order, first = _video_order(actions)
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1                 # each sorted position's video
    lo = starts[run]
    hi = np.append(starts[1:], len(order))[run] - 1
    half = (W - 1) // 2
    slots = np.arange(len(order))[:, None] + np.arange(-half, half + 1)
    clamped = np.clip(slots, lo[:, None], hi[:, None])
    rows = np.empty((len(order), W), dtype=np.int64)
    rows[order] = order[clamped]
    padding = np.empty((len(order), W), dtype=bool)
    padding[order] = slots != clamped
    return Windows(actions, rows, padding)


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

    def embed(self, actions: Actions) -> np.ndarray:
        """(len(actions), dim) narration embeddings, row i the mean of the
        table rows of row i's tokens, bitwise `table[tokens].mean(axis=0)`.
        Narrations are taken in groups of equal length; a group's token rows
        are gathered into one (rows, length, dim) array and summed over the
        length axis, in the order `mean(axis=0)` sums them. The first row
        with an empty narration or a token outside the vocab raises."""
        lengths = actions.token_end - actions.token_start
        bad = (lengths == 0) | _any_token(actions, (actions.tokens < 0)
                                          | (actions.tokens >= self.vocab_size))
        if bad.any():
            row = np.flatnonzero(bad)[0]
            tokens = actions.tokens[actions.token_start[row]:actions.token_end[row]]
            if not tokens.size:
                raise DataError("cannot embed an empty narration")
            t = tokens[(tokens < 0) | (tokens >= self.vocab_size)][0]
            raise DataError(f"narration token {t} outside vocab of {self.vocab_size}")
        means = np.empty((len(actions), self.dim))
        for length in np.unique(lengths):
            group = np.flatnonzero(lengths == length)
            tokens = actions.tokens[actions.token_start[group, None] + np.arange(length)]
            means[group] = self.table[tokens].sum(axis=1) / length
        return means


# ---------------------------------------------------------------------------
# SeqMix


@dataclass
class SeqMixStats:
    draws: int = 0
    replaced: int = 0
    no_candidate: int = 0


_NO_ROWS = np.empty(0, dtype=np.int64)


class SeqMixPool:
    """Replacement candidates for every row of the table `actions`: the
    rows with its (verb, noun) label in a source domain other than its
    own, in table order. They are one flat array, and each row's are the
    `count[row]` entries from `start[row]`; rows that share a label and a
    domain share their entries."""

    def __init__(self, actions: Actions, source_domains):
        self.actions = actions
        rows = np.flatnonzero(actions.in_domains(source_domains))
        by_label: dict[tuple[int, int], list[int]] = {}
        for row, label in zip(rows.tolist(), zip(actions.verbs[rows].tolist(),
                                                 actions.nouns[rows].tolist())):
            by_label.setdefault(label, []).append(row)
        members = {label: np.array(rows) for label, rows in by_label.items()}
        entries: dict[tuple[int, int, int], tuple[int, int]] = {}
        lists, starts, counts = [], [], []
        size = 0
        for key in zip(actions.verbs.tolist(), actions.nouns.tolist(), actions.domain.tolist()):
            if key not in entries:
                same_label = members.get(key[:2], _NO_ROWS)
                lists.append(same_label[actions.domain[same_label] != key[2]])
                entries[key] = (size, len(lists[-1]))
                size += len(lists[-1])
            start, count = entries[key]
            starts.append(start)
            counts.append(count)
        self.candidates = np.concatenate(lists) if lists else _NO_ROWS
        self.start = np.array(starts, dtype=np.int64)
        self.count = np.array(counts, dtype=np.int64)


def seqmix(windows: Windows, pool: SeqMixPool, p_mix: float, rng,
           stats: SeqMixStats | None = None) -> Windows:
    """SeqMix for a batch of windows over the pool's table. Each window
    mixes with probability `p_mix`: one of its non-padding slots, drawn
    uniformly, is swapped for one of that row's candidates, drawn
    uniformly. The swap carries features, narration tokens and domain id;
    labels are equal by construction. A window whose slot has no candidate
    is left as it is. Every window takes its three draws from `rng`
    whether it mixes or not. Returns the mixed windows, their rows a new
    array and their padding unchanged."""
    if windows.actions is not pool.actions:
        raise DataError("seqmix: windows over another table than the pool's")
    rows, padding = windows.rows, windows.padding
    n = len(rows)
    mixes = rng.random(n) < p_mix
    real = ~padding
    nth = rng.integers(real.sum(axis=1))
    slot = (np.cumsum(real, axis=1) > nth[:, None]).argmax(axis=1)
    slot_rows = rows[np.arange(n), slot]
    count = pool.count[slot_rows]
    pick = pool.start[slot_rows] + rng.integers(np.maximum(count, 1))
    swap = mixes & (count > 0)
    mixed = rows.copy()
    mixed[swap, slot[swap]] = pool.candidates[pick[swap]]
    if stats is not None:
        stats.draws += n
        stats.replaced += int(swap.sum())
        stats.no_candidate += int((mixes & ~swap).sum())
    return Windows(windows.actions, mixed, padding)


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Dense, model-ready arrays for a list of windows."""

    visual: np.ndarray                    # (B, W, D_V), clip means
    text: np.ndarray | None               # (B, W, D_T)
    verbs: np.ndarray                     # (B,) center labels
    nouns: np.ndarray
    token_rows: np.ndarray                # (n,) int64, the window of each token
    tokens: np.ndarray                    # (n,) int64, the center narrations back to back

    def __len__(self):
        return self.visual.shape[0]


def _clip_means(store: FeatureStore, actions: Actions) -> np.ndarray:
    """(len(actions), d_v) float64 means of each action's clips, bitwise
    equal to `store.clips(rec).astype(np.float64).mean(axis=0)`.

    Actions are taken in groups of equal clip count. A group's clip rows
    are gathered by element offset (an offset need not be a multiple of
    d_v) into one (actions, clips, d_v) array and summed over the clip axis
    in float64, in the order `mean(axis=0)` sums them. (`np.add.reduceat`
    over the stacked rows sums in another order past ~128 clips.)
    """
    d_v = store.d_v
    means = np.empty((len(actions), d_v))
    if not len(actions):
        return means
    offsets, n_clips = actions.offsets, actions.n_clips
    rows = np.lib.stride_tricks.sliding_window_view(store.visual, d_v)
    for count in np.unique(n_clips):
        group = np.flatnonzero(n_clips == count)
        clips = rows[offsets[group, None] + d_v * np.arange(count)]
        means[group] = clips.sum(axis=1, dtype=np.float64) / count
    return means


class FeatureCache:
    """Dense per-action features of the table `actions` (rows of `store`),
    row i of the cache holding row i's.

    Each action's stored clips are averaged once (`_clip_means`: one
    gather and one sum per distinct clip count); a batch of windows over
    that table is then one fancy index by the windows' rows. Text
    features are cached only when `text_seed` is given: the store's text
    blob when it has one, else the narrations embedded once by the
    `NarrationEmbedder` of the store's vocab and text width seeded by
    `text_seed`.
    """

    def __init__(self, store: FeatureStore, actions: Actions, *, text_seed: int | None = None):
        self.actions = actions
        self.visual = _clip_means(store, actions)
        self.text = None
        if text_seed is not None:
            if store.text is not None:
                self.text = store.text.reshape(-1, store.d_t)[actions.ids].astype(np.float64)
            else:
                self.text = NarrationEmbedder(len(store.vocab), store.d_t,
                                              seed=text_seed).embed(actions)

    def rows(self, windows: Windows) -> np.ndarray:
        """The cache rows of `windows`, which must be windows over the table
        the cache was built on."""
        if windows.actions is not self.actions:
            raise DataError("windows over another table: not among the cached records")
        return windows.rows

    def batch(self, windows: Windows) -> Batch:
        if not len(windows):
            raise DataError("cannot materialize an empty batch")
        actions, rows = self.actions, self.rows(windows)
        center = rows[:, windows.center]
        starts = actions.token_start[center]
        lengths = actions.token_end[center] - starts
        return Batch(
            visual=self.visual[rows],
            text=self.text[rows] if self.text is not None else None,
            verbs=actions.verbs[center],
            nouns=actions.nouns[center],
            token_rows=np.repeat(np.arange(len(center)), lengths),
            tokens=actions.tokens[_token_gather(starts, lengths)])


# ---------------------------------------------------------------------------
# annotation CSV


def read_annotation_csv(path) -> list[dict]:
    """Rows of the annotation format: video_id, domain_id, temporal_index,
    verb_class, noun_class, narration. The file must be UTF-8, every int
    must fit in int64 and class ids must be >= 0."""
    with _read("annotation CSV", open, path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            return _annotation_rows(path, reader)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            # e.g. a field past the csv module's size limit; the DictReader
            # counts lines only once a row is read, its reader as it goes
            raise DataError(f"{path}: malformed row at line {reader.reader.line_num}: "
                            f"{exc}") from exc


def _annotation_rows(path, reader: csv.DictReader) -> list[dict]:
    """The parsed rows of `reader`, an annotation CSV read from `path`."""
    missing = [c for c in ANNOTATION_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise DataError(f"annotation CSV missing columns: {missing}")
    rows = []
    for row in reader:
        # the file line the row ends on: a quoted field may span lines
        lineno = reader.line_num
        if None in row:                 # the reader's key for fields past the header
            raise DataError(f"{path}: malformed row at line {lineno}: too many fields")
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
        if None in parsed.values():     # the reader's filler for a short row
            raise DataError(f"{path}: malformed row at line {lineno}: too few fields")
        for key in ("temporal_index", "verb_class", "noun_class"):
            if parsed[key] not in _INT64:
                raise DataError(f"{path}: {key} {parsed[key]} at line {lineno} is "
                                "outside int64")
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
    visual = _blob("features", features_path, "<f4")
    expected = len(rows) * clips_per_action * d_v
    if visual.size != expected:
        raise DataError(f"{features_path}: got {visual.size} floats, expected "
                        f"{expected} ({len(rows)} actions x {clips_per_action} "
                        f"clips x {d_v})")
    vocab_index: dict[str, int] = {}
    narrations = [[vocab_index.setdefault(token, len(vocab_index))
                   for token in row["narration"].split()] for row in rows]
    n, size = len(rows), clips_per_action * d_v
    actions = Actions.from_columns(
        action_id=range(n), video_id=[row["video_id"] for row in rows],
        domain_id=[row["domain_id"] for row in rows], verb=[row["verb_class"] for row in rows],
        noun=[row["noun_class"] for row in rows],
        temporal_index=[row["temporal_index"] for row in rows],
        blob_offset=[i * size for i in range(n)], n_clips=[clips_per_action] * n,
        narration_lengths=list(map(len, narrations)),
        narration_tokens=list(itertools.chain.from_iterable(narrations)))
    text = None
    if text_features_path is not None:
        text = _blob("text features", text_features_path, "<f4")
        if text.size != n * d_t:
            raise DataError(f"{text_features_path}: got {text.size} floats, "
                            f"expected {n * d_t}")
    split = DatasetSplit.from_targets(actions.domain_names, target_domains)
    meta = {"name": Path(csv_path).stem, "d_v": d_v, "d_t": d_t,
            "clips_per_action": clips_per_action}
    return FeatureStore(meta, actions, list(vocab_index), split, visual, text)
