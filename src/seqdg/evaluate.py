"""Sliding-window inference and top-k accuracy reporting.

Each action of a split is classified from the window centered on it,
built exactly as in training (replicate-padded at video edges) but with
no masking, no decoders, and no text. The predictions come back stacked,
one row per action in a `Predictions`, and are scored as arrays.
Metrics follow the verb/noun/action convention: an action counts as
correct at k only if both the verb and the noun truth appear in their
respective top-k lists.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from seqdg.data import FeatureCache, FeatureStore, Windows, build_windows
from seqdg.model import SeqDGModel

__all__ = [
    "Prediction",
    "Predictions",
    "head_k",
    "topk_indices",
    "cpu_slots",
    "scoring_threads",
    "predict_windows",
    "sliding_window_predict",
    "topk_accuracy",
    "accuracy",
]


# windows per inference forward, in `fit`'s source accuracy and in
# `sliding_window_predict`: on one thread, 2,400 windows of the bench-width
# model took 121 ms at 128 against 157 ms at 256 (2-vCPU VM, BLAS on one
# thread), and chunks of 16 to 512 give bitwise-equal logits
INFERENCE_BATCH = 128


@dataclass
class Prediction:
    """One action's prediction, the fields of one row of a `Predictions`;
    `accuracy` also scores a sequence of these."""
    action_id: int
    verb_logits: np.ndarray
    noun_logits: np.ndarray
    topk_verbs: np.ndarray
    topk_nouns: np.ndarray


@dataclass
class Predictions:
    """Stacked predictions: row i of each array belongs to action
    `action_ids[i]`. `len()` counts actions."""
    action_ids: np.ndarray
    verb_logits: np.ndarray
    noun_logits: np.ndarray
    topk_verbs: np.ndarray
    topk_nouns: np.ndarray

    def __len__(self) -> int:
        return len(self.action_ids)


def topk_indices(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest logits along the last axis, descending;
    ties break toward the smaller class id so results are reproducible."""
    if not 1 <= k <= logits.shape[-1]:
        raise ValueError(f"top-{k} of {logits.shape[-1]} classes")
    return np.argsort(-logits, axis=-1, kind="stable")[..., :k]


def head_k(k: int, n_classes: int) -> int:
    """The k a head of `n_classes` classes is ranked and scored at: `k`,
    or every class when there are fewer. A k below 1 stays as it is, for
    `topk_indices` to reject."""
    return min(k, n_classes)


def _blas_threads(cpus: int) -> int:
    """The threads each BLAS call takes: the first positive count in
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, the order OpenBLAS reads
    them in, else every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads >= 1:
            return threads
    return cpus


def cpu_slots() -> int:
    """Threads or processes that may run at once beside BLAS: the CPUs
    this process may use over the threads each BLAS call takes, at least
    one. With BLAS unpinned its own threads already fill the CPUs, and
    the answer is 1. Scoring threads and fitting processes share it."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // _blas_threads(cpus))


def scoring_threads(n_chunks: int) -> int:
    """Threads that score `n_chunks` inference chunks: `cpu_slots`, and no
    more than leaves each thread two chunks."""
    return max(1, min(cpu_slots(), n_chunks // 2))


def predict_windows(cache: FeatureCache, model: SeqDGModel,
                    windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """Stacked verb and noun logits of `windows`, `INFERENCE_BATCH` at a time.

    With n = `scoring_threads` above one, the calling thread and n - 1
    pool threads score the chunks, each taking the next unscored chunk
    until none is left, so a thread that is held up leaves its share to
    the others. Every chunk is the same computation on any thread, so the
    logits are bitwise those of one thread. Every pool thread has ended
    on return.
    """
    cfg = model.config
    starts = range(0, len(windows), INFERENCE_BATCH)
    parts = [None] * len(starts)
    claim = threading.Lock()
    unscored = iter(range(len(starts)))

    def score():
        while True:
            with claim:
                i = next(unscored, None)
            if i is None:
                return
            chunk = windows[starts[i]:starts[i] + INFERENCE_BATCH]
            parts[i] = model.predict_logits(cache.batch(chunk).visual)

    n = scoring_threads(len(starts))
    if n == 1:
        score()
    else:
        with ThreadPoolExecutor(n - 1) as pool:
            others = [pool.submit(score) for _ in range(n - 1)]
            score()
            for future in others:
                future.result()
    if not parts:
        return np.empty((0, cfg.n_verbs)), np.empty((0, cfg.n_nouns))
    return (np.concatenate([verb for verb, _noun in parts]),
            np.concatenate([noun for _verb, noun in parts]))


def sliding_window_predict(store: FeatureStore, model: SeqDGModel, *,
                           split: str = "target", k: int = 5) -> Predictions:
    """Predictions of every action of the `split` ("source" or "target"),
    which must hold one, in the store's record order, every video
    processed in isolation."""
    cfg = model.config
    actions = store.split_actions(split)
    windows = build_windows(actions, cfg.W)
    verb_logits, noun_logits = predict_windows(FeatureCache(store, actions), model, windows)
    # window i is centred on action i
    return Predictions(actions.ids, verb_logits, noun_logits,
                       topk_indices(verb_logits, head_k(k, cfg.n_verbs)),
                       topk_indices(noun_logits, head_k(k, cfg.n_nouns)))


def _in_topk(logits: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Whether each row's label is among its top `head_k` logits; a label
    outside the class range never is."""
    return (topk_indices(logits, head_k(k, logits.shape[-1])) == labels[:, None]).any(axis=-1)


def topk_accuracy(verb_logits: np.ndarray, noun_logits: np.ndarray, verbs, nouns,
                  k: int = 1) -> tuple[float, float, float]:
    """Top-k verb%, noun%, and action% (both heads correct) of stacked
    logits, shape (N, classes), against N (verb, noun) labels."""
    v_ok = _in_topk(verb_logits, np.asarray(verbs), k)
    n_ok = _in_topk(noun_logits, np.asarray(nouns), k)
    n = len(v_ok)
    return (100.0 * int(v_ok.sum()) / n, 100.0 * int(n_ok.sum()) / n,
            100.0 * int((v_ok & n_ok).sum()) / n)


def accuracy(predictions, labels, k: int = 1) -> tuple[float, float, float]:
    """Top-k verb%, noun%, and action% (both heads correct) of a
    `Predictions`, or of a sequence of `Prediction`s, over aligned (verb,
    noun) label pairs."""
    if len(predictions) != len(labels):
        raise ValueError(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not len(predictions):
        raise ValueError("empty prediction set")
    if isinstance(predictions, Predictions):
        verb_logits, noun_logits = predictions.verb_logits, predictions.noun_logits
    else:
        verb_logits = np.stack([p.verb_logits for p in predictions])
        noun_logits = np.stack([p.noun_logits for p in predictions])
    verbs, nouns = np.asarray(labels).T
    return topk_accuracy(verb_logits, noun_logits, verbs, nouns, k)
