"""Sliding-window inference and top-k accuracy reporting.

Each action of a split is classified from the window centered on it,
built exactly as in training (replicate-padded at video edges) but with
no masking, no decoders, and no text. An action sits in up to W windows,
but its features are projected once per call: the windows are scored
from a table of every action's projection. The predictions come back
stacked, one row per action in a `Predictions`, and are scored as
arrays. Each head is ranked once: the top-k ranking a `Predictions`
holds serves its accuracy at every k up to it.
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
    "accuracy",
]


# windows per inference chunk, in `fit`'s source accuracy and in
# `sliding_window_predict`. 2,400 windows of the bench-width model, at 96 /
# 128 / 192 / 256 (two runs, medians of 21 calls, 2-vCPU VM, BLAS on one
# thread): 114 / 105 / 107 / 128 and 127 / 122 / 121 / 123 ms on one
# scoring thread, 80 / 72 / 82 / 89 and 60 / 55 / 56 / 53 ms on two; no
# size beats 128 beyond the noise. Chunks of 16 to 512 give bitwise-equal
# logits.
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


def predict_windows(cache: FeatureCache, model: SeqDGModel, windows: Windows,
                    k: int = 5) -> Predictions:
    """The `Predictions` of the centre actions of `windows`, in window
    order, each head ranked at `head_k(k)`. The logits are scored
    `INFERENCE_BATCH` windows at a time.

    The calling thread projects every action of the cache once
    (`SeqDGModel.project`); each chunk then reads its windows' rows of
    that table (`SeqDGModel.predict_rows`), so no `Batch` is built. With
    n = `scoring_threads` above one, the calling thread and n - 1 pool
    threads score the chunks, each taking the next unscored chunk until
    none is left, so a thread that is held up leaves its share to the
    others. Every chunk is the same computation on any thread, so the
    logits are bitwise those of one thread. Every pool thread has ended
    on return.
    """
    cfg = model.config
    rows = cache.rows(windows)
    table = model.project(cache.visual)
    verb_logits = np.empty((len(rows), cfg.n_verbs))
    noun_logits = np.empty((len(rows), cfg.n_nouns))
    starts = range(0, len(rows), INFERENCE_BATCH)
    claim = threading.Lock()
    unscored = iter(starts)

    def score():
        while True:
            with claim:
                start = next(unscored, None)
            if start is None:
                return
            chunk = slice(start, start + INFERENCE_BATCH)
            verb_logits[chunk], noun_logits[chunk] = model.predict_rows(table, rows[chunk])

    n = scoring_threads(len(starts))
    if n == 1:
        score()
    else:
        with ThreadPoolExecutor(n - 1) as pool:
            others = [pool.submit(score) for _ in range(n - 1)]
            score()
            for future in others:
                future.result()
    return Predictions(cache.actions.ids[rows[:, windows.center]], verb_logits, noun_logits,
                       topk_indices(verb_logits, head_k(k, cfg.n_verbs)),
                       topk_indices(noun_logits, head_k(k, cfg.n_nouns)))


def sliding_window_predict(store: FeatureStore, model: SeqDGModel, *,
                           split: str = "target", k: int = 5) -> Predictions:
    """Predictions of every action of the `split` ("source" or "target"),
    which must hold one, in the store's record order, every video
    processed in isolation."""
    actions = store.split_actions(split)
    # window i is centred on action i
    return predict_windows(FeatureCache(store, actions), model,
                           build_windows(actions, model.config.W), k)


def _in_topk(logits: np.ndarray, labels: np.ndarray, k: int,
             ranking: np.ndarray | None = None) -> np.ndarray:
    """Whether each row's label is among its top `head_k` logits; a label
    outside the class range never is. The top ids are the first columns of
    `ranking`, the rows' stable ranking (best first, as `topk_indices`
    gives it), when it holds that many, else the logits are ranked afresh."""
    k = head_k(k, logits.shape[-1])
    top = (ranking[:, :k] if ranking is not None and 1 <= k <= ranking.shape[-1]
           else topk_indices(logits, k))
    return (top == labels[:, None]).any(axis=-1)


def _percentages(v_ok: np.ndarray, n_ok: np.ndarray) -> tuple[float, float, float]:
    """Verb%, noun% and action% (both heads correct) of per-row hits."""
    n = len(v_ok)
    return (100.0 * int(v_ok.sum()) / n, 100.0 * int(n_ok.sum()) / n,
            100.0 * int((v_ok & n_ok).sum()) / n)


def accuracy(predictions, labels, k: int = 1) -> tuple[float, float, float]:
    """Top-k verb%, noun%, and action% (both heads correct) of a
    `Predictions`, or of a sequence of `Prediction`s, over aligned (verb,
    noun) label pairs: a sequence of them, or an (N, 2) int array. A
    `Predictions` is scored from the top-k ranking it holds when that
    reaches k, so it is ranked once for every k up to it."""
    if len(predictions) != len(labels):
        raise ValueError(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not len(predictions):
        raise ValueError("empty prediction set")
    if isinstance(predictions, Predictions):
        heads = ((predictions.verb_logits, predictions.topk_verbs),
                 (predictions.noun_logits, predictions.topk_nouns))
    else:
        heads = ((np.stack([p.verb_logits for p in predictions]), None),
                 (np.stack([p.noun_logits for p in predictions]), None))
    return _percentages(*(_in_topk(logits, truth, k, ranking) for (logits, ranking), truth
                          in zip(heads, np.asarray(labels).T)))
