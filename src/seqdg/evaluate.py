"""Sliding-window inference and top-k accuracy reporting.

Each action is classified from the window centered on it, built exactly
as in training (replicate-padded at video edges) but with no masking, no
decoders, and no text. Metrics follow the verb/noun/action convention:
an action counts as correct at k only if both the verb and the noun
truth appear in their respective top-k lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqdg.data import FeatureCache, FeatureStore, build_windows
from seqdg.model import SeqDGModel

__all__ = [
    "Prediction",
    "head_k",
    "topk_indices",
    "predict_windows",
    "sliding_window_predict",
    "topk_accuracy",
    "accuracy",
]


# windows per inference forward, in `fit`'s source accuracy and in
# `sliding_window_predict`; both ran faster at 256 than at 512
INFERENCE_BATCH = 256


@dataclass
class Prediction:
    action_id: int
    verb_logits: np.ndarray
    noun_logits: np.ndarray
    topk_verbs: np.ndarray
    topk_nouns: np.ndarray


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


def predict_windows(cache: FeatureCache, model: SeqDGModel,
                    windows) -> tuple[np.ndarray, np.ndarray]:
    """Stacked verb and noun logits of `windows`, `INFERENCE_BATCH` at a time."""
    parts = [model.predict_logits(cache.batch(windows[start:start + INFERENCE_BATCH]).visual)
             for start in range(0, len(windows), INFERENCE_BATCH)]
    return (np.concatenate([verb for verb, _noun in parts]),
            np.concatenate([noun for _verb, noun in parts]))


def sliding_window_predict(store: FeatureStore, model: SeqDGModel, *,
                           domains=None, k: int = 5) -> list[Prediction]:
    """One prediction per action of the requested domains (default: the
    target split), in the store's record order, every video processed in
    isolation."""
    cfg = model.config
    if domains is None:
        domains = store.split.target
    actions = store.records_for(domains)
    windows = build_windows(actions, cfg.W)
    if not len(windows):
        return []
    verb_logits, noun_logits = predict_windows(FeatureCache(store, actions), model, windows)
    topk_verbs = topk_indices(verb_logits, head_k(k, cfg.n_verbs))
    topk_nouns = topk_indices(noun_logits, head_k(k, cfg.n_nouns))
    # window i is centred on action i
    return [Prediction(action_id, verb_logits[i], noun_logits[i], topk_verbs[i], topk_nouns[i])
            for i, action_id in enumerate(actions.ids.tolist())]


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
    """Top-k verb%, noun%, and action% (both heads correct) over aligned
    (verb, noun) label pairs."""
    if len(predictions) != len(labels):
        raise ValueError(f"{len(predictions)} predictions vs {len(labels)} labels")
    if not predictions:
        raise ValueError("empty prediction set")
    return topk_accuracy(np.stack([p.verb_logits for p in predictions]),
                         np.stack([p.noun_logits for p in predictions]),
                         [verb for verb, _noun in labels], [noun for _verb, noun in labels], k)
