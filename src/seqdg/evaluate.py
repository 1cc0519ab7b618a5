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
    "topk_indices",
    "predict_windows",
    "sliding_window_predict",
    "topk_accuracy",
    "accuracy",
]


@dataclass
class Prediction:
    action_id: int
    verb_logits: np.ndarray
    noun_logits: np.ndarray
    topk_verbs: np.ndarray
    topk_nouns: np.ndarray


def topk_indices(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest logits, descending; ties break toward the
    smaller class id so results are reproducible."""
    if k > logits.size:
        raise ValueError(f"top-{k} of {logits.size} classes")
    order = np.lexsort((np.arange(logits.size), -logits))
    return order[:k]


def predict_windows(cache: FeatureCache, model: SeqDGModel, windows,
                    batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked verb and noun logits of `windows`, in batches of `batch_size`."""
    parts = [model.predict_logits(cache.batch(windows[start:start + batch_size]).visual)
             for start in range(0, len(windows), batch_size)]
    return (np.concatenate([verb for verb, _noun in parts]),
            np.concatenate([noun for _verb, noun in parts]))


def sliding_window_predict(store: FeatureStore, model: SeqDGModel, *,
                           domains=None, k: int = 5, batch_size: int = 256,
                           W: int | None = None) -> list[Prediction]:
    """One prediction per action of the requested domains (default: the
    target split), every video processed in isolation."""
    cfg = model.config
    if W is not None and W != cfg.W:
        raise ValueError(f"window length {W} does not match the trained model "
                         f"(W={cfg.W})")
    if domains is None:
        domains = store.split.target
    records = store.records_for(domains)
    windows = build_windows(records, cfg.W)
    if not windows:
        return []
    verb_logits, noun_logits = predict_windows(FeatureCache(store, records), model,
                                               windows, batch_size)
    return [Prediction(action_id=win.center_record.action_id,
                       verb_logits=verb_logits[i], noun_logits=noun_logits[i],
                       topk_verbs=topk_indices(verb_logits[i], min(k, cfg.n_verbs)),
                       topk_nouns=topk_indices(noun_logits[i], min(k, cfg.n_nouns)))
            for i, win in enumerate(windows)]


def _in_topk(logits: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Whether each row's label ranks among its k largest logits, ties
    ranked toward the smaller class id as in `topk_indices`. A label
    outside the class range is never in the top k."""
    n_classes = logits.shape[-1]
    if k > n_classes:
        raise ValueError(f"top-{k} of {n_classes} classes")
    valid = (labels >= 0) & (labels < n_classes)
    own = logits[np.arange(len(labels)), np.where(valid, labels, 0)][:, None]
    ahead = (logits > own) | ((logits == own) & (np.arange(n_classes) < labels[:, None]))
    return valid & (ahead.sum(axis=-1) < k)


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
