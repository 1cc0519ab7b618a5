"""Correctness helpers computed apart from the program under test.

Everything here is plain numpy over the program's inputs and saved
parameters: a re-implementation of the text-free inference forward, a
window builder, the single-action accuracy ceiling of a synthetic
dataset, and a top-k recount. The benchmark compares the program's
outputs against these; it never compares against stored copies of
earlier output.
"""

from __future__ import annotations

import math

import numpy as np


def _array(value) -> np.ndarray:
    return np.asarray(getattr(value, "data", value), dtype=np.float64)


def window_indices(records, W: int) -> list[list[int]]:
    """Index lists of W consecutive actions, one window per record, in
    record order. Each video is ordered by temporal index and slots past
    either end repeat the nearest action of the video."""
    by_video: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        by_video.setdefault(rec.video_id, []).append(i)
    half = (W - 1) // 2
    windows: dict[int, list[int]] = {}
    for members in by_video.values():
        members.sort(key=lambda i: records[i].temporal_index)
        n = len(members)
        for pos, i in enumerate(members):
            windows[i] = [members[min(max(pos + off, 0), n - 1)]
                          for off in range(-half, half + 1)]
    return [windows[i] for i in range(len(records))]


def window_features(store, records, W: int) -> np.ndarray:
    """(N, W, D_V) clip-averaged float64 features, read straight from the
    store's float32 blob."""
    d_v = store.d_v
    per_action = np.stack([
        store.visual[r.blob_offset:r.blob_offset + r.n_clips * d_v]
        .reshape(r.n_clips, d_v).astype(np.float64).mean(axis=0)
        for r in records])
    return per_action[np.asarray(window_indices(records, W))]


def _layer_norm(x, gain, bias, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + eps) * gain + bias


def _self_attention(h, p, prefix, n_heads):
    n, length, d = h.shape
    dh = d // n_heads

    def heads(name):
        y = h @ p[f"{prefix}.{name}.weight"] + p[f"{prefix}.{name}.bias"]
        return y.reshape(n, length, n_heads, dh).transpose(0, 2, 1, 3)

    q, k, v = heads("q"), heads("k"), heads("v")
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    ctx = (weights @ v).transpose(0, 2, 1, 3).reshape(n, length, d)
    return ctx @ p[f"{prefix}.out.weight"] + p[f"{prefix}.out.bias"]


def reference_logits(named, config, x) -> tuple[np.ndarray, np.ndarray]:
    """Inference forward of a mean-aggregating model: projection plus the
    positional table, the verb and noun classification tokens appended
    after the W positions, post-norm encoder layers, then the two heads.

    `named` maps parameter names to tensors or arrays, as
    `ModelParams.named()` returns them; `config` supplies W, the head
    count, the encoder depth and the layer-norm epsilon; `x` is
    (N, W, D_V).
    """
    p = {name: _array(value) for name, value in named.items()}
    x = np.asarray(x, dtype=np.float64)
    n, W = x.shape[0], config.W
    eps = config.layer_norm_eps
    h = x @ p["proj.weight"] + p["proj.bias"] + p["pos"]
    tokens = np.broadcast_to(np.stack([p["cls_verb"], p["cls_noun"]]),
                             (n, 2, h.shape[-1]))
    seq = np.concatenate([h, tokens], axis=1)
    for i in range(config.n_enc_layers):
        pre = f"enc.{i}"
        seq = _layer_norm(_self_attention(seq, p, f"{pre}.attn", config.n_heads) + seq,
                          p[f"{pre}.ln1.gain"], p[f"{pre}.ln1.bias"], eps)
        hidden = np.maximum(seq @ p[f"{pre}.ff_in.weight"] + p[f"{pre}.ff_in.bias"], 0.0)
        ff = hidden @ p[f"{pre}.ff_out.weight"] + p[f"{pre}.ff_out.bias"]
        seq = _layer_norm(ff + seq, p[f"{pre}.ln2.gain"], p[f"{pre}.ln2.bias"], eps)
    verb = seq[:, W] @ p["head_verb.weight"] + p["head_verb.bias"]
    noun = seq[:, W + 1] @ p["head_noun.weight"] + p["head_noun.bias"]
    return verb, noun


def _mean_cross_entropy(logits, targets) -> float:
    m = logits.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))[:, 0]
    return float((lse - logits[np.arange(len(targets)), targets]).mean())


def reference_cross_entropy(named, config, x, verbs, nouns) -> float:
    """Classification loss (verb plus noun mean cross entropy) of the
    reference forward on one batch."""
    verb_logits, noun_logits = reference_logits(named, config, x)
    return (_mean_cross_entropy(verb_logits, np.asarray(verbs))
            + _mean_cross_entropy(noun_logits, np.asarray(nouns)))


def single_action_ceiling(truth: dict, records) -> float:
    """Best action top-1 (%) any classifier that sees one action at a time
    can reach on `records`, from a parsed `generator_truth.json`.

    Actions of one domain whose labels map to the same (verb, noun)
    prototype have identically distributed features, so within such a
    group a single-action classifier scores at most the count of the
    group's most frequent label.
    """
    verb_protos = np.asarray(truth["verb_protos"], dtype=np.float64)
    noun_protos = np.asarray(truth["noun_protos"], dtype=np.float64)
    groups: dict[tuple, dict[tuple[int, int], int]] = {}
    for r in records:
        key = (r.domain_id, verb_protos[r.verb].tobytes(), noun_protos[r.noun].tobytes())
        counts = groups.setdefault(key, {})
        counts[(r.verb, r.noun)] = counts.get((r.verb, r.noun), 0) + 1
    best = sum(max(counts.values()) for counts in groups.values())
    return 100.0 * best / len(records)


def topk_recount(verb_logits, noun_logits, verbs, nouns, k: int) -> tuple[float, float, float]:
    """Top-k verb, noun and action accuracy (%) from logits. Ties rank the
    smaller class id first; an action is right when both of its labels
    are in their top-k lists."""
    def hits(logits, labels):
        order = np.argsort(-np.asarray(logits), axis=-1, kind="stable")[:, :k]
        return (order == np.asarray(labels)[:, None]).any(axis=-1)

    v_ok = hits(verb_logits, verbs)
    n_ok = hits(noun_logits, nouns)
    n = len(v_ok)
    return (100.0 * int(v_ok.sum()) / n, 100.0 * int(n_ok.sum()) / n,
            100.0 * int((v_ok & n_ok).sum()) / n)
