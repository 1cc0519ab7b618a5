"""Composite objective, step-decayed SGD, and the seeded training loop.

The objective sums center-action classification (verb and noun cross
entropy) with the two weighted reconstruction losses. Training is plain
SGD (momentum opt-in, default off) with a piecewise-constant learning
rate that drops by a fixed factor at the configured epochs. Every source
of randomness is a named stream derived from (seed, purpose, epoch,
index), so identical inputs give bitwise-identical checkpoints.

Two library entry points wrap the loop: `train_and_score`, one cell of an
ablation (train, then target-split action top-1), and
`objective_grad_check`, the finite-difference check of the full objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from seqdg import tensor as T
from seqdg.data import (
    FeatureCache,
    FeatureStore,
    NarrationEmbedder,
    SeqMixPool,
    SeqMixStats,
    build_windows,
    seqmix,
)
from seqdg.evaluate import accuracy, predict_windows, sliding_window_predict, topk_accuracy
from seqdg.model import ModelConfig, SeqDGModel, TrainForward
from seqdg.tensor import GradCheckReport, NonFiniteError, Tensor

__all__ = [
    "TrainConfig",
    "LossBreakdown",
    "EpochMetrics",
    "TrainResult",
    "DivergenceError",
    "composite_loss",
    "lr_at",
    "fit",
    "train_and_score",
    "objective_grad_check",
]

TEXT_LOSS_KINDS = ("mse", "token_cross_entropy")
LOSS_KEYS = ("l_c", "l_rv", "l_rt", "total")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries epoch and batch."""

    def __init__(self, epoch: int, batch: int, cause: str = ""):
        super().__init__(f"non-finite training loss at epoch {epoch}, batch {batch}"
                         + (f": {cause}" if cause else ""))
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    """Optimization hyperparameters around a model config."""

    model: ModelConfig = field(default_factory=ModelConfig)
    lambda_rv: float = 1.0
    lambda_rt: float = 1.0
    text_loss: str = "mse"
    p_mix: float = 0.5
    batch_size: int = 32
    lr: float = 0.005
    lr_decay_epochs: tuple[int, ...] = (50, 75)
    lr_decay_factor: float = 10.0
    epochs: int = 100
    momentum: float = 0.0
    seed: int = 0

    @property
    def W(self) -> int:
        return self.model.W

    def validate(self) -> list[str]:
        errs = self.model.validate()
        if self.lambda_rv < 0 or self.lambda_rt < 0:
            errs.append("loss weights must be >= 0")
        if self.text_loss not in TEXT_LOSS_KINDS:
            errs.append(f"text_loss must be one of {TEXT_LOSS_KINDS}, "
                        f"got {self.text_loss!r}")
        if not 0.0 <= self.p_mix <= 1.0:
            errs.append(f"p_mix must be in [0, 1], got {self.p_mix}")
        if self.batch_size < 1:
            errs.append("batch_size must be >= 1")
        if self.lr < 0:
            errs.append(f"lr must be >= 0, got {self.lr}")
        decays = tuple(self.lr_decay_epochs)
        if any(b <= a for a, b in zip(decays, decays[1:])):
            errs.append(f"lr_decay_epochs must be strictly increasing, got {decays}")
        if self.lr_decay_factor <= 0:
            errs.append("lr_decay_factor must be > 0")
        if self.epochs < 0:
            errs.append("epochs must be >= 0")
        if self.momentum < 0 or self.momentum >= 1:
            errs.append(f"momentum must be in [0, 1), got {self.momentum}")
        return errs

    def check(self) -> "TrainConfig":
        errs = self.validate()
        if errs:
            raise ValueError("invalid train config: " + "; ".join(errs))
        return self

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "model"}
        d["lr_decay_epochs"] = list(self.lr_decay_epochs)
        d["model"] = self.model.to_dict()
        return d


@dataclass
class LossBreakdown:
    """One objective evaluation, split into its weighted components.
    `total` always equals l_c + lambda_rv*l_rv + lambda_rt*l_rt."""

    l_c: float
    l_rv: float
    l_rt: float
    total: float


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Piecewise-constant schedule: the rate divides by the decay factor
    at each configured epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    drops = sum(1 for e in config.lr_decay_epochs if e <= epoch)
    return config.lr / (config.lr_decay_factor ** drops)


def composite_loss(outputs: TrainForward, verbs: np.ndarray, nouns: np.ndarray,
                   config: TrainConfig,
                   center_tokens=None) -> tuple[Tensor, LossBreakdown]:
    """Classification of the center action plus weighted reconstructions.

    The classification term is verb plus noun cross entropy on the center
    labels. The visual term is always mean squared error against the
    detached unmasked encoding; the text term is either the same or, when
    configured, mean token-level cross entropy of the reconstructed
    center against the center narration tokens.
    """
    l_c = T.add(T.cross_entropy(outputs.verb_logits, verbs),
                T.cross_entropy(outputs.noun_logits, nouns))
    total = l_c
    l_rv_val = 0.0
    if config.lambda_rv > 0:
        if outputs.recon_v is None:
            raise ValueError("lambda_rv > 0 but the forward produced no visual "
                             "reconstruction")
        l_rv = T.mse(outputs.recon_v, outputs.target_v)
        l_rv_val = l_rv.item()
        total = T.add(total, T.scale(l_rv, config.lambda_rv))
    l_rt_val = 0.0
    if config.lambda_rt > 0:
        if config.text_loss == "token_cross_entropy":
            if outputs.center_text_logits is None:
                raise ValueError("token text loss needs center_text_logits")
            if center_tokens is None:
                raise ValueError("token text loss needs the center narration tokens")
            rows, flat = [], []
            for i, toks in enumerate(center_tokens):
                rows.extend([i] * len(toks))
                flat.extend(toks)
            logits = T.take_rows(outputs.center_text_logits, rows)
            l_rt = T.cross_entropy(logits, np.asarray(flat, dtype=np.int64))
        else:
            if outputs.recon_t is None:
                raise ValueError("lambda_rt > 0 but the forward produced no text "
                                 "reconstruction")
            l_rt = T.mse(outputs.recon_t, outputs.target_t)
        l_rt_val = l_rt.item()
        total = T.add(total, T.scale(l_rt, config.lambda_rt))
    breakdown = LossBreakdown(
        l_c=l_c.item(), l_rv=l_rv_val, l_rt=l_rt_val,
        total=l_c.item() + config.lambda_rv * l_rv_val + config.lambda_rt * l_rt_val)
    return total, breakdown


@dataclass
class EpochMetrics:
    """One epoch: its learning rate, the window-weighted means of the batch
    loss breakdowns, and source-split top-1 accuracy after the epoch."""

    epoch: int
    lr: float
    l_c: float
    l_rv: float
    l_rt: float
    total: float
    source_verb_acc: float
    source_noun_acc: float
    source_action_acc: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class TrainResult:
    model: SeqDGModel
    metrics: list[EpochMetrics]
    seqmix_stats: SeqMixStats
    rng_state: dict


class _SGD:
    def __init__(self, tensors, momentum: float):
        self.tensors = tensors
        self.momentum = momentum
        self.velocity = [np.zeros_like(t.data) for t in tensors] if momentum > 0 else None

    def step(self, lr: float):
        for i, t in enumerate(self.tensors):
            if t.grad is None:
                continue
            if self.velocity is None:
                t.data -= lr * t.grad
            else:
                self.velocity[i] = self.momentum * self.velocity[i] + t.grad
                t.data -= lr * self.velocity[i]

    def zero(self):
        for t in self.tensors:
            t.grad = None


def _stream(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def fit(store: FeatureStore, model: SeqDGModel, config: TrainConfig, *,
        metrics_path=None) -> TrainResult:
    """Train on the source split only; deterministic given (seed, config,
    data). Aborts with DivergenceError if the loss goes non-finite."""
    config.check()
    source_domains = set(store.split.source)
    records = store.records_for(source_domains)
    if not records:
        raise ValueError("no source-domain records to train on")
    windows = build_windows(records, config.W)
    pool = SeqMixPool(records, source_domains)
    stats = SeqMixStats()
    need_recon_v = config.lambda_rv > 0
    need_recon_t = config.lambda_rt > 0
    token_text = need_recon_t and config.text_loss == "token_cross_entropy"
    needs_text = need_recon_v or need_recon_t
    embedder = (NarrationEmbedder(len(store.vocab), store.d_t, seed=config.seed)
                if needs_text and store.text is None else None)

    cache = FeatureCache(store, records, embedder=embedder, with_text=needs_text)
    verbs = np.array([w.center_record.verb for w in windows])
    nouns = np.array([w.center_record.noun for w in windows])
    optimizer = _SGD(model.params.tensors(), config.momentum)
    metrics: list[EpochMetrics] = []
    metrics_file = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        for epoch in range(config.epochs):
            lr = lr_at(epoch, config)
            order = _stream(config.seed, 3, epoch).permutation(len(windows))
            loss_sums = dict.fromkeys(LOSS_KEYS, 0.0)
            for b_index, start in enumerate(range(0, len(order), config.batch_size)):
                chunk = [windows[j] for j in order[start:start + config.batch_size]]
                if config.p_mix > 0:
                    chunk = [seqmix(win, pool, config.p_mix,
                                    _stream(config.seed, 5, epoch, j), stats=stats)
                             for win, j in zip(chunk, order[start:start + config.batch_size])]
                for win in chunk:
                    for rec in win.records:
                        if rec.domain_id not in source_domains:
                            raise ValueError(f"target-domain record from "
                                             f"{rec.domain_id!r} reached the "
                                             "training loop")
                try:
                    batch = cache.batch(chunk)
                    out = model.forward_train(batch.visual, batch.text,
                                              recon_v=need_recon_v,
                                              recon_t=need_recon_t,
                                              token_text=token_text)
                    total, parts = composite_loss(out, batch.verbs, batch.nouns,
                                                  config, batch.center_tokens)
                    optimizer.zero()
                    total.backward()
                except NonFiniteError as exc:
                    raise DivergenceError(epoch, b_index, str(exc)) from exc
                optimizer.step(lr)
                for key in LOSS_KEYS:
                    loss_sums[key] += len(chunk) * getattr(parts, key)
            verb_logits, noun_logits = predict_windows(cache, model, windows)
            accs = topk_accuracy(verb_logits, noun_logits, verbs, nouns)
            entry = EpochMetrics(epoch=epoch, lr=lr,
                                 **{k: v / len(windows) for k, v in loss_sums.items()},
                                 source_verb_acc=accs[0], source_noun_acc=accs[1],
                                 source_action_acc=accs[2])
            metrics.append(entry)
            if metrics_file:
                metrics_file.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
                metrics_file.flush()
    finally:
        if metrics_file:
            metrics_file.close()
    rng_state = _stream(config.seed, 6, config.epochs).bit_generator.state
    return TrainResult(model=model, metrics=metrics, seqmix_stats=stats,
                       rng_state=rng_state)


def train_and_score(store: FeatureStore, config: TrainConfig) -> float:
    """One ablation cell: initialise a model from `config` (seeded by its
    seed), fit it on the source split and return its target-split action
    top-1 (%)."""
    model = SeqDGModel.init(config.model, seed=config.seed)
    fit(store, model, config)
    preds = sliding_window_predict(store, model)
    labels = [r.label for r in store.records_for(store.split.target)]
    return accuracy(preds, labels, k=1)[2]


def objective_grad_check(text_loss: str, *, seed: int = 0, data_seed: int = 0,
                         h: float = 1e-5, tol: float = 1e-3) -> GradCheckReport:
    """Finite-difference check of every parameter's gradient of the full
    objective (classification plus both reconstructions, the text term as
    `text_loss`) on a tiny model initialised from `seed` and a random
    batch of two windows drawn from `data_seed`. The reconstruction
    targets are frozen so that the stop-gradient branch is held fixed."""
    config = ModelConfig(W=3, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=1,
                         n_heads=2, n_verbs=5, n_nouns=5, d_ff=16, vocab_size=10)
    model = SeqDGModel.init(config, seed=seed)
    rng = np.random.default_rng(data_seed)
    visual = rng.standard_normal((2, 3, 6))
    text = rng.standard_normal((2, 3, 8))
    verbs = rng.integers(0, 5, size=2)
    nouns = rng.integers(0, 5, size=2)
    tokens = tuple((int(rng.integers(10)), int(rng.integers(10))) for _ in range(2))
    with T.no_grad():
        frozen_out = model.forward_train(visual, text, recon_v=True, recon_t=True)
        frozen = (frozen_out.target_v.data.copy(), frozen_out.target_t.data.copy())
    cfg = TrainConfig(model=config, lambda_rv=1.0, lambda_rt=1.0, text_loss=text_loss,
                      epochs=0)

    def loss():
        out = model.forward_train(visual, text, recon_v=True, recon_t=True,
                                  token_text=text_loss == "token_cross_entropy",
                                  frozen_targets=frozen)
        return composite_loss(out, verbs, nouns, cfg, tokens)[0]

    return T.grad_check(loss, model.params.named(), h=h, tol=tol)
