"""Composite objective, step-decayed SGD, and the seeded training loop.

`composite_loss(model, batch, config)` is the objective: it runs the
forward paths the config's nonzero loss weights need and sums center-action
classification (verb and noun cross entropy) with the two weighted
reconstruction losses. Training is plain SGD (momentum opt-in, default off)
with a piecewise-constant learning rate that drops by a fixed factor at the
configured epochs; the step is one array expression over the model's flat
parameter and gradient buffers. Every source of randomness is a named
stream derived from (seed, purpose, epoch, index): one per epoch orders
the windows, and one per batch draws that batch's SeqMix swaps for all
its windows at once. Identical inputs give bitwise-identical
checkpoints. `fit` scores the source split (top-1) after every epoch
when it writes a metrics file, and otherwise only after the last epoch,
since only the metrics file reads the earlier ones.

Library entry points wrap the loop. `train_and_score_cells` trains and
scores a list of cells (each a store and a config; train, then
target-split action top-1), and `score_arms` runs an ablation grid through
it: every arm (the fields `TrainConfig.with_fields` sets on a base config)
at every seed. Cells are independent and deterministic, so it fits them on
every usable CPU, in forked workers beside the calling process; with BLAS
unpinned, on one usable CPU (`taskset -c 0`) or without the `fork` start
method the calling process fits every cell itself, and the scores are
bitwise the same either way. `objective_grad_check` is the
finite-difference check of the full objective.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import pickle
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from seqdg import tensor as T
from seqdg.data import (
    Batch,
    FeatureCache,
    FeatureStore,
    SeqMixPool,
    SeqMixStats,
    build_windows,
    seqmix,
)
from seqdg.evaluate import accuracy, cpu_slots, predict_windows, sliding_window_predict
from seqdg.model import ModelConfig, ModelParams, SeqDGModel
from seqdg.tensor import GradCheckReport, NonFiniteError, Tensor

__all__ = [
    "TrainConfig",
    "LossBreakdown",
    "EpochMetrics",
    "TrainResult",
    "DivergenceError",
    "CellScore",
    "composite_loss",
    "lr_at",
    "fit",
    "fit_processes",
    "train_and_score_cells",
    "score_arms",
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
        self.cause = cause

    def __reduce__(self):
        # a worker process sends it to the caller pickled
        return type(self), (self.epoch, self.batch, self.cause)


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
        if self.seed < 0:
            errs.append(f"seed must be >= 0, got {self.seed}")
        return errs

    def check(self) -> "TrainConfig":
        errs = self.validate()
        if errs:
            raise ValueError("invalid train config: " + "; ".join(errs))
        return self

    def with_fields(self, **fields) -> "TrainConfig":
        """A checked copy setting each named field, in `model` if it is a model field."""
        model = {k: fields.pop(k) for k in list(fields) if k in ModelConfig.__dataclass_fields__}
        return replace(self, model=replace(self.model, **model), **fields).check()

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "model"}
        d["lr_decay_epochs"] = list(self.lr_decay_epochs)
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


def composite_loss(model: SeqDGModel, batch: Batch, config: TrainConfig, *,
                   frozen_targets: tuple | None = None) -> tuple[Tensor, LossBreakdown]:
    """The training objective of `model` on `batch`: verb plus noun cross
    entropy on the center labels, plus the weighted reconstructions. The
    config decides once which forward paths run: the visual decoder when
    lambda_rv > 0, the text decoder when lambda_rt > 0, and its token head
    when the text loss is token-level. The visual term is mean squared error
    against the detached unmasked encoding; the text term is the same or
    mean token cross entropy of the reconstructed center against the center
    narration tokens. `frozen_targets` goes to `forward_train`.
    """
    recon_v = config.lambda_rv > 0
    recon_t = config.lambda_rt > 0
    token_text = recon_t and config.text_loss == "token_cross_entropy"
    outputs = model.forward_train(batch.visual, batch.text, recon_v=recon_v,
                                  recon_t=recon_t, token_text=token_text,
                                  frozen_targets=frozen_targets)
    l_c = T.add(T.cross_entropy(outputs.verb_logits, batch.verbs),
                T.cross_entropy(outputs.noun_logits, batch.nouns))
    total = l_c
    l_rv_val = 0.0
    if recon_v:
        l_rv = T.mse(outputs.recon_v, outputs.target_v)
        l_rv_val = l_rv.item()
        total = T.add(total, T.scale(l_rv, config.lambda_rv))
    l_rt_val = 0.0
    if recon_t:
        if token_text:
            l_rt = T.cross_entropy(T.take_rows(outputs.center_text_logits, batch.token_rows),
                                   batch.tokens)
        else:
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
    loss breakdowns, and source-split top-1 accuracy after the epoch. The
    source split is scored after every epoch when `fit` writes a metrics
    file, and otherwise only after the last; the other epochs' accuracies
    are None."""

    epoch: int
    lr: float
    l_c: float
    l_rv: float
    l_rt: float
    total: float
    source_verb_acc: float | None
    source_noun_acc: float | None
    source_action_acc: float | None

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class TrainResult:
    model: SeqDGModel
    metrics: list[EpochMetrics]
    seqmix_stats: SeqMixStats
    rng_state: dict


class _SGD:
    """Plain SGD, momentum opt-in, over the model's flat parameter buffer:
    one array expression per step, whose elementwise arithmetic is the
    per-tensor update's. A tensor without a gradient contributes zeros:
    without momentum it stays bitwise unchanged, with momentum it moves by
    the velocity it already has."""

    def __init__(self, params: ModelParams, momentum: float):
        self.params = params
        self.tensors = params.tensors()
        self.momentum = momentum
        self.velocity = np.zeros_like(params.flat) if momentum > 0 else None

    def step(self, lr: float):
        """One update. Without momentum the gradient is scaled in place
        (the step consumes it; `zero` drops it before the next backward)."""
        grad = self.params.flat_gradient()
        if self.velocity is None:
            self.params.flat -= np.multiply(grad, lr, out=grad)
        else:
            self.velocity *= self.momentum
            self.velocity += grad
            self.params.flat -= lr * self.velocity

    def zero(self):
        for t in self.tensors:
            t.grad = None


def _stream(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def fit(store: FeatureStore, model: SeqDGModel, config: TrainConfig, *,
        metrics_path=None) -> TrainResult:
    """Train on the source split only; deterministic given (seed, config,
    data). Aborts with DivergenceError if the loss goes non-finite. With
    `metrics_path` every epoch's `EpochMetrics` is written there as one JSON
    line and the source split is scored after every epoch; without it, only
    after the last."""
    config.check()
    actions = store.split_actions("source")
    windows = build_windows(actions, config.W)
    pool = SeqMixPool(actions, store.split.source)
    stats = SeqMixStats()
    needs_text = config.lambda_rv > 0 or config.lambda_rt > 0
    cache = FeatureCache(store, actions, text_seed=config.seed if needs_text else None)
    labels = np.stack((actions.verbs, actions.nouns), axis=1)
    optimizer = _SGD(model.params, config.momentum)
    metrics: list[EpochMetrics] = []
    metrics_file = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        for epoch in range(config.epochs):
            lr = lr_at(epoch, config)
            order = _stream(config.seed, 3, epoch).permutation(len(windows))
            loss_sums = dict.fromkeys(LOSS_KEYS, 0.0)
            for b_index, start in enumerate(range(0, len(order), config.batch_size)):
                chunk = windows[order[start:start + config.batch_size]]
                if config.p_mix > 0:
                    chunk = seqmix(chunk, pool, config.p_mix,
                                   _stream(config.seed, 5, epoch, b_index), stats)
                batch = cache.batch(chunk)
                # the last step's graph goes only now: dropped before this batch
                # was built, its heap went back to the system after every step
                # and was faulted in again (`seqdg train` ~10% slower)
                total = None
                try:
                    total, parts = composite_loss(model, batch, config)
                    optimizer.zero()
                    total.backward()
                except NonFiniteError as exc:
                    raise DivergenceError(epoch, b_index, str(exc)) from exc
                optimizer.step(lr)
                for key in LOSS_KEYS:
                    loss_sums[key] += len(chunk) * getattr(parts, key)
            total = None  # nor is the last step's graph held through the scoring
            accs = (None, None, None)
            if metrics_file or epoch == config.epochs - 1:
                # window i is centred on action i
                accs = accuracy(predict_windows(cache, model, windows, k=1), labels)
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


@dataclass
class CellScore:
    """One ablation cell's target-split action top-1 (%), and the seconds
    its fit (in whichever process fitted it) and its scoring took."""

    top1: float
    seconds: float


def fit_processes(n_cells: int) -> int:
    """Processes that fit `n_cells` ablation cells: `cpu_slots()`, no more
    than one per cell, and 1 where processes cannot be forked."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(n_cells, cpu_slots()))


def _fit_cell(store: FeatureStore, config: TrainConfig) -> tuple[np.ndarray, float]:
    """Initialise one cell's model from its config and fit it; return the
    trained parameter buffer and the seconds that took."""
    start = time.perf_counter()
    model = SeqDGModel.init(config.model, seed=config.seed)
    fit(store, model, config)
    return model.params.flat, time.perf_counter() - start


def _claims(counter, n_cells: int):
    """The cells one process fits: each time, the next index that no
    process has claimed from the shared `counter`, until none is left."""
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= n_cells:
            return
        yield index


def _fit_worker(cells, counter, sender):
    """A forked worker: fit claimed cells until none is left, then send
    their (index, seconds) pairs and, one message each, their parameter
    buffers. On an error, end every process's claiming, send the error
    instead (as a RuntimeError of its message if it does not pickle) and
    exit with code 1."""
    try:
        fitted = [(i, *_fit_cell(*cells[i])) for i in _claims(counter, len(cells))]
    except BaseException as exc:  # every error is the caller's to raise
        with counter.get_lock():
            counter.value = len(cells)
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        sender.send(("error", exc))
        sys.exit(1)
    sender.send(("done", [(i, seconds) for i, _flat, seconds in fitted]))
    for _i, flat, _seconds in fitted:
        sender.send_bytes(flat)


def _receive(worker, receiver, flats, fit_s):
    """Read one worker's results into `flats` and `fit_s` and wait for it
    to exit; raise the error it sent, or a RuntimeError if it ended
    without sending."""
    try:
        kind, payload = receiver.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(f"a fitting process ended with exit code {worker.exitcode} "
                           "before sending its cells") from None
    if kind == "error":
        raise payload
    for i, seconds in payload:
        flats[i] = np.frombuffer(receiver.recv_bytes())
        fit_s[i] = seconds
    worker.join()


def train_and_score_cells(cells) -> list[CellScore]:
    """Train and score ablation cells, each a (store, config) pair: each
    cell's model is initialised from its config (seeded by its seed) and
    fitted on its store's source split, and its target-split action top-1
    (%) is returned, in cell order. The calling process fits cell 0 and
    then claims the next cell each time, beside `fit_processes - 1`
    forked workers that do the same; it scores every cell once every
    worker has exited. An error in any cell is raised here; every worker
    has been terminated and joined on return, on every exit path."""
    cells = list(cells)
    for store, _config in cells:
        store.split_actions("target")  # refused before anything trains
    if not cells:
        return []
    n = fit_processes(len(cells))
    # forked, not spawned: a worker reads the caller's stores and cells as
    # they are, and the caller runs no other thread here (scoring pools
    # are joined before `predict_windows` returns)
    context = multiprocessing.get_context("fork" if n > 1 else None)
    counter = context.Value("q", 1)  # cell 0 is the caller's
    flats, fit_s = [None] * len(cells), [0.0] * len(cells)
    workers = []
    try:
        for _ in range(n - 1):
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_fit_worker, args=(cells, counter, sender),
                                     daemon=True)
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        for i in itertools.chain([0], _claims(counter, len(cells))):
            flats[i], fit_s[i] = _fit_cell(*cells[i])
        for worker, receiver in workers:
            _receive(worker, receiver, flats, fit_s)
    finally:
        for worker, receiver in workers:
            if worker.is_alive():
                worker.terminate()
            worker.join()
            receiver.close()
    scores = []
    for i, (store, config) in enumerate(cells):
        start = time.perf_counter()
        model = SeqDGModel.init(config.model, seed=config.seed)
        model.params.flat[...] = flats[i]
        flats[i] = None
        target = store.split_actions("target")
        top1 = accuracy(sliding_window_predict(store, model),
                        np.stack((target.verbs, target.nouns), axis=1), k=1)[2]
        scores.append(CellScore(top1, fit_s[i] + time.perf_counter() - start))
    return scores


def score_arms(base: TrainConfig, arms: dict, seeds, stores: dict) -> dict:
    """Train and score each arm (a key mapped to the fields it sets on
    `base`) at each seed on `stores[seed]`, arm-major and seed-minor, every
    cell checked before any fit; returns each key's scores in seed order."""
    scores = iter(train_and_score_cells([(stores[seed], base.with_fields(**fields, seed=seed))
                                         for fields in arms.values() for seed in seeds]))
    return {key: [next(scores) for _seed in seeds] for key in arms}


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
    # two tokens per window
    batch = Batch(visual=visual, text=text, verbs=verbs, nouns=nouns,
                  token_rows=np.repeat(np.arange(2), 2), tokens=rng.integers(10, size=4))
    with T.no_grad():
        frozen_out = model.forward_train(visual, text, recon_v=True, recon_t=True)
        frozen = (frozen_out.target_v.data.copy(), frozen_out.target_t.data.copy())
    cfg = TrainConfig(model=config, lambda_rv=1.0, lambda_rt=1.0, text_loss=text_loss,
                      epochs=0)
    return T.grad_check(lambda: composite_loss(model, batch, cfg, frozen_targets=frozen)[0],
                        model.params.named(), h=h, tol=tol)
