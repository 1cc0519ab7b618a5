"""Span recorder for the benchmark's traced runs.

`Recorder.install` replaces public functions and methods of the `seqdg`
modules with wrappers that record one span per call: a name, a start and
an end time, the index of the enclosing span, and the phase of the run
(set-up or measured rounds). Spans stay in memory and are written out
when the run ends. A layer's self time is its span's duration minus the
time covered by its child spans.

Three wrappers are always installed, also in untraced runs: on `fit`,
on `sliding_window_predict`, and on `lr_at`, which `fit` calls at the
start of every epoch. They log wall times and work done, which is what
the end-to-end metrics are computed from; the cost is a few clock reads
per call of functions that run for milliseconds or longer. The speed
probe (`speed.py`) runs before and after each of these calls and at each
epoch start; logged times are scaled by it and leave its time out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc

# tensor ops that each add one graph node; `transpose_last` is left out
# because it only delegates to `permute`
NODE_OPS = ("matmul", "add", "sub", "mul", "scale", "relu", "sum_all", "permute",
            "reshape", "concat", "narrow", "take_rows", "zero_rows",
            "expand_leading", "softmax_rows", "layer_norm", "mse", "cross_entropy")
# the ops reported one by one
REPORTED_OPS = ("matmul", "add", "layer_norm", "softmax_rows", "permute", "reshape",
                "scale", "relu", "concat", "narrow", "zero_rows", "expand_leading",
                "cross_entropy", "mse")

# span name -> (module, attribute path)
STAGES = {
    "train.fit": ("seqdg.train", "fit"),
    "evaluate.predict": ("seqdg.evaluate", "sliding_window_predict"),
}
# `fit` looks up its learning rate once at the start of every epoch
EPOCH_MARK = ("seqdg.train", "lr_at")
LAYERS = {
    **{f"tensor.{op}": ("seqdg.tensor", op) for op in NODE_OPS},
    "tensor.backward": ("seqdg.tensor", "Tensor.backward"),
    "model.encode_sequence": ("seqdg.model", "encode_sequence"),
    "model.encoder_layer": ("seqdg.model", "encoder_layer"),
    "model.decoder_layer": ("seqdg.model", "decoder_layer"),
    "model.classify": ("seqdg.model", "classify"),
    "model.forward_train": ("seqdg.model", "SeqDGModel.forward_train"),
    "model.predict_logits": ("seqdg.model", "SeqDGModel.predict_logits"),
    "data.batch": ("seqdg.data", "FeatureCache.batch"),
    "data.cache_build": ("seqdg.data", "FeatureCache.__init__"),
    "data.seqmix": ("seqdg.data", "seqmix"),
    "data.store_load": ("seqdg.data", "FeatureStore.load"),
    "data.build_windows": ("seqdg.data", "build_windows"),
    "train.composite_loss": ("seqdg.train", "composite_loss"),
    "evaluate.accuracy": ("seqdg.evaluate", "accuracy"),
    "checkpoint.load": ("seqdg.checkpoint", "load_checkpoint"),
    "checkpoint.save": ("seqdg.checkpoint", "save_checkpoint"),
    "synth.generate": ("seqdg.synth", "generate"),
    "config.load": ("seqdg.config", "load_run_config"),
    "config.sha256": ("seqdg.config", "file_sha256"),
}
# counted, not timed: a span here would take the top-k loop's time out
# of its caller's self time
COUNTED = {"evaluate.topk": ("seqdg.evaluate", "topk_indices")}
# peak traced memory of the first calls of these
PEAKED = ("model.forward_train", "tensor.backward")
PEAK_SAMPLES = 2


def _rebind(module_name: str, path: str, make_wrapper):
    """Replace a function everywhere a `seqdg` module binds it, or a
    method on its class, with `make_wrapper(original)`."""
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))
        return
    original = getattr(module, path)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if (name == "seqdg" or name.startswith("seqdg.")) and getattr(mod, path, None) is original:
            setattr(mod, path, wrapper)


class Recorder:
    """In-memory spans and stage logs of one benchmark run."""

    def __init__(self, probe):
        self.probe = probe
        self.active = False
        self.phase = "setup"
        self.spans: list = []          # (name, start, end, parent, phase)
        self.stack: list[int] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.stage_log: list[dict] = []
        self.peaks: dict[str, list[float]] = {name: [] for name in PEAKED}
        self.epoch_marks: list[int] = []   # probe index at each epoch start
        self.tracing = False

    # -- installation --------------------------------------------------------

    def install(self, trace: bool):
        """Wrap the stage functions; with `trace`, every layer function too."""
        for name, (module, path) in STAGES.items():
            _rebind(module, path, functools.partial(self._stage_wrapper, name))
        _rebind(*EPOCH_MARK, self._epoch_wrapper)
        if not trace:
            return
        self.tracing = True
        for name, (module, path) in LAYERS.items():
            _rebind(module, path, functools.partial(self._span_wrapper, name))
        for name, (module, path) in COUNTED.items():
            _rebind(module, path, functools.partial(self._count_wrapper, name))

    def _span_wrapper(self, name, fn):
        peaked = name in self.peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            sample = (peaked and len(self.peaks[name]) < PEAK_SAMPLES
                      and not tracemalloc.is_tracing())
            if sample:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if sample:
                    self.peaks[name].append(tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.phase)

        return wrapper

    def _stage_wrapper(self, name, fn):
        span = self._span_wrapper(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.epoch_marks = []
            first = self.probe.sample()
            result = span(*args, **kwargs) if self.tracing else fn(*args, **kwargs)
            last = self.probe.sample()
            entry = {"name": name, "seconds": self.probe.seconds(first, last),
                     "phase": self.phase, "traced": self.tracing and self.active}
            if name == "train.fit":
                # positional (store, model, config), as every caller passes them
                store, config = args[0], args[2]
                stats = result.seqmix_stats
                marks = self.epoch_marks + [last]
                entry.update(
                    windows_per_epoch=len(store.records_for(store.split.source)),
                    epoch_s=[self.probe.seconds(a, b) for a, b in zip(marks, marks[1:])],
                    losses=[(m.l_c, m.l_rv, m.l_rt, m.total) for m in result.metrics],
                    p_mix=config.p_mix, draws=stats.draws, replaced=stats.replaced,
                    no_candidate=stats.no_candidate)
            else:
                entry["actions"] = len(result)
            self.stage_log.append(entry)
            return result

        return wrapper

    def _epoch_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.epoch_marks.append(self.probe.sample())
            return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                key = (name, self.phase)
                self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def stages(self, name: str, phase: str | None = None) -> list[dict]:
        return [e for e in self.stage_log
                if e["name"] == name and (phase is None or e["phase"] == phase)]

    def traced_stages(self, name: str, phase: str) -> list[dict]:
        return [e for e in self.stages(name, phase) if e["traced"]]

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


class SpanTable:
    """Self times and enclosing contexts of recorded spans, restricted to
    one phase: the measured rounds when the layer runs there, else set-up."""

    TRAIN_STEP = ("model.forward_train", "train.composite_loss")

    def __init__(self, rec: Recorder):
        spans = [s for s in rec.spans if s is not None]
        n = len(spans)
        child = [0.0] * n
        for name, start, end, parent, phase in spans:
            if parent >= 0:
                child[parent] += end - start
        # nearest enclosing training-step or fit span, by index order:
        # a parent is always recorded before its children
        context = [None] * n
        in_fit = [False] * n
        for i, (name, _s, _e, parent, _p) in enumerate(spans):
            up = context[parent] if parent >= 0 else None
            context[i] = name if name in self.TRAIN_STEP else up
            in_fit[i] = name == "train.fit" or (parent >= 0 and in_fit[parent])
        self.rows = [(name, end - start - child[i], phase, context[i], in_fit[i])
                     for i, (name, start, end, _parent, phase) in enumerate(spans)]
        self.totals = [end - start for _name, start, end, _parent, _phase in spans]
        self.phases = {}
        for name, _self, phase, _ctx, _fit in self.rows:
            self.phases.setdefault(name, set()).add(phase)

    def phase_of(self, name: str) -> str:
        return "round" if "round" in self.phases.get(name, ()) else "setup"

    def self_ms(self, name: str, where=None, inclusive: bool = False) -> list[float]:
        """Self times (ms) of the spans of `name` that pass `where(context,
        in_fit)`: those of the measured rounds if any, else of set-up.
        With `inclusive`, whole durations instead."""
        rows = [(self.totals[i] if inclusive else s, p)
                for i, (n, s, p, ctx, fit) in enumerate(self.rows)
                if n == name and (where is None or where(ctx, fit))]
        phase = "round" if any(p == "round" for _s, p in rows) else "setup"
        return [1e3 * s for s, p in rows if p == phase]

    def in_step(self, name: str, phase: str) -> list[float]:
        return [1e3 * s for n, s, p, ctx, fit in self.rows
                if n == name and p == phase and ctx is not None and fit]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one traced run."""
    table = SpanTable(rec)
    out: dict[str, float] = {}
    step_phase = table.phase_of("tensor.backward")
    steps = len([1 for n, _s, p, _c, fit in table.rows
                 if n == "tensor.backward" and p == step_phase and fit])
    per_step = max(steps, 1)
    out["tensor.nodes_per_step"] = sum(
        len(table.in_step(f"tensor.{op}", step_phase)) for op in NODE_OPS) / per_step
    out["tensor.backward_ms"] = _mean(table.self_ms("tensor.backward"))
    out["tensor.backward_peak_mb"] = max(rec.peaks["tensor.backward"], default=0.0)
    for op in REPORTED_OPS:
        times = table.in_step(f"tensor.{op}", step_phase)
        out[f"tensor.{op}.calls"] = len(times) / per_step
        out[f"tensor.{op}.fwd_ms"] = _mean(times)
    for name in ("encode_sequence", "encoder_layer", "classify", "forward_train",
                 "decoder_layer"):
        out[f"model.{name}_ms"] = _mean(table.self_ms(f"model.{name}"))
    out["model.forward_train_peak_mb"] = max(rec.peaks["model.forward_train"], default=0.0)
    # inclusive: the inference forward's ops are reported nowhere else
    out["model.predict_logits_ms"] = _mean(
        table.self_ms("model.predict_logits", lambda ctx, fit: not fit, inclusive=True))
    out["model.predict_logits_fit_ms"] = _mean(
        table.self_ms("model.predict_logits", lambda ctx, fit: fit, inclusive=True))
    out["data.batch_ms"] = _mean(table.self_ms("data.batch", lambda ctx, fit: fit))
    out["data.seqmix_us"] = 1e3 * _mean(table.self_ms("data.seqmix"))
    fits = rec.traced_stages("train.fit", table.phase_of("train.fit"))
    draws = sum(e["draws"] for e in fits)
    out["data.seqmix.replaced_per_draw"] = (
        sum(e["replaced"] for e in fits) / draws if draws else 0.0)
    for name in ("cache_build", "store_load", "build_windows"):
        out[f"data.{name}_ms"] = _mean(table.self_ms(f"data.{name}"))
    out["train.composite_loss_ms"] = _mean(table.self_ms("train.composite_loss"))
    out["train.fit_self_ms"] = _mean(table.self_ms("train.fit"))
    out["evaluate.predict_self_ms"] = _mean(table.self_ms("evaluate.predict"))
    out["evaluate.accuracy_ms"] = _mean(table.self_ms("evaluate.accuracy"))
    predict_phase = table.phase_of("evaluate.predict")
    actions = sum(e["actions"] for e in rec.traced_stages("evaluate.predict", predict_phase))
    topk = rec.counts.get(("evaluate.topk", predict_phase), 0)
    out["evaluate.topk_calls"] = topk / actions if actions else 0.0
    out["checkpoint.load_ms"] = _mean(table.self_ms("checkpoint.load"))
    out["checkpoint.save_ms"] = _mean(table.self_ms("checkpoint.save"))
    out["synth.generate_ms"] = _mean(table.self_ms("synth.generate"))
    out["config.load_ms"] = _mean(table.self_ms("config.load"))
    out["config.sha256_ms"] = _mean(table.self_ms("config.sha256"))
    return out
