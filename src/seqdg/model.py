"""Sequence network for window-level action recognition.

A transformer encoder reads a window of W projected action features plus
two learnable classification tokens (verb slot, noun slot). Training adds
a reconstruction path: the center position of the visual and text streams
is zeroed, and two decoders rebuild each stream while attending across to
the other, unmasked one. Inference uses only the encoder and the two
classifier heads; nothing on the text side is ever read. It runs in two
steps: `SeqDGModel.project` maps each action's features once, and
`SeqDGModel.predict_rows` builds each window's encoder input by gathering
its rows of that table, adding the positions and writing the two
classification tokens, with no graph node for any of it. The heads read
only the two classification slots, so at inference the last encoder layer
updates just those two rows: its queries, residual norms and feed-forward
run on the slots, while its keys and values still span all W + 2 rows.
The stages pass plain tensors: the text stream is its features as given,
and `decode` is told by `which` which of the two streams it rebuilds.

Residual wiring is post-norm throughout: the normalization wraps the sum
of the sublayer output and its input. Each sublayer is one graph node
(`tensor.attention_block`, `tensor.feed_forward`) and each residual norm
another (`tensor.add_layer_norm`), so an encoder layer builds 4 nodes
and a decoder layer 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from seqdg import tensor as T
from seqdg.tensor import ShapeError, Tensor

__all__ = [
    "ModelConfig",
    "ModelParams",
    "EncodedSequence",
    "TrainForward",
    "SeqDGModel",
    "cross_attention",
    "encoder_layer",
    "decoder_layer",
    "encode_sequence",
    "mask_center",
    "decode",
    "classify",
]


@dataclass
class ModelConfig:
    """Architecture hyperparameters; `validate()` reports every violation."""

    W: int = 5
    D: int = 768
    D_V: int = 1024
    D_T: int = 768
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    n_heads: int = 8
    n_verbs: int = 97
    n_nouns: int = 300
    d_ff: int | None = None
    vocab_size: int | None = None
    layer_norm_eps: float = 1e-5

    @property
    def ff_width(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.D

    def validate(self) -> list[str]:
        errs = []
        if self.W < 1 or self.W % 2 == 0:
            errs.append(f"W must be odd and >= 1, got {self.W}")
        if self.n_heads < 1:
            errs.append(f"n_heads must be >= 1, got {self.n_heads}")
        if self.D < 1:
            errs.append(f"D must be >= 1, got {self.D}")
        elif self.n_heads >= 1 and self.D % self.n_heads != 0:
            errs.append(f"D={self.D} not divisible by n_heads={self.n_heads}")
        if self.D_T != self.D:
            errs.append(f"D_T must equal D after projection, got D_T={self.D_T}, D={self.D}")
        if self.D_V < 1:
            errs.append(f"D_V must be >= 1, got {self.D_V}")
        if self.n_enc_layers < 0 or self.n_dec_layers < 0:
            errs.append("layer counts must be >= 0")
        if self.n_verbs < 1 or self.n_nouns < 1:
            errs.append("class counts must be >= 1")
        if self.ff_width < 1:
            errs.append(f"d_ff must be >= 1, got {self.d_ff}")
        if self.vocab_size is not None and self.vocab_size < 1:
            errs.append(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.layer_norm_eps <= 0:
            errs.append(f"layer_norm_eps must be > 0, got {self.layer_norm_eps}")
        return errs

    def check(self) -> "ModelConfig":
        errs = self.validate()
        if errs:
            raise ValueError("invalid model config: " + "; ".join(errs))
        return self

    @property
    def center(self) -> int:
        return (self.W - 1) // 2

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


# ---------------------------------------------------------------------------
# parameter containers


@dataclass
class Affine:
    weight: Tensor  # (fan_in, fan_out)
    bias: Tensor    # (fan_out,)


@dataclass
class AttentionParams:
    q: Affine
    k: Affine
    v: Affine
    out: Affine


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class EncoderLayerParams:
    attn: AttentionParams
    ln1: LayerNormParams
    ff_in: Affine
    ff_out: Affine
    ln2: LayerNormParams


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    ln_self: LayerNormParams
    cross: AttentionParams
    ln_cross: LayerNormParams
    ff_in: Affine
    ff_out: Affine
    ln_ff: LayerNormParams


# Layouts are built with a `_Slot` in every tensor position: the shape the
# tensor must have, and a function of the rng that draws its initial array.
# `ModelParams` then fills the slots in walk order, so that order is also
# the order of the draws and of the tensors in the parameter buffer.
# Nothing is allocated before a slot is filled.

class _Slot(NamedTuple):
    shape: tuple[int, ...]
    draw: Callable[[np.random.Generator], np.ndarray]


def _uniform(fan_in: int, shape) -> _Slot:
    def draw(rng):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)
    return _Slot(tuple(shape), draw)


def _constant(value: float, d: int) -> _Slot:
    return _Slot((d,), lambda rng: np.full(d, value))


def _new_affine(fan_in: int, fan_out: int) -> Affine:
    return Affine(weight=_uniform(fan_in, (fan_in, fan_out)), bias=_constant(0.0, fan_out))


def _new_ln(d: int) -> LayerNormParams:
    return LayerNormParams(gain=_constant(1.0, d), bias=_constant(0.0, d))


def _new_attention(d: int) -> AttentionParams:
    return AttentionParams(q=_new_affine(d, d), k=_new_affine(d, d), v=_new_affine(d, d),
                           out=_new_affine(d, d))


def _new_encoder_layer(d: int, d_ff: int) -> EncoderLayerParams:
    return EncoderLayerParams(attn=_new_attention(d), ln1=_new_ln(d),
                              ff_in=_new_affine(d, d_ff), ff_out=_new_affine(d_ff, d),
                              ln2=_new_ln(d))


def _new_decoder_layer(d: int, d_ff: int) -> DecoderLayerParams:
    return DecoderLayerParams(self_attn=_new_attention(d), ln_self=_new_ln(d),
                              cross=_new_attention(d), ln_cross=_new_ln(d),
                              ff_in=_new_affine(d, d_ff), ff_out=_new_affine(d_ff, d),
                              ln_ff=_new_ln(d))


# dotted-name segments that differ from the attribute they stand for
_SEGMENT = {"encoder": "enc", "dec_visual": "dec_v", "dec_text": "dec_t", "self_attn": "self"}


def _slots(owner, attrs, prefix: str = ""):
    """(dotted name, owner, attribute) of every tensor slot under the
    attributes `attrs` of `owner`, depth first in declaration order. A
    dataclass's attributes are the keys of its `__dataclass_fields__`:
    `dataclasses.fields` builds a tuple per call, a cost every load pays."""
    for attr in attrs:
        node = getattr(owner, attr)
        name = prefix + _SEGMENT.get(attr, attr)
        if isinstance(node, list):
            for i, item in enumerate(node):
                yield from _slots(item, item.__dataclass_fields__, f"{name}.{i}.")
        elif hasattr(node, "__dataclass_fields__"):
            yield from _slots(node, node.__dataclass_fields__, name + ".")
        elif node is not None:
            yield name, owner, attr


def _tensor_count(layer) -> int:
    return sum(1 for _ in _slots(layer, layer.__dataclass_fields__))


def _float_count(owner, attrs) -> int:
    """Floats in the tensor slots under the attributes `attrs` of `owner`."""
    return sum(math.prod(getattr(slot_owner, attr).shape)
               for _, slot_owner, attr in _slots(owner, attrs))


_ENCODER_LAYER_TENSORS = _tensor_count(_new_encoder_layer(1, 1))
_DECODER_LAYER_TENSORS = _tensor_count(_new_decoder_layer(1, 1))
_LAYER_STACKS = ("encoder", "dec_visual", "dec_text")


class ModelParams:
    """All learnable state, addressable by dotted names for checkpoints.

    One walk over the layout (`_slots`) names every tensor for `named`,
    `tensors` and `from_named` and orders the initial draws. The text
    decoder stack and the text output head are optional groups: a
    checkpoint stripped of them still loads into an inference-capable
    model. The visual decoder stack is not: no checkpoint is written
    without it.

    Every tensor's data is a slice of one float64 buffer, `flat`, and its
    gradient store the same slice of `flat_grad`, in walk order; an
    optimizer steps all of them with one array expression, and one check
    of `flat` refuses NaN and Inf in any of them, drawn or loaded.
    """

    GROUPS = ("proj", "pos", "cls_verb", "cls_noun", "encoder", "dec_visual", "dec_text",
              "head_verb", "head_noun", "text_head")
    OPTIONAL = ("dec_text", "text_head")

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        self._lay_out(config)
        rng = np.random.default_rng(seed)
        try:
            self._fill(lambda name, slot: slot.draw(rng))
        except MemoryError as exc:
            raise ValueError(f"cannot allocate the model: {exc}") from None

    def _lay_out(self, config: ModelConfig, stripped=()):
        """Slots for every group, except that an optional group named in
        `stripped` is None when it would hold any tensor, and the two
        buffers. The buffers are sized from one layer of each kind before
        the layer lists are built, so a layer count too large to allocate
        fails at once."""
        self.config = cfg = config.check()
        d, d_ff = cfg.D, cfg.ff_width
        self.proj = _new_affine(cfg.D_V, d)
        # positions must be separable from feature content right away, so
        # the positional table starts at feature scale, not at weight scale
        self.pos = _Slot((cfg.W, d), lambda rng: rng.uniform(-1.0, 1.0, (cfg.W, d)))
        self.cls_verb = _uniform(d, (d,))
        self.cls_noun = _uniform(d, (d,))
        self.head_verb = _new_affine(d, cfg.n_verbs)
        self.head_noun = _new_affine(d, cfg.n_nouns)
        self.text_head = (_new_affine(d, cfg.vocab_size)
                          if cfg.vocab_size is not None and "text_head" not in stripped
                          else None)
        text_stack = "dec_text" not in stripped or not cfg.n_dec_layers
        encoder, decoder = _new_encoder_layer(d, d_ff), _new_decoder_layer(d, d_ff)
        size = (_float_count(self, [g for g in self.GROUPS if g not in _LAYER_STACKS])
                + cfg.n_enc_layers * _float_count(encoder, encoder.__dataclass_fields__)
                + (1 + text_stack) * cfg.n_dec_layers
                * _float_count(decoder, decoder.__dataclass_fields__))
        try:
            self.flat = np.empty(size)
            self.flat_grad = np.zeros(size)
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"cannot allocate the model: {exc}") from None
        self.encoder: list[EncoderLayerParams] = [
            _new_encoder_layer(d, d_ff) for _ in range(cfg.n_enc_layers)]
        self.dec_visual: list[DecoderLayerParams] = [
            _new_decoder_layer(d, d_ff) for _ in range(cfg.n_dec_layers)]
        self.dec_text: list[DecoderLayerParams] | None = (
            [_new_decoder_layer(d, d_ff) for _ in range(cfg.n_dec_layers)]
            if text_stack else None)

    def _fill(self, value):
        """Copy `value(name, slot)` into each slot's part of `flat` and
        replace the slot by a parameter over that part; then refuse NaN and
        Inf anywhere in `flat`, in one pass."""
        self._grad_stores = []
        start = 0
        for name, owner, attr in list(_slots(self, self.GROUPS)):
            slot = getattr(owner, attr)
            end = start + math.prod(slot.shape)
            data = self.flat[start:end].reshape(slot.shape)
            data[...] = value(name, slot)
            grad_store = self.flat_grad[start:end].reshape(slot.shape)
            tensor = T.parameter(data, grad_store)
            setattr(owner, attr, tensor)
            self._grad_stores.append((tensor, grad_store))
            start = end
        if not np.isfinite(self.flat).all():
            raise T.NonFiniteError("model parameters hold NaN or Inf")

    def flat_gradient(self) -> np.ndarray:
        """`flat_grad` with zeros in the slice of every tensor that holds no
        gradient, whatever an earlier backward pass left there."""
        for tensor, store in self._grad_stores:
            if tensor.grad is None:
                store.fill(0.0)
        return self.flat_grad

    # -- naming ------------------------------------------------------------

    def named(self) -> dict[str, Tensor]:
        return {name: getattr(owner, attr) for name, owner, attr in _slots(self, self.GROUPS)}

    def tensors(self) -> list[Tensor]:
        return list(self.named().values())

    @classmethod
    def from_named(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """Rebuild from name->array pairs, each array of its slot's shape and
        copied once, into the parameter buffer; an optional group may be
        absent as a whole. A config whose layers need more tensors than
        `arrays` holds is rejected before it is laid out."""
        stripped = {attr for attr in cls.OPTIONAL if not any(
            name.startswith(_SEGMENT.get(attr, attr) + ".") for name in arrays)}
        decoder_stacks = 1 + ("dec_text" not in stripped)
        needed = (config.check().n_enc_layers * _ENCODER_LAYER_TENSORS
                  + decoder_stacks * config.n_dec_layers * _DECODER_LAYER_TENSORS)
        if needed > len(arrays):
            raise KeyError(f"the config's layers need {needed} parameters, the checkpoint "
                           f"lists {len(arrays)}")
        params = cls.__new__(cls)
        params._lay_out(config, stripped)
        remaining = dict(arrays)

        def take(name, slot):
            if name not in remaining:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            array = remaining.pop(name)
            if array.shape != slot.shape:
                raise ValueError(f"parameter {name!r} has shape {array.shape}, the config "
                                 f"needs {slot.shape}")
            return array

        params._fill(take)
        if remaining:
            raise KeyError(f"checkpoint has unexpected parameters: {sorted(remaining)[:5]}")
        return params


# ---------------------------------------------------------------------------
# activations


@dataclass
class EncodedSequence:
    """An encoded window: its W positions and two classification-token slots."""

    positions: Tensor    # (..., W, D)
    cls_slots: Tensor    # (..., 2, D)

    @property
    def total_length(self) -> int:
        return self.positions.shape[-2] + self.cls_slots.shape[-2]


@dataclass
class TrainForward:
    """Everything the composite loss reads from one training forward."""

    verb_logits: Tensor
    noun_logits: Tensor
    recon_v: Tensor | None = None
    target_v: Tensor | None = None
    recon_t: Tensor | None = None
    target_t: Tensor | None = None
    center_text_logits: Tensor | None = None


# ---------------------------------------------------------------------------
# forward ops


def _linear(x: Tensor, aff: Affine) -> Tensor:
    return T.linear(x, aff.weight, aff.bias)


def cross_attention(query_stream: Tensor, context: Tensor, params: AttentionParams,
                    n_heads: int) -> Tensor:
    """Attention with queries and values from one stream and keys from the
    other; `cross_attention(h, h, ...)` is the self-attention of a stream.
    Both streams must have equal length, as both carry W positions here."""
    if query_stream.shape[-2] != context.shape[-2]:
        raise ShapeError(f"query_stream values need equal stream lengths, got "
                         f"{query_stream.shape[-2]} and {context.shape[-2]}")
    return _attend(query_stream, context, query_stream, params, n_heads)


def _attend(queries: Tensor, keys: Tensor, values: Tensor, params: AttentionParams,
            n_heads: int) -> Tensor:
    """Project each stream (q, k, v in that order), attend, project out:
    the whole sublayer is one `attention_block` node."""
    q, k, v, out = params.q, params.k, params.v, params.out
    return T.attention_block(queries, keys, values,
                             ((q.weight, q.bias), (k.weight, k.bias), (v.weight, v.bias),
                              (out.weight, out.bias)), n_heads)


def _feed_forward(h: Tensor, ff_in: Affine, ff_out: Affine) -> Tensor:
    """`ff_out(relu(ff_in(h)))`, one `feed_forward` node."""
    return T.feed_forward(h, ff_in.weight, ff_in.bias, ff_out.weight, ff_out.bias)


def encoder_layer(h: Tensor, params: EncoderLayerParams, n_heads: int,
                  eps: float = 1e-5, rows: Tensor | None = None) -> Tensor:
    """One post-norm encoder layer over the sequence `h` (..., L, D).

    `rows` (..., R, D), default all of `h`, are the rows the layer updates:
    they give the queries and the residuals, while keys and values span all
    of `h`. The output is (..., R, D), each row the full layer's output for
    that row. Inference passes the two classification slots as
    `rows` in the last layer, since the heads read nothing else.
    """
    rows = h if rows is None else rows
    attn = _attend(rows, h, h, params.attn, n_heads)
    rows = T.add_layer_norm(attn, rows, params.ln1.gain, params.ln1.bias, eps)
    ff = _feed_forward(rows, params.ff_in, params.ff_out)
    return T.add_layer_norm(ff, rows, params.ln2.gain, params.ln2.bias, eps)


def decoder_layer(h: Tensor, context: Tensor, params: DecoderLayerParams,
                  n_heads: int, eps: float = 1e-5) -> Tensor:
    attn = cross_attention(h, h, params.self_attn, n_heads)
    h = T.add_layer_norm(attn, h, params.ln_self.gain, params.ln_self.bias, eps)
    cross = cross_attention(h, context, params.cross, n_heads)
    h = T.add_layer_norm(cross, h, params.ln_cross.gain, params.ln_cross.bias, eps)
    ff = _feed_forward(h, params.ff_in, params.ff_out)
    return T.add_layer_norm(ff, h, params.ln_ff.gain, params.ln_ff.bias, eps)


def _input_sequence(x, params: ModelParams) -> Tensor:
    """Project (..., W, D_V) features, add positional encodings, and append
    the two classification tokens: the (..., W + 2, D) encoder input."""
    cfg = params.config
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim < 2 or x.shape[-2] != cfg.W:
        raise ShapeError(f"encode_sequence: expected {cfg.W} rows, got shape {x.shape}")
    if x.shape[-1] != cfg.D_V:
        raise ShapeError(f"encode_sequence: expected width {cfg.D_V}, got shape {x.shape}")
    h = T.add(_linear(x, params.proj), params.pos)
    lead = h.shape[:-2]
    cls_v = T.reshape(params.cls_verb, (1, cfg.D))
    cls_n = T.reshape(params.cls_noun, (1, cfg.D))
    if lead:
        cls_v = T.expand_leading(cls_v, lead)
        cls_n = T.expand_leading(cls_n, lead)
    return T.concat([h, cls_v, cls_n], axis=-2)


def encode_sequence(x, params: ModelParams) -> EncodedSequence:
    """Project, add positional encodings, append the two classification
    tokens, and run the encoder stack. Output length is W + 2."""
    cfg = params.config
    seq = _input_sequence(x, params)
    for layer in params.encoder:
        seq = encoder_layer(seq, layer, cfg.n_heads, cfg.layer_norm_eps)
    return EncodedSequence(positions=T.narrow(seq, -2, 0, cfg.W),
                           cls_slots=T.narrow(seq, -2, cfg.W, 2))


def mask_center(z: Tensor) -> Tensor:
    """Zero the center row of (..., W, D) positions; everything else is
    bitwise unchanged. Gradient never flows into the zeroed row. Idempotent."""
    if z.ndim < 2:
        raise ShapeError(f"mask_center: need at least 2 axes, got shape {z.shape}")
    w = z.shape[-2]
    if w % 2 == 0:
        raise ShapeError(f"mask_center: window length must be odd, got {w}")
    return T.zero_rows(z, (w - 1) // 2)


def decode(masked: Tensor, context: Tensor, params: ModelParams, which: str) -> Tensor:
    """Rebuild the masked positions of stream `which` ("visual" or "text")
    with its decoder stack, attending across to the other stream's `context`."""
    if which == "visual":
        stack = params.dec_visual
    elif which == "text":
        stack = params.dec_text
    else:
        raise ValueError(f"decode: which must be 'visual' or 'text', got {which!r}")
    if stack is None:
        raise ValueError(f"decode({which!r}): decoder parameters were stripped "
                         "from this model")
    cfg = params.config
    h = masked
    for layer in stack:
        h = decoder_layer(h, context, layer, cfg.n_heads, cfg.layer_norm_eps)
    return h


def classify(cls_slots: Tensor, params: ModelParams) -> tuple[Tensor, Tensor]:
    """Raw verb logits from slot 0 and noun logits from slot 1."""
    if cls_slots is None or cls_slots.shape[-2] != 2:
        raise ShapeError("classify: expected two classification slots")
    lead = cls_slots.shape[:-2]
    cfg = params.config
    slot_v = T.narrow(cls_slots, -2, 0, 1)
    slot_n = T.narrow(cls_slots, -2, 1, 1)
    verb = T.reshape(_linear(slot_v, params.head_verb), lead + (cfg.n_verbs,))
    noun = T.reshape(_linear(slot_n, params.head_noun), lead + (cfg.n_nouns,))
    return verb, noun


# ---------------------------------------------------------------------------
# the bundled model


class SeqDGModel:
    """Parameters, and the config they were laid out for, with the two
    entry points the pipeline uses:
    a training forward producing logits and reconstructions, and a
    text-free inference forward producing logits only."""

    def __init__(self, params: ModelParams):
        self.params = params

    @property
    def config(self) -> ModelConfig:
        return self.params.config

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "SeqDGModel":
        return cls(ModelParams(config, seed=seed))

    def forward_train(self, visual, text=None, *, recon_v: bool = False,
                      recon_t: bool = False, token_text: bool = False,
                      frozen_targets: tuple | None = None) -> TrainForward:
        """Full training forward.

        `visual` is (..., W, D_V); `text` is (..., W, D_T) and is required whenever a
        reconstruction path runs (each decoder needs the other stream).
        `frozen_targets` substitutes precomputed reconstruction targets,
        which is how the gradient checker pins the stop-gradient branch.
        """
        x = visual if isinstance(visual, Tensor) else Tensor(visual)
        enc = encode_sequence(x, self.params)
        verb_logits, noun_logits = classify(enc.cls_slots, self.params)
        out = TrainForward(verb_logits=verb_logits, noun_logits=noun_logits)
        if not (recon_v or recon_t):
            return out
        if text is None:
            raise ValueError("reconstruction requires text features")
        text = text if isinstance(text, Tensor) else Tensor(text)
        if recon_v:
            out.recon_v = decode(mask_center(enc.positions), text, self.params, "visual")
            out.target_v = (Tensor(frozen_targets[0]) if frozen_targets is not None
                            else enc.positions.detach())
        if recon_t:
            out.recon_t = decode(mask_center(text), enc.positions, self.params, "text")
            out.target_t = (Tensor(frozen_targets[1]) if frozen_targets is not None
                            else text.detach())
            if token_text:
                if self.params.text_head is None:
                    raise ValueError("token-level text loss needs vocab_size in the "
                                     "model config")
                center = T.narrow(out.recon_t, -2, self.config.center, 1)
                lead = center.shape[:-2]
                logits = _linear(center, self.params.text_head)
                out.center_text_logits = T.reshape(logits, lead + (self.config.vocab_size,))
        return out

    def predict_logits(self, visual) -> tuple[np.ndarray, np.ndarray]:
        """Inference on windows of features (..., W, D_V): `project` their
        rows once, then `predict_rows` every window from that table.

        Bitwise equal to `classify(encode_sequence(visual).cls_slots)`.
        """
        cfg = self.config
        visual = np.asarray(visual, dtype=np.float64)
        if visual.ndim < 2 or visual.shape[-2] != cfg.W or visual.shape[-1] != cfg.D_V:
            raise ShapeError(f"predict_logits: expected windows of shape (..., {cfg.W}, "
                             f"{cfg.D_V}), got {visual.shape}")
        table = self.project(visual.reshape(-1, cfg.D_V))
        return self.predict_rows(table, np.arange(len(table)).reshape(visual.shape[:-1]))

    def project(self, visual) -> np.ndarray:
        """The (N, D) projections of N actions' (N, D_V) features, each row
        the bits a window's projection gives that action in any slot.

        `_affine` projects a window of W > 1 rows as one GEMM and a window
        of one row as numpy's single-row product, and the two differ in
        the last bits. So at W = 1 the table is N windows of one row, and
        above it one GEMM of at least two rows.
        """
        cfg = self.config
        visual = np.asarray(visual, dtype=np.float64)
        if visual.ndim != 2 or visual.shape[1] != cfg.D_V:
            raise ShapeError(f"project: expected features of shape (N, {cfg.D_V}), got "
                             f"{visual.shape}")
        n = len(visual)
        if cfg.W == 1:
            visual = visual[:, None]
        elif n == 1:
            visual = np.concatenate([visual, visual])
        with T.no_grad():
            return _linear(Tensor(visual), self.params.proj).data.reshape(-1, cfg.D)[:n]

    def predict_rows(self, table: np.ndarray, rows: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Verb and noun logits of windows given as rows (..., W) of a
        `project` table. No masking, no decoders, no text.

        The encoder input is one gather of the table plus the positions,
        with the two classification tokens written after them. Every
        encoder layer but the last runs on all W + 2 rows, and the last
        updates only the two classification slots, the only rows the
        heads read.
        """
        cfg = self.config
        params, layers = self.params, self.params.encoder
        if rows.ndim < 1 or rows.shape[-1] != cfg.W:
            raise ShapeError(f"predict_rows: expected windows of {cfg.W} rows, got shape "
                             f"{rows.shape}")
        seq = np.empty(rows.shape[:-1] + (cfg.W + 2, cfg.D))
        np.add(table[rows], params.pos.data, out=seq[..., :cfg.W, :])
        seq[..., cfg.W, :] = params.cls_verb.data
        seq[..., cfg.W + 1, :] = params.cls_noun.data
        with T.no_grad():
            seq = T.adopt(seq)
            for layer in layers[:-1]:
                seq = encoder_layer(seq, layer, cfg.n_heads, cfg.layer_norm_eps)
            slots = T.narrow(seq, -2, cfg.W, 2)
            if layers:
                slots = encoder_layer(seq, layers[-1], cfg.n_heads, cfg.layer_norm_eps,
                                      rows=slots)
            verb, noun = classify(slots, params)
        return verb.data, noun.data
