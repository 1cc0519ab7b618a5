import json
from pathlib import Path

import numpy as np
import pytest

import seqdg.model as model_mod
import seqdg.tensor as T
from seqdg.data import Batch
from seqdg.model import (
    ModelConfig,
    SeqDGModel,
    classify,
    cross_attention,
    decode,
    encode_sequence,
    encoder_layer,
    mask_center,
)
from seqdg.tensor import ShapeError, Tensor
from seqdg.train import TrainConfig, composite_loss

BENCH_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "bench_config.json"


def tiny_config(**kw):
    base = dict(W=3, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=1,
                n_heads=2, n_verbs=5, n_nouns=4, d_ff=16, vocab_size=10)
    base.update(kw)
    return ModelConfig(**base).check()


def tiny_model(seed=0, **kw):
    return SeqDGModel.init(tiny_config(**kw), seed=seed)


def hand_affine(w, b):
    from seqdg.model import Affine
    return Affine(weight=Tensor(w, requires_grad=True),
                  bias=Tensor(b, requires_grad=True))


def hand_attention(d, wq, wk, wv, wo, bq=None, bk=None, bv=None, bo=None):
    from seqdg.model import AttentionParams
    z = np.zeros(d)
    return AttentionParams(q=hand_affine(wq, z if bq is None else bq),
                           k=hand_affine(wk, z if bk is None else bk),
                           v=hand_affine(wv, z if bv is None else bv),
                           out=hand_affine(wo, z if bo is None else bo))


def manual_attention(h_q, h_k, h_vsrc, attn, n_heads):
    """Straight-line numpy reimplementation used as the oracle."""
    q = h_q @ attn.q.weight.data + attn.q.bias.data
    k = h_k @ attn.k.weight.data + attn.k.bias.data
    v = h_vsrc @ attn.v.weight.data + attn.v.bias.data
    d_head = q.shape[-1] // n_heads
    outs = []
    for head in range(n_heads):
        sl = slice(head * d_head, (head + 1) * d_head)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(d_head)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        outs.append(w @ v[:, sl])
    ctx = np.concatenate(outs, axis=-1)
    return ctx @ attn.out.weight.data + attn.out.bias.data


def attention_weights(h, attn, n_heads):
    """The weights of the self-attention of `h` under the projections `attn`."""
    q, k, v = (T.linear(h, a.weight, a.bias) for a in (attn.q, attn.k, attn.v))
    return T.attention(q, k, v, n_heads)[1]


class TestSelfAttention:
    def test_single_token_weight_is_one(self):
        model = tiny_model()
        layer = model.params.encoder[0].attn
        h = Tensor(np.random.default_rng(0).standard_normal((1, 8)))
        out = cross_attention(h, h, layer, n_heads=2)
        weights = attention_weights(h, layer, 2)
        assert weights.shape == (2, 1, 1)
        assert np.array_equal(weights.data, np.ones((2, 1, 1)))
        # output reduces to the output projection of v(H)
        v = h.data @ layer.v.weight.data + layer.v.bias.data
        expected = v @ layer.out.weight.data + layer.out.bias.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_tokens_attend_uniformly(self):
        model = tiny_model()
        row = np.random.default_rng(1).standard_normal(8)
        h = Tensor(np.stack([row, row]))
        weights = attention_weights(h, model.params.encoder[0].attn, 2)
        np.testing.assert_allclose(weights.data, 0.5, atol=1e-12)

    def test_matches_manual_oracle_one_head(self):
        rng = np.random.default_rng(2)
        attn = hand_attention(2, wq=[[0.3, -0.2], [0.5, 0.1]],
                              wk=[[-0.4, 0.2], [0.7, 0.6]],
                              wv=[[0.9, 0.1], [-0.3, 0.8]],
                              wo=[[1.0, -0.5], [0.2, 0.4]])
        h = rng.standard_normal((2, 2))
        out = cross_attention(Tensor(h), Tensor(h), attn, n_heads=1)
        np.testing.assert_allclose(out.data, manual_attention(h, h, h, attn, 1),
                                   atol=1e-12, rtol=0)

    def test_multi_head_matches_manual_oracle(self):
        rng = np.random.default_rng(3)
        model = tiny_model(seed=5)
        attn = model.params.encoder[0].attn
        h = rng.standard_normal((4, 8))
        out = cross_attention(Tensor(h), Tensor(h), attn, n_heads=2)
        np.testing.assert_allclose(out.data, manual_attention(h, h, h, attn, 2),
                                   atol=1e-12, rtol=0)


class TestEncoderLayer:
    def test_zeroed_sublayers_expose_double_layer_norm(self):
        model = tiny_model()
        layer = model.params.encoder[0]
        # silence attention and feed-forward via their final projections
        layer.attn.out.weight.data[:] = 0.0
        layer.attn.out.bias.data[:] = 0.0
        layer.ff_out.weight.data[:] = 0.0
        layer.ff_out.bias.data[:] = 0.0
        h = Tensor(np.random.default_rng(4).standard_normal((3, 8)))
        out = encoder_layer(h, layer, n_heads=2, eps=1e-5)
        inner = T.layer_norm(h, layer.ln1.gain, layer.ln1.bias, 1e-5)
        expected = T.layer_norm(inner, layer.ln2.gain, layer.ln2.bias, 1e-5)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-12)

    @pytest.mark.parametrize("length", [3, 5, 7])
    def test_shape_contract(self, length):
        model = tiny_model()
        h = Tensor(np.random.default_rng(5).standard_normal((length, 8)))
        out = encoder_layer(h, model.params.encoder[0], 2)
        assert out.shape == (length, 8)

    def test_layer_params_pass_gradcheck(self):
        model = tiny_model(seed=7)
        layer = model.params.encoder[0]
        h = np.random.default_rng(6).standard_normal((3, 8))
        names = {f"enc.0.{k}": v for k, v in {
            "attn.q.weight": layer.attn.q.weight, "attn.out.bias": layer.attn.out.bias,
            "ln1.gain": layer.ln1.gain, "ff_in.weight": layer.ff_in.weight,
            "ff_out.bias": layer.ff_out.bias, "ln2.bias": layer.ln2.bias,
        }.items()}

        def f():
            return T.sum_all(encoder_layer(Tensor(h), layer, 2))

        report = T.grad_check(f, names, h=1e-5, tol=1e-6)
        assert report.passed, report.summary()


class TestEncodeSequence:
    def test_output_lengths_at_reference_widths(self):
        cfg = ModelConfig(W=5, D=768, D_V=1024, D_T=768, n_enc_layers=1,
                          n_dec_layers=0, n_verbs=97, n_nouns=300, d_ff=1024)
        model = SeqDGModel.init(cfg, seed=0)
        x = np.random.default_rng(7).standard_normal((5, 1024))
        with T.no_grad():
            enc = encode_sequence(x, model.params)
        assert enc.positions.shape == (5, 768)
        assert enc.cls_slots.shape == (2, 768)
        assert enc.total_length == 7  # W + 2

    def test_zero_layers_is_projection_plus_positional(self):
        model = tiny_model(n_enc_layers=0)
        p = model.params
        x = np.random.default_rng(8).standard_normal((3, 6))
        enc = encode_sequence(x, p)
        expected = x @ p.proj.weight.data + p.proj.bias.data + p.pos.data
        np.testing.assert_allclose(enc.positions.data, expected, atol=1e-12)
        np.testing.assert_allclose(enc.cls_slots.data,
                                   np.stack([p.cls_verb.data, p.cls_noun.data]),
                                   atol=0)

    def test_row_count_mismatch_raises(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            encode_sequence(np.zeros((4, 6)), model.params)

    def test_permutation_equivariance_with_zeroed_positions(self):
        model = tiny_model(W=5, seed=11)
        model.params.pos.data[:] = 0.0
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 6))
        base = encode_sequence(x, model.params)
        for _ in range(5):
            perm = rng.permutation(5)
            enc = encode_sequence(x[perm], model.params)
            assert np.abs(enc.positions.data - base.positions.data[perm]).max() < 1e-9
            assert np.abs(enc.cls_slots.data - base.cls_slots.data).max() < 1e-9

    def test_positional_encodings_break_symmetry(self):
        model = tiny_model(W=5, seed=11)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 6))
        base = encode_sequence(x, model.params)
        enc = encode_sequence(x[[4, 3, 2, 1, 0]], model.params)
        assert np.abs(enc.cls_slots.data - base.cls_slots.data).max() > 1e-3

    def test_batched_matches_single(self):
        model = tiny_model(W=3)
        rng = np.random.default_rng(12)
        xs = rng.standard_normal((4, 3, 6))
        batched = encode_sequence(xs, model.params)
        for i in range(4):
            single = encode_sequence(xs[i], model.params)
            np.testing.assert_allclose(batched.positions.data[i], single.positions.data,
                                       atol=1e-12)


class TestReducedInferenceForward:
    """`predict_logits` runs the last encoder layer on the two
    classification slots only; the logits must not change by a bit."""

    @pytest.mark.parametrize("n_enc_layers", [0, 1, 2])
    @pytest.mark.parametrize("w", [1, 3, 7])
    @pytest.mark.parametrize("lead", [(), (4,)], ids=["2d", "batched"])
    def test_predict_logits_equals_full_encoder(self, n_enc_layers, w, lead):
        model = tiny_model(W=w, n_enc_layers=n_enc_layers, seed=40)
        x = np.random.default_rng(41).standard_normal(lead + (w, 6))
        verb, noun = model.predict_logits(x)
        with T.no_grad():
            full_verb, full_noun = classify(encode_sequence(x, model.params).cls_slots,
                                            model.params)
        assert verb.shape == lead + (5,) and noun.shape == lead + (4,)
        assert verb.tobytes() == full_verb.data.tobytes()
        assert noun.tobytes() == full_noun.data.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batched"])
    def test_encoder_layer_rows_are_the_full_layers_rows(self, lead):
        w = 5
        model = tiny_model(W=w, seed=42)
        h = Tensor(np.random.default_rng(43).standard_normal(lead + (w + 2, 8)))
        layer = model.params.encoder[0]
        with T.no_grad():
            full = encoder_layer(h, layer, 2)
            slots = encoder_layer(h, layer, 2, rows=T.narrow(h, -2, w, 2))
        assert slots.shape == lead + (2, 8)
        assert slots.data.tobytes() == np.ascontiguousarray(full.data[..., w:, :]).tobytes()

    def test_bench_width_linear_row_count(self, monkeypatch):
        """Rows fed to every affine map of one bench-width inference batch:
        the projection, each full layer's q, k, v, out, ff_in and ff_out on
        W + 2 rows, the last layer's k and v on W + 2 rows and its other four
        maps on the 2 slots, and the two heads on one slot each. Every map
        runs through the affine forward that `linear` and the fused
        sublayer ops share."""
        config = ModelConfig(**json.loads(BENCH_CONFIG.read_text())["model"])
        model = SeqDGModel.init(config, seed=0)
        batch, length = 16, config.W + 2
        rows = []
        affine = T._affine

        def counting_affine(x, w, b):
            rows.append(int(np.prod(x.shape[:-1])))
            return affine(x, w, b)

        monkeypatch.setattr(T, "_affine", counting_affine)
        model.predict_logits(np.zeros((batch, config.W, config.D_V)))
        full_layers = config.n_enc_layers - 1
        expected = batch * (config.W + full_layers * 6 * length + 2 * length + 4 * 2 + 2)
        assert sum(rows) == expected == 1136


class TestMaskCenter:
    def test_zeroes_exactly_the_center_row(self):
        rng = np.random.default_rng(13)
        z = Tensor(rng.standard_normal((5, 8)))
        masked = mask_center(z)
        assert np.array_equal(masked.data[2], np.zeros(8))
        for row in (0, 1, 3, 4):
            assert masked.data[row].tobytes() == z.data[row].tobytes()
        assert np.linalg.norm(masked.data[2]) == 0.0

    def test_single_position_window(self):
        z = Tensor(np.ones((1, 4)))
        assert np.array_equal(mask_center(z).data, np.zeros((1, 4)))

    def test_even_window_rejected(self):
        with pytest.raises(ShapeError):
            mask_center(Tensor(np.ones((4, 2))))

    def test_idempotent(self):
        z = Tensor(np.random.default_rng(14).standard_normal((3, 4)))
        once = mask_center(z)
        twice = mask_center(once)
        assert twice.data.tobytes() == once.data.tobytes()

    def test_no_gradient_through_masked_row(self):
        x = Tensor(np.random.default_rng(16).standard_normal((3, 4)), requires_grad=True)
        T.mse(mask_center(x), Tensor(np.zeros((3, 4)))).backward()
        assert np.array_equal(x.grad[1], np.zeros(4))
        assert np.abs(x.grad[[0, 2]]).min() > 0


class TestCrossAttention:
    def test_query_stream_single_row_projects_query_values(self):
        model = tiny_model()
        attn = model.params.dec_visual[0].cross
        rng = np.random.default_rng(18)
        q = Tensor(rng.standard_normal((1, 8)))
        ctx = Tensor(rng.standard_normal((1, 8)))
        out = cross_attention(q, ctx, attn, 2)
        v = q.data @ attn.v.weight.data + attn.v.bias.data
        expected = v @ attn.out.weight.data + attn.out.bias.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_query_stream_matches_manual_oracle_equal_lengths(self):
        rng = np.random.default_rng(20)
        attn = hand_attention(2, wq=[[0.2, 0.4], [-0.1, 0.3]],
                              wk=[[0.6, -0.2], [0.1, 0.5]],
                              wv=[[-0.7, 0.3], [0.2, 0.9]],
                              wo=[[0.5, 0.5], [-0.4, 0.1]])
        q, ctx = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        out = cross_attention(Tensor(q), Tensor(ctx), attn, 1)
        np.testing.assert_allclose(out.data, manual_attention(q, ctx, q, attn, 1),
                                   atol=1e-12, rtol=0)

    def test_query_stream_rejects_unequal_lengths(self):
        model = tiny_model()
        attn = model.params.dec_visual[0].cross
        with pytest.raises(ShapeError):
            cross_attention(Tensor(np.zeros((2, 8))), Tensor(np.ones((3, 8))), attn, 2)


class TestDecode:
    def make_streams(self, model, seed=21):
        rng = np.random.default_rng(seed)
        enc = encode_sequence(rng.standard_normal((3, 6)), model.params)
        text = Tensor(rng.standard_normal((3, 8)))
        return enc, text

    def test_zero_layers_is_passthrough(self):
        model = tiny_model(n_dec_layers=0)
        enc, text = self.make_streams(model)
        masked = mask_center(enc.positions)
        out = decode(masked, text, model.params, "visual")
        assert out.data.tobytes() == masked.data.tobytes()

    def test_reference_output_shape(self):
        cfg = ModelConfig(W=5, D=768, D_V=64, D_T=768, n_enc_layers=0,
                          n_dec_layers=1, n_verbs=5, n_nouns=5, d_ff=256)
        model = SeqDGModel.init(cfg, seed=1)
        rng = np.random.default_rng(22)
        with T.no_grad():
            enc = encode_sequence(rng.standard_normal((5, 64)), model.params)
            text = Tensor(rng.standard_normal((5, 768)))
            out = decode(mask_center(enc.positions), text, model.params, "visual")
        assert out.shape == (5, 768)

    def test_cross_attention_gradient_tracks_context(self):
        model = tiny_model(seed=23)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((3, 6))
        text = rng.standard_normal((3, 8))

        enc = encode_sequence(x, model.params)
        out = decode(mask_center(enc.positions), Tensor(text), model.params, "visual")
        T.mse(out, enc.positions.detach()).backward()
        cross = model.params.dec_visual[0].cross
        assert np.abs(cross.k.weight.grad).max() > 0
        assert np.abs(cross.q.weight.grad).max() > 0

    def test_constant_zero_context_with_zeroed_keys_starves_qk(self):
        # query-stream values + all-zero detached context + zeroed key
        # projection: every key is the same vector, so the softmax is
        # uniform no matter what q or k parameters do.
        model = tiny_model(seed=25)
        cross = model.params.dec_visual[0].cross
        cross.k.weight.data[:] = 0.0
        rng = np.random.default_rng(26)
        enc = encode_sequence(rng.standard_normal((3, 6)), model.params)
        zero_text = Tensor(np.zeros((3, 8)))
        out = decode(mask_center(enc.positions), zero_text, model.params, "visual")
        T.mse(out, enc.positions.detach()).backward()
        assert cross.k.weight.grad is None or np.abs(cross.k.weight.grad).max() == 0
        assert np.abs(cross.k.bias.grad).max() < 1e-15
        assert np.abs(cross.q.weight.grad).max() < 1e-15
        assert np.abs(cross.v.weight.grad).max() > 0


class TestClassify:
    def test_zero_slots_and_zero_bias_give_zero_logits(self):
        model = tiny_model()
        slots = Tensor(np.zeros((2, 8)))
        verb, noun = classify(slots, model.params)
        assert np.array_equal(verb.data, np.zeros(5))
        assert np.array_equal(noun.data, np.zeros(4))

    def test_reference_logit_shapes(self):
        cfg = ModelConfig(W=5, D=768, D_V=1024, D_T=768, n_enc_layers=1,
                          n_dec_layers=0, n_verbs=97, n_nouns=300, d_ff=1024)
        model = SeqDGModel.init(cfg, seed=2)
        with T.no_grad():
            enc = encode_sequence(np.random.default_rng(27).standard_normal((5, 1024)),
                                  model.params)
            verb, noun = classify(enc.cls_slots, model.params)
        assert verb.shape == (97,)
        assert noun.shape == (300,)

    def test_argmax_invariant_under_constant_shift(self):
        model = tiny_model()
        slots = Tensor(np.random.default_rng(28).standard_normal((2, 8)))
        verb, _ = classify(slots, model.params)
        shifted = verb.data + 11.3
        assert np.argmax(verb.data) == np.argmax(shifted)

    def test_slot_binding(self):
        # verb head must read slot 0 and noun head slot 1
        model = tiny_model()
        model.params.head_verb.weight.data[:] = 1.0
        model.params.head_noun.weight.data[:] = 1.0
        slots = np.zeros((2, 8))
        slots[0] = 1.0
        verb, noun = classify(Tensor(slots), model.params)
        assert np.all(verb.data == 8.0)
        assert np.all(noun.data == 0.0)


class TestForwardTrain:
    def test_reconstruction_shapes_and_targets(self):
        model = tiny_model()
        rng = np.random.default_rng(29)
        out = model.forward_train(rng.standard_normal((2, 3, 6)),
                                  rng.standard_normal((2, 3, 8)),
                                  recon_v=True, recon_t=True, token_text=True)
        assert out.verb_logits.shape == (2, 5)
        assert out.noun_logits.shape == (2, 4)
        assert out.recon_v.shape == (2, 3, 8)
        assert out.recon_t.shape == (2, 3, 8)
        assert out.center_text_logits.shape == (2, 10)
        assert not out.target_v.requires_grad
        assert not out.target_t.requires_grad

    def test_recon_requires_text(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="text"):
            model.forward_train(np.zeros((1, 3, 6)), None, recon_v=True)

    def test_inference_reads_no_text_parameters(self):
        model = tiny_model(seed=30)
        x = np.random.default_rng(31).standard_normal((2, 3, 6))
        verb, noun = model.predict_logits(x)
        # wreck every text-side parameter; predictions must not move
        for stack in (model.params.dec_text, model.params.dec_visual):
            for layer in stack:
                layer.cross.q.weight.data[:] = 123.0
        model.params.text_head.weight.data[:] = -55.0
        verb2, noun2 = model.predict_logits(x)
        assert verb.tobytes() == verb2.tobytes()
        assert noun.tobytes() == noun2.tobytes()

    def test_spot_gradcheck_through_full_loss(self):
        model = tiny_model(seed=33)
        rng = np.random.default_rng(34)
        x = rng.standard_normal((2, 3, 6))
        text = rng.standard_normal((2, 3, 8))
        verbs = np.array([0, 3])
        nouns = np.array([1, 2])
        with T.no_grad():
            frozen = model.forward_train(x, text, recon_v=True, recon_t=True)
            targets = (frozen.target_v.data.copy(), frozen.target_t.data.copy())

        def f():
            out = model.forward_train(x, text, recon_v=True, recon_t=True,
                                      frozen_targets=targets)
            loss = T.add(T.cross_entropy(out.verb_logits, verbs),
                         T.cross_entropy(out.noun_logits, nouns))
            loss = T.add(loss, T.mse(out.recon_v, out.target_v))
            return T.add(loss, T.mse(out.recon_t, out.target_t))

        subset = {name: t for name, t in model.params.named().items()
                  if name in ("cls_verb", "proj.bias", "enc.0.attn.q.weight",
                              "dec_v.0.cross.k.weight", "dec_t.0.ff_in.bias",
                              "head_noun.weight")}
        report = T.grad_check(f, subset, h=1e-5, tol=1e-4)
        assert report.passed, report.summary()


def test_bench_width_step_graph_size():
    """A training step's cost is mostly Python work per graph node: with
    one node per attention sublayer, feed-forward sublayer, residual norm
    and other affine map, the bench-width full objective builds 45
    interior nodes (77 with one node per affine map and attention, 194
    from primitive ops)."""
    config = ModelConfig(**json.loads(BENCH_CONFIG.read_text())["model"])
    model = SeqDGModel.init(config, seed=0)
    rng = np.random.default_rng(0)
    visual = rng.standard_normal((16, config.W, config.D_V))
    text = rng.standard_normal((16, config.W, config.D_T))
    batch = Batch(visual=visual, text=text, verbs=rng.integers(0, config.n_verbs, 16),
                  nouns=rng.integers(0, config.n_nouns, 16),
                  token_rows=np.empty(0, dtype=np.int64), tokens=np.empty(0, dtype=np.int64))
    total, _ = composite_loss(model, batch,
                              TrainConfig(model=config, lambda_rv=1.0, lambda_rt=1.0))
    interior = [node for node in T._toposort(total) if node._parents]
    assert len(interior) <= 48, f"{len(interior)} interior nodes"


def composed_attend(queries, keys, values, params, n_heads):
    """`model._attend` built from `linear` and `attention`, a node each."""
    ctx, _ = T.attention(*(T.linear(x, a.weight, a.bias) for x, a in
                           ((queries, params.q), (keys, params.k), (values, params.v))),
                         n_heads)
    return T.linear(ctx, params.out.weight, params.out.bias)


def composed_feed_forward(h, ff_in, ff_out):
    """`model._feed_forward` built from `linear` and `relu`, a node each."""
    return T.linear(T.relu(T.linear(h, ff_in.weight, ff_in.bias)), ff_out.weight,
                    ff_out.bias)


@pytest.mark.parametrize("w", [1, 5])
@pytest.mark.parametrize("text_loss", ["mse", "token_cross_entropy"])
def test_fused_sublayers_equal_their_composition_bit_for_bit(w, text_loss, monkeypatch):
    """The fused sublayer ops hand their input deltas over in the order the
    composed graph does, so a bench-width loss, every gradient and the
    inference logits keep their bits."""
    config = ModelConfig(**{**json.loads(BENCH_CONFIG.read_text())["model"], "W": w})
    train_config = TrainConfig(model=config, text_loss=text_loss)
    data = bench_width_batch(config)
    runs = []
    for composed in (False, True):
        if composed:
            monkeypatch.setattr(model_mod, "_attend", composed_attend)
            monkeypatch.setattr(model_mod, "_feed_forward", composed_feed_forward)
        model = SeqDGModel.init(config, seed=0)
        total, _ = composite_loss(model, data, train_config)
        total.backward()
        logits = model.predict_logits(data.visual)
        runs.append({"ops": {node._op for node in T._toposort(total)},
                     "loss": total.data.tobytes(),
                     "grad": model.params.flat_gradient().tobytes(),
                     "logits": b"".join(part.tobytes() for part in logits)})
    fused, composed = runs
    assert {"attention_block", "feed_forward"} <= fused["ops"]
    assert not {"attention", "relu"} & fused["ops"]
    assert {"attention", "relu"} <= composed["ops"]
    assert not {"attention_block", "feed_forward"} & composed["ops"]
    assert fused["loss"] == composed["loss"]
    assert fused["grad"] == composed["grad"]
    assert fused["logits"] == composed["logits"]


@pytest.mark.parametrize("key, value", [("W", 2**53 + 1), ("d_ff", 2**53),
                                        ("vocab_size", 2**53), ("n_enc_layers", 2**47),
                                        ("n_dec_layers", 2**46)])
def test_parameters_too_large_to_allocate_are_a_value_error(key, value):
    # 2^56 floats (2^59 bytes) or more, past any address space: the
    # allocation fails at once without touching memory
    with pytest.raises(ValueError, match="cannot allocate the model: Unable to allocate"):
        SeqDGModel.init(tiny_config(**{key: value}))


def bench_width_batch(config, batch=16, seed=0):
    rng = np.random.default_rng(seed)
    return Batch(visual=rng.standard_normal((batch, config.W, config.D_V)),
                 text=rng.standard_normal((batch, config.W, config.D_T)),
                 verbs=rng.integers(0, config.n_verbs, batch),
                 nouns=rng.integers(0, config.n_nouns, batch),
                 token_rows=np.arange(batch), tokens=rng.integers(config.vocab_size, size=batch))


class TestParameterBuffer:
    """Every tensor of a `ModelParams` lives in one parameter buffer and
    one gradient buffer, in walk order."""

    def assert_views_in_walk_order(self, params, attr="data", buffer_attr="flat"):
        buffer = getattr(params, buffer_attr)
        start = 0
        for name, tensor in params.named().items():
            array = getattr(tensor, attr)
            assert array.base is buffer, name
            assert array.ctypes.data == buffer.ctypes.data + 8 * start, name
            start += array.size
        assert start == params.flat.size == params.flat_grad.size

    def test_initialised_and_loaded_parameters_are_buffer_views(self, tmp_path):
        from seqdg.checkpoint import load_checkpoint, save_checkpoint

        params = tiny_model(seed=5).params
        self.assert_views_in_walk_order(params)
        loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "m.ckpt", params))
        self.assert_views_in_walk_order(loaded)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_gradients_are_their_parameters_slices(self):
        model = tiny_model(seed=6)
        config = TrainConfig(model=model.config, lambda_rv=1.0, lambda_rt=1.0,
                             text_loss="token_cross_entropy")
        total, _ = composite_loss(model, bench_width_batch(model.config, batch=3), config)
        total.backward()
        self.assert_views_in_walk_order(model.params, "grad", "flat_grad")

    @pytest.mark.parametrize("text_loss", ["mse", "token_cross_entropy"])
    def test_no_two_gradients_share_memory_after_a_bench_width_backward(self, text_loss):
        config = ModelConfig(**json.loads(BENCH_CONFIG.read_text())["model"])
        model = SeqDGModel.init(config, seed=0)
        total, _ = composite_loss(model, bench_width_batch(config),
                                  TrainConfig(model=config, text_loss=text_loss))
        total.backward()
        nodes = T._toposort(total) + model.params.tensors()
        grads = list({id(node): node.grad for node in nodes
                      if node.grad is not None}.values())
        assert len(grads) > 100
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)


class TestFlattenedLinear:
    """The affine forward (`tensor._affine`, which `linear` and the fused
    sublayer ops share) runs one GEMM over the flattened leading axes; on
    every input a bench-width model feeds it, training or inference, the
    output has the bits of numpy's own product over the leading axes."""

    @pytest.mark.parametrize("w", [1, 5])
    @pytest.mark.parametrize("batch", [16, 5, 256])
    def test_bench_width_outputs_equal_numpys_product(self, w, batch, monkeypatch):
        config = ModelConfig(**{**json.loads(BENCH_CONFIG.read_text())["model"], "W": w})
        model = SeqDGModel.init(config, seed=1)
        affine = T._affine
        rows_per_index = set()

        def checked_affine(x, weight, bias):
            out = affine(x, weight, bias)
            want = x @ weight
            want += bias
            assert out.tobytes() == want.tobytes(), (x.shape, weight.shape)
            rows_per_index.add(x.shape[-2])
            return out

        monkeypatch.setattr(T, "_affine", checked_affine)
        data = bench_width_batch(config, batch=batch, seed=2)
        model.forward_train(data.visual, data.text, recon_v=True, recon_t=True,
                            token_text=True)
        model.predict_logits(data.visual)
        # single rows (the heads, and a W=1 model's decoders) and several
        assert 1 in rows_per_index and max(rows_per_index) > 1
