import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqdg.tensor as T
from seqdg.tensor import (
    GradCheckReport,
    NonDeterministicError,
    NonFiniteError,
    ShapeError,
    Tensor,
    grad_check,
)

# frozen with a 50-digit arbitrary-precision evaluation
SOFTMAX_123 = [0.09003057317038045800, 0.24472847105479765247, 0.66524095577482188953]
CE_210_CLASS1 = 1.4076059644443803045
LN2 = 0.69314718055994530942


def rand(shape, seed, scale=1.0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.standard_normal(shape), requires_grad=requires_grad)


class TestTensorBasics:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_rejects_zero_size(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))

    def test_scalar_shape_allowed(self):
        t = Tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_detach_shares_values_and_drops_grad(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        assert np.array_equal(d.data, x.data)

    def test_op_surfaces_nonfinite(self):
        big = Tensor([[1e200]], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            T.mul(big, big)

    def test_finite_values_whose_sum_overflows_pass_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T._node(np.array([1e308, 1e308, -1e308, 1e308]), (), "probe", None)
            assert out.data.tolist() == [1e308, 1e308, -1e308, 1e308]
            assert T.scale(Tensor([[1e308, 1e308]]), 1.0).data.tolist() == [[1e308, 1e308]]

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 1.0], [np.inf, -np.inf],
                                        [1e308, np.nan, 1e308]],
                             ids=["nan", "inf", "inf_minus_inf", "nan_among_overflow"])
    def test_op_result_with_nan_or_inf_raises(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="op 'probe' produced non-finite"):
                T._node(np.array(values), (), "probe", None)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_by_hand_1x2_2x1(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(rand((2, 3), 0), rand((2, 3), 1))

    def test_gradients_match_finite_differences(self):
        a = rand((3, 4), 7)
        b = rand((4, 2), 8)
        report = grad_check(lambda: T.sum_all(T.mul(y := T.matmul(a, b), y)),
                            {"a": a, "b": b}, h=1e-5, tol=1e-6)
        assert report.passed, report.summary()

    def test_batched_matmul_grad(self):
        a = rand((2, 3, 4), 11)
        w = rand((4, 5), 12)
        report = grad_check(lambda: T.sum_all(T.mul(y := T.matmul(a, w), y)),
                            {"a": a, "w": w}, tol=1e-6)
        assert report.passed, report.summary()


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        assert out.data.tolist() == [[0.5, 0.5]]

    def test_large_inputs_do_not_overflow(self):
        out = T.softmax_rows(Tensor([[1000.0, 1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=0, atol=1e-15)

    def test_against_high_precision_oracle(self):
        out = T.softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out.data[0], SOFTMAX_123, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=8))
    def test_rows_sum_to_one(self, row):
        out = T.softmax_rows(Tensor([row]))
        assert abs(out.data.sum() - 1.0) < 1e-9
        assert (out.data >= 0).all()


class TestLayerNorm:
    def gb(self, d, gain=1.0, bias=0.0):
        return (Tensor(np.full(d, gain), requires_grad=True),
                Tensor(np.full(d, bias), requires_grad=True))

    def test_constant_row_maps_to_zero(self):
        g, b = self.gb(6)
        out = T.layer_norm(Tensor([[3.7] * 6]), g, b, eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_standardization(self):
        g, b = self.gb(2)
        out = T.layer_norm(Tensor([[1.0, 3.0]]), g, b, eps=1e-30)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-9)

    def test_pre_affine_moments(self):
        x = rand((2, 8), 3, requires_grad=False)
        g, b = self.gb(8)
        out = T.layer_norm(x, g, b, eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6

    def test_matches_the_mean_formula_bitwise(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 5, 8)) * 40 + 3, requires_grad=True)
        g = Tensor(rng.standard_normal(8), requires_grad=True)
        b = Tensor(rng.standard_normal(8), requires_grad=True)
        dout = rng.standard_normal((3, 5, 8))
        out = T.layer_norm(x, g, b, eps=1e-5)
        out._backward(dout)
        s = x.data
        mu = np.mean(s, axis=-1, keepdims=True)
        var = np.mean((s - mu) * (s - mu), axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (s - mu) * inv
        assert np.array_equal(out.data, xhat * g.data + b.data)
        dy = dout * g.data
        dx = inv * (dy - np.mean(dy, axis=-1, keepdims=True)
                    - xhat * np.mean(dy * xhat, axis=-1, keepdims=True))
        assert np.array_equal(x.grad, dx)


class TestLosses:
    def test_mse_identical_inputs(self):
        x = rand((3, 4), 5)
        assert T.mse(x, x.detach()).item() == 0.0

    def test_cross_entropy_uniform_logits(self):
        out = T.cross_entropy(Tensor([0.0, 0.0], requires_grad=True), np.int64(0))
        assert abs(out.item() - LN2) < 1e-12

    def test_cross_entropy_against_oracle(self):
        out = T.cross_entropy(Tensor([2.0, 1.0, 0.0], requires_grad=True), np.int64(1))
        assert abs(out.item() - CE_210_CLASS1) < 1e-12

    def test_cross_entropy_index_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor([0.0, 0.0]), np.int64(2))

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.mse(rand((2, 3), 0), rand((3, 2), 1))

    def test_batched_cross_entropy_matches_loop(self):
        logits = rand((4, 6), 9)
        targets = np.array([1, 0, 5, 3])
        batched = T.cross_entropy(logits, targets).item()
        single = np.mean([
            T.cross_entropy(Tensor(logits.data[i]), np.int64(targets[i])).item()
            for i in range(4)
        ])
        assert abs(batched - single) < 1e-12


OPS = {
    "add": lambda p: T.add(p["a"], p["b"]),
    "add_trailing_bias": lambda p: T.add(p["a3"], p["bias"]),
    "sub": lambda p: T.sub(p["a"], p["b"]),
    "mul": lambda p: T.mul(p["a"], p["b"]),
    "scale": lambda p: T.scale(p["a"], -1.7),
    "relu": lambda p: T.relu(p["a"]),
    "matmul": lambda p: T.matmul(p["a"], p["w"]),
    "matmul_batched": lambda p: T.matmul(p["a3"], p["w"]),
    "permute": lambda p: T.permute(p["a3"], (2, 0, 1)),
    "reshape": lambda p: T.reshape(p["a"], (4, 3)),
    "concat": lambda p: T.concat([p["a"], p["b"]], axis=-2),
    "concat_last": lambda p: T.concat([p["a"], p["b"]], axis=-1),
    "narrow": lambda p: T.narrow(p["a"], -2, 1, 2),
    "take_rows": lambda p: T.take_rows(p["a"], [0, 2, 2, 1]),
    "zero_rows": lambda p: T.zero_rows(p["a"], 1),
    "expand_leading": lambda p: T.expand_leading(p["a"], (3,)),
    "softmax_rows": lambda p: T.softmax_rows(p["a"]),
    "layer_norm": lambda p: T.layer_norm(p["a"], p["gain"], p["bias_d"], eps=1e-5),
    "linear": lambda p: T.linear(p["a"], p["w"], p["bias_o"]),
    "linear_batched": lambda p: T.linear(p["a3"], p["w"], p["bias_o"]),
    "attention_self": lambda p: T.attention(p["a3"], p["a3"], p["a3"], 2)[0],
    "attention_cross": lambda p: T.attention(p["a3"], p["k3"], p["v3"], 2)[0],
    "add_layer_norm": lambda p: T.add_layer_norm(p["a"], p["b"], p["gain"], p["bias_d"],
                                                 eps=1e-5),
    "attention_block_self": lambda p: T.attention_block(p["a3"], p["a3"], p["a3"],
                                                        projections(p), 2),
    # queries are the values, as in a decoder's cross-attention
    "attention_block_cross": lambda p: T.attention_block(p["a3"], p["c3"], p["a3"],
                                                         projections(p), 2),
    # two query rows against W + 2 = 5 keys, as in the last inference layer
    "attention_block_rows": lambda p: T.attention_block(p["r3"], p["k3"], p["k3"],
                                                        projections(p), 2),
    "feed_forward": lambda p: T.feed_forward(p["a3"], p["w1"], p["b1"], p["w2"], p["b2"]),
    # target is a fresh constant: perturbing a checked param must not move it
    "mse": lambda p: T.mse(p["a"], Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))),
    "cross_entropy": lambda p: T.cross_entropy(p["a"], np.array([0, 3, 1])),
}


def projections(p):
    return [(p[f"w{name}"], p[f"b{name}"]) for name in "qkvo"]


def op_params(rng) -> dict:
    """The inputs of the `OPS` table, drawn from `rng`."""
    return {
        "a": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
        "b": Tensor(rng.standard_normal((3, 4)), requires_grad=True),
        "w": Tensor(rng.standard_normal((4, 5)), requires_grad=True),
        "a3": Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True),
        "bias": Tensor(rng.standard_normal(4), requires_grad=True),
        "gain": Tensor(1.0 + 0.1 * rng.standard_normal(4), requires_grad=True),
        "bias_d": Tensor(rng.standard_normal(4), requires_grad=True),
        "bias_o": Tensor(rng.standard_normal(5), requires_grad=True),
        # keys and values of a cross-attention: 5 positions against 3 queries
        "k3": Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True),
        "v3": Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True),
        # the sublayer ops: another key stream, two query rows, and the
        # q, k, v and out projections and the two feed-forward maps
        "c3": Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True),
        "r3": Tensor(rng.standard_normal((2, 2, 4)), requires_grad=True),
        **{f"{kind}{name}": Tensor(scale * rng.standard_normal(shape), requires_grad=True)
           for name in "qkvo"
           for kind, scale, shape in (("w", 0.5, (4, 4)), ("b", 1.0, (4,)))},
        "w1": Tensor(0.5 * rng.standard_normal((4, 6)), requires_grad=True),
        "b1": Tensor(rng.standard_normal(6), requires_grad=True),
        "w2": Tensor(0.5 * rng.standard_normal((6, 4)), requires_grad=True),
        "b2": Tensor(rng.standard_normal(4), requires_grad=True),
    }


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", range(10))
def test_every_op_passes_gradcheck(name, seed):
    rng = np.random.default_rng(1000 + seed)
    params = op_params(rng)
    op = OPS[name]

    def f():
        out = op(params)
        if out.ndim > 0:
            # square so the pooled scalar depends nonlinearly on every entry
            out = T.sum_all(T.mul(out, out))
        return out

    used = {k: v for k, v in params.items()}
    report = grad_check(f, used, h=1e-5, tol=1e-6)
    assert report.passed, f"{name}: {report.summary()}"


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", range(3))
def test_no_op_writes_into_what_it_was_given(name, seed):
    """Forward and backward leave every input's data, the upstream delta
    and the forward output byte for byte as they were: an op computes in
    place only in arrays it has made in the same call."""
    rng = np.random.default_rng(2000 + seed)
    params = op_params(rng)
    inputs = {key: t.data.tobytes() for key, t in params.items()}
    out = OPS[name](params)
    forward = out.data.tobytes()
    upstream = np.asarray(rng.standard_normal(out.shape))
    given = upstream.tobytes()
    out._backward(upstream)
    assert any(t.grad is not None for t in params.values())
    assert {key: t.data.tobytes() for key, t in params.items()} == inputs
    assert upstream.tobytes() == given
    assert out.data.tobytes() == forward


def split_heads(x, n_heads):
    *lead, length, d = x.shape
    y = T.reshape(x, tuple(lead) + (length, n_heads, d // n_heads))
    return T.permute(y, tuple(range(y.ndim - 3)) + (y.ndim - 2, y.ndim - 3, y.ndim - 1))


def merge_heads(x):
    y = T.permute(x, tuple(range(x.ndim - 3)) + (x.ndim - 2, x.ndim - 3, x.ndim - 1))
    *lead, length, heads, d_head = y.shape
    return T.reshape(y, tuple(lead) + (length, heads * d_head))


def composed_attention(q, k, v, n_heads):
    """Multi-head attention from the primitive ops, the fused op's oracle."""
    d_head = q.shape[-1] // n_heads
    qh, kh, vh = (split_heads(t, n_heads) for t in (q, k, v))
    kt = T.permute(kh, tuple(range(kh.ndim - 2)) + (kh.ndim - 1, kh.ndim - 2))
    scores = T.scale(T.matmul(qh, kt), 1.0 / np.sqrt(d_head))
    weights = T.softmax_rows(scores)
    return merge_heads(T.matmul(weights, vh)), weights


def pairs(flat):
    """(w1, b1, w2, b2, ...) -> [(w1, b1), (w2, b2), ...]"""
    return list(zip(flat[::2], flat[1::2]))


def composed_attention_block(queries, keys, values, projections, n_heads):
    """An attention sublayer from `linear` and `attention`, the fused op's oracle."""
    (wq, bq), (wk, bk), (wv, bv), (wo, bo) = projections
    ctx, _ = T.attention(T.linear(queries, wq, bq), T.linear(keys, wk, bk),
                         T.linear(values, wv, bv), n_heads)
    return T.linear(ctx, wo, bo)


def composed_feed_forward(x, w1, b1, w2, b2):
    """A feed-forward sublayer from `linear` and `relu`, the fused op's oracle."""
    return T.linear(T.relu(T.linear(x, w1, b1)), w2, b2)


# (fan_in, fan_out) and (fan_out,) of the q, k, v and out projections
PROJECTIONS_8 = [(8, 8), (8,)] * 4
PROJECTIONS_6 = [(6, 6), (6,), (4, 6), (6,), (6, 6), (6,), (6, 6), (6,)]

# fused op -> (fused, composed from primitives, input shapes)
FUSED = {
    "linear": (lambda x, w, b: T.linear(x, w, b),
               lambda x, w, b: T.add(T.matmul(x, w), b),
               [(4, 7, 6), (6, 5), (5,)]),
    "linear_2d": (lambda x, w, b: T.linear(x, w, b),
                  lambda x, w, b: T.add(T.matmul(x, w), b),
                  [(7, 6), (6, 5), (5,)]),
    "attention_self": (lambda q, k, v: T.attention(q, k, v, 4)[0],
                       lambda q, k, v: composed_attention(q, k, v, 4)[0],
                       [(3, 7, 8), (3, 7, 8), (3, 7, 8)]),
    "attention_cross": (lambda q, k, v: T.attention(q, k, v, 2)[0],
                        lambda q, k, v: composed_attention(q, k, v, 2)[0],
                        [(2, 3, 3, 6), (2, 3, 5, 6), (2, 3, 5, 6)]),
    "add_layer_norm": (lambda x, r, g, b: T.add_layer_norm(x, r, g, b, eps=1e-5),
                       lambda x, r, g, b: T.layer_norm(T.add(x, r), g, b, eps=1e-5),
                       [(4, 7, 6), (4, 7, 6), (6,), (6,)]),
    # one tensor as queries, keys and values
    "attention_block_self": (
        lambda x, *p: T.attention_block(x, x, x, pairs(p), 4),
        lambda x, *p: composed_attention_block(x, x, x, pairs(p), 4),
        [(3, 7, 8)] + PROJECTIONS_8),
    # queries are the values; the keys are another stream, of another width
    "attention_block_cross": (
        lambda x, c, *p: T.attention_block(x, c, x, pairs(p), 2),
        lambda x, c, *p: composed_attention_block(x, c, x, pairs(p), 2),
        [(2, 5, 6), (2, 5, 4)] + PROJECTIONS_6),
    # 2 query rows against W + 2 = 7 keys and values
    "attention_block_rows": (
        lambda r, h, *p: T.attention_block(r, h, h, pairs(p), 4),
        lambda r, h, *p: composed_attention_block(r, h, h, pairs(p), 4),
        [(3, 2, 8), (3, 7, 8)] + PROJECTIONS_8),
    "feed_forward": (lambda x, w1, b1, w2, b2: T.feed_forward(x, w1, b1, w2, b2),
                     composed_feed_forward,
                     [(4, 7, 6), (6, 10), (10,), (10, 6), (6,)]),
}


@pytest.mark.parametrize("name", sorted(FUSED))
@pytest.mark.parametrize("seed", range(3))
def test_fused_op_matches_primitive_composition(name, seed):
    fused, composed, shapes = FUSED[name]
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for shape in shapes]
    upstream = None
    results = []
    for build in (fused, composed):
        inputs = [Tensor(v, requires_grad=True) for v in values]
        out = build(*inputs)
        if upstream is None:
            upstream = Tensor(rng.standard_normal(out.shape))
        T.sum_all(T.mul(out, upstream)).backward()
        results.append([out.data] + [t.grad for t in inputs])
    for got, want in zip(*results):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestFusedOps:
    def test_attention_weights_are_graph_free_softmax_rows(self):
        q, k = rand((2, 3, 4), 61), rand((2, 5, 4), 62)
        out, weights = T.attention(q, k, k, 2)
        assert out.shape == (2, 3, 4)
        assert weights.shape == (2, 2, 3, 5)
        assert not weights.requires_grad and weights._parents == ()
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, rtol=0, atol=1e-15)

    def test_attention_rejects_mismatched_streams(self):
        with pytest.raises(ShapeError):
            T.attention(rand((3, 4), 0), rand((5, 4), 1), rand((4, 4), 2), 2)
        with pytest.raises(ShapeError):
            T.attention(rand((3, 4), 0), rand((5, 4), 1), rand((5, 4), 2), 3)

    def test_linear_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError):
            T.linear(rand((3, 4), 0), rand((5, 2), 1), rand((2,), 2))
        with pytest.raises(ShapeError):
            T.linear(rand((3, 4), 0), rand((4, 2), 1), rand((4,), 2))

    def test_sublayer_ops_reject_mismatched_shapes(self):
        x, w, b = rand((2, 3, 4), 0), rand((4, 4), 1), rand((4,), 2)
        with pytest.raises(ShapeError, match="attention_block"):
            T.attention_block(x, x, x, [(w, b), (w, b), (w, b), (rand((5, 4), 3), b)], 2)
        with pytest.raises(ShapeError, match="attention_block"):
            T.attention_block(x, rand((2, 5, 4), 4), x, [(w, b)] * 4, 2)
        with pytest.raises(ShapeError, match="attention_block"):
            T.attention_block(x, x, x, [(w, b)] * 4, 3)
        with pytest.raises(ShapeError, match="feed_forward"):
            T.feed_forward(x, w, b, rand((5, 4), 5), b)

    @pytest.mark.parametrize("grad", [True, False], ids=["train", "no_grad"])
    @pytest.mark.parametrize("where", ["q", "k", "v", "context", "out"])
    def test_attention_block_surfaces_nonfinite_intermediates(self, where, grad):
        """At a 1e200 scale each projection, the scores behind the context
        and the output projection can overflow; whichever does, the op
        raises as its own."""
        rng = np.random.default_rng(81)
        streams = {s: rng.standard_normal((2, 3, 4)) for s in "qkv"}
        weights = {s: 0.5 * rng.standard_normal((4, 4)) for s in "qkvo"}
        if where in "qkv":
            streams[where] *= 1e200
            weights[where] *= 1e200
        elif where == "context":      # q.k overflows, so the softmax is NaN
            streams["q"] *= 1e200
            streams["k"] *= 1e200
        else:                         # v is finite, out overflows
            streams["v"] *= 1e200
            weights["o"] *= 1e200
        queries, keys, values = (Tensor(streams[s], requires_grad=grad) for s in "qkv")
        projections = [(Tensor(weights[s], requires_grad=grad), Tensor(np.zeros(4)))
                       for s in "qkvo"]
        with (contextlib.nullcontext() if grad else T.no_grad()), \
                np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="op 'attention_block' produced non-finite"):
            T.attention_block(queries, keys, values, projections, 2)

    @pytest.mark.parametrize("grad", [True, False], ids=["train", "no_grad"])
    @pytest.mark.parametrize("where", ["hidden_minus_inf", "hidden_plus_inf", "out"])
    def test_feed_forward_surfaces_nonfinite_intermediates(self, where, grad):
        """A -inf pre-activation raises although `relu` would zero it."""
        x = Tensor(1e200 * np.ones((2, 3, 4)), requires_grad=grad)
        w1 = np.full((4, 6), {"hidden_minus_inf": -1e200, "hidden_plus_inf": 1e200,
                              "out": 1.0}[where])
        w2 = np.full((6, 4), 1e200 if where == "out" else 1.0)
        args = [Tensor(w1, requires_grad=grad), Tensor(np.zeros(6)),
                Tensor(w2, requires_grad=grad), Tensor(np.zeros(4))]
        with (contextlib.nullcontext() if grad else T.no_grad()), \
                np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="op 'feed_forward' produced non-finite"):
            T.feed_forward(x, *args)

    def test_add_layer_norm_rejects_unequal_shapes(self):
        with pytest.raises(ShapeError):
            T.add_layer_norm(rand((3, 4), 0), rand((4,), 1), rand((4,), 2), rand((4,), 3))

    def test_first_accumulation_does_not_alias_the_delta(self):
        # `add` hands the same upstream array to both operands
        a, b = rand((2, 3), 71), rand((2, 3), 72)
        delta = np.ones((2, 3))
        T._acc(a, delta)
        T._acc(b, delta)
        T._acc(a, delta)
        assert (a.grad == 2.0).all()
        assert (b.grad == 1.0).all() and (delta == 1.0).all()


def reference_heads(q, k, v, n_heads, dout):
    """`_heads`'s context, weights and q, k and v deltas, written as
    reductions over the last axis and merge copies: its bitwise oracle."""
    def split(x):
        return np.swapaxes(x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)), -2, -3)

    def merge(x):
        x = np.swapaxes(x, -2, -3)
        return x.reshape(x.shape[:-2] + (-1,))

    qh, kh, vh = split(q), split(k), split(v)
    c = 1.0 / np.sqrt(q.shape[-1] // n_heads)
    scores = (qh @ np.swapaxes(kh, -1, -2)) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    dctx = split(dout)
    dv = merge(np.swapaxes(weights, -1, -2) @ dctx)
    dw = dctx @ np.swapaxes(vh, -1, -2)
    dscores = (dw - (dw * weights).sum(axis=-1, keepdims=True)) * weights * c
    dq = merge(dscores @ kh)
    dk = merge(np.swapaxes(dscores, -1, -2) @ qh)
    return merge(weights @ vh), weights, scores, (dq, dk, dv)


class TestFusedOpBits:
    """The fused ops' in-place arithmetic gives the bits of the plain
    expressions it replaces."""

    # leading axes, Lq, Lk, width, heads, scale of q and k
    HEADS = {
        "encoder": ((3,), 7, 7, 8, 4, 1.0),
        "bench_chunk": ((128,), 7, 7, 64, 4, 1.0),
        "reduced_last_layer": ((5,), 2, 7, 8, 4, 1.0),
        "one_key": ((4,), 3, 1, 6, 2, 1.0),
        "two_leading_axes": ((2, 3), 3, 5, 6, 2, 1.0),
        "scores_in_the_hundreds": ((4,), 7, 7, 8, 2, 12.0),
    }

    @pytest.mark.parametrize("case", sorted(HEADS))
    def test_heads_equal_the_plain_expressions(self, case):
        lead, lq, lk, d, n_heads, size = self.HEADS[case]
        rng = np.random.default_rng(5)
        q = size * rng.standard_normal(lead + (lq, d))
        k = size * rng.standard_normal(lead + (lk, d))
        v = rng.standard_normal(lead + (lk, d))
        dout = rng.standard_normal(lead + (lq, d))
        given = [a.copy() for a in (q, k, v, dout)]
        ctx, weights, backward = T._heads(q, k, v, n_heads)
        deltas = backward(dout, True, True, True)
        want_ctx, want_weights, scores, want_deltas = reference_heads(q, k, v, n_heads, dout)
        if size > 1.0:
            assert np.abs(scores).max() > 100.0
        assert np.array_equal(weights, want_weights)
        assert np.array_equal(ctx, want_ctx)
        for got, want in zip(deltas, want_deltas):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert all(np.array_equal(a, b) for a, b in zip((q, k, v, dout), given))
        # a delta not asked for is not made; the others keep their bits
        for i in range(3):
            need = [j == i for j in range(3)]
            only = backward(dout, *need)
            assert [x is None for x in only] == [not flag for flag in need]
            assert np.array_equal(only[i], want_deltas[i])

    def test_feed_forward_masks_the_hidden_delta(self):
        rng = np.random.default_rng(6)
        x, w1, b1, w2, b2 = (rng.standard_normal(shape) for shape in
                             ((4, 7, 6), (6, 10), (10,), (10, 6), (6,)))
        dout = rng.standard_normal((4, 7, 6))
        x_t = Tensor(x, requires_grad=True)
        out = T.feed_forward(x_t, *(Tensor(a, requires_grad=True) for a in (w1, b1, w2, b2)))
        out._backward(dout)
        # `_affine`'s one GEMM over the flattened leading axes, forward and back
        hidden = (x.reshape(-1, 6) @ w1 + b1).reshape(4, 7, 10)
        dhidden = (dout.reshape(-1, 6) @ np.ascontiguousarray(w2.T)).reshape(4, 7, 10)
        assert (hidden > 0).any() and (hidden <= 0).any()
        want = ((dhidden * (hidden > 0)).reshape(-1, 10) @ np.ascontiguousarray(w1.T))
        assert np.array_equal(x_t.grad, want.reshape(x.shape))

    def test_add_layer_norm_equals_layer_norm_of_the_sum(self):
        rng = np.random.default_rng(8)
        x, r = (rng.standard_normal((3, 5, 8)) * 40 + 3 for _ in range(2))
        g, b = rng.standard_normal(8), rng.standard_normal(8)
        dout = rng.standard_normal((3, 5, 8))
        fused = [Tensor(a, requires_grad=True) for a in (x, r, g, b)]
        out = T.add_layer_norm(*fused, eps=1e-5)
        out._backward(dout)
        plain = [Tensor(a, requires_grad=True) for a in (x + r, g, b)]
        want = T.layer_norm(*plain, eps=1e-5)
        want._backward(dout)
        assert np.array_equal(out.data, want.data)
        assert np.array_equal(fused[0].grad, plain[0].grad)
        assert np.array_equal(fused[1].grad, plain[0].grad)
        for got, ref in zip(fused[2:], plain[1:]):
            assert np.array_equal(got.grad, ref.grad)


class TestGraphProperties:
    def build_loss(self, x, w):
        h = T.relu(T.matmul(x, w))
        return T.mse(h, Tensor(np.ones(h.shape)))

    def test_backward_leaves_values_bitwise_unchanged(self):
        x = rand((3, 4), 21, requires_grad=False)
        w = rand((4, 2), 22)
        before = x.data.tobytes()
        self.build_loss(x, w).backward()
        assert x.data.tobytes() == before
        assert x.grad is None

    def test_backward_is_bitwise_deterministic(self):
        grads = []
        for _ in range(2):
            x = rand((3, 4), 31, requires_grad=False)
            w = rand((4, 2), 32)
            self.build_loss(x, w).backward()
            grads.append(w.grad.tobytes())
        assert grads[0] == grads[1]

    def test_shared_subexpression_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = T.sum_all(T.mul(x, x))
        y.backward()
        assert x.grad.tolist() == [4.0]

    def test_no_grad_blocks_graph(self):
        w = rand((2, 2), 41)
        with T.no_grad():
            out = T.matmul(w, w)
        assert not out.requires_grad
        assert out._parents == ()

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            rand((2, 2), 51).backward()


class TestGradCheck:
    def test_quadratic(self):
        theta = Tensor([1.0, 2.0], requires_grad=True)

        def f():
            return T.sum_all(T.mul(theta, theta))

        report = grad_check(f, {"theta": theta}, h=1e-5, tol=1e-8)
        assert report.passed
        # analytic gradient of sum(x^2) is 2x
        f().backward()
        assert np.allclose(theta.grad, [2.0, 4.0])

    def test_corrupted_backward_is_flagged(self):
        theta = Tensor([0.5, -1.3], requires_grad=True)

        def bad_square(x):
            out = x.data * x.data

            def backward(dout):
                T._acc(x, dout * 3.0 * x.data)  # wrong: should be 2x

            return T._node(out, (x,), "bad_square", backward)

        def f():
            return T.sum_all(bad_square(theta))

        report = grad_check(f, {"theta": theta}, h=1e-5, tol=1e-6)
        assert not report.passed
        assert report.worst_param == "theta"
        assert report.failures()[0].failing

    def test_nondeterministic_function_hard_errors(self):
        state = {"n": 0}

        def f():
            state["n"] += 1
            return T.sum_all(Tensor([float(state["n"])]))

        with pytest.raises(NonDeterministicError):
            grad_check(f, {}, h=1e-5)

    def test_report_summary_mentions_tolerance(self):
        theta = Tensor([1.0], requires_grad=True)
        report = grad_check(lambda: T.sum_all(T.mul(theta, theta)), {"theta": theta})
        assert isinstance(report, GradCheckReport)
        assert "tol" in report.summary()
