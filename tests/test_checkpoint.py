import json
import struct
import tracemalloc

import numpy as np
import pytest

from seqdg.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_model,
    save_checkpoint,
    strip_text_parameters,
)
from seqdg.model import ModelConfig, ModelParams, SeqDGModel
from seqdg.tensor import NonFiniteError
from test_model import BENCH_CONFIG


def tiny_params(seed=0, **kw):
    base = dict(W=3, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=1,
                n_heads=2, n_verbs=4, n_nouns=3, d_ff=16, vocab_size=7)
    base.update(kw)
    return ModelParams(ModelConfig(**base), seed=seed)


class TestRoundTrip:
    def test_byte_exact_save_load_save(self, tmp_path):
        params = tiny_params(seed=3)
        rng_state = np.random.default_rng(5).bit_generator.state
        p1 = save_checkpoint(tmp_path / "a.ckpt", params, rng_state=rng_state,
                             extra={"note": "x"})
        loaded, header = load_checkpoint(p1)
        p2 = save_checkpoint(tmp_path / "b.ckpt", loaded,
                             rng_state=header["rng_state"], extra=header["extra"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_roundtrip_bitwise(self, tmp_path):
        params = tiny_params(seed=9)
        save_checkpoint(tmp_path / "c.ckpt", params)
        loaded, _ = load_checkpoint(tmp_path / "c.ckpt")
        for name, t in params.named().items():
            assert loaded.named()[name].data.tobytes() == t.data.tobytes(), name

    def test_rng_state_preserved_exactly(self, tmp_path):
        state = np.random.default_rng(11).bit_generator.state
        save_checkpoint(tmp_path / "d.ckpt", tiny_params(), rng_state=state)
        _, header = load_checkpoint(tmp_path / "d.ckpt")
        assert header["rng_state"] == state

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        params = tiny_params()
        path = save_checkpoint(tmp_path / "e.ckpt", params)
        raw = bytearray(path.read_bytes())
        # corrupt the name of one core parameter inside the JSON header
        idx = raw.find(b'"proj.weight"')
        raw[idx:idx + 13] = b'"proj.wXight"'
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_layers_beyond_the_header_are_rejected_before_the_layout(self, tmp_path,
                                                                     monkeypatch):
        raw = save_checkpoint(tmp_path / "f.ckpt", tiny_params()).read_bytes()
        n = struct.unpack("<Q", raw[12:20])[0]
        header = json.loads(raw[20:20 + n])
        header["config"]["n_enc_layers"] = 10 ** 9
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        path = tmp_path / "deep.ckpt"
        path.write_bytes(raw[:12] + struct.pack("<Q", len(encoded)) + encoded + raw[20 + n:])

        def lay_out(self, *args):
            raise AssertionError("laid out a model the header cannot fill")

        monkeypatch.setattr(ModelParams, "_lay_out", lay_out)
        with pytest.raises(CheckpointError, match="layers need"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_array_is_rejected(self, value):
        params = tiny_params()
        arrays = {name: t.data.copy() for name, t in params.named().items()}
        arrays["enc.0.ln1.gain"][3] = value
        with pytest.raises(NonFiniteError):
            ModelParams.from_named(params.config, arrays)

    def test_load_peaks_under_three_and_a_half_payloads(self, tmp_path):
        # the file's bytes, the parameter and gradient buffers and one
        # finiteness mask: no copy of the payload, no temporary per tensor
        config = ModelConfig(**json.loads(BENCH_CONFIG.read_text())["model"])
        params = ModelParams(config, seed=0)
        path = save_checkpoint(tmp_path / "bench.ckpt", params)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * params.flat.nbytes

    def test_array_of_another_shape_is_rejected(self):
        params = tiny_params()
        arrays = {name: t.data for name, t in params.named().items()}
        arrays["head_verb.weight"] = arrays["head_verb.weight"].T.copy()
        with pytest.raises(ValueError, match="head_verb.weight"):
            ModelParams.from_named(params.config, arrays)


class TestStripTextParameters:
    def test_strip_removes_text_side_only(self, tmp_path):
        params = tiny_params(seed=4)
        src = save_checkpoint(tmp_path / "full.ckpt", params)
        dst = strip_text_parameters(src, tmp_path / "stripped.ckpt")
        stripped, _ = load_checkpoint(dst)
        names = set(stripped.named())
        assert not any(n.startswith(("dec_t.", "text_head.")) for n in names)
        assert any(n.startswith("dec_v.") for n in names)
        assert any(n.startswith("enc.") for n in names)

    def test_predictions_bitwise_identical_after_strip(self, tmp_path):
        params = tiny_params(seed=6)
        model = SeqDGModel(params)
        x = np.random.default_rng(7).standard_normal((4, 3, 6))
        verb, noun = model.predict_logits(x)
        src = save_checkpoint(tmp_path / "full.ckpt", params)
        dst = strip_text_parameters(src, tmp_path / "stripped.ckpt")
        stripped = load_model(dst)
        verb2, noun2 = stripped.predict_logits(x)
        assert verb.tobytes() == verb2.tobytes()
        assert noun.tobytes() == noun2.tobytes()

    def test_stripped_model_cannot_decode_text(self, tmp_path):
        from seqdg.model import decode, encode_sequence, mask_center
        from seqdg.tensor import Tensor

        params = tiny_params(seed=8)
        src = save_checkpoint(tmp_path / "full.ckpt", params)
        stripped = load_model(strip_text_parameters(src, tmp_path / "s.ckpt"))
        text = Tensor(np.zeros((3, 8)))
        visual = encode_sequence(np.zeros((3, 6)), stripped.params)
        with pytest.raises(ValueError, match="stripped"):
            decode(mask_center(text), visual.positions, stripped.params, "text")
