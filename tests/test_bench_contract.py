"""The names that the benchmark's span recorder rebinds must exist in
`seqdg`: a rename or deletion there would otherwise break the traced
benchmark without failing any test."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rebound_names():
    spans = load_spans()
    names = {**spans.STAGES, **spans.LAYERS, **spans.COUNTED, "epoch mark": spans.EPOCH_MARK}
    return sorted(names.items())


@pytest.mark.parametrize("span, target", rebound_names(),
                         ids=[span for span, _target in rebound_names()])
def test_rebound_name_resolves(span, target):
    module_name, path = target
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(obj, part), f"{span}: {module_name}.{path} does not exist"
        obj = getattr(obj, part)
    assert callable(obj), f"{span}: {module_name}.{path} is not callable"


# what the benchmark uses of the program beyond the names it rebinds

BENCH_DIR = SPANS.parent
TINY_SYNTH = dict(n_source_domains=2, n_target_domains=1, n_ambiguous_pairs=0,
                  n_verbs=4, n_nouns=3, videos_per_domain=2, actions_per_video=6,
                  d_v=6, d_t=8, clips_per_action=2, seed=0)
TINY_MODEL = dict(W=3, D=8, D_V=6, D_T=8, n_enc_layers=1, n_dec_layers=1, n_heads=2,
                  n_verbs=4, n_nouns=3, d_ff=16, vocab_size=7)


@pytest.fixture(scope="module")
def tiny_store():
    from seqdg.synth import SynthConfig, generate

    return generate(SynthConfig(**TINY_SYNTH))[0]


def test_predict_returns_one_prediction_per_target_action(tiny_store):
    # `eval_actions_per_s` counts actions as `len()` of what the stage returns
    from seqdg.evaluate import sliding_window_predict
    from seqdg.model import ModelConfig, SeqDGModel

    model = SeqDGModel.init(ModelConfig(**TINY_MODEL), seed=0)
    target = [r for r in tiny_store.actions if r.domain_id in tiny_store.split.target]
    assert len(sliding_window_predict(tiny_store, model)) == len(target) > 0


def test_no_scoring_thread_outlives_the_predict_call(tiny_store, monkeypatch):
    # `bench/spans.py` runs its speed probe right before and after each
    # `sliding_window_predict` call; work still running then would overlap it
    import threading

    from seqdg import evaluate
    from seqdg.model import ModelConfig, SeqDGModel

    monkeypatch.setattr(evaluate, "INFERENCE_BATCH", 2)
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    model = SeqDGModel.init(ModelConfig(**TINY_MODEL), seed=0)
    before = set(threading.enumerate())
    started = set()
    predict = model.predict_rows

    def recording(table, rows):
        started.update(set(threading.enumerate()) - before)
        return predict(table, rows)

    model.predict_rows = recording
    evaluate.sliding_window_predict(tiny_store, model)
    assert len(started) == 1
    assert set(threading.enumerate()) == before
    assert not any(thread.is_alive() for thread in started)


def test_train_and_score_predicts_through_the_train_module_attribute(tiny_store,
                                                                     monkeypatch):
    # the stage wrapper is installed on `seqdg.train.sliding_window_predict`
    import seqdg.train as train
    from seqdg.model import ModelConfig

    calls = []
    original = train.sliding_window_predict

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(train, "sliding_window_predict", counting)
    config = train.TrainConfig(model=ModelConfig(**TINY_MODEL), epochs=1, batch_size=8)
    train.train_and_score_cells([(tiny_store, config)])
    assert len(calls) == 1


def test_records_for_items_carry_what_the_benchmark_reads(tiny_store):
    read = set()
    for name in ("reference.py", "workloads.py"):
        source = (BENCH_DIR / name).read_text(encoding="utf-8")
        # the benchmark's names for a record: r, rec and records[i]
        read.update(re.findall(r"(?<![\w.])(?:r|rec|records\[i\])\.([a-z_]+)", source))
    assert {"verb", "noun", "video_id", "temporal_index", "blob_offset", "n_clips"} <= read
    records = tiny_store.records_for(tiny_store.split.target)
    assert len(records[:2]) == 2
    for record in [*records, *records[:2]]:
        for attr in read:
            assert hasattr(record, attr), f"a records_for item has no {attr!r}"


def test_fit_mixes_through_the_train_module_attribute(tiny_store, monkeypatch):
    # the `data.seqmix` span wrapper is installed on `seqdg.train.seqmix`
    import seqdg.train as train
    from seqdg.model import ModelConfig, SeqDGModel

    calls = []
    original = train.seqmix

    def counting(windows, *args, **kwargs):
        calls.append(len(windows))
        return original(windows, *args, **kwargs)

    monkeypatch.setattr(train, "seqmix", counting)
    windows = len(tiny_store.records_for(tiny_store.split.source))
    for p_mix, batches in ((0.5, len(range(0, windows, 5))), (0.0, 0)):
        calls.clear()
        config = train.TrainConfig(model=ModelConfig(**TINY_MODEL), epochs=1, batch_size=5,
                                   p_mix=p_mix)
        train.fit(tiny_store, SeqDGModel.init(config.model, seed=0), config)
        assert len(calls) == batches
        assert sum(calls) == (windows if batches else 0)


def test_fit_marks_each_epoch_start_and_draws_once_per_window(tiny_store, monkeypatch):
    # `bench/spans.py` times epochs from the calls of `seqdg.train.lr_at`, and
    # `workloads.check_fit` expects one SeqMix draw per window per epoch
    import seqdg.train as train
    from seqdg.model import ModelConfig, SeqDGModel

    events = []
    lr_at, seqmix = train.lr_at, train.seqmix

    def marking_lr_at(epoch, config):
        events.append(("epoch", epoch))
        return lr_at(epoch, config)

    def logging_seqmix(windows, *args, **kwargs):
        events.append(("draw", len(windows)))
        return seqmix(windows, *args, **kwargs)

    monkeypatch.setattr(train, "lr_at", marking_lr_at)
    monkeypatch.setattr(train, "seqmix", logging_seqmix)
    config = train.TrainConfig(model=ModelConfig(**TINY_MODEL), epochs=3, batch_size=5,
                               p_mix=0.5)
    result = train.fit(tiny_store, SeqDGModel.init(config.model, seed=0), config)
    windows = len(tiny_store.records_for(tiny_store.split.source))
    batches = [("draw", min(5, windows - start)) for start in range(0, windows, 5)]
    assert events == [event for epoch in range(3) for event in [("epoch", epoch), *batches]]
    assert result.seqmix_stats.draws == windows * config.epochs
