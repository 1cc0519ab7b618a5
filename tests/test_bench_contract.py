"""The names that the benchmark's span recorder rebinds must exist in
`seqdg`: a rename or deletion there would otherwise break the traced
benchmark without failing any test."""

import importlib
import importlib.util
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
