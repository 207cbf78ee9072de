"""Every function the benchmark's tracer wraps still exists in gnk."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, path, _, _ in spans.TARGETS:
        module = importlib.import_module("gnk." + modname)
        if "." in path:
            cls_name, attr = path.split(".")
            target = getattr(module, cls_name).__dict__[attr]
            target = getattr(target, "__func__", target)     # classmethod
        else:
            target = getattr(module, path)
        assert callable(target), (modname, path)
