"""The benchmark's tracer wraps cplab functions by name; every name must resolve.

bench/tracer.py is loaded by path and only read: a refactor that renames or
deletes a traced function or a counted point class fails here instead of in
a traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name in tracer.SPAN_TARGETS
               if not callable(getattr(importlib.import_module(f"cplab.{mod}"),
                                       name, None))]
    assert not missing


def test_constructor_targets_resolve():
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name in tracer.CONSTRUCTOR_TARGETS
               if not hasattr(getattr(importlib.import_module(f"cplab.{mod}"),
                                      name, None), "__post_init__")]
    assert not missing
