"""The benchmark's tracer wraps library functions by name; a rename that
leaves one unresolved would silently null the per-layer metrics reading it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_measured_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.MEASURED.items():
        assert layer in tracer.LAYERS
        mod = importlib.import_module(f"edgeideals.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not inspect.isfunction(getattr(mod, name, None))]
    assert missing == []
