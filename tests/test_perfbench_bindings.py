"""The benchmark's layer trace can still find every binding it wraps."""
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_layer_trace_bindings_resolve():
    # a rename in the program would stop `perfbench/run.py --trace 1`; here
    # `_resolve` raises its TraceError naming the missing binding instead
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for binding in layertrace.BINDINGS:
        owner, attr, value = layertrace._resolve(binding)
        assert callable(value) or isinstance(value, classmethod), binding
