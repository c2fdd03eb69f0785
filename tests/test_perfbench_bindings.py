"""The benchmark's layer trace can still find, and reach, every binding it wraps."""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    """A perfbench module loaded by path, registered in sys.modules for the
    test: the workloads' dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_bindings_resolve(monkeypatch):
    # a rename in the program would stop `perfbench/run.py --trace 1`; here
    # `_resolve` raises its TraceError naming the missing binding instead
    layertrace = _load("layertrace", monkeypatch)
    for binding in layertrace.BINDINGS:
        owner, attr, value = layertrace._resolve(binding)
        assert callable(value) or isinstance(value, classmethod), binding


@pytest.mark.parametrize("workload", ["identity", "mellin", "routes"])
def test_layer_trace_reaches_every_binding(workload, monkeypatch):
    # one traced round of the workload: `Tracer.active` raises TraceError
    # naming any binding listed for it that recorded no call, as when a
    # refactor stops calling a wrapped function through its module
    layertrace = _load("layertrace", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    tracer = layertrace.Tracer(workload)
    with tracer.active():
        for op in workloads.WORKLOADS[workload]:
            op.call()
    assert all(tracer.stats[name].calls for name, (reached, _) in layertrace.BINDINGS.items()
               if workload in reached)
