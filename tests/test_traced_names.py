"""Every function the benchmark traces by name still exists.

The benchmark's tracer (perfbench/spans.py) wraps qmetallic functions named
in its TARGETS table and only reports span names that found no function.
Several targets share a span name, so a renamed function can hide behind
another.  This test reads TARGETS from the tracer's source without
importing it, so nothing is written next to it, and resolves every target
on its own.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def test_tracer_lists_targets():
    assert _targets()


@pytest.mark.parametrize("module, path, span", _targets())
def test_traced_target_resolves_to_a_callable(module, path, span):
    owner = importlib.import_module(f"qmetallic.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{span}: qmetallic.{module}.{path} is gone"
