"""The benchmark's tracer replaces library functions by name.  The traced
runs of ``perfbench/test_perfbench.py`` fail on a missing name too, but with
a bare KeyError inside a reduced benchmark run; this check names the traced
boundary that no longer resolves."""
import importlib
from pathlib import Path


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    assert spans.BOUNDARIES
    for owner, attr, name, _ in spans.BOUNDARIES:
        assert attr in vars(owner), f"{name}: {owner!r} has no {attr!r}"
