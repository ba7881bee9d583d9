"""The benchmark's tracer replaces library functions by name, and tier-1
does not run the benchmark's own tests, so check here that every traced
name still exists where the tracer looks for it."""
import importlib
from pathlib import Path


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    assert spans.BOUNDARIES
    for owner, attr, name, _ in spans.BOUNDARIES:
        assert attr in vars(owner), f"{name}: {owner!r} has no {attr!r}"
