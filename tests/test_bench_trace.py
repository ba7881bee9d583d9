"""The trace-pipeline benchmark samples its build traces from the graph
built so far, so the traces depend on the order of edges and triangles.
Pin them here, so that a change of that order fails tier-1 instead of
silently changing what the benchmark measures: its own gate checks only
graph sizes."""
import hashlib
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "seed, depth, digest", [(201, 400, "f1dd01fea7bec599"), (0, 100, "dcff6c537b939bd2")]
)
def test_seeded_trace_is_pinned(monkeypatch, seed, depth, digest):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    text = workloads.seeded_trace(seed, depth).to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
