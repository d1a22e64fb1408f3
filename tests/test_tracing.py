"""The benchmark's tracer (perfbench/spans.py) patches dcl0 names by
attribute; a refactor that drops one would otherwise only break a traced
benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from dcl0 import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_counts(spans, tmp_path):
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_tracing(tracer, patches)
        assert cli.main(["poisson", "--n", "8", "--csv", str(tmp_path / "p.csv"),
                         "--solution-out", str(tmp_path / "u.txt"),
                         "--multiplier-out", str(tmp_path / "m.txt"),
                         "--verify"]) == 0
        assert cli.main(["control", "--n", "8",
                         "--csv", str(tmp_path / "c.csv")]) == 0
    finally:
        patches.undo()
    layers = spans.layer_metrics(tracer.spans, tracer.counts)
    for metric in ("fem.w_of_calls", "measures.greedy_calls",
                   "measures.oracle_calls"):
        assert layers[metric] > 0, metric
    assert not hasattr(cli.w_of, "__wrapped__")
