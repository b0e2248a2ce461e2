"""Name resolution for the traced run.

Every per-layer metric must name a live function, and that function must
be called on the workloads the prediction table says use it.  A rename in
the program then fails here instead of reporting a silent zero.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

BENCH_DIR = pathlib.Path(run.__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
# Ops traced per workload: enough to reach every predicted function
# (corners-k5 needs one spec of each of its four shapes).
PREFIX = {
    "corners-k5": slice(0, 4),
    "verify-up-k2l2": slice(0, 1),
    "slice-dl-k3l3": slice(0, 1),
    "invert-up-k2l2": slice(1, 2),
}


@pytest.mark.parametrize("layer", tracer.LAYERS, ids=lambda layer: layer.name)
def test_layer_resolves_to_live_function(layer):
    run.import_program()
    assert callable(tracer.resolve(layer))


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    assert declared == tracer.metric_units()
    for name in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.fixture(scope="module")
def traced_calls(tmp_path_factory):
    """Summed calls per function, and the tracer, for each workload's op prefix."""
    cli = run.import_program()
    out = {}
    for name, make in workloads.WORKLOADS.items():
        ops = make(workloads.DEFAULT_SEED, tmp_path_factory.mktemp(name), run.ROOT)
        tr = tracer.Tracer()
        runner = run.Runner(cli)
        for op in ops[PREFIX[name]]:
            runner.run_op(op, tr)
        assert runner.status["wrong"] == 0, runner.messages
        calls = {}
        for rec in tr.ops:
            for fn, t in rec["functions"].items():
                calls[fn] = calls.get(fn, 0) + t["calls"]
        out[name] = (calls, tr)
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_predicted_functions_are_called(traced_calls, workload):
    calls, _ = traced_calls[workload]
    missing = [layer.name for layer in tracer.LAYERS
               if workload in layer.used_by and calls.get(layer.name, 0) == 0]
    assert not missing, f"predicted on {workload} but never called: {missing}"


def test_wrappers_are_removed_after_each_op(traced_calls):
    for layer in tracer.LAYERS:
        assert not hasattr(tracer.resolve(layer), "__wrapped__"), layer.name


def test_entropy_cache_hits_are_seen(traced_calls):
    _, tr = traced_calls["slice-dl-k3l3"]
    assert tr.metrics()["prob.entropy.hit_ratio"] > 0.9


def test_spans_nest_under_their_op(traced_calls):
    _, tr = traced_calls["corners-k5"]
    ids = {s["span"]: s for s in tr.spans}
    roots = [s for s in tr.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["op"] * len(tr.ops)
    for s in tr.spans:
        if s["parent"] is not None:
            parent = ids[s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "corners-k5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
