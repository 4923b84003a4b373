"""Self-test of the benchmark harness at n=65.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that every declared metric is emitted with its unit, that every gate
runs, that the traced layers are the ones each workload is meant to exercise,
that every per-layer metric names the end-to-end metric it should move, and
that a corrupted artifact is counted in failed_frac.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("perfbench_run", Path(__file__).with_name("run.py"))
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

SMALL_N = 65
WORKLOADS = list(bench.FULL_N)

# the layer each workload exists for: its calls are > 0 there and 0 elsewhere
OWN_LAYER = {
    "well-series": "series.apply_K_smooth.calls",
    "deltas-series": "series.apply_K_delta_rule.calls",
    "oracle-crosscheck": "spectral.pair_eigensystem.calls",
}


@pytest.fixture(scope="module")
def work():
    path = bench.WORK / "selftest"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def runs(work):
    return {(w, trace): bench.run(w, seed=7, seconds=0, trace=trace, n=SMALL_N, work=work)
            for w in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    result = runs[workload, trace].result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench.declared_metrics(trace)
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit != ""
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_every_gate_runs(runs):
    ran = set()
    for out in runs.values():
        ran |= set(out.recorder.gates_run)
    assert ran == set(bench.GATES)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_exercises_its_own_layer(runs, workload):
    metrics = runs[workload, True].result["metrics"]
    for other, layer in OWN_LAYER.items():
        calls = metrics[layer]["value"]
        assert calls > 0 if other == workload else calls == 0, (layer, calls)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_self_time_and_children_add_up(runs, workload):
    spans = runs[workload, True].spans
    children = {}
    for name, start, end, parent, rep, extra in spans:
        children[parent] = children.get(parent, 0.0) + end - start
    cli_spans = [(i, s) for i, s in enumerate(spans) if s[0].startswith("cli.") and s[4] == 1]
    assert cli_spans
    for i, (name, start, end, parent, rep, extra) in cli_spans:
        self_s = bench.layer_metrics(spans, [f"{name}.self_s"], warm_reps=[1])[f"{name}.self_s"]
        assert self_s + children.get(i, 0.0) == pytest.approx(end - start, rel=1e-9, abs=1e-12)


def test_spawn_times_the_console_script(work):
    log = work / "help.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    outcome = bench.spawn(["--help"], log)
    assert outcome.rc == 0 and "usage: qmetric" in outcome.output
    assert outcome.wall_s > 0 and outcome.rss_mb > 0


def test_every_layer_names_its_end_to_end_target():
    end_to_end = bench.declared_metrics(False)
    for name in bench.declared_metrics(True):
        target = bench.layer_target(name)
        assert name.startswith("trace.") or any(m in target for m in end_to_end), name


def _bump_one_value(path):
    lines = path.read_text().splitlines()
    row = len(lines) // 2
    x, y, re, im = (float(v) for v in lines[row].split(","))
    lines[row] = ",".join("%.12e" % v for v in (x, y, re, im + 1e-3))
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "iter_1.csv": _bump_one_value,
    "kernel.csv": _bump_one_value,
    "manifest.json": lambda p: p.write_text(p.read_text() + " "),
    "checks.jsonl": lambda p: p.write_text(p.read_text().replace('"pass": true', '"pass": false')),
}


def test_corrupted_artifact_is_counted_in_failed_frac(work):
    base = work / "corrupt"
    logs = base / "logs"
    logs.mkdir(parents=True)
    plan = bench.make_plan("well-series", 3, base, n=SMALL_N)
    outcomes = bench.execute(plan.steps, bench.spawn, logs)
    clean = bench.Recorder()
    bench.check_all(clean, plan.steps, outcomes)
    assert clean.failed_frac == 0.0
    for name, corrupt in CORRUPTIONS.items():
        path = plan.pass_dir / name
        original = path.read_bytes()
        corrupt(path)
        rec = bench.Recorder()
        bench.check_all(rec, plan.steps, outcomes)
        path.write_bytes(original)
        assert rec.failed == 1 and rec.failed_frac == 0.5, (name, rec.problems)
