"""Self-tests of the benchmark: tracing coverage, output identity, repeatable counts.

Run from the checkout root (they take a few minutes, since they run every
workload):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

bench.import_cgdyn()

import workloads  # noqa: E402

# which traced names each workload must produce at least once
EXPECTED_SPANS = {
    "configs": {
        "cli.main", "maxent.assign", "maxent.solve_lambda", "evolve.trajectory",
        "evolve.build_hamiltonian", "evolve.fast_step", "qcore.eigensystem", "qcore.propagate",
        "qcore.trace_norm", "qcore.exclusive_products", "qcore.assert_density_matrix",
        "coarse_grain.apply_cg", "diagnostics.linearity_probe", "diagnostics.semigroup_gap",
        "channels.swap_rate",
    },
    "joint-state": {
        "maxent.assign", "maxent.solve_lambda", "evolve.trajectory", "evolve.build_hamiltonian",
        "evolve.sparse_build", "evolve.krylov_step", "qcore.eigensystem", "qcore.propagate",
        "coarse_grain.apply_cg",
    },
    "large-n": {
        "maxent.assign", "maxent.solve_lambda", "evolve.trajectory", "evolve.fast_step",
        "qcore.exclusive_products",
    },
}
REPEATED_COUNTS = ("evolve.route.dense.calls", "evolve.route.fast.calls", "evolve.route.statevector.calls",
                   "maxent.lambda_iters", "diagnostics.dyn_calls", "cli.bytes_written")


def traced_run(workload, seed, out_dir):
    """Set up, one untraced pass, one traced pass; returns (workload, tracer, untraced, traced)."""
    wl = bench.set_up(workload, seed, out_dir / "warm-up")
    untraced = [bench.run_pass(wl, out_dir / "untraced")]
    tracer, traced = bench.traced_passes(wl, out_dir / "traced", 0)
    return wl, tracer, untraced, traced


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two traced runs of every workload with seed 1."""
    out = {}
    for workload in workloads.WORKLOADS:
        out[workload] = [traced_run(workload, 1, tmp_path_factory.mktemp(f"{workload}-{k}")) for k in range(2)]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrapped_functions_record_spans(runs, workload):
    wl, tracer, _untraced, _traced = runs[workload][0]
    names = {s[1] for s in tracer.spans}
    assert EXPECTED_SPANS[workload] <= names, EXPECTED_SPANS[workload] - names
    assert {s[6] for s in tracer.spans} == set(range(len(wl.ops)))


def test_sweep_spans_have_cross_thread_parents(runs):
    _wl, tracer, _untraced, _traced = runs["configs"][0]
    roots = [s for s in tracer.spans if s[4] is None]
    assert roots and all(s[1] == "cli.main" for s in roots)
    assert len({s[5] for s in tracer.spans}) > 1, "the sweep should trace pool threads"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_pass_their_checks(runs, workload):
    for wl, _tracer, untraced, traced in runs[workload]:
        assert bench.check_passes(wl, untraced + traced) == []


def test_sidecars_identical_with_tracing_on_and_off(runs):
    for wl, _tracer, untraced, traced in runs["configs"]:
        for (_, off), (_, on) in zip(untraced[0].outputs, traced[0].outputs):
            off_files, on_files = workloads._read_outputs(off), workloads._read_outputs(on)
            assert off_files == on_files, off.name
            assert any(name.endswith(".meta.json") for name in off_files) or off.suffix == ".json"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_runs(runs, workload):
    values = []
    for wl, tracer, untraced, traced in runs[workload]:
        m = bench.layer_metrics(wl, tracer, traced, untraced, 1.0)
        values.append({k: m[k][0] for k in REPEATED_COUNTS})
    assert values[0] == values[1]
    if workload == "configs":
        assert values[0]["diagnostics.dyn_calls"] > 0 and values[0]["cli.bytes_written"] > 0


def test_metric_names_match_benchmark_json(runs):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wl, tracer, untraced, traced = runs["large-n"][0]
    layer = bench.layer_metrics(wl, tracer, traced, untraced, 1.0)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert {k: u for k, (_v, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["joint-state", "large-n"])
def test_second_seed_has_no_failures(tmp_path, workload):
    wl = bench.set_up(workload, 2, tmp_path / "warm-up")
    passes = [bench.run_pass(wl, tmp_path / "pass")]
    assert bench.check_passes(wl, passes) == []


def test_scaling_uses_the_kernel_samples_near_each_op():
    ref, window = 0.05, bench.CAL_WINDOW_S
    samples = [(0.0, ref), (1.0, ref), (1.5, 2 * ref), (4.0 + 2 * window, 4 * ref)]
    # the first op sees the samples at 0, 1 and 1.5; the far one is out of its window
    assert bench.scaled([(0.1, 0.9)], samples, ref) == [0.9 * 3 / 4]
    ps = bench.Pass(starts=[0.1], seconds=[0.9], cal=samples)
    assert bench.normalized_totals([ps], ref) == [0.9 * 3 / 4]


def test_wrong_output_is_a_failure(tmp_path):
    wl = bench.set_up("large-n", 3, tmp_path / "warm-up")
    ps = bench.run_pass(wl, tmp_path / "pass")
    ps.outputs[0] = ps.outputs[0] + 2e-10
    failures = bench.check_passes(wl, [ps])
    assert len(failures) == 1 and "differs from reference" in failures[0]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "large-n", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
