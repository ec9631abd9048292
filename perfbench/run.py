"""cgdyn benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload configs|joint-state|large-n \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`, and the run fails if that is missing. The next op starts only when
the previous one returns. Passes over the workload's fixed op list repeat
until `--seconds` have passed, at least twice. Every op's output is checked
after the timed passes (see `workloads.py`); an op that raises, exits
nonzero or disagrees with its reference counts as failed.

--trace 0 reports the end-to-end metrics: set-up time (median of fresh
processes that import, generate the inputs and warm up), the median pass
time, and peak resident memory. Both times are scaled by a calibration
kernel timed next to each sample (see `calibrate`); the raw wall times are
printed too. --trace 1 runs one untraced pass, then traced passes, then one
pass in a child process with a single BLAS thread, and reports per-layer
metrics per traced pass (see `spans.py`); those times are not scaled.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines before it give every
metric with its unit, the failure ratio and the environment. Spans and a
result file with per-op times land in `.perfbench_work/` at the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
# end-to-end times are scaled to the machine speed at which `calibrate()`
# takes this long, without and with its BLAS part (about the medians on a
# 2-core x86-64 VM with Python 3.11 and OpenBLAS 0.3.31)
CAL_REF_S = {False: 0.05, True: 0.07}
CAL_WINDOW_S = 2.0

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def import_cgdyn():
    """Import cgdyn from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "cgdyn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cgdyn sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cgdyn

    if Path(cgdyn.__file__).resolve().parent != (src / "cgdyn").resolve():
        raise SystemExit(f"perfbench: imported cgdyn from {cgdyn.__file__}, not from {src}")
    return cgdyn


def set_up(workload, seed, out_dir):
    """Everything before the first timed op: import, inputs, warm-up."""
    import_cgdyn()
    wl = workloads.build(workload, ROOT, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl.warm_up(out_dir)
    return wl


def calibrate(blas):
    """Seconds for a fixed mix of interpreter, small-LAPACK and vector work.

    On a shared VM the speed of the same code can drift by +-20% over tens
    of seconds, and the workloads slow down with it. Timing this kernel next
    to every op lets `scaled` take that drift out: the kernel is
    benchmark code, so no change to cgdyn can move it. The serial part tracks
    single-threaded ops; multi-threaded BLAS speed drifts on its own, so
    `blas` adds complex matrix products for workloads that spend their time
    in BLAS.
    """
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    m = np.eye(4) + 0.1
    for _ in range(1500):
        np.linalg.eigh(m)
    v = np.linspace(0.0, 1.0, 3000)
    for _ in range(300):
        np.exp(-2j * v).sum()
    if blas:
        a = np.full((256, 256), 0.5 + 0.5j)
        for _ in range(10):
            a @ a
    return perf_counter() - start


@dataclass
class Pass:
    starts: list = field(default_factory=list)  # per op, perf_counter()
    seconds: list = field(default_factory=list)  # per op
    cal: list = field(default_factory=list)  # (midpoint, seconds) of calibrate() around the ops
    outputs: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # op index -> message

    @property
    def total(self):
        return sum(self.seconds)


def timed_calibration(blas):
    start = perf_counter()
    seconds = calibrate(blas)
    return start + 0.5 * seconds, seconds


def scaled(intervals, samples, ref):
    """Wall times at the speed where the kernel takes `ref` seconds.

    Each (start, seconds) interval is scaled by the mean kernel time over the
    samples taken within CAL_WINDOW_S of it, which always include the ones
    just before and after it. A single kernel sample jitters by several
    percent, so a long op needs more than its two neighbours.
    """
    out = []
    for start, seconds in intervals:
        near = [c for at, c in samples if start - CAL_WINDOW_S <= at <= start + seconds + CAL_WINDOW_S]
        out.append(seconds * ref / statistics.mean(near))
    return out


def normalized_totals(passes, ref):
    """Each pass's time at the reference machine speed, using every kernel sample of the run."""
    samples = [c for p in passes for c in p.cal]
    return [sum(scaled(zip(p.starts, p.seconds), samples, ref)) for p in passes]


def run_pass(wl, out_dir, tracer=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    result = Pass(cal=[timed_calibration(wl.blas)])
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            out = op.run(out_dir)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out = None
            result.errors[i] = f"raised {exc!r}"
        result.seconds.append(perf_counter() - start)
        result.starts.append(start)
        result.outputs.append(out)
        result.cal.append(timed_calibration(wl.blas))
    return result


def check_passes(wl, passes):
    """Run each op's check on every pass's output; returns failure messages."""
    failures = []
    for p, ps in enumerate(passes):
        for i, op in enumerate(wl.ops):
            errors = [ps.errors[i]] if i in ps.errors else op.check(ps.outputs[i])
            if errors:
                failures.append(f"pass {p} op {op.label}: {'; '.join(errors)}")
    return failures


def timed_passes(wl, out_dir, seconds, min_passes, tracer=None):
    passes, start = [], perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(run_pass(wl, out_dir / f"pass{len(passes)}", tracer))
    return passes


def child(args, mode, extra_env=None):
    """Run this script in a fresh process; returns (wall seconds, stdout)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--mode", mode]
    env = dict(os.environ, **(extra_env or {}))
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall, proc.stdout


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import scipy

    blas = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        threads = _openblas_call(handle, "get_num_threads", ctypes.c_int)
        config = _openblas_call(handle, "get_config", ctypes.c_char_p)
        blas[Path(lib).name] = {"threads": threads, "config": config.decode() if config else None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CGDYN_NUM_THREADS": os.environ.get("CGDYN_NUM_THREADS"),
    }


def _openblas_call(handle, what, restype):
    """Call OpenBLAS's `what` under whichever symbol prefix this build exports."""
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(handle, f"{prefix}{what}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(args, wl, run_dir):
    ref = CAL_REF_S[wl.blas]
    cal = [timed_calibration(wl.blas)]
    setup = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        setup.append((start, child(args, "setup")[0]))
        cal.append(timed_calibration(wl.blas))
    setup_norm = scaled(setup, cal, ref)
    passes = timed_passes(wl, run_dir, args.seconds, MIN_PASSES)
    rss = peak_rss_mb()
    norm = normalized_totals(passes, ref)
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "pass_s": (statistics.median(norm), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    # a tail percentile needs ten samples beyond it; a run has too few passes
    # for one, so the slowest pass is printed with the count and not gated
    walls = [p.total for p in passes]
    kernel = [c for _at, c in cal] + [c for p in passes for _at, c in p.cal]
    notes = {"passes": len(passes), "slowest_pass_s": max(norm), "pass_wall_s": statistics.median(walls),
             "setup_wall_s": statistics.median(t for _start, t in setup), "calibrate_s": statistics.median(kernel),
             "pass_samples_s": norm, "pass_wall_samples_s": walls, "setup_samples_s": setup_norm}
    return passes, metrics, notes


def traced_passes(wl, out_dir, seconds):
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return tracer, timed_passes(wl, out_dir, seconds, 1, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()


def per_layer(args, wl, run_dir):
    untraced = timed_passes(wl, run_dir / "untraced", 0, 1)
    tracer, traced = traced_passes(wl, run_dir / "traced", args.seconds)
    blas1 = json.loads(child(args, "pass", {"OPENBLAS_NUM_THREADS": "1"})[1].splitlines()[-1])["pass_s"]
    metrics = layer_metrics(wl, tracer, traced, untraced, blas1)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{args.workload}.jsonl")
    notes = {"untraced_passes": len(untraced), "traced_passes": len(traced), "spans": len(tracer.spans)}
    if hasattr(wl, "checksum_mismatches"):
        notes["checksum_mismatch"] = wl.checksum_mismatches(traced[0].outputs)
    return untraced + traced, metrics, notes


def layer_metrics(wl, tracer, traced, untraced, blas1_s):
    """Per-layer metrics per traced pass, as {name: (value, unit)}."""
    from spans import SpanTable

    n = len(traced)
    table = SpanTable(tracer.spans)
    counts = tracer.counts()
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def calls(name):
        put(f"{name}.calls", table.calls(name) / n, "count")

    def secs(name, metric=None):
        put(metric or f"{name}.s", table.seconds(name) / n, "s")

    calls("maxent.assign")
    secs("maxent.assign")
    secs("maxent.solve_lambda")
    solves = counts.get("maxent.finite_solves", 0)
    put("maxent.lambda_iters", counts.get("maxent.radius_evals", 0) / solves if solves else 0.0, "count")

    calls("evolve.trajectory")
    put("evolve.trajectory.self_s", table.self_seconds("evolve.trajectory") / n, "s")
    for route in ("dense", "fast", "statevector"):
        put(f"evolve.route.{route}.calls", counts.get(f"evolve.route.{route}.calls", 0) / n, "count")
    for name in ("evolve.build_hamiltonian", "evolve.fast_step", "evolve.krylov_step"):
        calls(name)
        secs(name)
    secs("evolve.sparse_build")
    per_op = table.by_op("evolve.trajectory")
    labelled = {op.label: (i, op.points) for i, op in enumerate(wl.ops) if op.points}
    for label in workloads.ladder_labels():
        i, points = labelled.get(label, (None, 0))
        ms = 1000.0 * per_op.get(i, 0.0) / n / points if points else 0.0
        put(f"evolve.{label}.point_ms", ms, "ms")

    calls("qcore.eigensystem")
    secs("qcore.eigensystem")
    put("qcore.eigensystem.dim_max", table.info_max("qcore.eigensystem"), "count")
    calls("qcore.propagate")
    secs("qcore.propagate")
    put("qcore.propagate.gflop", table.info_sum("qcore.propagate", lambda d: 24.0 * d ** 3) / 1e9 / n,
        "GFLOP-computed")
    calls("qcore.trace_norm")
    secs("qcore.trace_norm")
    secs("qcore.exclusive_products")
    secs("qcore.assert_density_matrix")

    calls("coarse_grain.apply_cg")
    secs("coarse_grain.apply_cg")

    secs("diagnostics.linearity_probe")
    secs("diagnostics.semigroup_gap")
    put("diagnostics.self_s", table.self_seconds("diagnostics.") / n, "s")
    put("diagnostics.dyn_calls", counts.get("diagnostics.dyn_calls", 0) / n, "count")

    configs = isinstance(wl, workloads.ConfigsWorkload)
    put("cli.self_s", table.self_seconds("cli.main") / n, "s")
    put("cli.bytes_written", wl.bytes_written(traced[0].outputs) if configs else 0, "bytes")
    per_config = table.by_op("cli.main")
    stems = {op.label: i for i, op in enumerate(wl.ops)} if configs else {}
    for stem in workloads.config_stems(ROOT):
        put(f"cli.config.{stem}.s", per_config.get(stems.get(stem), 0.0) / n, "s")
    put("cli.checksum_mismatch", len(wl.checksum_mismatches(traced[0].outputs)) if configs else 0, "count")

    secs("channels.", "channels.s")

    untraced_s = statistics.median(p.total for p in untraced)
    put("trace.overhead", statistics.median(p.total for p in traced) / untraced_s, "ratio")
    put("baseline.blas1.pass_s", blas1_s, "s")
    return m


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh processes behind setup_s and baseline.blas1.pass_s
    ap.add_argument("--mode", choices=("measure", "setup", "pass"), default="measure", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ["CGDYN_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = set_up(args.workload, args.seed, run_dir / "warm-up")
        if args.mode == "setup":
            return 0
        if args.mode == "pass":
            print(json.dumps({"pass_s": run_pass(wl, run_dir / "pass").total}))
            return 0
        measure = per_layer if args.trace else end_to_end
        passes, metrics, notes = measure(args, wl, run_dir)
        failures = check_passes(wl, passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(passes) * len(wl.ops)
    env = environment()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env, notes=notes,
                  failures=failures, ops=[op.label for op in wl.ops], op_seconds=[p.seconds for p in passes],
                  op_starts=[p.starts for p in passes], calibrate_samples=[p.cal for p in passes])
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k} {v}" for k, v in notes.items() if not isinstance(v, list)))
    for k, v in notes.items():
        if isinstance(v, list):
            print(f"# {k}: {' '.join(map(str, v))}")
    print("# env " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print(f"# FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_ratio {len(failures) / attempted!r} ratio ({len(failures)}/{attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
