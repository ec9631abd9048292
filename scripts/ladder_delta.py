"""Compare the benchmark's trajectory ladders between two source trees.

    python scripts/ladder_delta.py PARENT_SRC CHANGE_SRC [--pairs N]

Each SRC is a checkout root or its `src/` directory. For each tree and each
of the workloads `joint-state` and `large-n`, a fresh process with that
tree's `src/` first on sys.path imports this checkout's
`perfbench/workloads.py` (read-only), builds the workload's seed-0 ops and
runs each once. A workload's process runs no other workload's ops, so the
fast ops never run in a process that the dense ops have warmed. For every
op the script prints either "bytes identical" or the max |delta| over its
Bloch vectors. It exits 1 when a run fails, when an op's output has another
shape in the two trees, or when an op's max |delta| exceeds 1e-12 (a NaN
against a number counts as an infinite change).

With --pairs N (N > 0) it then times the two trees in N pairs of runs, the
parent first in odd pairs and the change first in even ones. A run is one
fresh process per workload, which runs its workload's ops once untimed and
PASSES times timed, and keeps each op's minimum wall time. Beside each op's
delta the script prints the median over the N runs of that minimum, per
tree, and the change's median over the parent's. Timings never change the
exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1e-12  # the bound on an op's max |delta| outside the checksum manifest
SEED = 0
WORKLOADS = ("joint-state", "large-n")
PASSES = 7  # timed ladder passes per fresh process under --pairs; an op's time is its minimum

# run in a fresh process: argv is the tree's src, the perfbench directory, the output
# file, the seed, the timed passes and the workload. No passes: each op's output into
# the .npz; else one untimed pass, then each op's minimum wall time over the passes as JSON
_CHILD = """
import json
import sys
import time
from pathlib import Path

import numpy as np

src, bench, out, seed, passes = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
sys.path[:0] = [src, bench]
import cgdyn
import workloads

if Path(cgdyn.__file__).resolve().parent != (Path(src) / "cgdyn").resolve():
    raise SystemExit(f"imported cgdyn from {cgdyn.__file__}, not from {src}")
ops = workloads.build(sys.argv[6], None, seed).ops
outputs = {op.label: op.run(None) for op in ops}
if not passes:
    np.savez(out, **outputs)
    raise SystemExit(0)
best = dict.fromkeys(outputs, float("inf"))
for _ in range(passes):
    for op in ops:
        start = time.perf_counter()
        op.run(None)
        best[op.label] = min(best[op.label], time.perf_counter() - start)
Path(out).write_text(json.dumps(best))
"""


def _src(path):
    path = Path(path).resolve()
    src = path / "src" if (path / "src" / "cgdyn").is_dir() else path
    if not (src / "cgdyn").is_dir():
        raise SystemExit(f"ladder_delta: no cgdyn package under {path}")
    return src


def _children(src, out, passes):
    """Run the child under the tree at src once per workload, each in its own fresh
    process writing its own file beside out; yield those files in workload order."""
    for name in WORKLOADS:
        path = out.with_name(f"{out.stem}.{name}{out.suffix}")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(src), str(ROOT / "perfbench"), str(path), str(SEED), str(passes),
             name],
            cwd=out.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"the ladder failed under {src}: {proc.stderr.strip()}")
        yield path


def _run(src, out):
    """Run every ladder op once under the tree at src; return {label: Bloch array}."""
    outputs = {}
    for path in _children(src, out, 0):
        with np.load(path) as data:
            outputs.update((label, data[label]) for label in data.files)
    return outputs


def _time(src, out):
    """Time the ladder under the tree at src, a fresh process per workload; return {label: min seconds}."""
    best = {}
    for path in _children(src, out, PASSES):
        best.update(json.loads(path.read_text()))
    return best


def summary(parent, change):
    """{label: (parent median, change median, change / parent)} of each op's minimum
    wall time, given one {label: seconds} per fresh process of each tree, for the ops
    that both trees ran."""
    out = {}
    for label in (label for label in parent[0] if label in change[0]):
        before, after = (statistics.median(run[label] for run in runs) for runs in (parent, change))
        out[label] = before, after, after / before
    return out


def delta(a, b):
    """None when the two arrays hold the same bytes, else their max |delta|;
    ValueError when their shapes differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    if a.tobytes() == b.tobytes():
        return None
    with np.errstate(invalid="ignore"):  # inf - inf, refused below unless the two are equal
        gap = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
    return math.inf if np.isnan(gap).any() else float(gap.max())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--pairs", type=int, default=0, metavar="N",
                    help="time the trees in N alternating pairs of fresh processes (default 0: no timing)")
    args = ap.parse_args(argv)
    if args.pairs < 0:
        ap.error("--pairs must be at least 0")
    parent, change = _src(args.parent_src), _src(args.change_src)
    times = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            before, after = (_run(src, Path(tmp) / f"{side}.npz")
                             for src, side in ((parent, "parent"), (change, "change")))
            for k in range(args.pairs):
                for src, side in ((parent, "parent"), (change, "change"))[::1 if k % 2 == 0 else -1]:
                    times[side].append(_time(src, Path(tmp) / f"{side}.json"))
        except RuntimeError as exc:
            print(f"FAILED {exc}")
            return 1
    timed = summary(times["parent"], times["change"]) if args.pairs else {}
    ok = before.keys() == after.keys()
    if not ok:
        print(f"FAILED the trees ran different ops: {sorted(before.keys() ^ after.keys())}")
    for label in (label for label in before if label in after):  # the ladder's order
        try:
            worst = delta(before[label], after[label])
        except ValueError as exc:
            print(f"{label}: FAILED {exc}")
            ok = False
            continue
        line = f"{label}: " + ("bytes identical" if worst is None else f"max |delta| {worst:.3e}"
                                + (f" exceeds {TOLERANCE:g}" if worst > TOLERANCE else ""))
        if label in timed:
            was, now, ratio = timed[label]
            line += f"; {was * 1e3:.3f} -> {now * 1e3:.3f} ms (x{ratio:.3f})"
        print(line)
        ok = ok and (worst is None or worst <= TOLERANCE)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
