"""Compare the benchmark's trajectory ladders between two source trees.

    python scripts/ladder_delta.py PARENT_SRC CHANGE_SRC

Each SRC is a checkout root or its `src/` directory. For each tree, a fresh
process with that tree's `src/` first on sys.path imports this checkout's
`perfbench/workloads.py` (read-only), builds the seed-0 `joint-state` and
`large-n` ops and runs each once. For every op the script prints either
"bytes identical" or the max |delta| over its Bloch vectors. It exits 1 when
a run fails, when an op's output has another shape in the two trees, or when
an op's max |delta| exceeds 1e-12 (a NaN against a number counts as an
infinite change).
"""

from __future__ import annotations

import argparse
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1e-12  # the bound on an op's max |delta| outside the checksum manifest
SEED = 0
WORKLOADS = ("joint-state", "large-n")

# run in a fresh process: argv is the tree's src, the perfbench directory and the output .npz
_CHILD = """
import sys
from pathlib import Path

import numpy as np

src, bench, out, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [src, bench]
import cgdyn
import workloads

if Path(cgdyn.__file__).resolve().parent != (Path(src) / "cgdyn").resolve():
    raise SystemExit(f"imported cgdyn from {cgdyn.__file__}, not from {src}")
ops = [op for name in sys.argv[5:] for op in workloads.build(name, None, seed).ops]
np.savez(out, **{op.label: op.run(None) for op in ops})
"""


def _src(path):
    path = Path(path).resolve()
    src = path / "src" if (path / "src" / "cgdyn").is_dir() else path
    if not (src / "cgdyn").is_dir():
        raise SystemExit(f"ladder_delta: no cgdyn package under {path}")
    return src


def _run(src, out):
    """Run every ladder op once under the tree at src; return {label: Bloch array}."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(ROOT / "perfbench"), str(out), str(SEED), *WORKLOADS],
        cwd=out.parent, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the ladder failed under {src}: {proc.stderr.strip()}")
    with np.load(out) as data:
        return {label: data[label] for label in data.files}


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
    args = ap.parse_args(argv)
    parent, change = _src(args.parent_src), _src(args.change_src)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            before, after = (_run(src, Path(tmp) / f"{side}.npz")
                             for src, side in ((parent, "parent"), (change, "change")))
        except RuntimeError as exc:
            print(f"FAILED {exc}")
            return 1
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
        if worst is None:
            print(f"{label}: bytes identical")
            continue
        print(f"{label}: max |delta| {worst:.3e}" + (f" exceeds {TOLERANCE:g}" if worst > TOLERANCE else ""))
        ok = ok and worst <= TOLERANCE
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
