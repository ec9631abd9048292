"""Compare the shipped configs' outputs between two source trees.

    python scripts/config_delta.py PARENT_SRC CHANGE_SRC [--configs DIR]

Each SRC is a checkout root or its `src/` directory. Every config named in
`configs/checksums.json` runs through each tree's CLI (a fresh process with
that tree on PYTHONPATH) into a temporary directory. For each config, the
output and its metadata sidecar are compared. The script prints either
"bytes identical" or the max |delta| over the numeric fields, the figure
the manifest rule in ROADMAP.md asks for, and then applies the rule's
other half: whether the parent's output matches its sha256 in the
parent's configs/checksums.json (else the one in --configs), and so
whether to regenerate that entry (it matched and the output changed) or
keep it as recorded. It exits 1 when a run fails, when the two outputs
differ in anything but numbers, or when a config's max |delta| exceeds
the rule's bound of 1e-12.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1e-12  # the manifest rule's bound on a config's max |delta|


def _src(path):
    path = Path(path).resolve()
    src = path / "src" if (path / "src" / "cgdyn").is_dir() else path
    if not (src / "cgdyn").is_dir():
        raise SystemExit(f"config_delta: no cgdyn package under {path}")
    return src


def _run(src, experiment, config, out_dir):
    """Run one config through the tree at src; return its output and sidecar paths."""
    out = out_dir / (config.stem + ".out")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "cgdyn.cli", experiment, "--config", str(config), "--output", str(out)],
        env=env, cwd=out_dir, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{config.name} failed under {src}: {proc.stderr.strip()}")
    return [out, out.with_suffix(".meta.json")]


def _fields(path):
    """The file's values in order: numbers as floats, anything else as it stands."""
    text = path.read_text()
    if text.lstrip().startswith(("{", "[")):  # a JSON report or sidecar, else CSV
        def walk(v, key=""):
            if isinstance(v, dict):
                for k in sorted(v):
                    yield from walk(v[k], f"{key}/{k}")
            elif isinstance(v, list):
                for i, x in enumerate(v):
                    yield from walk(x, f"{key}/{i}")
            else:
                yield key, float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v
        return list(walk(json.loads(text)))
    fields = []
    for i, row in enumerate(csv.reader(text.splitlines())):
        for j, cell in enumerate(row):
            try:
                fields.append((f"{i}:{j}", float(cell)))
            except ValueError:
                fields.append((f"{i}:{j}", cell))
    return fields


def delta(a, b):
    """None when the files hold the same bytes, else the max |delta| over their
    numeric fields; ValueError when they differ in anything but numbers."""
    if a.exists() != b.exists():
        raise ValueError(f"{a.name} was written by one tree only")
    if not a.exists() or a.read_bytes() == b.read_bytes():
        return None
    fa, fb = _fields(a), _fields(b)
    if [k for k, _ in fa] != [k for k, _ in fb]:
        raise ValueError(f"{a.name}: the two outputs have different fields")
    worst = 0.0
    for (key, x), (_, y) in zip(fa, fb):
        if isinstance(x, float) and isinstance(y, float):
            if x != y and not (math.isnan(x) and math.isnan(y)):  # -0.0 == 0.0 is no change
                gap = abs(x - y)
                worst = max(worst, math.inf if math.isnan(gap) else gap)  # one side NaN
        elif x != y:
            raise ValueError(f"{a.name}: non-numeric field {key} differs: {x!r} vs {y!r}")
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--configs", default=str(ROOT / "configs"), help="directory with checksums.json")
    args = ap.parse_args(argv)
    parent, change, configs = _src(args.parent_src), _src(args.change_src), Path(args.configs).resolve()
    manifest = json.loads((configs / "checksums.json").read_text())
    before = parent.parent / "configs" / "checksums.json"  # the entries as recorded before the change
    recorded = json.loads(before.read_text()) if before.is_file() else manifest
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, entry in manifest.items():
            dirs = [Path(tmp) / side / Path(name).stem for side in ("parent", "change")]
            try:
                runs = []
                for src, d in zip((parent, change), dirs):
                    d.mkdir(parents=True)
                    runs.append(_run(src, entry["experiment"], configs / name, d))
                deltas = [delta(a, b) for a, b in zip(*runs)]
            except (RuntimeError, ValueError) as exc:
                print(f"{name}: FAILED {exc}")
                ok = False
                continue
            changed = [d for d in deltas if d is not None]
            worst = max(changed, default=0.0)
            text = f"max |delta| {worst:.3e}" + (f" exceeds {TOLERANCE:g}" if worst > TOLERANCE else "")
            # the rule: regenerate only what matched before the change, keep the rest as recorded
            if hashlib.sha256(runs[0][0].read_bytes()).hexdigest() != recorded.get(name, {}).get("sha256"):
                rule = "parent differs from the manifest: keep the entry as recorded"
            else:
                rule = "parent matches the manifest: " + ("regenerate the entry" if changed else "keep the entry")
            print(f"{name}: {text if changed else 'bytes identical'}; {rule}")
            ok = ok and worst <= TOLERANCE
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
