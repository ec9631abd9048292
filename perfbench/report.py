"""Run every workload untraced and print its end-to-end metrics with units.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs in its own process through run.py, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: run failed ({proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:12s} {name:12s} {m['value']:12.4f} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:12s} {'fail_ratio':12s} {ratio:12.4f} ratio ({result['failed']}/{result['attempted']} ops)")
    return status


if __name__ == "__main__":
    sys.exit(main())
