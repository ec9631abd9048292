import importlib.util
import json
import math
import os
import subprocess

import numpy as np
import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "ladder_delta.py")
_SPEC = importlib.util.spec_from_file_location("ladder_delta", _PATH)
ladder_delta = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder_delta)


def test_identical_bytes_give_none():
    a = np.array([[0.5, -0.25, 1e-300]])
    assert ladder_delta.delta(a, a.copy()) is None


def test_delta_is_the_largest_change():
    a, b = np.array([[0.5, 0.0, 0.1]]), np.array([[0.5, -0.0, 0.1 + 1e-15]])
    assert ladder_delta.delta(a, b) == abs((0.1 + 1e-15) - 0.1)
    # a NaN against a number is an infinite change; equal NaNs and infinities none
    assert ladder_delta.delta([math.nan, 1.0], [0.0, 1.0]) == math.inf
    assert ladder_delta.delta([math.nan, math.inf, 1.0], [math.nan, math.inf, 2.0]) == 1.0
    with pytest.raises(ValueError, match="shapes differ"):
        ladder_delta.delta(np.zeros((2, 3)), np.zeros((3, 3)))


def test_main_exits_1_past_the_bound(tmp_path, monkeypatch, capsys):
    # one command checks the rule: an op whose max |delta| exceeds 1e-12 fails the run
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "cgdyn").mkdir(parents=True)
        trees.append(str(tmp_path / side))

    def outputs(change):
        def run(src, out):
            moved = src.parent.name == "change"
            return {"dense.n8": np.array([[0.5, 0.1, 0.2]]),
                    "statevector.n13": np.array([[change if moved else 0.5, 0.0, 0.0]])}
        return run

    for change, code in ((0.5, 0), (0.5 + 1e-13, 0), (0.5 + 1e-11, 1), (math.nan, 1)):
        monkeypatch.setattr(ladder_delta, "_run", outputs(change))
        assert ladder_delta.main(trees) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0::2] == ["dense.n8: bytes identical"] * 4
    assert lines[1] == "statevector.n13: bytes identical"
    assert lines[3] == "statevector.n13: max |delta| 1.000e-13"
    assert lines[5].endswith("exceeds 1e-12") and lines[7] == "statevector.n13: max |delta| inf exceeds 1e-12"


def test_main_refuses_other_ops_and_failed_runs(tmp_path, monkeypatch, capsys):
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "cgdyn").mkdir(parents=True)
        trees.append(str(tmp_path / side))
    monkeypatch.setattr(ladder_delta, "_run", lambda src, out: {src.parent.name: np.zeros(3)})
    assert ladder_delta.main(trees) == 1
    monkeypatch.setattr(ladder_delta, "_run", lambda src, out: {"op": np.zeros(3 + (src.parent.name == "change"))})
    assert ladder_delta.main(trees) == 1

    def failed(src, out):
        raise RuntimeError(f"the ladder failed under {src}: boom")

    monkeypatch.setattr(ladder_delta, "_run", failed)
    assert ladder_delta.main(trees) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAILED the trees ran different ops: ['change', 'parent']"
    assert lines[1] == "op: FAILED shapes differ: (3,) vs (4,)" and lines[2].startswith("FAILED the ladder failed")


def test_summary_takes_the_median_of_each_trees_minima():
    # one {label: min seconds} per fresh process; an op only one tree ran is left out
    parent = [{"a": 0.010, "b": 0.004}, {"a": 0.012, "b": 0.002}, {"a": 0.011, "b": 0.003}]
    change = [{"a": 0.005, "b": 0.004, "c": 1.0}, {"a": 0.007, "b": 0.006, "c": 1.0},
              {"a": 0.006, "b": 0.005, "c": 1.0}]
    got = ladder_delta.summary(parent, change)
    assert list(got) == ["a", "b"]
    assert got["a"] == (0.011, 0.006, 0.006 / 0.011) and got["b"] == (0.003, 0.005, 0.005 / 0.003)
    # an even count takes the mean of the middle two
    assert ladder_delta.summary(parent[:2], change[:2])["a"][:2] == (0.011, 0.006)


def test_pairs_alternate_fresh_processes_and_keep_the_exit_code(tmp_path, monkeypatch, capsys):
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "cgdyn").mkdir(parents=True)
        trees.append(str(tmp_path / side))
    order = []

    def timed(src, out):
        order.append(src.parent.name)
        return {"dense.n8": 0.002 if src.parent.name == "parent" else 0.001, "statevector.n10": 0.008}

    monkeypatch.setattr(ladder_delta, "_time", timed)
    monkeypatch.setattr(ladder_delta, "_run", lambda src, out: {
        "dense.n8": np.zeros(3), "statevector.n10": np.full(3, 0.5 + 1e-11 * (src.parent.name == "change"))})
    assert ladder_delta.main(trees + ["--pairs", "3"]) == 1  # the delta past the bound still fails the run
    assert order == ["parent", "change", "change", "parent", "parent", "change"]  # which runs first alternates
    assert capsys.readouterr().out.splitlines() == [
        "dense.n8: bytes identical; 2.000 -> 1.000 ms (x0.500)",
        "statevector.n10: max |delta| 1.000e-11 exceeds 1e-12; 8.000 -> 8.000 ms (x1.000)"]
    order.clear()
    monkeypatch.setattr(ladder_delta, "_run", lambda src, out: {"dense.n8": np.zeros(3)})
    assert ladder_delta.main(trees) == 0 and order == []  # no pairs: no timing process
    assert capsys.readouterr().out.splitlines() == ["dense.n8: bytes identical"]


def test_each_workload_runs_in_its_own_child(tmp_path, monkeypatch):
    # the byte check and the timing start one fresh process per workload, and each
    # names exactly one workload; the script merges their outputs in workload order
    argvs = []

    def child(argv, cwd, capture_output, text):
        argvs.append(argv)
        out, passes, names = argv[5], int(argv[7]), argv[8:]
        labels = [f"{name}.op" for name in names]
        if passes:
            with open(out, "w") as f:
                json.dump(dict.fromkeys(labels, 0.001), f)
        else:
            np.savez(out, **{label: np.zeros(3) for label in labels})
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(ladder_delta.subprocess, "run", child)
    src = tmp_path / "src"
    assert list(ladder_delta._run(src, tmp_path / "parent.npz")) == ["joint-state.op", "large-n.op"]
    assert list(ladder_delta._time(src, tmp_path / "parent.json")) == ["joint-state.op", "large-n.op"]
    assert [argv[8:] for argv in argvs] == [["joint-state"], ["large-n"]] * 2
    assert [argv[7] for argv in argvs] == ["0", "0", str(ladder_delta.PASSES), str(ladder_delta.PASSES)]
    assert len({argv[5] for argv in argvs}) == 4  # each child writes its own file
