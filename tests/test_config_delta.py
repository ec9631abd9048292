import hashlib
import importlib.util
import json
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "config_delta.py")
_SPEC = importlib.util.spec_from_file_location("config_delta", _PATH)
config_delta = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(config_delta)


def _pair(tmp_path, name, a, b):
    (tmp_path / "a").mkdir(exist_ok=True)
    (tmp_path / "b").mkdir(exist_ok=True)
    pa, pb = tmp_path / "a" / name, tmp_path / "b" / name
    pa.write_text(a)
    pb.write_text(b)
    return pa, pb


def test_identical_bytes_give_none(tmp_path):
    assert config_delta.delta(*_pair(tmp_path, "x.out", "t,rx\n0,0.5\n", "t,rx\n0,0.5\n")) is None


def test_csv_and_json_report_the_largest_numeric_change(tmp_path):
    csv_a, csv_b = "t,rx,ry\n0,0.5,-0\n1,0.25,1e-3\n", "t,rx,ry\n0,0.5,0\n1,0.25000000000000006,2e-3\n"
    assert config_delta.delta(*_pair(tmp_path, "x.out", csv_a, csv_b)) == pytest.approx(1e-3)
    doc_a = {"gap": 0.5, "witness": {"bloch": [0.1, 0.2]}, "seed": 0}
    doc_b = {"gap": 0.5, "witness": {"bloch": [0.1, 0.2 + 1e-15]}, "seed": 0}
    got = config_delta.delta(*_pair(tmp_path, "r.meta.json", json.dumps(doc_a), json.dumps(doc_b)))
    assert got == abs((0.2 + 1e-15) - 0.2)
    # a NaN against a number is an infinite change; NaN against NaN none
    nan_a, nan_b = json.dumps({"v": [math.nan, 1.0]}), json.dumps({"v": [math.nan, math.nan]})
    assert config_delta.delta(*_pair(tmp_path, "n.json", nan_a, nan_b)) == math.inf
    assert config_delta.delta(*_pair(tmp_path, "m.json", nan_a, nan_a + " ")) == 0.0


def test_non_numeric_changes_are_refused(tmp_path):
    with pytest.raises(ValueError, match="non-numeric"):
        config_delta.delta(*_pair(tmp_path, "r.json", '{"route": "fast"}', '{"route": "dense"}'))
    with pytest.raises(ValueError, match="different fields"):
        config_delta.delta(*_pair(tmp_path, "x.out", "t,rx\n0,1\n", "t,rx\n0,1\n1,2\n"))
    a, b = _pair(tmp_path, "y.meta.json", "{}", "{}")
    b.unlink()
    with pytest.raises(ValueError, match="one tree only"):
        config_delta.delta(a, b)


def test_main_exits_1_past_the_manifest_rule(tmp_path, monkeypatch, capsys):
    # one command checks the rule: a config whose max |delta| exceeds 1e-12 fails the run
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "checksums.json").write_text(json.dumps({"c.json": {"experiment": "cnot", "sha256": ""}}))
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "cgdyn").mkdir(parents=True)
        trees.append(str(tmp_path / side))

    def outputs(change):
        def run(src, experiment, config, out_dir):
            out = out_dir / "c.out"
            out.write_text(f"t,rx\n0,{0.5 if src.parent.name == 'parent' else change!r}\n")
            return [out]
        return run

    for change, code in ((0.5, 0), (0.5 + 1e-13, 0), (0.5 + 1e-11, 1), (math.nan, 1)):
        monkeypatch.setattr(config_delta, "_run", outputs(change))
        assert config_delta.main(trees + ["--configs", str(configs)]) == code
    lines = capsys.readouterr().out.splitlines()
    keep = "; parent differs from the manifest: keep the entry as recorded"  # the sha256 is ""
    assert lines[0] == "c.json: bytes identical" + keep
    assert lines[1] == "c.json: max |delta| 1.000e-13" + keep
    assert lines[2].endswith("exceeds 1e-12" + keep) and lines[3] == "c.json: max |delta| inf exceeds 1e-12" + keep


def test_main_says_which_entries_the_manifest_rule_regenerates(tmp_path, monkeypatch, capsys):
    # the parent's output matches one entry's sha256 in the parent's manifest and not
    # the other's: the change moves both outputs, so the first entry is regenerated and
    # the second kept. The --configs manifest (already regenerated) is not the one read
    parent_out = "t,rx\n0,0.5\n"
    digest = hashlib.sha256(parent_out.encode()).hexdigest()
    trees = []
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "cgdyn").mkdir(parents=True)
        (tmp_path / side / "configs").mkdir()
        trees.append(str(tmp_path / side))
    for side, sha in (("parent", digest), ("change", "1" * 64)):
        manifest = {"a.json": {"experiment": "cnot", "sha256": sha},
                    "b.json": {"experiment": "cnot", "sha256": "0" * 64}}
        (tmp_path / side / "configs" / "checksums.json").write_text(json.dumps(manifest))
    configs = tmp_path / "change" / "configs"

    def outputs(change):
        def run(src, experiment, config, out_dir):
            out = out_dir / "c.out"
            out.write_text(parent_out if src.parent.name == "parent" else f"t,rx\n0,{change!r}\n")
            return [out]
        return run

    monkeypatch.setattr(config_delta, "_run", outputs(0.5 + 1e-15))
    assert config_delta.main(trees + ["--configs", str(configs)]) == 0
    monkeypatch.setattr(config_delta, "_run", outputs(0.5))
    assert config_delta.main(trees + ["--configs", str(configs)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.json: max |delta| 9.992e-16; parent matches the manifest: regenerate the entry",
        "b.json: max |delta| 9.992e-16; parent differs from the manifest: keep the entry as recorded",
        "a.json: bytes identical; parent matches the manifest: keep the entry",
        "b.json: bytes identical; parent differs from the manifest: keep the entry as recorded",
    ]
