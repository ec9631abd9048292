import argparse
import ast
import hashlib
import json
import math
import os
import importlib
import platform
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cgdyn import channels, cli, coarse_grain, diagnostics, evolve, maxent, qcore

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cgdyn")


def _run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(list(argv) + ["--output", str(out)])
    return code, out


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def test_swap_kappa_columns(tmp_path):
    code, out = _run(tmp_path, "swap-kappa", "--p1", "0.5", "--steps", "20")
    assert code == 0
    header, data = _read_csv(out)
    assert header == ["t", "rx", "ry", "rz", "purity", "kappa", "rate"]
    assert data.shape == (20, 7)
    # equal weights: contraction factor pinned at one
    assert np.abs(data[:, 5] - 1.0).max() < 1e-12
    assert np.abs(data[:, 6]).max() < 1e-12


def test_swap_kappa_matches_analytic(tmp_path):
    code, out = _run(tmp_path, "swap-kappa", "--p1", "0.7", "--steps", "40")
    assert code == 0
    _, data = _read_csv(out)
    cg = cli.preferential(2, 0.7)
    rho0 = qcore.density_from_bloch([0.6, 0.0, 0.3])
    r1, r2 = maxent.assign(rho0, cg).solution.per_particle_r
    r0 = float(np.linalg.norm([0.6, 0.0, 0.3]))
    want = channels.kappa_swap(data[:, 0], cg, r1, r2, r0)
    assert np.abs(data[:, 5] - want).max() < 1e-10


def test_ising_single_time_matches_gamma(tmp_path):
    theta = 1.1
    code, out = _run(
        tmp_path, "ising", "--g", "0", "--J", "1", "--theta", str(theta),
        "--phi", "0", "--t", "0.6",
    )
    assert code == 0
    _, data = _read_csv(out)
    want = qcore.bloch_from_density(channels.ising_effective(theta, 0.0, 0.6, 1.0))
    assert np.abs(data[0, 1:4] - want).max() < 1e-12


def test_field_tc_suffix(tmp_path):
    code, out = _run(tmp_path, "field", "--n", "4", "--tmax", "2tc", "--steps", "5")
    assert code == 0
    _, data = _read_csv(out)
    assert data[-1, 0] == pytest.approx(2 * 2 * math.pi / 0.2)


def test_field_tc_at_zero_spread(tmp_path, capsys):
    # t_c = 2 pi / sigma is infinite at sigma = 0: no grid in its units, "inf" in the sidecar
    assert cli.main(["field", "--sigma", "0", "--tmax", "4tc"]) == 1
    assert "t_c is infinite" in capsys.readouterr().err
    code, _ = _run(tmp_path, "field", "--sigma", "0", "--tmax", "5", "--steps", "3")
    assert code == 0
    assert json.loads((tmp_path / "out.meta.json").read_text())["derived"]["t_c"] == "inf"
    # only the field experiment has a dephasing time
    assert cli.main(["cnot", "--tmax", "2tc"]) == 1
    assert "only makes sense for field runs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cnot", "--tmax", "inf"], ["cnot", "--tmax", "1e400"], ["sweep", "--tmax", "inf"],
    ["field", "--tmax", "1e308tc"], ["diagnostics", "--target", "swap", "--tmax", "inf"],
])
def test_non_finite_tmax_is_refused_by_name(tmp_path, capsys, argv):
    # an infinite endpoint used to reach linspace, which warned and made NaN times
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(tmp_path, *argv)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == "cgdyn: tmax must be positive and finite, got inf\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _per_value_csv(header, columns):
    # the CSV as formatted one value at a time: the bytes to keep
    lines = [",".join(header)]
    lines.extend(",".join(f"{float(v):.17g}" for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def test_csv_bytes_match_the_per_value_format(tmp_path, monkeypatch):
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, 0.1, 1.0 / 3.0]
    columns = [np.arange(len(special)), np.array(special), np.array(special[::-1])]
    assert cli._csv(["i", "a", "b"], columns) == _per_value_csv(["i", "a", "b"], columns)
    assert cli._csv(["t"], [np.array([])]) == "t\n"
    # both writers: the trajectory experiments and the sweep's integer state column
    seen, write = [], cli._csv
    monkeypatch.setattr(cli, "_csv", lambda header, cols: seen.append(
        write(header, cols) == _per_value_csv(header, cols)) or write(header, cols))
    assert _run(tmp_path, "swap-kappa", "--steps", "30")[0] == 0
    assert _run(tmp_path, "sweep", "--states", "7", "--steps", "3", "--tmax", "1")[0] == 0
    assert seen == [True, True]


def test_metadata_written_next_to_csv(tmp_path):
    code, out = _run(tmp_path, "field", "--n", "3", "--steps", "4", "--tmax", "1.0")
    assert code == 0
    meta_path = tmp_path / "out.meta.json"
    assert meta_path.exists()
    meta = json.loads(meta_path.read_text())
    assert meta["experiment"] == "field"
    assert meta["version"]
    assert meta["config"]["seed"] == 0
    assert meta["derived"]["t_c"] == pytest.approx(2 * math.pi / 0.2)
    assert "lambda" in meta["derived"]
    assert "assumptions" in meta["derived"]


def test_sidecar_derived_facts(tmp_path):
    # the whole derived dict of a fast run and two state-vector runs, the
    # first with a mixed input (evolved in the Heisenberg form)
    argv = ["field", "--n", "3", "--bloch", "0.3,0,0", "--tmax", "1", "--steps", "2"]
    assert _run(tmp_path, *argv)[0] == 0
    cg = coarse_grain.preferential(3, 0.5)
    assert json.loads((tmp_path / "out.meta.json").read_text())["derived"] == {
        "spec": {
            "kind": "FieldAllToAll", "omegas": list(evolve.sample_field(3, seed=0).omegas),
            "include_interaction": False, "n": 3,
        },
        "distribution": {"n": 3, "probs": [0.5, 0.25, 0.25]},
        "method": "fast",
        "lambda": maxent.solve_lambda(0.3, cg).lam,
        "initial_bloch": [0.3, 0.0, 0.0],
        "t_c": 2.0 * math.pi / 0.2,
        "assumptions": {
            "remainder_weights": "(1 - p1)/(n - 1) spread over sites 2..n",
            "rotation_angle": "omega_1 * t",
        },
    }

    assert _run(tmp_path, "swap-kappa", "--steps", "3")[0] == 0
    cg = coarse_grain.preferential(2, 0.7)
    rho0 = qcore.density_from_bloch([0.6, 0.0, 0.3])
    sol = maxent.assign(rho0, cg).solution
    assert math.isfinite(sol.lam)
    assert json.loads((tmp_path / "out.meta.json").read_text())["derived"] == {
        "spec": {"kind": "Swap", "omega": 1.0},
        "distribution": {"n": 2, "probs": cg.probs.tolist()},
        "method": "statevector",
        "lambda": sol.lam,
        "initial_bloch": qcore.bloch_from_density(rho0).tolist(),
        "per_particle_r": sol.per_particle_r.tolist(),
    }

    argv = ["ising", "--n-spins", "3", "--g", "0.5", "--bloch", "1,0,0", "--t", "0.3"]
    assert _run(tmp_path, *argv)[0] == 0
    assert json.loads((tmp_path / "out.meta.json").read_text())["derived"] == {
        "spec": {"kind": "IsingChain", "n_spins": 3, "J": 1.0, "g": 0.5, "boundary": "closed"},
        "distribution": {"n": 3, "probs": [1.0 / 3.0] * 3},
        "method": "statevector",
        "lambda": "inf",
        "initial_bloch": [1.0, 0.0, 0.0],
    }


@pytest.mark.parametrize("argv", [
    ["cnot", "--t", "nan"],
    ["swap-kappa", "--probs", "nan,1"],
    ["field", "--mu", "nan", "--tmax", "2"],
    ["cnot", "--bloch", "nan,0,0"],
])
def test_non_finite_inputs_exit_1(tmp_path, capsys, argv):
    # NaN fails every comparison, so each check is written to fail it
    code, out = _run(tmp_path, *argv)
    assert code == 1
    assert capsys.readouterr().err.startswith("cgdyn: ")
    assert not out.exists()


def test_non_finite_coefficients_name_the_field(tmp_path, capsys):
    # refused when the spec is built, before a period hook turns a NaN
    # coupling into a default tmax or any engine runs
    for argv, field in ((["ising", "--g", "nan"], "IsingChain.g must be finite, got nan"),
                        (["cnot", "--omega", "nan"], "Cnot.omega must be finite, got nan"),
                        (["swap-kappa", "--omega", "inf"], "Swap.omega must be finite, got inf"),
                        (["ising", "--J", "nan"], "IsingChain.J must be finite, got nan"),
                        (["linear-nm", "--omega", "nan"], "LocalZSecond.omega must be finite, got nan")):
        code, out = _run(tmp_path, *argv)
        assert code == 1, argv
        assert capsys.readouterr().err == f"cgdyn: {field}\n"
        assert not out.exists()


def test_byte_identical_reruns(tmp_path):
    args = ["field", "--n", "6", "--seed", "3", "--steps", "50", "--tmax", "2.0"]
    _, a = _run(tmp_path, *args, name="a.csv")
    _, b = _run(tmp_path, *args, name="b.csv")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.meta.json").read_text() == (tmp_path / "b.meta.json").read_text()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "field", "n": 3, "steps": 4, "tmax": 1.0}))
    code, out = _run(tmp_path, "field", "--config", str(cfg), "--steps", "7")
    assert code == 0
    _, data = _read_csv(out)
    assert data.shape[0] == 7  # flag wins over file
    # config for a different experiment is refused
    code2, _ = _run(tmp_path, "cnot", "--config", str(cfg))
    assert code2 == 1


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "field", "frequency": 2.0}))
    code, _ = _run(tmp_path, "field", "--config", str(cfg))
    assert code == 1


def test_exit_codes(tmp_path, capsys):
    assert cli.main(["field", "--tmax", "-3"]) == 1
    assert cli.main(["no-such-experiment"]) == 1
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
    assert cli.main(["swap-kappa", "--bloch", "0,0,0"]) == 1
    assert "zero initial radius" in capsys.readouterr().err
    # the swap diagnostics' rate signs need kappa too
    argv = ["diagnostics", "--target", "swap", "--bloch", "0,0,0", "--samples", "1", "--steps", "1"]
    assert cli.main(argv + ["--output", str(tmp_path / "zero.json")]) == 1
    assert "zero initial radius" in capsys.readouterr().err
    assert cli.main(["field", "--config", str(tmp_path / "missing.json")]) == 1
    # the diagnostics grid (tmax/steps, ..., tmax) needs tmax > 0 and steps >= 1
    assert cli.main(["diagnostics", "--steps", "0"]) == 1
    assert cli.main(["diagnostics", "--tmax", "-1"]) == 1
    assert cli.main(["diagnostics", "--target", "dyson", "--tmax", "-1"]) == 1
    # the dyson decay starts at n = 2, so a smaller n_max leaves nothing to report
    for n_max in ("1", "0"):
        assert cli.main(["diagnostics", "--target", "dyson", "--n-max", n_max]) == 1
        assert "n_max must be at least 2" in capsys.readouterr().err
    # the linear-nm target probes t = pi/omega
    assert cli.main(["diagnostics", "--target", "linear-nm", "--omega", "0"]) == 1
    assert "omega" in capsys.readouterr().err
    # one Bloch-ball tolerance: |r| <= 1 + 1e-12, as qcore.density_from_bloch has it
    code, _ = _run(tmp_path, "cnot", "--bloch", "1.0000000000008,0,0", "--t", "0.5")
    assert code == 0
    assert cli.main(["cnot", "--bloch", "1.000000001,0,0", "--t", "0.5"]) == 1
    # explicit weights must cover every site
    assert cli.main(["cnot", "--probs", "0.2,0.3,0.5"]) == 1
    assert "length 3, expected n=2" in capsys.readouterr().err
    # config values get the checks their flags get, and the message names the key
    config = tmp_path / "config.json"
    bad = [
        ("cnot", "tmax", None), ("swap-kappa", "tmax", None), ("field", "tmax", None),
        ("field", "interaction", "no"), ("field", "interaction", 1), ("field", "n", 3.5),
        ("field", "n", True), ("field", "seed", "7"), ("cnot", "omega", "1"),
        ("cnot", "bloch", None), ("ising", "boundary", "twisted"), ("diagnostics", "target", "x"),
        # each string flag's key has its own JSON shape
        ("cnot", "output", 1), ("cnot", "metadata", 5), ("cnot", "tmax", [1]),
        ("cnot", "bloch", [[1]]), ("cnot", "probs", [0.5, "0.5"]), ("sweep", "state", "0,0"),
        ("sweep", "state", [[0.1, 0.2, 0.3]]), ("sweep", "state", [[0.1, [0.2]]]),
    ]
    config.write_text("{}")
    files = sorted(tmp_path.iterdir())
    for experiment, key, value in bad:
        config.write_text(json.dumps({key: value, "t": 0.5}))
        assert cli.main([experiment, "--config", str(config)]) == 1, (experiment, key, value)
        captured = capsys.readouterr()
        assert f"config key {key!r} cannot be" in captured.err, (experiment, key, value)
        assert captured.out == "" and sorted(tmp_path.iterdir()) == files, (experiment, key, value)
    good = [
        ("ising", "p1", None), ("ising", "bloch", None), ("field", "tmax", "4tc"),
        ("cnot", "tmax", 3), ("field", "n", 4.0), ("field", "interaction", True),
        ("cnot", "bloch", [0.6, 0, 0.3]), ("sweep", "state", ["0,0", [0.8, 0.3]]),
    ]
    for experiment, key, value in good:
        config.write_text(json.dumps({key: value}))
        code, _ = _run(tmp_path, experiment, "--config", str(config), "--steps", "3")
        assert code == 0, (experiment, key, value)
    # a switch set to false in the file really is off
    config.write_text(json.dumps({"interaction": False}))
    code, _ = _run(tmp_path, "field", "--config", str(config), "--n", "3", "--steps", "3")
    assert code == 0
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert meta["derived"]["spec"]["include_interaction"] is False


def test_diagnostics_writes_sidecar(tmp_path, monkeypatch, capsys):
    out, meta = tmp_path / "r.json", tmp_path / "m.json"
    argv = ["diagnostics", "--target", "pce-mask", "--samples", "5", "-o", str(out)]
    assert cli.main(argv + ["--metadata", str(meta)]) == 0
    doc = json.loads(meta.read_text())
    assert doc["experiment"] == "diagnostics"
    assert doc["config"]["target"] == "pce-mask"
    assert doc["derived"]["distribution"] == {"n": 2, "probs": [0.5, 0.5]}
    # a model target records its spec and weights, next to the report by default
    code, _ = _run(
        tmp_path, "diagnostics", "--samples", "3", "--steps", "2", name="swap.json"
    )
    assert code == 0
    derived = json.loads((tmp_path / "swap.meta.json").read_text())["derived"]
    assert derived["spec"] == {"kind": "Swap", "omega": 1.0}
    assert derived["distribution"]["probs"] == pytest.approx([0.7, 0.3])
    # a report on stdout with no --metadata path writes no file
    run_dir = tmp_path / "stdout"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert cli.main(["diagnostics", "--target", "pce-mask", "--samples", "5", "-o", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["target"] == "pce-mask"
    assert list(run_dir.iterdir()) == []


class _Probed(Exception):
    pass


def test_channel_targets_refuse_past_the_dense_cap(tmp_path, monkeypatch, capsys):
    # a channel target forms 2^n x 2^n joint states: past the cap it is refused
    # before any is formed, and at the cap it reaches the probes
    def probe(*args, **kwargs):
        raise _Probed

    monkeypatch.setattr(diagnostics, "equal_marginal_check", probe)
    monkeypatch.setattr(diagnostics, "linearity_probe", probe)
    cap = evolve.DENSE_MAX_QUBITS
    argv = ["diagnostics", "--target", "total-dephasing", "-o", str(tmp_path / "r.json"), "--n"]
    assert cli.main(argv + [str(cap + 1)]) == 1
    assert f"cgdyn: channel targets are capped at {cap} qubits, got {cap + 1}" in capsys.readouterr().err
    with pytest.raises(_Probed):
        cli.main(argv + [str(cap)])


def test_ising_target_refuses_past_the_dense_cap(tmp_path, monkeypatch, capsys):
    # the ising target's fuzzy-identity check forms a 2^n x 2^n state: past the cap the
    # run is refused before any probe, and no state of more than 2^12 rows is drawn
    real = qcore.random_density

    def guarded(dim, rng):
        assert dim <= 4096, f"formed a {dim} x {dim} state"
        return real(dim, rng)

    def probe(*args, **kwargs):
        raise _Probed

    monkeypatch.setattr(qcore, "random_density", guarded)
    cap = evolve.DENSE_MAX_QUBITS
    argv = ["diagnostics", "--target", "ising", "--g", "0", "--samples", "5", "--steps", "3",
            "-o", str(tmp_path / "r.json"), "--n"]
    assert cli.main(argv + [str(cap + 1)]) == 1
    assert f"cgdyn: the ising target is capped at {cap} qubits, got {cap + 1}" in capsys.readouterr().err
    monkeypatch.setattr(diagnostics, "linearity_probe", probe)
    with pytest.raises(_Probed):
        cli.main(argv + [str(cap)])


def test_ising_target_refuses_mixed_probes_past_their_cap(tmp_path, capsys):
    # the battery's probe inputs are mixed: at g != 0 they take the Heisenberg form,
    # capped at MIXED_MAX_SPINS, so the run is refused up front naming that cap; at
    # g = 0 they take the fast route, which has no such cap
    cap = evolve.MIXED_MAX_SPINS
    argv = ["diagnostics", "--target", "ising", "--n", str(cap + 1), "--samples", "5", "--steps", "3",
            "-o", str(tmp_path / "r.json")]
    assert cli.main(argv + ["--g", "0.5"]) == 1
    err = capsys.readouterr().err
    assert f"cgdyn: the ising target is capped at {cap} qubits at g != 0, got {cap + 1}" in err
    assert "pure" not in err and not list(tmp_path.iterdir())
    assert cli.main(argv + ["--g", "0"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["target"] == "ising"


def test_shipped_configs_never_import_scipy(tmp_path):
    # the configs take no sparse or Krylov route, so scipy (about 25 MB
    # resident) stays unloaded, and no fast-route block of theirs is one time
    # point, so neither does the thread pool's concurrent.futures; a fresh
    # interpreter sees what the runs import
    script = (
        "import json, os, sys\n"
        "from cgdyn import cli\n"
        "configs, out = sys.argv[1:]\n"
        "for name, entry in json.load(open(os.path.join(configs, 'checksums.json'))).items():\n"
        "    argv = [entry['experiment'], '--config', os.path.join(configs, name)]\n"
        "    assert cli.main(argv + ['--output', os.path.join(out, name)]) == 0, name\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent'))))\n"
    )
    src = os.path.abspath(os.path.join(SRC_DIR, os.pardir))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, CONFIG_DIR, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_linear_nm_static_at_zero_omega(tmp_path):
    # the default period 2 pi/|omega| falls back to 2 pi, as ising's pi/|J| falls back to pi
    code, out = _run(tmp_path, "linear-nm", "--omega", "0", "--steps", "5")
    assert code == 0
    _, data = _read_csv(out)
    assert data[-1, 0] == 2 * math.pi
    assert np.abs(data[:, 1:4] - data[0, 1:4]).max() == 0.0
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert meta["config"]["tmax"] == 2 * math.pi


def _polar(theta, phi):
    return [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]


# per trajectory row: flags, and the (spec, weights, Bloch vector) they mean
ROW_CASES = {
    "swap-kappa": (
        ["--p1", "0.6", "--omega", "1.3", "--bloch", "0.5,0.1,0.3"],
        lambda: (evolve.Swap(omega=1.3), cli.preferential(2, 0.6), [0.5, 0.1, 0.3]),
    ),
    "cnot": (
        ["--probs", "0.35,0.65", "--bloch", "0.2,0.6,0.3"],
        lambda: (evolve.Cnot(omega=1.0), coarse_grain.custom([0.35, 0.65]), [0.2, 0.6, 0.3]),
    ),
    "field": (
        ["--n", "5", "--seed", "2", "--interaction", "--mu", "1.2"],
        lambda: (
            evolve.sample_field(5, mu=1.2, sigma=0.2, seed=2, include_interaction=True),
            cli.preferential(5, 0.5),
            [0.8, 0.0, 0.0],
        ),
    ),
    "ising": (
        ["--g", "0.4", "--theta", "0.9", "--phi", "0.2", "--J", "0.8"],
        lambda: (
            evolve.IsingChain(n_spins=4, J=0.8, g=0.4),
            coarse_grain.non_preferential(4),
            _polar(0.9, 0.2),
        ),
    ),
    "linear-nm": (
        ["--omega", "1.7", "--bloch", "0.6,0.2,0.1"],
        lambda: (evolve.LocalZSecond(omega=1.7), coarse_grain.non_preferential(2), [0.6, 0.2, 0.1]),
    ),
}


def test_cli_rows_match_trajectory(tmp_path):
    rows = {name for name, row in cli.EXPERIMENTS.items() if row.run is None}
    assert rows == set(ROW_CASES)
    for name, (flags, direct) in ROW_CASES.items():
        code, out = _run(tmp_path, name, *flags, "--tmax", "2", "--steps", "7", name=name + ".csv")
        assert code == 0, name
        header, data = _read_csv(out)
        assert header[:5] == ["t", "rx", "ry", "rz", "purity"], name
        spec, cg, bloch = direct()
        traj = evolve.trajectory(
            qcore.density_from_bloch(bloch), cg, spec, np.linspace(0.0, 2.0, 7)
        )
        want = np.column_stack([traj.times, traj.bloch, traj.purity])
        # %.17g round-trips float64, so the CSV holds the trajectory exactly
        assert np.array_equal(data[:, :5], want), name


def test_flags_are_config_keys(capsys):
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(cli.EXPERIMENTS)
    for name, row in cli.EXPERIMENTS.items():
        actions = [a for a in subs.choices[name]._actions if a.dest != "help"]
        assert {a.dest for a in actions} == set(row.defaults) | {"config"}, name
        for action in actions:
            assert "--" + action.dest.replace("_", "-") in action.option_strings
        assert cli.main([name, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--output OUTPUT, -o OUTPUT" in text
        for key, default in row.defaults.items():
            if default is not None:
                shown = ",".join(map(str, default)) if isinstance(default, list) else str(default)
                assert f"(default {shown})" in text, (name, key)


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise qcore.PositivityError("radius left the ball")

    monkeypatch.setattr(cli.evolve, "trajectory", boom)
    assert cli.main(["field", "--n", "3", "--tmax", "1", "--steps", "3"]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_rows_stay_inside_bloch_ball(tmp_path):
    code, out = _run(
        tmp_path, "ising", "--g", "0.5", "--theta", "0.8", "--tmax", "3", "--steps", "30"
    )
    assert code == 0
    _, data = _read_csv(out)
    assert (np.sum(data[:, 1:4] ** 2, axis=1) <= 1.0 + 1e-9).all()


def test_sweep_rows_and_thread_invariance(tmp_path):
    args = ["sweep", "--states", "6", "--g", "0.5", "--t", "0.9"]
    _, a = _run(tmp_path, *args, name="a.csv")
    _, b = _run(tmp_path, *args, name="b.csv")
    assert a.read_bytes() == b.read_bytes()
    header, data = _read_csv(a)
    assert header == ["state", "theta", "phi", "t", "rx", "ry", "rz", "purity"]
    assert data.shape == (6, 8)
    assert list(data[:, 0]) == list(range(6))


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    # one parser serves every call in a process: the --state list of one run must
    # not reach the next, which falls back to the Fibonacci states
    assert cli.build_parser() is cli.build_parser()
    code, out = _run(tmp_path, "sweep", "--state", "0.1,0.2", "--state", "0.3,0.4", name="a.csv")
    assert code == 0
    assert _read_csv(out)[1][:, 1:3].tolist() == [[0.1, 0.2], [0.3, 0.4]]
    code, out = _run(tmp_path, "sweep", name="b.csv")
    assert code == 0
    states = cli.fibonacci_sphere(cli.EXPERIMENTS["sweep"].defaults["states"])
    assert np.array_equal(_read_csv(out)[1][:, 1:3], states)
    for name in cli.EXPERIMENTS:
        assert cli.main([name, "--help"]) == 0
    capsys.readouterr()


def test_sweep_explicit_states(tmp_path):
    code, out = _run(
        tmp_path, "sweep", "--state", "0,0", "--state", "1.5707963267948966,0",
        "--g", "0", "--tmax", "1.0", "--steps", "3",
    )
    assert code == 0
    _, data = _read_csv(out)
    assert data.shape[0] == 6  # 2 states x 3 times
    # pole state under the interaction-only chain keeps |r| = 1
    pole = data[data[:, 0] == 0]
    assert np.abs(np.sum(pole[:, 4:7] ** 2, axis=1) - 1.0).max() < 1e-12


def test_sweep_equal_theta_share_coherence_magnitude(tmp_path):
    # azimuthal symmetry: same polar angle, same transverse radius
    code, out = _run(
        tmp_path, "sweep", "--state", "0.8,0.3", "--state", "0.8,2.1",
        "--g", "0", "--t", "0.9",
    )
    assert code == 0
    _, data = _read_csv(out)
    r_t = np.hypot(data[:, 4], data[:, 5])
    assert r_t[0] == pytest.approx(r_t[1], abs=1e-12)


def test_diagnostics_swap_report(tmp_path):
    code, out = _run(
        tmp_path, "diagnostics", "--target", "swap", "--samples", "10",
        "--steps", "6", "--tmax", "3.0", name="report.json",
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["target"] == "swap"
    assert rep["linearity"]["max_violation"] > 1e-3
    assert rep["semigroup"]["gap"] > 1e-6
    assert rep["semigroup"]["rate_sign_changes"]
    assert rep["fuzzy_identity"] < 1e-12


def test_diagnostics_channel_report(tmp_path):
    code, out = _run(
        tmp_path, "diagnostics", "--target", "pce-mask", "--samples", "20",
        name="report.json",
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["equal_marginal"]["holds"] is True
    assert rep["linearity"]["max_violation"] < 1e-12


def test_diagnostics_dyson_report(tmp_path):
    code, out = _run(
        tmp_path, "diagnostics", "--target", "dyson", "--n-max", "5",
        "--bloch", "0.6,0,0.5", name="report.json",
    )
    assert code == 0
    rep = json.loads(out.read_text())
    norms = rep["dyson"]["trace_norms"]
    assert norms == sorted(norms, reverse=True)
    assert rep["dyson"]["ratios"][0] == pytest.approx(0.5, rel=1e-10)


def _platform():
    # the manifest pins the bytes of the platform that recorded it; a failure
    # names this one, so rounding drift can be read from the message itself
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return f"Python {platform.python_version()}, numpy {np.__version__}, BLAS {blas}"


def test_shipped_configs_reproduce_checksums(tmp_path):
    # every published example regenerates byte-identical output
    manifest = json.loads(open(os.path.join(CONFIG_DIR, "checksums.json")).read())
    drifted = []
    for name, entry in manifest.items():
        out = tmp_path / (name + ".out")
        code = cli.main(
            [entry["experiment"], "--config", os.path.join(CONFIG_DIR, name),
             "--output", str(out)]
        )
        assert code == 0, name
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            drifted.append(name)
    # one verdict naming every drifting config, not only the first
    assert not drifted, (
        f"checksum drift for {len(drifted)} of {len(manifest)}: {drifted} on {_platform()}"
    )


def test_diagnostics_swap_config_replays_closed_form(tmp_path):
    # a platform-independent pin: the report's witnesses replay through the
    # exchange model's closed form, whatever the last bits of the report
    path = os.path.join(CONFIG_DIR, "diagnostics-swap.json")
    out = tmp_path / "report.json"
    assert cli.main(["diagnostics", "--config", path, "--output", str(out)]) == 0
    rep = json.loads(out.read_text())
    cg = coarse_grain.preferential(2, json.loads(open(path).read())["p1"])

    def dyn(rho, t):
        return channels.swap_effective(rho, cg, t)

    w = rep["linearity"]["witness"]
    rho_a, rho_b = qcore.density_from_bloch(w["bloch_a"]), qcore.density_from_bloch(w["bloch_b"])
    mix = w["weight"] * rho_a + (1.0 - w["weight"]) * rho_b
    t = w["t"]
    violation = qcore.trace_norm(
        dyn(mix, t) - w["weight"] * dyn(rho_a, t) - (1.0 - w["weight"]) * dyn(rho_b, t)
    )
    assert abs(violation - rep["linearity"]["max_violation"]) <= 1e-10

    sg = rep["semigroup"]
    rho = qcore.density_from_bloch(sg["witness_bloch"])
    t, s = sg["argmax_t"], sg["argmax_s"]
    gap = qcore.trace_norm(dyn(rho, t + s) - dyn(dyn(rho, s), t))
    assert abs(gap - sg["gap"]) <= 1e-10
    assert abs(rep["fuzzy_identity"]) <= 1e-10


def test_readme_cli_lines_parse():
    # every `cgdyn ...` line in the README's fenced blocks is a valid command
    lines, fenced = [], False
    for line in open(README, encoding="utf-8").read().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("cgdyn "):
            lines.append(line)
    assert lines
    parser = cli.build_parser()
    bad = []
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            bad.append(line)
    assert not bad, bad


def test_readme_layout_names_exist():
    # every bare `name` in a `cgdyn.<module>` bullet of "Library layout" is an
    # attribute of that module or a route `trajectory(..., method=...)` takes
    text = open(README, encoding="utf-8").read()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    bullets = [" ".join(b.split()) for b in section.split("\n- ")[1:]]
    routes = {"auto", "dense", "fast", "statevector"}
    stale, modules = [], []
    for bullet in bullets:
        module = re.match(r"`cgdyn\.(\w+)`", bullet)
        assert module, bullet
        mod = importlib.import_module(f"cgdyn.{module.group(1)}")
        modules.append(mod.__name__)
        for name in re.findall(r"`([A-Za-z_]\w*)`", bullet):
            if not hasattr(mod, name) and name not in routes:
                stale.append(f"{mod.__name__}: {name}")
    assert len(modules) == 6, modules
    assert not stale, stale


def test_no_unused_imports():
    # every name a module or test file imports is read somewhere in that file
    # (__init__.py imports to re-export, so it is left out)
    here = os.path.dirname(__file__)
    paths = [os.path.join(SRC_DIR, f) for f in os.listdir(SRC_DIR) if f != "__init__.py"]
    paths += [os.path.join(here, f) for f in os.listdir(here)]
    unused = []
    for path in sorted(p for p in paths if p.endswith(".py")):
        tree = ast.parse(open(path, encoding="utf-8").read())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{os.path.basename(path)}:{node.lineno}: {name}")
    assert not unused, unused


def test_no_tolerance_literal_outside_qcore():
    # qcore owns every numeric tolerance: a float literal below 1e-6 in
    # magnitude anywhere else in the package is a tolerance without a name
    small = []
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py") or name == "qcore.py":
            continue
        tree = ast.parse(open(os.path.join(SRC_DIR, name), encoding="utf-8").read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                if 0.0 < abs(node.value) < 1e-6:
                    small.append(f"{name}:{node.lineno}: {node.value!r}")
    assert not small, small


def test_only_cli_serializes():
    # cli alone turns library values into JSON: no other module defines a
    # *to_dict function or writes infinity as the string "inf"
    found = []
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py") or name == "cli.py":
            continue
        tree = ast.parse(open(os.path.join(SRC_DIR, name), encoding="utf-8").read())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.endswith("to_dict"):
                found.append(f"{name}:{node.lineno}: def {node.name}")
            if isinstance(node, ast.Constant) and node.value == "inf":
                found.append(f"{name}:{node.lineno}: 'inf'")
    assert not found, found
