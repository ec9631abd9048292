"""Command line front end: every experiment as a subcommand writing CSV + JSON.

Conventions shared by all subcommands:
  * trajectory CSV columns `t,rx,ry,rz,purity` (swap-kappa appends
    `kappa,rate`), floats at 17 significant digits, '\n' line endings,
    so identical config + seed reproduces byte-identical files;
  * a metadata JSON next to the CSV with the fully resolved config, the
    seed, the library version and derived quantities; the library returns
    typed values and this module alone turns them into JSON;
  * each subcommand's flags are its config keys: `--` plus the key with
    `_` spelled `-` (`-o` is short for `--output`), as listed with their
    defaults in `EXPERIMENTS`;
  * `--config file.json` supplies any value a flag could; explicit flags
    win over the file, the file wins over built-in defaults;
  * exit 0 on success, 1 on validation errors, 2 on numeric failure
    (positivity loss), messages on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, channels, diagnostics, evolve, maxent, qcore
from .coarse_grain import apply_cg, custom, non_preferential, preferential

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


# ---------------------------------------------------------------------------
# Config plumbing


def _floats(text):
    return [float(p) for p in text.replace(",", " ").split()]


def _vector(value, size, what):
    """'a,b,c' (commas or spaces) or a JSON list -> float array of `size` entries."""
    parts = _floats(value) if isinstance(value, str) else [float(p) for p in value]
    if len(parts) != size:
        raise ValueError(f"{what} needs exactly {size} components, got {value!r}")
    return np.array(parts)


def _parse_bloch(res):
    # parsing only: qcore.density_from_bloch owns the Bloch-ball tolerance
    return _vector(res["bloch"], 3, "Bloch vector")


def _polar(theta, phi):
    """The unit vector at polar angle theta and azimuth phi, or the (..., 3) stack of them."""
    th, ph = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)


def _load_config(path, experiment):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    exp = cfg.pop("experiment", None)
    if exp is not None and exp != experiment:
        raise ValueError(f"config is for experiment {exp!r}, invoked as {experiment!r}")
    return cfg


def _number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, size=None):
    """A flat JSON list of numbers, of `size` entries if given."""
    return isinstance(value, list) and all(map(_number, value)) and size in (None, len(value))


# the JSON shapes a config file may give the keys whose flags take strings
_SHAPES = {
    **dict.fromkeys(("target", "boundary", "output", "metadata"), lambda v: isinstance(v, str)),
    "tmax": lambda v: isinstance(v, str) or _number(v),
    **dict.fromkeys(("bloch", "probs"), lambda v: isinstance(v, str) or _numbers(v)),
    "state": lambda v: isinstance(v, list) and all(isinstance(i, str) or _numbers(i, 2) for i in v),
}


def _config_value(key, value, default):
    """A config-file value, checked as its flag's type and choices check the
    flag: null only where the row's default is null, a JSON boolean for a
    switch, an integral number for an int key, a number for a float key and
    the `_SHAPES` entry for a string key."""
    opts = _FLAGS[key]
    number = _number(value)
    kind = bool if opts.get("action") is argparse.BooleanOptionalAction else opts.get("type")
    integral = number and (isinstance(value, int) or value.is_integer())
    checks = {bool: isinstance(value, bool), int: integral, float: number}
    ok = checks[kind] if kind else _SHAPES[key](value)
    if value is None:
        ok = default is None
    elif "choices" in opts:
        ok = ok and value in opts["choices"]
    if not ok:
        raise ValueError(f"config key {key!r} cannot be {json.dumps(value)}")
    return value


def _resolve(args, defaults):
    """defaults < config file < explicit flags, per key."""
    cfg = _load_config(args.config, args.experiment) if args.config else {}
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}; allowed: {sorted(defaults)}")
    cfg = {key: _config_value(key, value, defaults[key]) for key, value in cfg.items()}
    out = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else cfg.get(key, fallback)
    return out


def _weights(res, n):
    """Explicit probs win over p1; neither gives equal weights."""
    probs, p1 = res.get("probs"), res.get("p1")
    if probs is not None:
        cg = custom(_floats(probs) if isinstance(probs, str) else probs)
        if cg.n != n:
            raise ValueError(f"custom weights have length {cg.n}, expected n={n}")
        return cg
    return non_preferential(n) if p1 is None else preferential(n, p1)


def _check_grid(tmax, steps, least):
    tmax, steps = float(tmax), int(steps)
    if not 0.0 < tmax < math.inf:
        raise ValueError(f"tmax must be positive and finite, got {tmax}")
    if steps < least:
        raise ValueError(f"steps must be at least {least}, got {steps}")
    return tmax, steps


def _t_c(res):
    """The field experiment's dephasing time 2 pi / sigma (infinite at sigma = 0)."""
    sigma = float(res["sigma"])
    return 2.0 * math.pi / sigma if sigma > 0.0 else math.inf


def _time_grid(resolved):
    """(t | tmax+steps) -> 1-d grid, inclusive endpoints.

    tmax may carry a literal `tc` suffix ("4tc") for field runs, in units of
    `_t_c`.
    """
    t_single = resolved.get("t")
    if t_single is not None:
        return np.array([float(t_single)])
    tmax = resolved["tmax"]
    if isinstance(tmax, str):
        raw = tmax.strip().lower()
        if raw.endswith("tc"):
            if "sigma" not in resolved:
                raise ValueError("a 'tc' time unit only makes sense for field runs")
            t_c = _t_c(resolved)
            if math.isinf(t_c):
                raise ValueError("t_c is infinite at zero frequency spread")
            factor = raw[:-2].strip()
            tmax = (float(factor) if factor else 1.0) * t_c
        else:
            tmax = float(raw)
    tmax, steps = _check_grid(tmax, resolved["steps"], least=2)
    return np.linspace(0.0, tmax, steps)


# ---------------------------------------------------------------------------
# Output: one writer for the CSV, the diagnostics JSON and the sidecar


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header, columns):
    table = np.column_stack(columns)  # one format pass: "%.17g" % v is f"{v:.17g}", nan, inf and -0 too
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ",".join(header) + "\n" + row * len(table) % tuple(table.ravel().tolist())


def _json(doc):
    return json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _model_facts(cg, spec=None):
    """The sidecar's `distribution` entry, and its `spec` entry given a model."""
    facts = {"distribution": {"n": cg.n, "probs": cg.probs}}
    if spec is not None:
        # vars holds exactly the fields (asdict would deep-copy a 10^4-site
        # field's frequencies); the field's site count is implicit, so add it
        facts["spec"] = {"kind": type(spec).__name__, **vars(spec)}
        if "omegas" in facts["spec"]:
            facts["spec"]["n"] = spec.n
    return facts


def _write_metadata(res, experiment, derived):
    path = res["metadata"]
    if path is None:
        if res["output"] == "-":
            return
        path = os.path.splitext(res["output"])[0] + ".meta.json"
    config = {k: v for k, v in res.items() if k not in ("output", "metadata")}
    doc = {"experiment": experiment, "config": config, "version": __version__, "derived": derived}
    _write(path, _json(doc))


# ---------------------------------------------------------------------------
# Trajectory experiments


def _run_trajectory(row, res):
    spec = row.spec(res)
    cg = _weights(res, spec.n)
    bloch0 = row.bloch(res)
    if row.period is not None and res["t"] is None and res["tmax"] is None:
        res["tmax"] = row.period(res)
    rho0 = qcore.density_from_bloch(bloch0)
    traj = evolve.trajectory(rho0, cg, spec, _time_grid(res))
    b = traj.bloch
    columns = {"t": traj.times, "rx": b[:, 0], "ry": b[:, 1], "rz": b[:, 2], "purity": traj.purity}
    derived = {
        **_model_facts(cg, spec), "initial_bloch": qcore.bloch_from_density(rho0),
        "method": traj.route, "lambda": "inf" if traj.solution.is_pure else traj.solution.lam,
    }
    if row.extra is not None:
        more, facts = row.extra(res, cg, bloch0, rho0, traj)
        columns.update(more)
        derived.update(facts)
    _write(res["output"], _csv(columns, list(columns.values())))
    return derived


def _kappa_bloch(res):
    bloch0 = _parse_bloch(res)
    if np.linalg.norm(bloch0) < qcore.ZERO_RADIUS:
        raise ValueError("the contraction factor is undefined at zero initial radius")
    return bloch0


def _kappa_rate(res, cg, bloch0, rho0, traj):
    # kappa divides by the parsed input radius, not one read back from rho0
    r1, r2 = traj.solution.per_particle_r
    kappa = np.linalg.norm(traj.bloch, axis=1) / float(np.linalg.norm(bloch0))
    rate = channels.swap_rate(traj.times, cg, r1, r2, omega=res["omega"])
    return {"kappa": kappa, "rate": rate}, {"per_particle_r": traj.solution.per_particle_r}


def _field_facts(res, cg, bloch0, rho0, traj):
    t_c = _t_c(res)
    return {}, {"t_c": "inf" if math.isinf(t_c) else t_c, "assumptions": {
        "remainder_weights": "(1 - p1)/(n - 1) spread over sites 2..n",
        "rotation_angle": "omega_1 * t",
    }}


def _circle(res, cg, bloch0, rho0, traj):
    center, radius = channels.circle_params(qcore.bloch_from_density(rho0))
    return {}, {"circle_center": list(center), "circle_radius": radius}


def _field_spec(res):
    return evolve.sample_field(
        int(res["n"]), mu=res["mu"], sigma=res["sigma"], seed=int(res["seed"]),
        include_interaction=bool(res["interaction"]),
    )


def _ising_spec(res):
    return evolve.IsingChain(
        n_spins=int(res["n_spins"]), J=res["J"], g=res["g"], boundary=res["boundary"]
    )


def _ising_bloch(res):
    if res["bloch"] is not None:
        return _parse_bloch(res)
    return _polar(res["theta"], res["phi"])


# ---------------------------------------------------------------------------
# Diagnostics battery


def _pipeline_closure(spec, cg):
    # one map for every probe input, so H is built and diagonalized once per run
    dyn = evolve.dynamics(cg, spec)
    return lambda rho, times: qcore.bloch_operator(dyn(rho, times).bloch)


def _static_closure(channel, cg):
    def dyn(rho, times):
        # the channel takes one joint state: form them one input at a time
        out = [apply_cg(channel(qcore.kron(f)), cg) for f in maxent.assign(rho, cg).factors]
        return np.broadcast_to(np.array(out)[:, None], (len(out), len(times), 2, 2))

    return dyn


# target: (True for preferential weights, False for equal ones; spec) for the pipeline
# targets, the joint channel for the rest
_DIAG_MODELS = {
    "swap": (True, lambda res: evolve.Swap(omega=res["omega"])),
    "cnot": (True, lambda res: evolve.Cnot(omega=res["omega"])),
    "ising": (False, lambda res: evolve.IsingChain(
        n_spins=int(res["n"]), J=res["J"], g=res["g"], boundary="closed")),
    "linear-nm": (False, lambda res: evolve.LocalZSecond(omega=res["omega"])),
}
_DIAG_CHANNELS = {
    "total-dephasing": channels.total_dephasing,
    "pce-mask": channels.pauli_component_mask,
}
_DIAG_TARGETS = (*_DIAG_MODELS, *_DIAG_CHANNELS, "dyson")


def _run_diagnostics(res):
    target = res["target"]
    t_probe = float(res["t"]) if res["t"] is not None else math.pi / 2
    samples, seed = int(res["samples"]), int(res["seed"])
    tmax, steps = _check_grid(res["tmax"], res["steps"], least=1)
    grid = np.linspace(tmax / steps, tmax, steps)
    report = {"target": target, "seed": seed, "version": __version__}
    derived = {}
    # refused before any 2^n x 2^n state or probe; at g != 0 ising's mixed probes meet the Heisenberg form's cap
    mixed = target == "ising" and res["g"] != 0.0
    cap = evolve.MIXED_MAX_SPINS if mixed else evolve.DENSE_MAX_QUBITS
    if target in (*_DIAG_CHANNELS, "ising") and int(res["n"]) > cap:
        what = "the ising target is" if target == "ising" else "channel targets are"
        raise ValueError(f"{what} capped at {cap} qubits{' at g != 0' if mixed else ''}, got {int(res['n'])}")

    if target in _DIAG_MODELS:
        preferred, make_spec = _DIAG_MODELS[target]
        spec = make_spec(res)
        cg = preferential(spec.n, res["p1"]) if preferred else non_preferential(spec.n)
        if target == "linear-nm" and not res["omega"]:
            raise ValueError("the linear-nm target probes t = pi/omega, so omega must be nonzero")
        derived = _model_facts(cg, spec)
        dyn = _pipeline_closure(spec, cg)
        lin = diagnostics.linearity_probe(dyn, t_probe, samples=samples, seed=seed)
        mk = diagnostics.semigroup_gap(dyn, grid, grid, probes=8, seed=seed)
        if target == "swap":
            # the rate is ln kappa's derivative, undefined at zero radius as kappa is
            rho0 = qcore.density_from_bloch(_kappa_bloch(res))
            r1, r2 = maxent.assign(rho0, cg).solution.per_particle_r
            rates = channels.swap_rate(grid, cg, r1, r2, omega=res["omega"])
            mk = dataclasses.replace(
                mk, rate_sign_changes=diagnostics.negative_rate_intervals(grid, rates)
            )
        if target == "linear-nm":
            # the probe the semigroup violation is sharpest on
            plus = qcore.density_from_bloch([1.0, 0.0, 0.0])
            tpi = math.pi / res["omega"]
            mk_plus = diagnostics.semigroup_gap(dyn, [tpi], [tpi], probes=[plus])
            report["gap_at_pi_on_plus"] = mk_plus.gap
        report["linearity"] = dataclasses.asdict(lin)
        report["semigroup"] = dataclasses.asdict(mk)
        rng = np.random.default_rng(seed)
        report["fuzzy_identity"] = diagnostics.fuzzy_identity_check(
            qcore.random_density(2 ** cg.n, rng), cg
        )
    elif target in _DIAG_CHANNELS:
        n = int(res["n"])
        if target == "pce-mask" and n != 2:
            raise ValueError("the masked-component channel is two sites only")
        channel = _DIAG_CHANNELS[target]
        eq = diagnostics.equal_marginal_check(channel, n, samples=samples // 5 or 1, seed=seed)
        report["equal_marginal"] = dataclasses.asdict(eq)
        cg = non_preferential(n)
        derived = _model_facts(cg)
        lin = diagnostics.linearity_probe(
            _static_closure(channel, cg), 0.0, samples=samples, seed=seed
        )
        report["linearity"] = dataclasses.asdict(lin)
    else:  # dyson
        rho0 = qcore.density_from_bloch(_parse_bloch(res))
        n_max = int(res["n_max"])
        if n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {n_max}")
        ns = list(range(2, n_max + 1))
        norms = diagnostics.dyson_decay([non_preferential(n) for n in ns], rho0)
        report["dyson"] = {
            "n": ns,
            "trace_norms": [float(v) for v in norms],
            "ratios": [float(r) for r in norms[1:] / np.where(norms[:-1] == 0, 1, norms[:-1])],
        }
    _write(res["output"], _json(report))
    return derived


# ---------------------------------------------------------------------------
# Initial-state sweeps


def fibonacci_sphere(count):
    """(theta, phi) pairs roughly evenly spread over the sphere."""
    if count < 1:
        raise ValueError("need at least one state")
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.mod(i * GOLDEN_ANGLE, 2.0 * math.pi)
    return np.column_stack([theta, phi])


def _sweep_states(res):
    if res["state"]:
        return np.asarray([_vector(item, 2, "state theta,phi") for item in res["state"]])
    return fibonacci_sphere(int(res["states"]))


def _run_sweep(res):
    spec = _ising_spec(res)
    cg = _weights(res, spec.n)
    if res["tmax"] is not None:
        res["t"] = None
    times = _time_grid(res)
    states = _sweep_states(res)
    traj = evolve.trajectory(qcore.density_from_bloch(_polar(states[:, 0], states[:, 1])), cg, spec, times)
    per_state = [np.repeat(col, times.size) for col in (np.arange(len(states)), states[:, 0], states[:, 1])]
    columns = [*per_state, np.tile(times, len(states)), *traj.bloch.reshape(-1, 3).T, traj.purity.ravel()]
    header = ["state", "theta", "phi", "t", "rx", "ry", "rz", "purity"]
    _write(res["output"], _csv(header, columns))
    return {**_model_facts(cg, spec), "states": int(states.shape[0])}


# ---------------------------------------------------------------------------
# The experiment table and the parser built from it


class Experiment(NamedTuple):
    """One subcommand. `defaults` is its set of config keys, and so of flags.

    Trajectory rows give `spec` (resolved config -> Hamiltonian spec) and
    optional hooks: `bloch` (config -> initial Bloch vector), `period`
    (config -> tmax when neither t nor tmax is set) and `extra`
    (res, cg, bloch0, rho0, traj -> extra CSV columns, extra derived
    metadata). Other rows give `run` (config -> derived metadata for the
    sidecar).
    """

    help: str
    defaults: dict
    spec: Optional[Callable] = None
    bloch: Callable = _parse_bloch
    period: Optional[Callable] = None
    extra: Optional[Callable] = None
    run: Optional[Callable] = None


_IO = {"output": "-", "metadata": None}
_GATE = {
    "p1": 0.7, "probs": None, "omega": 1.0, "bloch": [0.6, 0.0, 0.3],
    "tmax": 2.0 * math.pi, "steps": 101, "t": None, **_IO,
}
_CHAIN = {"n_spins": 4, "J": 1.0, "g": 0.0, "boundary": "closed", "p1": None, "probs": None}

EXPERIMENTS = {
    "swap-kappa": Experiment(
        "exchange model with kappa and rate columns", _GATE,
        spec=lambda res: evolve.Swap(omega=res["omega"]), bloch=_kappa_bloch, extra=_kappa_rate,
    ),
    "cnot": Experiment(
        "conditional-flip model trajectory", _GATE,
        spec=lambda res: evolve.Cnot(omega=res["omega"]),
    ),
    "field": Experiment(
        "random local frequencies, optional n-body term",
        {
            "n": 10, "p1": 0.5, "probs": None, "mu": 1.5, "sigma": 0.2, "seed": 0,
            "interaction": False, "bloch": [0.8, 0.0, 0.0],
            "tmax": "4tc", "steps": 401, "t": None, **_IO,
        },
        spec=_field_spec, extra=_field_facts,
    ),
    "ising": Experiment(
        "transverse-field chain trajectory",
        {
            **_CHAIN, "theta": math.pi / 2, "phi": 0.0, "bloch": None,
            "tmax": None, "steps": 101, "t": None, **_IO,
        },
        spec=_ising_spec, bloch=_ising_bloch,
        period=lambda res: math.pi / abs(res["J"]) if res["J"] else math.pi,
    ),
    "linear-nm": Experiment(
        "local-field model, linear but memoryful",
        {"omega": 1.0, "bloch": [1.0, 0.0, 0.0], "tmax": None, "steps": 101, "t": None, **_IO},
        spec=lambda res: evolve.LocalZSecond(omega=res["omega"]),
        period=lambda res: 2.0 * math.pi / abs(res["omega"]) if res["omega"] else 2.0 * math.pi,
        extra=_circle,
    ),
    "diagnostics": Experiment(
        "linearity/memory probe battery as JSON",
        {
            "target": "swap", "p1": 0.7, "n": 2, "omega": 1.0, "J": 1.0, "g": 0.0,
            "t": None, "tmax": math.pi, "steps": 25, "samples": 100, "seed": 0,
            "bloch": [0.6, 0.0, 0.5], "n_max": 8, **_IO,
        },
        run=_run_diagnostics,
    ),
    "sweep": Experiment(
        "many initial pure states through one model",
        {"states": 64, "state": None, **_CHAIN, "tmax": None, "steps": 2, "t": 0.9, **_IO},
        run=_run_sweep,
    ),
}

# argparse options per config key; each row appends "(default X)" to the help
_FLAGS = {
    "target": dict(choices=_DIAG_TARGETS, help="what the battery probes"),
    "states": dict(type=int, help="Fibonacci-sphere state count"),
    "state": dict(
        action="append", help="explicit 'theta,phi' pair; repeat for a list (overrides --states)"
    ),
    "n": dict(type=int, help="number of sites"),
    "n_spins": dict(type=int, help="chain length"),
    "J": dict(type=float, help="coupling"),
    "g": dict(type=float, help="transverse field"),
    "boundary": dict(choices=["closed", "open"], help="chain boundary"),
    "p1": dict(type=float, help="first-site weight (unset: equal weights)"),
    "probs": dict(help="explicit weights, e.g. '0.7,0.3' (overrides --p1)"),
    "omega": dict(type=float, help="model frequency"),
    "mu": dict(type=float, help="frequency mean"),
    "sigma": dict(type=float, help="frequency spread"),
    "seed": dict(type=int, help="random seed"),
    "interaction": dict(action=argparse.BooleanOptionalAction, help="include the n-body term"),
    "theta": dict(type=float, help="initial polar angle (--bloch overrides theta and phi)"),
    "phi": dict(type=float, help="initial azimuth"),
    "bloch": dict(help="initial effective state 'rx,ry,rz'"),
    "samples": dict(type=int, help="probe count"),
    "n_max": dict(type=int, help="largest n for dyson decay"),
    "tmax": dict(help="grid endpoint; field runs accept a 'tc' suffix"),
    "steps": dict(type=int, help="number of grid points"),
    "t": dict(type=float, help="single evaluation time instead of a grid"),
    "output": dict(help="output path, or - for stdout"),
    "metadata": dict(help="metadata JSON path (default: next to the output)"),
}


def _show(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@functools.cache
def build_parser():
    """The argparse tree for every experiment, built once per process: parsing
    leaves it unchanged (the `append` action for `--state` copies its list)."""
    parser = argparse.ArgumentParser(
        prog="cgdyn",
        description="Effective single-qubit dynamics of coarse-grained many-qubit systems",
    )
    parser.add_argument("--version", action="version", version=f"cgdyn {__version__}")
    subs = parser.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")
    for name, row in EXPERIMENTS.items():
        sub = subs.add_parser(name, help=row.help)
        sub.add_argument("--config", help="JSON file with config values (flags override)")
        for key, default in row.defaults.items():
            opts = dict(_FLAGS[key])
            if default is not None:
                opts["help"] += f" (default {_show(default)})"
            flags = ["--" + key.replace("_", "-")] + (["-o"] if key == "output" else [])
            sub.add_argument(*flags, **opts)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2 for
        # numeric failure, so fold usage problems into the validation code
        return 0 if exc.code == 0 else 1
    row = EXPERIMENTS[args.experiment]
    try:
        res = _resolve(args, row.defaults)
        derived = row.run(res) if row.run is not None else _run_trajectory(row, res)
        _write_metadata(res, args.experiment, derived)
        return 0
    except qcore.PositivityError as exc:
        print(f"cgdyn: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"cgdyn: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
