"""The benchmark's three workloads: op lists, warm-up and correctness checks.

Each workload is a fixed list of ops run in order by one client; the next op
starts only when the previous one returns. An op's output is checked after
the timed passes against a reference that does not rerun the op's own route:
cgdyn's closed forms in `channels`, the other route where two routes run, or
the benchmark's own code in `reference`. Every op is also checked for
|r| <= 1 and, where the Hamiltonian is diagonal, a conserved z component.
References are imported and built only when checking, so they stay out of
the measured set-up time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-10
RADIUS_SLACK = 1e-12
FIELD_MU, FIELD_SIGMA = 1.5, 0.2
CHAIN_J, CHAIN_G = 1.0, 0.5


@dataclass
class Op:
    """One call into cgdyn. `run(out_dir)` returns what `check` inspects."""

    label: str
    run: Callable
    points: int = 0
    check: Callable = field(default=None, repr=False)


def _max_dev(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max())


def _bloch_errors(bloch, want, rz0=None):
    """Problems with a (T, 3) Bloch array: reference mismatch, radius, z drift."""
    errors = []
    dev = _max_dev(bloch, want)
    if not dev <= TOL:
        errors.append(f"differs from reference by {dev:.3e}")
    radius = float(np.sqrt((np.asarray(bloch) ** 2).sum(axis=1)).max())
    if radius > 1.0 + RADIUS_SLACK:
        errors.append(f"Bloch radius {radius!r} > 1")
    if rz0 is not None:
        drift = float(np.abs(np.asarray(bloch)[:, 2] - rz0).max())
        if drift > TOL:
            errors.append(f"z component drifts by {drift:.3e} under a diagonal Hamiltonian")
    return errors


def _random_bloch(rng, pure):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v if pure else v * rng.uniform(0.3, 0.9)


def _bloch_from_density(rho):
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def _trace_norm_2x2(m):
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


# ---------------------------------------------------------------------------
# Trajectory ladders: joint-state and large-n


@dataclass
class TrajectoryCase:
    label: str
    model: str  # "field", "field-nbody" or "chain"
    n: int
    bloch: np.ndarray
    probs: np.ndarray
    times: np.ndarray
    g: float = 0.0
    omegas: np.ndarray = None
    method: str = "auto"
    reference: str = "own"  # "own" (module `reference`), "fast" route, or "ising_effective"


def joint_state_cases(seed):
    """The 2^n joint-state ladder: dense field, mixed chain, state-vector chain.

    The state-vector sizes straddle n=12, where the route switches from a
    dense eigendecomposition to Krylov steps; n=11 and n=12 are left out only
    because they take minutes.
    """
    rng = np.random.default_rng([seed, 1])
    cases = []
    for n in (8, 9, 10):
        cases.append(TrajectoryCase(
            f"dense.n{n}", "field-nbody", n, _random_bloch(rng, False), rng.dirichlet(np.ones(n)),
            np.linspace(0.0, 3.0, 10), omegas=rng.normal(FIELD_MU, FIELD_SIGMA, n),
            method="dense", reference="fast",
        ))
    for n in (6, 7, 8):
        cases.append(TrajectoryCase(
            f"dense.chain.n{n}", "chain", n, _random_bloch(rng, False), rng.dirichlet(np.ones(n)),
            np.linspace(0.0, 2.0, 20), g=CHAIN_G,
        ))
    for n in (10, 13, 14, 15):
        cases.append(TrajectoryCase(
            f"statevector.n{n}", "chain", n, _random_bloch(rng, True), rng.dirichlet(np.ones(n)),
            np.linspace(0.0, 2.0, 10), g=CHAIN_G,
        ))
    return cases


def large_n_cases(seed):
    """Fast product routes: the field with and without the n-body term, the g=0 chain."""
    rng = np.random.default_rng([seed, 2])
    cases = []
    for nbody in (False, True):
        for n in (1000, 3000, 10000):
            cases.append(TrajectoryCase(
                f"fast.{'nbody.' if nbody else ''}n{n}", "field-nbody" if nbody else "field", n,
                _random_bloch(rng, False), rng.dirichlet(np.ones(n)), np.linspace(0.0, 5.0, 101),
                omegas=rng.normal(FIELD_MU, FIELD_SIGMA, n),
            ))
    for n in (50, 100, 200):
        cases.append(TrajectoryCase(
            f"fast.chain.n{n}", "chain", n, _random_bloch(rng, True), rng.dirichlet(np.ones(n)),
            np.linspace(0.0, 3.0, 101), reference="ising_effective",
        ))
    return cases


class TrajectoryWorkload:
    """A ladder of `evolve.trajectory` calls, one op each.

    `blas` says whether the ops spend their time in multi-threaded BLAS, which
    picks the calibration kernel their times are scaled by.
    """

    def __init__(self, cases, blas):
        from cgdyn import coarse_grain, evolve, qcore

        self.blas = blas
        self.ops = []
        for case in cases:
            if case.model == "chain":
                spec = evolve.IsingChain(case.n, J=CHAIN_J, g=case.g)
            else:
                spec = evolve.FieldAllToAll(tuple(case.omegas), include_interaction=case.model == "field-nbody")
            rho = qcore.density_from_bloch(case.bloch)
            cg = coarse_grain.custom(case.probs)
            run = _trajectory_runner(rho, cg, spec, case.times, case.method)
            self.ops.append(Op(case.label, run, points=case.times.size,
                               check=_TrajectoryCheck(case, rho, cg, spec)))

    def warm_up(self, out_dir):
        """Run the first op, the cheapest of the ladder, and import what routes load lazily."""
        import scipy.sparse.linalg  # noqa: F401  (the Krylov route imports it at call time)

        self.ops[0].run(out_dir)


def _trajectory_runner(rho, cg, spec, times, method):
    from cgdyn import evolve

    def run(_out_dir):
        return evolve.trajectory(rho, cg, spec, times, method=method).bloch

    return run


class _TrajectoryCheck:
    """Compares every pass's Bloch array with one reference, built on first use."""

    def __init__(self, case, rho, cg, spec):
        self.case, self.rho, self.cg, self.spec = case, rho, cg, spec
        self.want = None

    def _reference(self):
        import reference
        from cgdyn import channels, evolve

        case = self.case
        if case.reference == "fast":
            return evolve.trajectory(self.rho, self.cg, self.spec, case.times, method="fast").bloch
        if case.reference == "ising_effective":
            u = case.bloch
            theta, phi = math.acos(u[2]), math.atan2(u[1], u[0])
            return np.array([
                _bloch_from_density(channels.ising_effective(theta, phi, t, J=CHAIN_J)) for t in case.times
            ])
        if case.model == "chain":
            return reference.chain(case.bloch, case.probs, case.times, CHAIN_J, case.g)
        return reference.field(case.bloch, case.probs, case.omegas, case.times, case.model == "field-nbody")

    def __call__(self, bloch):
        if self.want is None:
            self.want = self._reference()
        case = self.case
        diagonal = case.model != "chain" or case.g == 0.0
        return _bloch_errors(bloch, self.want, case.bloch[2] if diagonal else None)


# ---------------------------------------------------------------------------
# configs: the shipped experiment files through the CLI


class ConfigsWorkload:
    """The shipped `configs/*.json`, each run in-process through `cgdyn.cli.main`.

    The inputs are fixed, so the seed does not apply. Every pass writes into
    its own directory; the first pass is checked against references and later
    passes must reproduce its bytes.
    """

    blas = False

    def __init__(self, root):
        config_dir = Path(root) / "configs"
        self.manifest = json.loads((config_dir / "checksums.json").read_text(encoding="utf-8"))
        self.ops = []
        for stem in config_stems(root):
            path = config_dir / f"{stem}.json"
            cfg = json.loads(path.read_text(encoding="utf-8"))
            self.ops.append(Op(path.stem, _config_runner(path, cfg["experiment"]), check=_ConfigCheck(cfg)))

    def warm_up(self, out_dir):
        """Run the cheapest config once."""
        next(op for op in self.ops if op.label == "linear-nm-circle").run(out_dir)

    def checksum_mismatches(self, outputs):
        """Configs whose output in one pass differs from `configs/checksums.json`.

        Informational: the manifest records another machine's bytes, so a
        mismatch is reported here and not counted as a failed op.
        """
        bad = []
        for op, (_code, out) in zip(self.ops, outputs):
            expected = self.manifest.get(out.stem + ".json", {}).get("sha256")
            if hashlib.sha256(out.read_bytes()).hexdigest() != expected:
                bad.append(op.label)
        return bad

    def bytes_written(self, outputs):
        return sum(len(data) for _code, out in outputs for data in _read_outputs(out).values())


def _config_runner(path, experiment):
    from cgdyn import cli

    suffix = ".json" if experiment == "diagnostics" else ".csv"

    def run(out_dir):
        out = Path(out_dir) / (path.stem + suffix)
        return cli.main([experiment, "--config", str(path), "--output", str(out)]), out

    return run


def _read_outputs(out):
    files = {out.name: out.read_bytes()}
    meta = out.with_suffix(".meta.json")
    if meta.exists():
        files[meta.name] = meta.read_bytes()
    return files


class _ConfigCheck:
    """Exit code; the first output against references, later ones against its bytes."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.first = None  # (files, errors) of the first output checked

    def __call__(self, output):
        code, out = output
        if code != 0:
            return [f"cli exited {code}"]
        files = _read_outputs(out)
        if self.first is None:
            self.first = (files, self._reference_errors(files[out.name]))
        elif files != self.first[0]:
            return ["output bytes differ from the first pass"]
        return self.first[1]

    def _reference_errors(self, data):
        experiment = self.cfg["experiment"]
        if experiment == "diagnostics":
            return _diagnostics_errors(self.cfg, json.loads(data))
        rows = np.loadtxt(data.decode("utf-8").splitlines()[1:], delimiter=",", ndmin=2)
        if experiment == "sweep":
            return _sweep_errors(self.cfg, rows)
        times, want, extra = _trajectory_reference(self.cfg)
        errors = []
        if _max_dev(rows[:, 0], times) > TOL:
            errors.append("time grid differs from the configured grid")
        bloch = rows[:, 1:4]
        diagonal = experiment in ("field", "linear-nm")
        errors += _bloch_errors(bloch, want, want[0, 2] if diagonal else None)
        purity = 0.5 * (1.0 + (bloch ** 2).sum(axis=1))
        if _max_dev(rows[:, 4], purity) > TOL:
            errors.append("purity column is not (1 + |r|^2)/2")
        if extra is not None and _max_dev(rows[:, 5], extra) > TOL:
            errors.append("kappa column differs from the closed form")
        return errors


def _preferential(n, p1):
    probs = np.full(n, (1.0 - p1) / (n - 1))
    probs[0] = p1
    return probs


def _trajectory_reference(cfg):
    """(times, Bloch reference, kappa column or None) for a trajectory config."""
    import reference
    from cgdyn import channels, coarse_grain, qcore

    experiment = cfg["experiment"]
    b = np.asarray(cfg["bloch"], dtype=float)
    if experiment == "field":
        n, sigma = int(cfg["n"]), float(cfg["sigma"])
        omegas = np.random.default_rng(int(cfg["seed"])).normal(float(cfg["mu"]), sigma, size=n)
        factor = cfg["tmax"].strip().lower()[:-2].strip()
        tmax = (float(factor) if factor else 1.0) * 2.0 * math.pi / sigma
        times = np.linspace(0.0, tmax, int(cfg["steps"]))
        want = reference.field(b, _preferential(n, float(cfg["p1"])), omegas, times, bool(cfg.get("interaction")))
        return times, want, None
    times = np.linspace(0.0, float(cfg["tmax"]), int(cfg["steps"]))
    omega = float(cfg["omega"])
    if experiment == "linear-nm":
        return times, channels.linear_nm_circle(b, omega, times), None
    cg = coarse_grain.preferential(2, float(cfg["p1"]))
    if experiment == "cnot":
        rho = qcore.density_from_bloch(b)
        want = np.array([_bloch_from_density(channels.cnot_effective(rho, cg, t, omega=omega)) for t in times])
        return times, want, None
    # swap-kappa: the exchange model contracts the input isotropically by kappa(t)
    r0 = float(np.linalg.norm(b))
    r1, r2 = reference.site_radii(r0, cg.probs)
    kappa = channels.kappa_swap(times, cg, r1, r2, r0, omega=omega)
    return times, kappa[:, None] * b[None, :], kappa


def _sweep_errors(cfg, rows):
    """Pure symmetric chain inputs on a Fibonacci sphere, one row per (state, t)."""
    import reference
    from cgdyn import channels

    count, n = int(cfg["states"]), int(cfg["n_spins"])
    J, g, t = float(cfg["J"]), float(cfg["g"]), float(cfg["t"])
    i = np.arange(count)
    theta = np.arccos(np.clip(1.0 - 2.0 * (i + 0.5) / count, -1.0, 1.0))
    phi = np.mod(i * math.pi * (3.0 - math.sqrt(5.0)), 2.0 * math.pi)
    if rows.shape[0] != count:
        return [f"{rows.shape[0]} rows for {count} states"]
    errors = []
    if _max_dev(rows[:, 1:3], np.column_stack([theta, phi])) > TOL or _max_dev(rows[:, 3], np.full(count, t)) > TOL:
        errors.append("state or time columns differ from the configured sweep")
    want = np.empty((count, 3))
    for k in range(count):
        if g == 0.0:
            want[k] = _bloch_from_density(channels.ising_effective(theta[k], phi[k], t, J=J))
        else:
            u = [math.sin(theta[k]) * math.cos(phi[k]), math.sin(theta[k]) * math.sin(phi[k]), math.cos(theta[k])]
            want[k] = reference.chain(u, np.full(n, 1.0 / n), [t], J, g)[0]
    errors += _bloch_errors(rows[:, 4:7], want, np.cos(theta) if g == 0.0 else None)
    return errors


def _diagnostics_errors(cfg, report):
    """Replay the stored witnesses through the exchange model's closed form."""
    from cgdyn import channels, coarse_grain, qcore

    if report.get("target") != "swap":
        return [f"unexpected diagnostics target {report.get('target')!r}"]
    cg = coarse_grain.preferential(2, float(cfg["p1"]))

    def dyn(rho, t):
        return channels.swap_effective(rho, cg, t)

    errors = []
    lin = report["linearity"]
    w = lin["witness"]
    rho_a, rho_b = qcore.density_from_bloch(w["bloch_a"]), qcore.density_from_bloch(w["bloch_b"])
    mix = w["weight"] * rho_a + (1.0 - w["weight"]) * rho_b
    v = _trace_norm_2x2(dyn(mix, w["t"]) - w["weight"] * dyn(rho_a, w["t"]) - (1.0 - w["weight"]) * dyn(rho_b, w["t"]))
    if abs(v - lin["max_violation"]) > TOL:
        errors.append(f"linearity witness replays to {v!r}, report says {lin['max_violation']!r}")
    sg = report["semigroup"]
    rho = qcore.density_from_bloch(sg["witness_bloch"])
    t, s = sg["argmax_t"], sg["argmax_s"]
    gap = _trace_norm_2x2(dyn(rho, t + s) - dyn(dyn(rho, s), t))
    if abs(gap - sg["gap"]) > TOL:
        errors.append(f"semigroup witness replays to {gap!r}, report says {sg['gap']!r}")
    if abs(report["fuzzy_identity"]) > TOL:
        errors.append(f"fuzzy identity residual {report['fuzzy_identity']!r}")
    return errors


WORKLOADS = ("configs", "joint-state", "large-n")


def build(name, root, seed):
    if name == "configs":
        return ConfigsWorkload(root)
    if name == "joint-state":
        return TrajectoryWorkload(joint_state_cases(seed), blas=True)
    if name == "large-n":
        return TrajectoryWorkload(large_n_cases(seed), blas=False)
    raise ValueError(f"unknown workload {name!r}")


def ladder_labels():
    """Every trajectory op label; the names do not depend on the seed."""
    return [case.label for case in joint_state_cases(0) + large_n_cases(0)]


def config_stems(root):
    return sorted(p.stem for p in (Path(root) / "configs").glob("*.json") if p.name != "checksums.json")
