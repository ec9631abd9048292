import dataclasses
import json
import math

import numpy as np
import pytest

from cgdyn import channels, cli, diagnostics, evolve, maxent, qcore
from cgdyn.coarse_grain import apply_cg, non_preferential, preferential


def _pipeline(spec, cg):
    return lambda rho, times: qcore.bloch_operator(evolve.trajectory(rho, cg, spec, times).bloch)


def _static(channel, cg):
    # a channel takes one joint state, so each input of the stack forms its own
    def dyn(rho, times):
        out = np.array([apply_cg(channel(qcore.kron(f)), cg) for f in maxent.assign(rho, cg).factors])
        return np.repeat(out[:, None], len(times), axis=1)

    return dyn


# ---------------------------------------------------------------------------
# Linearity


def test_linear_dynamics_probe_clean():
    dyn = _pipeline(evolve.LocalZSecond(omega=1.0), non_preferential(2))
    rep = diagnostics.linearity_probe(dyn, 1.3, samples=50, seed=3)
    assert rep.max_violation < 1e-12


def test_swap_preferential_is_nonlinear():
    dyn = _pipeline(evolve.Swap(omega=1.0), preferential(2, 0.7))
    rep = diagnostics.linearity_probe(dyn, math.pi / 2, samples=60, seed=3)
    assert rep.max_violation > 1e-3
    assert rep.witness["t"] == math.pi / 2
    # the stored witness replays to the same violation
    replay = diagnostics.replay_linearity_witness(dyn, rep.witness)
    assert replay == pytest.approx(rep.max_violation, rel=1e-12)


def test_linearity_probe_deterministic():
    dyn = _pipeline(evolve.Swap(omega=1.0), preferential(2, 0.6))
    a = diagnostics.linearity_probe(dyn, 0.9, samples=20, seed=11)
    b = diagnostics.linearity_probe(dyn, 0.9, samples=20, seed=11)
    assert a.max_violation == b.max_violation
    assert a.witness == b.witness


def test_equal_action_channel_linear():
    cg = non_preferential(2)
    dyn = _static(channels.total_dephasing, cg)
    rep = diagnostics.linearity_probe(dyn, 0.0, samples=40, seed=5)
    assert rep.max_violation < 1e-12


def test_identical_local_unitaries_linear(rng):
    # same unitary on every site commutes with the averaging: linear exactly
    cg = non_preferential(3)
    h1 = qcore.SIGMA_X * 0.3 + qcore.SIGMA_Z * 0.9

    def channel(joint):
        i2 = qcore.IDENTITY_2
        h = qcore.kron([h1, i2, i2]) + qcore.kron([i2, h1, i2]) + qcore.kron([i2, i2, h1])
        return qcore.propagate(*qcore.eigensystem(h), joint, 0.77)
    rep = diagnostics.linearity_probe(_static(channel, cg), 0.0, samples=30, seed=7)
    assert rep.max_violation < 1e-12


def test_linearity_probe_needs_samples():
    with pytest.raises(ValueError):
        diagnostics.linearity_probe(lambda r, t: r, 0.1, samples=0)


def test_equal_marginal_check_needs_samples():
    # zero samples would report holds=True with nothing compared
    with pytest.raises(ValueError, match="at least one sample"):
        diagnostics.equal_marginal_check(channels.total_dephasing, 3, samples=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_probes_refuse_non_finite_outputs(bad):
    # a NaN or infinite output is an error, not a distance that a > scan or
    # max() passes over (a linearity report would keep -1.0 and no witness)
    def spoil(rho):
        out = np.array(rho, dtype=complex)
        out[..., 0, 1] = bad
        return out

    def dyn(rho, times):
        return spoil(np.repeat(rho[:, None], len(times), axis=1))

    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        diagnostics.linearity_probe(dyn, 0.5, samples=3)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        diagnostics.semigroup_gap(dyn, [0.1, 0.2], [0.1], probes=2)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        diagnostics.equal_marginal_check(spoil, 2, samples=2)


# ---------------------------------------------------------------------------
# Semigroup structure


def test_unitary_dynamics_semigroup_clean():
    def dyn(rho, times):
        h = 0.7 * qcore.SIGMA_Z + 0.2 * qcore.SIGMA_X
        return np.array([[qcore.propagate(*qcore.eigensystem(h), r, t) for t in times] for r in rho])

    rep = diagnostics.semigroup_gap(dyn, np.linspace(0.1, 2, 5), np.linspace(0.1, 2, 5))
    assert rep.gap < 1e-12


def test_swap_nonpreferential_frozen():
    # equal weights freeze the effective state, trivially a semigroup
    dyn = _pipeline(evolve.Swap(omega=1.0), non_preferential(2))
    rep = diagnostics.semigroup_gap(dyn, [0.4, 1.1], [0.3, 0.9], probes=4, seed=1)
    assert rep.gap < 1e-12


def test_linear_nm_gap_on_plus():
    dyn = _pipeline(evolve.LocalZSecond(omega=1.0), non_preferential(2))
    plus = qcore.density_from_bloch([1.0, 0.0, 0.0])
    rep = diagnostics.semigroup_gap(dyn, [math.pi], [math.pi], probes=[plus])
    assert rep.gap == pytest.approx(1.0, abs=1e-10)
    assert rep.argmax_t == math.pi and rep.argmax_s == math.pi


def test_rate_and_semigroup_consistency():
    # wherever the swap rate goes negative, the semigroup gap is visible too
    cg = preferential(2, 0.7)
    rho0 = qcore.density_from_bloch([0.6, 0.0, 0.3])
    r1, r2 = maxent.assign(rho0, cg).solution.per_particle_r
    grid = np.linspace(0.1, math.pi - 0.1, 12)
    rates = channels.swap_rate(grid, cg, r1, r2)
    assert (rates < 0).any()
    rep = diagnostics.semigroup_gap(_pipeline(evolve.Swap(omega=1.0), cg), grid, grid, probes=6, seed=2)
    assert rep.gap > 1e-6


@pytest.mark.parametrize("t_grid, s_grid", [
    ([], [0.5]),
    ([0.5], []),
    ([[0.1, 0.2]], [0.5]),
    ([0.5], [[0.1], [0.2]]),
    ([0.5, 0.2], [0.5]),
    ([0.5], [0.3, 0.3]),
])
def test_semigroup_gap_rejects_bad_grids(t_grid, s_grid):
    def dyn(rho, times):
        raise AssertionError("no dynamics call before the grids are checked")

    with pytest.raises(ValueError):
        diagnostics.semigroup_gap(dyn, t_grid, s_grid, probes=1)


@pytest.mark.parametrize("spec", [evolve.Swap(omega=1.0), evolve.Cnot(omega=1.0)])
def test_grid_probes_match_point_loop(spec):
    # the grid calls reproduce a loop of one-point trajectory calls bit for bit
    cg = preferential(2, 0.7)
    grid = np.linspace(0.3, 2.1, 5)

    def gamma(rho, t):
        return qcore.bloch_operator(evolve.trajectory(rho, cg, spec, [t]).bloch[0])

    rng = np.random.default_rng(4)
    gap, arg_t, arg_s, wit = -1.0, math.nan, math.nan, None
    for rho in [qcore.random_density(2, rng) for _ in range(3)]:
        for s in grid:
            mid = gamma(rho, s)
            for t in grid:
                g = qcore.trace_norm(gamma(rho, t + s) - gamma(mid, t))
                if g > gap:
                    gap, arg_t, arg_s = g, float(t), float(s)
                    wit = [float(x) for x in qcore.bloch_from_density(rho)]
    rep = diagnostics.semigroup_gap(_pipeline(spec, cg), grid, grid, probes=3, seed=4)
    assert (rep.gap, rep.argmax_t, rep.argmax_s, rep.witness_bloch) == (gap, arg_t, arg_s, wit)

    rng = np.random.default_rng(5)
    worst, witness = -1.0, None
    for _ in range(6):
        rho_a, rho_b = qcore.random_density(2, rng), qcore.random_density(2, rng)
        w = float(rng.uniform(0.0, 1.0))
        out = gamma(w * rho_a + (1.0 - w) * rho_b, 1.1)
        v = qcore.trace_norm(out - w * gamma(rho_a, 1.1) - (1.0 - w) * gamma(rho_b, 1.1))
        if v > worst:
            worst, witness = v, (rho_a, rho_b, w)
    lin = diagnostics.linearity_probe(_pipeline(spec, cg), 1.1, samples=6, seed=5)
    assert lin.max_violation == worst
    assert lin.witness == {
        "bloch_a": [float(x) for x in qcore.bloch_from_density(witness[0])],
        "bloch_b": [float(x) for x in qcore.bloch_from_density(witness[1])],
        "weight": witness[2],
        "t": 1.1,
    }


def _one(dynamics, rho, times):
    """The closure's outputs for one input, as a stack of one."""
    return np.asarray(dynamics(np.asarray(rho)[None], times))[0]


def _per_s_semigroup_gap(dynamics, t_grid, s_grid, probe_states):
    """The semigroup gap with one single-input call on t_grid + s per s, the reference
    the stacked union grid must reproduce; (gap, argmax_t, argmax_s, witness_bloch)."""
    gap, arg_t, arg_s, wit = -1.0, math.nan, math.nan, None
    for rho in probe_states:
        for s, mid in zip(s_grid, _one(dynamics, rho, s_grid)):
            direct, composed = _one(dynamics, rho, t_grid + s), _one(dynamics, mid, t_grid)
            for t, d, c in zip(t_grid, direct, composed):
                g = qcore.trace_norm(d - c)
                if g > gap:
                    gap, arg_t, arg_s = g, float(t), float(s)
                    wit = [float(x) for x in qcore.bloch_from_density(rho)]
    return gap, arg_t, arg_s, wit


CLI_GRID = np.linspace(math.pi / 25, math.pi, 25)


@pytest.mark.parametrize("t_grid, s_grid, distinct", [
    (CLI_GRID, CLI_GRID, 86),  # 625 sums, 86 distinct
    (np.array([0.11, 0.37, 0.83, 1.29]), np.array([0.05, 0.61, 1.47]), 12),  # no two sums collide
])
def test_semigroup_gap_asks_for_the_union_grid(t_grid, s_grid, distinct):
    # three calls: the probes on the s grid, the probes on every distinct t + s once in
    # increasing order, then every mid on the t grid; the report is the per-s loop's
    # of single-input calls, the gap within 1e-12 and the witness the same
    cg = preferential(2, 0.7)
    pipeline = _pipeline(evolve.Swap(omega=1.0), cg)
    calls = []

    def recorded(rho, times):
        calls.append((len(rho), np.array(times)))
        return pipeline(rho, times)

    rng = np.random.default_rng(6)
    probes = [qcore.random_density(2, rng) for _ in range(3)]
    rep = diagnostics.semigroup_gap(recorded, t_grid, s_grid, probes=probes)
    assert len(calls) == 3
    (n_s, grid_s), (n_u, union), (n_t, grid_t) = calls
    assert union.size == distinct and (np.diff(union) > 0).all()
    assert set(union.tolist()) == set(np.add.outer(s_grid, t_grid).ravel().tolist())
    assert (n_s, n_u, n_t) == (len(probes), len(probes), len(probes) * s_grid.size)
    assert np.array_equal(grid_s, s_grid) and np.array_equal(grid_t, t_grid)
    gap, arg_t, arg_s, wit = _per_s_semigroup_gap(pipeline, t_grid, s_grid, probes)
    assert abs(rep.gap - gap) <= 1e-12
    assert (rep.argmax_t, rep.argmax_s, rep.witness_bloch) == (arg_t, arg_s, wit)


def _looped_linearity(dynamics, t, samples, seed):
    """linearity_probe as single-input calls, one trace norm per sample and a strict > scan."""
    rng = np.random.default_rng(seed)
    worst, witness = -1.0, None
    for _ in range(samples):
        rho_a = qcore.random_density(2, rng)
        rho_b = qcore.random_density(2, rng)
        w = float(rng.uniform(0.0, 1.0))
        mix = w * rho_a + (1.0 - w) * rho_b
        out, out_a, out_b = (_one(dynamics, rho, [t])[0] for rho in (mix, rho_a, rho_b))
        v = qcore.trace_norm(out - w * out_a - (1.0 - w) * out_b)
        if v > worst:
            worst = v
            witness = {
                "bloch_a": [float(x) for x in qcore.bloch_from_density(rho_a)],
                "bloch_b": [float(x) for x in qcore.bloch_from_density(rho_b)],
                "weight": w,
                "t": float(t),
            }
    return diagnostics.LinearityReport(worst, witness, samples, seed)


def _looped_semigroup_gap(dynamics, t_grid, s_grid, probes, seed):
    """semigroup_gap as single-input calls, one stacked trace norm per (probe, s) row
    and a strict > scan."""
    rng = np.random.default_rng(seed)
    sums, where = np.unique(np.add.outer(s_grid, t_grid), return_inverse=True)
    where = where.reshape(s_grid.size, t_grid.size)
    gap, arg_t, arg_s, wit = -1.0, math.nan, math.nan, None
    for rho in [qcore.random_density(2, rng) for _ in range(probes)]:
        mids = _one(dynamics, rho, s_grid)
        directs = _one(dynamics, rho, sums)[where]
        for s, mid, direct in zip(s_grid, mids, directs):
            gaps = qcore.trace_norm(direct - _one(dynamics, mid, t_grid))
            j = int(np.argmax(gaps))
            if gaps[j] > gap:
                gap, arg_t, arg_s = float(gaps[j]), float(t_grid[j]), float(s)
                wit = [float(x) for x in qcore.bloch_from_density(rho)]
    return diagnostics.MarkovReport(gap, arg_t, arg_s, wit)


_EXACT = {
    "identity": lambda rho, times: np.repeat(np.asarray(rho)[:, None], len(times), axis=1),
    "zero": lambda rho, times: np.zeros((len(rho), len(times), 2, 2), dtype=complex),
}


def _same_report(got, want):
    # the value within 1e-12 of the single-input loop's, everything else identical
    value = "max_violation" if hasattr(got, "max_violation") else "gap"
    assert abs(getattr(got, value) - getattr(want, value)) <= 1e-12
    assert dataclasses.replace(got, **{value: 0.0}) == dataclasses.replace(want, **{value: 0.0})


@pytest.mark.parametrize("closure", ["pipeline", "identity", "zero"])
def test_stacked_probes_match_the_loops(closure):
    # one stack per probe call, scored by one stacked trace norm, gives the reports of
    # the single-input loops; the identity's and the zero map's semigroup gaps, and the
    # zero map's violations, are all exactly 0, so those reports are the first (probe,
    # s, t) and the first sample
    if closure == "pipeline":
        dyn = evolve.dynamics(preferential(2, 0.7), evolve.Swap(omega=1.0))
        dynamics = lambda rho, times: qcore.bloch_operator(dyn(rho, times).bloch)  # noqa: E731
    else:
        dynamics = _EXACT[closure]
    grid = np.linspace(math.pi / 6, math.pi, 6)
    for seed in (0, 1, 2):
        got = diagnostics.linearity_probe(dynamics, 1.1, samples=20, seed=seed)
        _same_report(got, _looped_linearity(dynamics, 1.1, 20, seed))
        if closure == "zero":
            first = diagnostics.linearity_probe(dynamics, 1.1, samples=1, seed=seed)
            assert got.max_violation == 0.0 and got.witness == first.witness
        got = diagnostics.semigroup_gap(dynamics, grid, grid[:4], probes=3, seed=seed)
        _same_report(got, _looped_semigroup_gap(dynamics, grid, grid[:4], 3, seed))
        if closure != "pipeline":
            assert (got.gap, got.argmax_t, got.argmax_s) == (0.0, grid[0], grid[0])


def test_diagnostics_cli_trajectory_calls(tmp_path, monkeypatch):
    # one map per run; one stacked call on it for the linearity samples, and three
    # for the semigroup probes: on the s grid, on the union of the sums t + s and
    # all the mids on the t grid
    built, calls = [], []
    inner = evolve.dynamics

    def counted(*args, **kwargs):
        dyn = inner(*args, **kwargs)
        built.append(1)

        def call(*a, **kw):
            calls.append(1)
            return dyn(*a, **kw)

        return call

    monkeypatch.setattr(evolve, "dynamics", counted)
    # one stacked trace norm for the linearity samples and one per probe;
    # each closure call steps its (input, point) pairs in one propagate call
    # (d = 4: 256 pairs per block)
    norms, steps = [], []
    for name, log in (("trace_norm", norms), ("propagate", steps)):
        def logged(*a, real=getattr(qcore, name), log=log):
            log.append(1)
            return real(*a)
        monkeypatch.setattr(qcore, name, logged)
    argv = ["diagnostics", "--target", "swap", "--samples", "5", "--steps", "4",
            "--output", str(tmp_path / "swap.json")]
    assert cli.main(argv) == 0
    assert len(built) == 1
    assert len(calls) == 1 + 3
    assert len(norms) == 1 + 8
    assert len(steps) == len(calls)


def test_negative_rate_intervals():
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    rates = np.array([1.0, -0.5, -0.2, 0.3, -0.1, -0.4])
    ivs = diagnostics.negative_rate_intervals(times, rates)
    assert ivs == ((1.0, 3.0), (4.0, 5.0))
    assert diagnostics.negative_rate_intervals(times, np.ones(6)) == ()
    with pytest.raises(ValueError):
        diagnostics.negative_rate_intervals(times, rates[:3])
    # an unknown rate is neither negative nor not; an unknown time has no place
    for t, r in (([0.0, 1.0, 2.0, 3.0], [-1.0, np.nan, 1.0, -1.0]),
                 ([0.0, 1.0], [np.nan, np.nan]),
                 ([0.0, np.nan, 2.0], [1.0, -1.0, 1.0]),
                 ([0.0, 1.0], [-np.inf, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            diagnostics.negative_rate_intervals(t, r)


# ---------------------------------------------------------------------------
# Equal-marginal channels


def test_total_dephasing_equal_marginal():
    for n in (2, 3):
        rep = diagnostics.equal_marginal_check(channels.total_dephasing, n, samples=10, seed=4)
        assert rep.holds
        assert rep.max_deviation < 1e-12
        assert rep.commutation_deviation < 1e-12
        # induced single-site map kills the transverse components
        assert np.allclose(rep.induced_linear, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
        assert np.allclose(rep.induced_shift, 0.0, atol=1e-12)


def test_pce_mask_equal_marginal():
    rep = diagnostics.equal_marginal_check(channels.pauli_component_mask, 2, samples=10, seed=4)
    assert rep.holds
    # induced map keeps only the y component: dephasing along y
    assert np.allclose(rep.induced_linear, np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_cnot_conjugation_not_equal_marginal():
    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)

    def chan(rho):
        return cnot @ rho @ cnot.conj().T

    rep = diagnostics.equal_marginal_check(chan, 2, samples=10, seed=4)
    assert not rep.holds
    assert rep.max_deviation > 1e-3


def test_equal_marginal_check_needs_two_sites():
    with pytest.raises(ValueError):
        diagnostics.equal_marginal_check(lambda r: r, 1)


# ---------------------------------------------------------------------------
# Interaction-commutator decay


def test_dyson_decay_closed_form_vs_dense(rng):
    # brute force the coarse-grained commutator for small n
    rho_eff = qcore.density_from_bloch([0.6, 0.0, 0.5])
    for n in range(2, 7):
        cg = non_preferential(n)
        got = diagnostics.dyson_decay([cg], rho_eff)[0]
        factors = maxent.assign(rho_eff, cg).factors
        joint = qcore.kron(list(factors))
        h_int = qcore.kron([qcore.SIGMA_Z] * n)
        comm = h_int @ joint - joint @ h_int
        want = qcore.trace_norm(apply_cg(comm, cg))
        assert got == pytest.approx(want, abs=1e-12)


def test_dyson_decay_scaling():
    rho_eff = qcore.density_from_bloch([0.6, 0.0, 0.5])
    cgs = [non_preferential(n) for n in range(2, 11)]
    norms = diagnostics.dyson_decay(cgs, rho_eff)
    # uniform weights: norm = |r_z|^(n-1) * 2 sqrt(rx^2 + ry^2)
    for i, n in enumerate(range(2, 11)):
        want = 0.5 ** (n - 1) * 2 * 0.6
        assert norms[i] == pytest.approx(want, rel=1e-12)
    assert (np.diff(norms) < 0).all()


def test_dyson_decay_transverse_exact_zero():
    rho_eff = qcore.density_from_bloch([0.5, 0.3, 0.0])
    norms = diagnostics.dyson_decay([non_preferential(n) for n in (2, 4)], rho_eff)
    assert (norms == 0.0).all()


# ---------------------------------------------------------------------------
# Identities and serialization


def test_fuzzy_identity(rng):
    cg = preferential(3, 0.5)
    for _ in range(5):
        assert diagnostics.fuzzy_identity_check(qcore.random_density(8, rng), cg) < 1e-12
    assert diagnostics.fuzzy_identity_check(np.eye(8, dtype=complex) / 8, cg) < 1e-15


def test_reports_serialize():
    dyn = _pipeline(evolve.Swap(omega=1.0), preferential(2, 0.7))
    lin = diagnostics.linearity_probe(dyn, 0.5, samples=5, seed=0)
    mk = diagnostics.semigroup_gap(dyn, [0.5], [0.5], probes=2, seed=0)
    eq = diagnostics.equal_marginal_check(channels.total_dephasing, 2, samples=3, seed=0)
    for rep in (lin, mk, eq):
        json.dumps(dataclasses.asdict(rep))
    # the swap target's rate intervals come out as nested lists
    rated = dataclasses.replace(mk, rate_sign_changes=((0.5, 1.0), (2.0, 2.5)))
    doc = json.loads(json.dumps(dataclasses.asdict(rated)))
    assert doc["rate_sign_changes"] == [[0.5, 1.0], [2.0, 2.5]]
