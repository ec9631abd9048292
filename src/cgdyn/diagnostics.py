"""Probes that classify an effective dynamics: linearity, memory, identities.

Every probe takes the dynamics as a closure `dyn(rho, times)` so that the
same machinery applies to pipeline trajectories, closed-form predictors, or
any user-supplied map. `times` is a nonempty, strictly increasing 1-d grid,
and the closure returns one 2x2 output per grid point, stacked along the
first axis: the shape `evolve.trajectory` produces from one assignment. A
probe asks for whole grids where it can, so a pipeline closure over
`evolve.dynamics` assigns once per (input, grid), not once per time point,
and builds and diagonalizes H once per closure, not once per input.
Random states are drawn Hilbert-Schmidt (mixed) from an explicit seed, and
each report stores the witness that achieved its extremal value so a run
can be replayed from the report alone.

Trace-norm distance is the canonical figure of merit throughout. The
linearity probe scores all its samples, and the semigroup probe all (s, t)
pairs of a probe state, with one stacked trace norm, which keeps each
matrix's bits; ties go to the first sample or (probe, s, t).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import maxent, qcore
from .coarse_grain import apply_cg, fuzzy_operator, non_preferential, custom


@dataclass(frozen=True)
class LinearityReport:
    """Largest mixing violation found and the pair that produced it."""

    max_violation: float
    witness: dict
    samples: int
    seed: int


@dataclass(frozen=True)
class MarkovReport:
    """Semigroup gap over a (t, s) grid, plus optional rate-sign bookkeeping."""

    gap: float
    argmax_t: float
    argmax_s: float
    witness_bloch: list
    rate_sign_changes: tuple = field(default=())


@dataclass(frozen=True)
class EqualMarginalReport:
    """Whether a channel acts the same way on every site's marginal."""

    holds: bool
    max_deviation: float
    commutation_deviation: float
    induced_linear: list
    induced_shift: list
    samples: int
    seed: int
    tol: float


def _mixing_gap(dynamics, rho_a, rho_b, w, t):
    """dyn(w rho_a + (1 - w) rho_b) minus the mixed outputs."""
    mix = w * rho_a + (1.0 - w) * rho_b
    out, out_a, out_b = (dynamics(rho, [t])[0] for rho in (mix, rho_a, rho_b))
    return out - w * out_a - (1.0 - w) * out_b


def linearity_probe(dynamics, t, samples=100, seed=0):
    """Compare dyn(mixture) against the mixture of dyn outputs.

    Returns the worst trace-norm violation over `samples` random
    (rho_a, rho_b, weight) triples. Linear dynamics sit at solver noise;
    assignment-induced nonlinearity shows up at the 1e-1..1e-3 scale.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(samples):
        rho_a, rho_b = qcore.random_density(2, rng), qcore.random_density(2, rng)
        triples.append((rho_a, rho_b, float(rng.uniform(0.0, 1.0))))
    violations = qcore.trace_norm(np.array([_mixing_gap(dynamics, *triple, t) for triple in triples]))
    k = int(np.argmax(violations))
    rho_a, rho_b, w = triples[k]
    witness = {
        "bloch_a": [float(x) for x in qcore.bloch_from_density(rho_a)],
        "bloch_b": [float(x) for x in qcore.bloch_from_density(rho_b)],
        "weight": w,
        "t": float(t),
    }
    return LinearityReport(
        max_violation=float(violations[k]), witness=witness, samples=samples, seed=seed
    )


def replay_linearity_witness(dynamics, witness):
    """Re-evaluate a stored witness; returns its violation."""
    rho_a = qcore.density_from_bloch(np.asarray(witness["bloch_a"]))
    rho_b = qcore.density_from_bloch(np.asarray(witness["bloch_b"]))
    return qcore.trace_norm(_mixing_gap(dynamics, rho_a, rho_b, witness["weight"], witness["t"]))


def semigroup_gap(dynamics, t_grid, s_grid, probes=8, seed=0):
    """sup over (t, s, probe) of || dyn(rho, t+s) - dyn(dyn(rho, s), t) ||_1.

    Both grids must be nonempty and strictly increasing. Each probe costs
    one call on s_grid, one on the sorted distinct sums t + s and one on
    t_grid per s, and one stacked trace norm scores its whole (s, t) grid;
    ties go to the first (probe, s, t) in that order. A closure whose values
    depend on the grid, such as Krylov steps from the previous point, sees
    that union grid and not t_grid + s.
    """
    t_grid = qcore.time_grid(t_grid, "t_grid")
    s_grid = qcore.time_grid(s_grid, "s_grid")
    if isinstance(probes, (int, np.integer)):
        rng = np.random.default_rng(seed)
        probe_states = [qcore.random_density(2, rng) for _ in range(int(probes))]
    else:
        probe_states = [np.asarray(p, dtype=complex) for p in probes]
    if not probe_states:
        raise ValueError("need at least one probe state")
    sums, where = np.unique(np.add.outer(s_grid, t_grid), return_inverse=True)
    where = where.reshape(s_grid.size, t_grid.size)

    gap, arg_t, arg_s, wit = -1.0, float("nan"), float("nan"), None
    for rho in probe_states:
        mids = dynamics(rho, s_grid)
        directs = np.asarray(dynamics(rho, sums))[where]
        gaps = qcore.trace_norm(directs - np.array([dynamics(mid, t_grid) for mid in mids]))
        i, j = np.unravel_index(np.argmax(gaps), gaps.shape)  # the first in (s, t) order
        if gaps[i, j] > gap:
            gap, arg_t, arg_s = float(gaps[i, j]), float(t_grid[j]), float(s_grid[i])
            wit = [float(x) for x in qcore.bloch_from_density(rho)]
    return MarkovReport(gap=gap, argmax_t=arg_t, argmax_s=arg_s, witness_bloch=wit)


def negative_rate_intervals(times, rates):
    """Contiguous grid intervals where the rate is negative.

    ValueError unless times and rates align and are all finite: an unknown
    rate is neither negative nor nonnegative.
    """
    times = np.asarray(times, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if times.shape != rates.shape:
        raise ValueError("times and rates must align")
    if not (np.isfinite(times).all() and np.isfinite(rates).all()):
        raise ValueError("times and rates must be finite")
    intervals = []
    start = None
    for t, r in zip(times, rates):
        if r < 0.0 and start is None:
            start = t
        elif r >= 0.0 and start is not None:
            intervals.append((float(start), float(t)))
            start = None
    if start is not None:
        intervals.append((float(start), float(times[-1])))
    return tuple(intervals)


def _induced_map_from_products(channel, n):
    """Tomography of the single-site action on symmetric product inputs."""
    def out_bloch(r):
        rho = qcore.density_from_bloch(r)
        big = qcore.kron([rho] * n)
        return qcore.bloch_from_density(qcore.partial_trace(channel(big), [1], n))

    shift = out_bloch(np.zeros(3))
    cols = []
    for a in range(3):
        e = np.zeros(3)
        e[a] = 1.0
        cols.append(out_bloch(e) - shift)
    return np.column_stack(cols), shift


def _apply_affine(linear, shift, rho):
    return qcore.bloch_operator(linear @ qcore.bloch_from_density(rho) + shift)


def equal_marginal_check(channel, n, samples=20, seed=0):
    """Does the channel act on every site's marginal as one single-qubit map?

    The candidate map is reconstructed from the channel's action on
    symmetric products, then confronted with random joint inputs on every
    site. When the property holds, coarse graining commutes with the
    channel (checked explicitly against uniform and random weights), and
    the induced effective dynamics is linear.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    if samples < 1:
        raise ValueError("need at least one sample")
    linear, shift = _induced_map_from_products(channel, n)
    rng = np.random.default_rng(seed)

    worst = 0.0
    comm_worst = 0.0
    weights = rng.uniform(0.1, 1.0, size=n)
    cgs = [non_preferential(n), custom(weights / weights.sum())]
    for _ in range(samples):
        big = qcore.random_density(2 ** n, rng)
        out = channel(big)
        for k in range(1, n + 1):
            got = qcore.partial_trace(out, [k], n)
            want = _apply_affine(linear, shift, qcore.partial_trace(big, [k], n))
            worst = max(worst, qcore.trace_norm(got - want))
        for cg in cgs:
            comm = qcore.trace_norm(
                apply_cg(out, cg) - _apply_affine(linear, shift, apply_cg(big, cg))
            )
            comm_worst = max(comm_worst, comm)

    return EqualMarginalReport(
        holds=bool(worst <= qcore.EQUAL_MARGINAL_TOL),
        max_deviation=float(worst),
        commutation_deviation=float(comm_worst),
        induced_linear=[[float(x) for x in row] for row in linear],
        induced_shift=[float(x) for x in shift],
        samples=samples,
        seed=seed,
        tol=qcore.EQUAL_MARGINAL_TOL,
    )


def effective_commutator(cg, rho_eff):
    """C([Z x ... x Z, assigned state]) in closed form.

    For a product input the n-body commutator coarse-grains to
    sum_k p_k [rho_k, Z] prod_{j != k} z_j; the product of z-components is
    what shrinks exponentially with n and buries the odd expansion terms.
    """
    factors = maxent.assign(rho_eff, cg).factors
    excl = qcore.exclusive_products((factors[:, 0, 0] - factors[:, 1, 1]).real)
    out = np.zeros((2, 2), dtype=complex)
    for k, (p, f) in enumerate(zip(cg.probs, factors)):
        if p == 0.0:
            continue
        out += p * excl[k] * (f @ qcore.SIGMA_Z - qcore.SIGMA_Z @ f)
    return out


def dyson_decay(cgs, rho_eff):
    """Trace norm of the coarse-grained interaction commutator per weighting.

    A transverse input (zero z-component) gives exactly zero for every
    entry; otherwise the norms shrink like |r_z|^(n-1) for uniform weights.
    """
    return np.array([qcore.trace_norm(effective_commutator(cg, rho_eff)) for cg in cgs])


def fuzzy_identity_check(rho, cg):
    """max over axes of |Tr[sigma C(rho)] - Tr[G rho]| (should be ~0 always)."""
    rho = np.asarray(rho, dtype=complex)
    eff = apply_cg(rho, cg)
    worst = 0.0
    for a in qcore.AXES:
        lhs = np.trace(qcore.pauli(a) @ eff)
        rhs = np.trace(fuzzy_operator(a, cg) @ rho)
        worst = max(worst, abs(lhs - rhs))
    return float(worst)
