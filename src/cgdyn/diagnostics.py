"""Probes that classify an effective dynamics: linearity, memory, identities.

Every probe takes the dynamics as a closure `dyn(rho, times)` so that the
same machinery applies to pipeline trajectories, closed-form predictors, or
any user-supplied map. `rho` is a (B, 2, 2) stack of inputs and `times` a
nonempty, strictly increasing 1-d grid; the closure returns one 2x2 output
per input and grid point, shaped (B, T, 2, 2): the shape `evolve.dynamics`
produces from one stack. A probe sends its inputs as few stacks on whole
grids as it can, so a pipeline closure over `evolve.dynamics` assigns and
steps each stack at once and builds and diagonalizes H once per closure.
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


def _mixing_gaps(dynamics, rho_a, rho_b, w, t):
    """dyn(w rho_a + (1 - w) rho_b) minus the mixed outputs, per pair, in one call on [t]."""
    w = np.asarray(w, dtype=float)[:, None, None]
    mix = w * rho_a + (1.0 - w) * rho_b
    out, out_a, out_b = np.split(np.asarray(dynamics(np.concatenate([mix, rho_a, rho_b]), [t]))[:, 0], 3)
    return out - w * out_a - (1.0 - w) * out_b


def linearity_probe(dynamics, t, samples=100, seed=0):
    """Compare dyn(mixture) against the mixture of dyn outputs.

    Returns the worst trace-norm violation over `samples` random
    (rho_a, rho_b, weight) triples, sent as one stack of 3 x samples inputs.
    Linear dynamics sit at solver noise; assignment-induced nonlinearity
    shows up at the 1e-1..1e-3 scale.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    triples = [(qcore.random_density(2, rng), qcore.random_density(2, rng), float(rng.uniform(0.0, 1.0)))
               for _ in range(samples)]
    rho_a, rho_b, w = (np.array(part) for part in zip(*triples))
    violations = qcore.trace_norm(_mixing_gaps(dynamics, rho_a, rho_b, w, t))
    k = int(np.argmax(violations))
    witness = {
        "bloch_a": [float(x) for x in qcore.bloch_from_density(rho_a[k])],
        "bloch_b": [float(x) for x in qcore.bloch_from_density(rho_b[k])],
        "weight": float(w[k]),
        "t": float(t),
    }
    return LinearityReport(
        max_violation=float(violations[k]), witness=witness, samples=samples, seed=seed
    )


def replay_linearity_witness(dynamics, witness):
    """Re-evaluate a stored witness; returns its violation."""
    rho_a, rho_b = qcore.density_from_bloch(np.array([witness["bloch_a"], witness["bloch_b"]]))
    return float(qcore.trace_norm(_mixing_gaps(dynamics, rho_a[None], rho_b[None], [witness["weight"]],
                                               witness["t"]))[0])


def semigroup_gap(dynamics, t_grid, s_grid, probes=8, seed=0):
    """sup over (t, s, probe) of || dyn(rho, t+s) - dyn(dyn(rho, s), t) ||_1.

    Both grids must be nonempty and strictly increasing. The probes go as
    one stack on s_grid and one on the sorted distinct sums t + s, and all
    their mids dyn(rho, s) as one stack on t_grid; one stacked trace norm
    per probe scores its (s, t) grid, and ties go to the first (probe, s, t)
    in that order. A closure whose values depend on the grid, such as Krylov
    steps from the previous point, sees that union grid and not t_grid + s.
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
    probe_states = np.array(probe_states)
    sums, where = np.unique(np.add.outer(s_grid, t_grid), return_inverse=True)

    mids = np.asarray(dynamics(probe_states, s_grid))
    directs = np.asarray(dynamics(probe_states, sums))
    composed = np.asarray(dynamics(mids.reshape(-1, 2, 2), t_grid)).reshape(mids.shape[:2] + (t_grid.size, 2, 2))
    where = where.reshape(s_grid.size, t_grid.size)
    # one stack per probe keeps the trace norm's temporaries at one probe's (s, t) grid
    gaps = np.array([qcore.trace_norm(d[where] - c) for d, c in zip(directs, composed)])
    p, i, j = np.unravel_index(np.argmax(gaps), gaps.shape)  # the first in (probe, s, t) order
    return MarkovReport(gap=float(gaps[p, i, j]), argmax_t=float(t_grid[j]), argmax_s=float(s_grid[i]),
                        witness_bloch=[float(x) for x in qcore.bloch_from_density(probe_states[p])])


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
    """Tomography of the single-site action on symmetric product inputs: the
    centre of the ball and its three axes, one stack of inputs."""
    rhos = qcore.density_from_bloch(np.vstack([np.zeros(3), np.eye(3)]))
    out = np.array([qcore.bloch_from_density(qcore.partial_trace(channel(qcore.kron([rho] * n)), [1], n))
                    for rho in rhos])
    return np.column_stack(out[1:] - out[0]), out[0]


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
