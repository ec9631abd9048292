"""Effective dynamics: coarse-grain after unitary evolution after assignment.

The composite map

    Gamma_t = C o U(t) . U(t)^dag o A

is evaluated along one of three routes. Each Hamiltonian spec declares
itself as a sum of Pauli strings (`terms()`) and refuses a non-finite
coefficient when built; the automatic route reads that structure alone,
not the spec's class or the input:

* fast: any z-only sum whose strings pairwise share at most one site once
  equal supports are merged: the field with or without the n-body term,
  the chain at g = 0, the second-qubit rotation, any two-body ZZ graph.
  Product inputs then have exact closed-form marginals at any site count.
* dense: any other z-only sum. Its energies come from the same merged z
  strings and each step is O(4^n) elementwise work on the joint state.
* statevector: every non-diagonal Hamiltonian. A pure input is one column
  of amplitudes: one eigh (n <= 12) on the 2^n basis states, or Krylov steps
  (`expm_multiply`) on orbits of basis states, the ~2^n/n of the
  momentum-zero sector when site rotation leaves H unchanged, else the 2^n
  states themselves. A cost model in those counts, grid length and |H| t
  picks the cheaper.
  A mixed input takes eigh and the Heisenberg form Tr[sigma C(rho)] =
  Tr[G rho]: O(4^n) elementwise work per step in the eigenbasis of H, with
  the grid stepped in blocks of at most HEISENBERG_BLOCK entries of rho(t).
  A real H (every shipped spec) has a real eigenbasis, so eigh and every
  product with it run in real arithmetic.

The effective trajectory is generally nonlinear in the input state
(through the assignment) and need not compose as a semigroup in t.
`dynamics(cg, spec)` is the map of one (H, weights) pair, fed a (B, 2, 2) stack
of inputs per call (one 2x2 input is a stack of one): what depends on H and the
weights alone (the energies, the Krylov orbits and sparse -iH, the eigh of H
and the fuzzy operators in its eigenbasis) is built on first use and kept, so
the diagnostics and sweeps pay for it once per map, and each route steps the
whole stack, in runs of inputs that hold no more state entries than one input
or HEISENBERG_BLOCK; the fast route steps the grid in blocks of time points
under the same bound (one-point blocks on all the process's CPUs, no byte
depending on how many). `trajectory` is its one-shot form. Each returns the
trajectory with the route that ran and the lambda solutions; the CLI alone
turns those into run metadata.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import maxent, qcore
from .coarse_grain import apply_cg, fuzzy_operator

DENSE_MAX_QUBITS = 12
STATEVECTOR_MAX_SPINS = 20
MIXED_MAX_SPINS = 8
HEISENBERG_BLOCK = 4096  # state entries per stacked step of inputs or fast-route points, unless one holds more
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1  # fast-route workers
# Modelled nanoseconds of the state-vector engines, fitted on the g = 0.5 chain
# (warm, 2 cores). eigh: d^3, then d^2 per point. Krylov: sparse products, some
# per point and more per unit of |H| t (|H| <= sum |coeff|), each an overhead
# plus work on the n + 1 stored entries of H per orbit stepped.
_EIGH_CUBE, _EIGH_POINT = 1.1, 1.6
_KRYLOV_POINT, _KRYLOV_TRAVEL, _KRYLOV_ENTRIES = 1.1e6, 1.6e5, 9300.0


# ---------------------------------------------------------------------------
# Hamiltonian specifications
#
# terms() yields (coeff, ((site, axis), ...)), 1-based sites, axes x/y/z, as
# a generator so that a large field never holds its whole term list.


def _check_finite(spec, name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{type(spec).__name__}.{name} must be finite, got {v}")


@dataclass(frozen=True)
class _TwoQubit:
    """A two-qubit spec with one frequency, omega."""

    omega: float = 1.0
    n = 2

    def __post_init__(self):
        _check_finite(self, "omega", self.omega)


@dataclass(frozen=True)
class Swap(_TwoQubit):
    """H = (omega/2) (XX + YY + ZZ); two qubits, swap gate at t = pi/(2 omega)."""

    def terms(self):
        for a in qcore.AXES:
            yield 0.5 * self.omega, ((1, a), (2, a))


@dataclass(frozen=True)
class Cnot(_TwoQubit):
    """H = -(omega/2)(Z x I + I x X - Z x X); cnot (up to phase) at t = pi/(2 omega)."""

    def terms(self):
        yield -0.5 * self.omega, ((1, "z"),)
        yield -0.5 * self.omega, ((2, "x"),)
        yield 0.5 * self.omega, ((1, "z"), (2, "x"))


@dataclass(frozen=True)
class CnotInteraction(_TwoQubit):
    """The interaction term alone: H = (omega/2) Z x X. Period 2 pi at omega = 1."""

    def terms(self):
        yield 0.5 * self.omega, ((1, "z"), (2, "x"))


@dataclass(frozen=True)
class FieldAllToAll:
    """Per-site z fields, optionally plus the n-body term Z x Z x ... x Z.

    omegas holds one frequency per site.
    """

    omegas: tuple
    include_interaction: bool = False

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.omegas, dtype=float))
        if w.ndim != 1:
            raise ValueError("field omegas must be a flat vector")
        w = tuple(w.tolist())
        if len(w) < 2:
            raise ValueError("field model needs at least two sites")
        _check_finite(self, "omegas", *w)
        object.__setattr__(self, "omegas", w)

    @property
    def n(self):
        return len(self.omegas)

    def terms(self):
        for k, w in enumerate(self.omegas, start=1):
            yield w, ((k, "z"),)
        if self.include_interaction:
            yield 1.0, tuple((k, "z") for k in range(1, self.n + 1))


def sample_field(n, mu=1.5, sigma=0.2, seed=0, include_interaction=False):
    """Draw site frequencies from normal(mu, sigma) with the given seed."""
    if not (math.isfinite(mu) and 0.0 <= sigma < math.inf):
        raise ValueError(f"need a finite mean and a finite nonnegative spread, got {mu}, {sigma}")
    rng = np.random.default_rng(seed)
    omegas = rng.normal(mu, sigma, size=n)
    return FieldAllToAll(omegas=tuple(omegas), include_interaction=include_interaction)


@dataclass(frozen=True)
class IsingChain:
    """H = -J sum_bonds Z_a Z_b - g sum_j X_j.

    The closed chain wraps the bond sum literally (sigma_{N+1} = sigma_1),
    so the two-spin ring carries its single bond twice. Bond multiplicity
    is honored identically by terms() and the fast path.
    """

    n_spins: int
    J: float = 1.0
    g: float = 0.0
    boundary: str = "closed"

    def __post_init__(self):
        if not math.isfinite(self.n_spins) or int(self.n_spins) != self.n_spins or self.n_spins < 2:
            raise ValueError(f"chain needs at least two spins, got {self.n_spins}")
        if self.boundary not in ("closed", "open"):
            raise ValueError(f"boundary must be 'closed' or 'open', got {self.boundary!r}")
        _check_finite(self, "J", self.J)
        _check_finite(self, "g", self.g)
        object.__setattr__(self, "n_spins", int(self.n_spins))

    @property
    def n(self):
        return self.n_spins

    def bonds(self):
        """Ordered bond list (1-based site pairs), duplicates kept."""
        n = self.n_spins
        if self.boundary == "closed":
            return [(j, j % n + 1) for j in range(1, n + 1)]
        return [(j, j + 1) for j in range(1, n)]

    def terms(self):
        for a, b in self.bonds():
            yield -self.J, ((a, "z"), (b, "z"))
        if self.g != 0.0:
            for j in range(1, self.n_spins + 1):
                yield -self.g, ((j, "x"),)


@dataclass(frozen=True)
class LocalZSecond(_TwoQubit):
    """H = (omega/2) I x Z: nothing happens to qubit 1, qubit 2 precesses."""

    def terms(self):
        yield 0.5 * self.omega, ((2, "z"),)


# ---------------------------------------------------------------------------
# Hamiltonian construction


def build_hamiltonian(spec):
    """Dense Hermitian matrix for the spec; capped at 12 qubits."""
    if spec.n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense Hamiltonian capped at {DENSE_MAX_QUBITS} qubits, got {spec.n}")
    return qcore.pauli_sum(spec.terms(), spec.n)


def _orbits(spec):
    """The basis Krylov steps a pure input on: orbit representatives r (ascending),
    every basis state's r and the orbit lengths L_r. When H's strings, merged by
    (site, axis), are exactly unchanged as every site k moves to k mod n + 1, these
    are the rotation orbits (r the least of n bit rotations), the momentum-zero
    sector, ~2^n/n of them. Otherwise each basis state is its own orbit."""
    merged, n = {}, spec.n
    for coeff, ops in spec.terms():
        merged[tuple(sorted(ops))] = merged.get(tuple(sorted(ops)), 0.0) + coeff
    b = np.arange(2 ** n)
    if merged != {tuple(sorted((k % n + 1, a) for k, a in key)): c for key, c in merged.items()}:
        return b, b, np.ones(2 ** n, dtype=int)
    rep, fixed, r = b.copy(), np.zeros(2 ** n, dtype=int), b
    for _ in range(n):
        r = (r >> 1) | ((r & 1) << (n - 1))
        np.minimum(rep, r, out=rep)
        fixed += r == b  # L_r is n over the number of rotations that fix r
    return b[rep == b], rep, n // fixed[rep == b]


def _sparse_hamiltonian(terms, n, orbits):
    """CSR of a Pauli sum on the normalised orbits |R> = L_r^-1/2 sum_k T^k |r> of
    `_orbits`: any sum on the 2^n one-state orbits, one that commutes with the rotation
    T on a sector's. Each |r> -> phase |s = r ^ xmask> adds phase c sqrt(L_r / L_s) at
    (S, R); entries that cancel are dropped."""
    from scipy import sparse as sp

    reps, rep, lengths = orbits
    orbit = (np.cumsum(rep == np.arange(2 ** n)) - 1)[rep]  # each state's orbit; reps ascend
    blocks = qcore._pauli_blocks(terms, n, reps)
    rows = [orbit[reps ^ xmask] for xmask in blocks]
    data = np.concatenate([v * np.sqrt(lengths / lengths[s]) for v, s in zip(blocks.values(), rows)])
    rows, cols = np.concatenate(rows), np.tile(np.arange(reps.size), len(blocks))
    keep = data != 0  # building the CSR sums the entries, which leaves its indices sorted
    return sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(reps.size, reps.size))


def _z_strings(spec):
    """A diagonal H's strings merged by support in term order (the two-site ring's
    doubled bond becomes one -2J string), as one (sites, coeffs) pair per string
    size with supports sorted and rows ascending; None unless all factors are z.
    """
    merged, buckets = {}, {}  # support -> coeff, size -> supports in first-seen order
    for coeff, ops in spec.terms():
        if len(ops) == 1 and ops[0][1] == "z":  # one factor needs no sort
            sites = (ops[0][0],)
        else:
            sites = tuple(sorted([site for site, axis in ops if axis == "z"]))
            if len(sites) != len(ops):
                return None
        if sites not in merged:
            buckets.setdefault(len(sites), []).append(sites)
        merged[sites] = merged[sites] + coeff if sites in merged else coeff
    groups = []
    for size in sorted(buckets.keys() - {0}):  # an identity string is a phase
        supports = sorted(buckets[size])
        sites = np.fromiter(chain.from_iterable(supports), np.intp, len(supports) * size).reshape(-1, size)
        if sites.min() < 1 or sites.max() > spec.n or (np.diff(sites, axis=1) == 0).any():
            raise ValueError(f"each Pauli string needs distinct sites in 1..{spec.n}")
        groups.append((sites, np.fromiter(map(merged.__getitem__, supports), float, len(supports))))
    return groups


def _z_energies(groups, n):
    """The 2^n energies sum_S c_S prod_{k in S} z_k of the merged strings."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # qubit 1 leftmost
    z = 1.0 - 2.0 * bits
    energies = np.zeros(2 ** n)
    for sites, coeffs in groups:
        energies += z[:, sites - 1].prod(axis=2) @ coeffs
    return energies


def _fast_exact(groups):
    """No two strings share two or more sites, so for every site k the other
    sites of the strings containing k are disjoint and the fast route's
    product of factors is exact. Merged two-site strings never share both."""
    rows = [set(row) for sites, _ in groups if sites.shape[1] > 1 for row in sites.tolist()]
    big = [i for i, row in enumerate(rows) if len(row) > 2]
    return all(len(rows[i] & rows[j]) < 2 for i in big for j in range(len(rows)) if j != i)


# ---------------------------------------------------------------------------
# Fast product route: the exact closed form for a z-only H = sum_S c_S Z_S
# and a product input. Populations stay fixed; site k's coherence gains one
# factor per string S containing k: exp(-2i c_S t) for S = {k}, otherwise
# cos 2c_S t - i sin 2c_S t E[Z_{S-k}], the product of the other z values.


def _fast_invariants(factors, groups, points=1):
    """Per input and site pop0 and coherence, (..., n) for (..., n, 2, 2) factors,
    and per string size the sites as flat indices into a block of `points` time
    points' coherences, one row per point, with -2i c_S per input (single sites)
    or c_S and the other-site z products."""
    pop0 = factors[..., 0, 0].real.copy()
    coh = factors[..., 0, 1].copy()  # contiguous, as each block copies it once per point
    zval = (factors[..., 0, 0] - factors[..., 1, 1]).real
    first = np.arange(0, coh.size, coh.shape[-1])[:, None]  # each input's first flat index
    rows = np.arange(0, points * coh.size, coh.size)[:, None]  # each point's first flat index
    steps = []
    for sites, coeffs in groups:
        others = None if sites.shape[1] == 1 else qcore.exclusive_products(zval[..., sites - 1])
        # a single-site factor is the same for every input: one view of the coefficients
        single = np.broadcast_to(-2j * coeffs, coh.shape[:-1] + coeffs.shape)
        steps.append((rows + (first + sites.ravel() - 1).ravel(), single if others is None else coeffs, others))
    return pop0, coh, steps


def _fast_coherences(invariants, t):
    """Per-site evolved coherences on the fast route at a block of T time points (at
    most the invariants' `points`), (T,) + the invariants' shape; a scalar t drops T."""
    _, coh, steps = invariants
    t = np.asarray(t)
    out = np.empty(t.shape + coh.shape, complex)
    out[...] = coh
    tt = t[(...,) + (None,) * coh.ndim]  # each point against every input and site
    for sites, coeffs, others in steps:
        if others is None:
            factor = np.exp(coeffs * tt)
        else:
            ang = 2 * coeffs * tt
            factor = np.cos(ang)[..., None] - 1j * np.sin(ang)[..., None] * others
        # scalar rounding, each site's factors in (size, support) order; flat
        # indices keep numpy's fast 1-d loop, a short block takes their first rows
        np.multiply.at(out.reshape(-1), sites[:t.size].ravel(), factor.ravel())
    return out


# ---------------------------------------------------------------------------
# State-vector route: pure inputs as amplitudes, mixed ones in the Heisenberg form


def _product_vector(direction, n):
    """The 2^n amplitudes of n copies of the pure qubit along each direction of a (..., 3) stack."""
    u = direction / qcore.bloch_radius(direction)[..., None]
    theta, phi = np.arccos(np.clip(u[..., 2], -1.0, 1.0)), np.arctan2(u[..., 1], u[..., 0])
    psi = site = np.stack([np.cos(theta / 2.0) + 0j, np.sin(theta / 2.0) * np.exp(1j * phi)], -1)
    for _ in range(n - 1):
        psi = (psi[..., :, None] * site[..., None, :]).reshape(psi.shape[:-1] + (-1,))
    return psi


def _effective_from_state(psi, cg):
    """C(|psi><psi|) for each state of a (..., 2^n) stack: the weighted single-site marginals."""
    n, out = cg.n, np.zeros(psi.shape[:-1] + (2, 2), dtype=complex)
    for k, p in enumerate(cg.probs, start=1):
        if p:
            a = psi.reshape(psi.shape[:-1] + (2 ** (k - 1), 2, 2 ** (n - k)))
            out += p * np.einsum("...aib,...ajb->...ij", a, a.conj())
    return out


def _statevector_engine(spec, times, orbits, norm):
    """(modelled ns, "eigh" or "krylov") of a pure input: eigh on 2^n states, up to the cap,
    or Krylov on the given number of orbits, whichever is cheaper. norm is sum |coeff|."""
    d, steps = 2 ** spec.n, len(times)
    # Krylov steps 0 -> t0 -> ... -> t_last
    travel = norm * (abs(times[0]) + times[-1] - times[0])
    products = steps * _KRYLOV_POINT + travel * _KRYLOV_TRAVEL
    krylov = products * (1.0 + orbits * (spec.n + 1) / _KRYLOV_ENTRIES), "krylov"
    eigh = d ** 3 * _EIGH_CUBE + steps * d ** 2 * _EIGH_POINT, "eigh"
    return min(krylov, eigh) if spec.n <= DENSE_MAX_QUBITS else krylov


# ---------------------------------------------------------------------------
# Pipeline


def _route(spec, pure_input, method, strings, fast_ok):
    """The route that runs, chosen from the merged z strings alone (None unless
    H is diagonal) and whether the fast route is exact on them; ValueError when
    the chosen route cannot run this case."""
    route = method
    if method == "auto":
        route = "fast" if fast_ok else "statevector" if strings is None else "dense"
    if route == "fast" and not fast_ok:
        raise ValueError("fast route needs z-only strings of which no two share two or more sites")
    if route == "statevector":
        if spec.n > STATEVECTOR_MAX_SPINS:
            raise ValueError(f"statevector route capped at {STATEVECTOR_MAX_SPINS} spins")
        if not pure_input and spec.n > MIXED_MAX_SPINS:
            raise ValueError(f"mixed inputs capped at {MIXED_MAX_SPINS} sites; use a pure input")
    if route == "dense":
        if strings is None:
            raise ValueError("dense route needs a z-only Hamiltonian; use statevector")
        if spec.n > DENSE_MAX_QUBITS:
            raise ValueError(f"dense route capped at {DENSE_MAX_QUBITS} qubits")
    return route


def _chunks(count, entries):
    """range(count) as slices (of inputs or points) holding at most one item's or HEISENBERG_BLOCK state entries."""
    step = max(1, HEISENBERG_BLOCK // entries)
    return [slice(i, i + step) for i in range(0, count, step)]


@dataclass
class Trajectory:
    """Effective-state history: Bloch vector and purity per time point, the
    route that ran and the assignment's lambda solution; for a stack of B
    inputs, (B, T, 3) and (B, T) arrays and a tuple of B solutions."""

    times: np.ndarray
    bloch: np.ndarray
    purity: np.ndarray
    route: str
    solution: maxent.LagrangeSolution | tuple


def dynamics(cg, spec, method="auto"):
    """The effective map of one (H, weights) pair, as `dyn(rho_eff, times) -> Trajectory`.

    rho_eff is one 2x2 state, a stack of one, or a (B, 2, 2) stack. The site
    counts and the method are checked and H's merged z strings parsed here,
    once. What depends on H and the weights alone is built on the first input
    that needs it and kept for the rest: the diagonal energies, sum |coeff|, the
    Krylov orbits with sparse -iH and the sector spin operators, and the eigh of
    H with the fuzzy operators in its eigenbasis, so a run that only steps
    Krylov never diagonalizes. Each call assigns its stack, picks one route (and
    one engine for its pure inputs), steps the grid and checks the Bloch ball.
    Each input's trajectory is its own call's within 1e-12: each engine repeats
    an input's own arithmetic, except Krylov stepping several inputs at once.
    One-point fast blocks run on the process's CPUs; no byte depends on how many.
    """
    if spec.n != cg.n:
        raise ValueError(f"Hamiltonian acts on {spec.n} sites but weights cover {cg.n}")
    if method not in ("auto", "dense", "fast", "statevector"):
        raise ValueError(f"unknown method {method!r}")
    n, strings, kept = spec.n, _z_strings(spec), {}
    fast_ok = strings is not None and _fast_exact(strings)

    def keep(name, build):
        if name not in kept:
            kept[name] = build()
        return kept[name]

    def dyn(rho_eff, times):
        times, rho_eff = qcore.time_grid(times), np.asarray(rho_eff, dtype=complex)
        assigned = maxent.assign(rho_eff.reshape(-1, 2, 2), cg)
        factors, directions, sols = assigned.factors, assigned.direction, assigned.solution
        is_pure = np.array([sol.is_pure for sol in sols])
        route = _route(spec, is_pure.all(), method, strings, fast_ok)

        bloch = np.empty((len(sols), times.size, 3))
        if route == "dense":
            evals = keep("energies", lambda: _z_energies(strings, n))
            for idx in _chunks(len(sols), 4 ** n):
                rho0 = qcore.kron(factors[idx].swapaxes(0, 1))
                for i in range(times.size):  # one-point grids: a lone input's product reuses the phases' array
                    rho_t = qcore.propagate(evals, None, rho0, times[i:i + 1])
                    bloch[idx, i] = qcore.bloch_from_density(apply_cg(rho_t, cg))
        elif route == "fast":
            blocks = _chunks(times.size, len(sols) * n)
            invariants = _fast_invariants(factors, strings, min(blocks[0].stop, times.size))
            # each input's own dot, as stacked 1 x n by n x 1 products; populations are conserved
            bloch[..., 2] = 2 * (invariants[0][:, None, :] @ cg.probs[:, None])[:, :1, 0] - 1.0
            probs, eff_coh = cg.probs.astype(complex)[:, None], np.empty((times.size, len(sols), 1, 1), complex)
            def step(share):  # blocks that write their own rows by unchanged arithmetic, in any order
                try:
                    for block in share:
                        np.matmul(_fast_coherences(invariants, times[block])[..., None, :], probs, out=eff_coh[block])
                except BaseException as exc:  # raised once every share is joined
                    errors.append(exc)
            w, errors, threads = min(_CPUS, len(blocks)) if blocks[0].stop == 1 else 1, [], []
            try:
                for k in range(1, w):  # one-point blocks in interleaved shares on the process's CPUs
                    (thread := threading.Thread(target=step, args=(blocks[k::w],))).start()
                    threads.append(thread)
                step(blocks[::w])  # the caller's share
            finally:
                for thread in threads:
                    thread.join()
            if errors:
                raise errors[0]
            bloch[..., 0], bloch[..., 1] = 2 * eff_coh[..., 0, 0].T.real, -2 * eff_coh[..., 0, 0].T.imag
        else:  # statevector: mixed inputs in the Heisenberg form, pure ones on one engine
            mixed, pure = np.flatnonzero(~is_pure), np.flatnonzero(is_pure)
            engine = None
            if pure.size:
                orbits = keep("orbits", lambda: _orbits(spec))
                norm = keep("norm", lambda: sum(abs(c) for c, _ in spec.terms()))
                engine = _statevector_engine(spec, times, orbits[0].size, norm)[1]
            if mixed.size or engine == "eigh":
                evals, evecs = keep("eigh", lambda: qcore.eigensystem(build_hamiltonian(spec)))
            if mixed.size:
                # Tr[sigma C(rho)] = Tr[G rho] = sum(conj(G) * rho) in H's eigenbasis: a stacked
                # (3, d^2) matvec per input and point keeps its bits (a 2-d product would not);
                # G^x, G^z are real, G^y imaginary: each rotates its one nonzero part
                g_flat = keep("g_flat", lambda: np.conj([
                    qcore.to_eigenbasis(evecs, fuzzy_operator("x", cg).real),
                    1j * qcore.to_eigenbasis(evecs, fuzzy_operator("y", cg).imag),
                    qcore.to_eigenbasis(evecs, fuzzy_operator("z", cg).real)]).reshape(3, -1))
                for idx in (mixed[run] for run in _chunks(mixed.size, 4 ** n)):
                    rho_hat = qcore.to_eigenbasis(evecs, qcore.kron(factors[idx].swapaxes(0, 1)))[:, None]
                    for block in _chunks(times.size, idx.size * 4 ** n):
                        rho_t = qcore.propagate(evals, None, rho_hat, times[block])  # (inputs, points, d, d)
                        bloch[idx, block] = (g_flat @ rho_t.reshape(-1, 4 ** n, 1))[..., 0].real.reshape(
                            idx.size, -1, 3)
            if engine == "eigh":
                for idx in (pure[run] for run in _chunks(pure.size, 2 ** n)):
                    coeff = qcore.matmul(evecs.conj().T, _product_vector(directions[idx], n)[..., None])
                    for i, t in enumerate(times):
                        psi_t = qcore.matmul(evecs, np.exp(-1j * evals * t)[:, None] * coeff)[..., 0]
                        bloch[idx, i] = qcore.bloch_from_density(_effective_from_state(psi_t, cg))
            elif engine == "krylov":
                from scipy.sparse.linalg import expm_multiply

                reps, _, lengths = orbits
                a = keep("-iH", lambda: -1j * _sparse_hamiltonian(spec.terms(), n, orbits))
                # in a sector every site marginal is (1/n) <sum_j sigma_j>
                spins = keep("spins", lambda: [
                    _sparse_hamiltonian([(1.0, ((j, ax),)) for j in range(1, n + 1)], n, orbits)
                    for ax in qcore.AXES] if reps.size < 2 ** n else None)
                for idx in (pure[run] for run in _chunks(pure.size, reps.size)):
                    # a column per input (a lone one as a vector: expm_multiply norms it
                    # faster), stepped from the last point; at t = 0 orbit R holds sqrt(L_r) psi(r)
                    psi_t, t_prev = (_product_vector(directions[idx], n)[:, reps] * np.sqrt(lengths)).T.squeeze(), 0.0
                    for i, t in enumerate(times):
                        if t != t_prev:
                            psi_t = expm_multiply(a * (t - t_prev), psi_t)
                            t_prev = t
                        if spins is None:
                            bloch[idx, i] = qcore.bloch_from_density(_effective_from_state(psi_t.T, cg))
                        else:
                            bloch[idx, i] = np.stack([cg.probs.sum() / n * (psi_t.conj() * (s @ psi_t)).sum(0).real
                                                      for s in spins], -1)

        radii_sq = np.sum(bloch * bloch, axis=-1)
        # the one ball bound that `maxent.assign` applies to inputs, so every output
        # can be fed back in (`semigroup_gap` does); a NaN fails it
        if not (radii_sq <= qcore.MAX_RADIUS ** 2).all():
            b, i = np.unravel_index(np.argmax(radii_sq), radii_sq.shape)
            raise qcore.PositivityError(f"effective Bloch radius {math.sqrt(radii_sq[b, i])} left the ball at "
                                        f"time index {i} (t = {times[i]}) on the {route} route for input {b}")
        k = 0 if rho_eff.ndim == 2 else slice(None)
        return Trajectory(times, bloch[k], 0.5 * (1.0 + radii_sq[k]), route, sols[k])

    return dyn


def trajectory(rho_eff, cg, spec, times, method="auto"):
    """Effective trajectory of one input or a stack over a time grid: the one-shot
    form of `dynamics(cg, spec, method)(rho_eff, times)`. The grid must be
    nonempty, finite and strictly increasing. Built-in specs reject non-finite
    coefficients when built; a NaN or out-of-ball effective radius raises
    PositivityError.
    """
    return dynamics(cg, spec, method)(rho_eff, times)
