import contextlib
import dataclasses
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdyn import evolve, maxent, qcore
from cgdyn.coarse_grain import apply_cg, custom, fuzzy_operator, non_preferential, preferential
from conftest import _basis_orbits


def _bloch(theta, phi=0.0):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def test_hamiltonians_hermitian():
    specs = [
        evolve.Swap(omega=1.3),
        evolve.Cnot(omega=0.7),
        evolve.CnotInteraction(omega=1.0),
        evolve.LocalZSecond(omega=2.0),
        evolve.sample_field(3, seed=1),
        evolve.IsingChain(n_spins=3, J=1.0, g=0.4, boundary="closed"),
    ]
    for spec in specs:
        h = evolve.build_hamiltonian(spec)
        assert h.shape == (2 ** spec.n, 2 ** spec.n)
        assert qcore.is_hermitian(h)


def test_swap_gate_at_quarter_period():
    # exp(-i H pi/(2 omega)) is the exchange gate up to a global phase
    spec = evolve.Swap(omega=1.0)
    u = scipy.linalg.expm(-1j * evolve.build_hamiltonian(spec) * (math.pi / 2))
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert abs(abs(np.trace(u @ swap.T)) - 4.0) < 1e-12


def test_cnot_gate_at_quarter_period():
    spec = evolve.Cnot(omega=1.0)
    u = scipy.linalg.expm(-1j * evolve.build_hamiltonian(spec) * (math.pi / 2))
    cnot = np.eye(4)[[0, 1, 3, 2]]
    assert abs(abs(np.trace(u @ cnot.T)) - 4.0) < 1e-12


def test_ising_bonds_boundary():
    closed = evolve.IsingChain(n_spins=4, J=1.0, g=0.0, boundary="closed")
    assert len(closed.bonds()) == 4
    open_ = evolve.IsingChain(n_spins=4, J=1.0, g=0.0, boundary="open")
    assert len(open_.bonds()) == 3
    # the two-site ring keeps its doubled bond on purpose
    two = evolve.IsingChain(n_spins=2, J=1.0, g=0.0, boundary="closed")
    assert two.bonds() == [(1, 2), (2, 1)]


def test_sample_field_deterministic():
    a = evolve.sample_field(5, seed=42)
    b = evolve.sample_field(5, seed=42)
    assert a.omegas == b.omegas
    assert evolve.sample_field(5, seed=43).omegas != a.omegas
    # the spec is the frequencies alone: normal(mu, sigma) draws from the seed
    assert a == evolve.FieldAllToAll(tuple(np.random.default_rng(42).normal(1.5, 0.2, size=5)))


def test_field_fast_vs_dense(rng):
    times = np.linspace(0.0, 3.0, 13)
    rho0 = qcore.density_from_bloch([0.5, -0.2, 0.4])
    for interaction in (False, True):
        spec = evolve.sample_field(4, seed=9, include_interaction=interaction)
        cg = preferential(4, 0.4)
        fast = evolve.trajectory(rho0, cg, spec, times, method="fast")
        dense = evolve.trajectory(rho0, cg, spec, times, method="dense")
        assert np.abs(fast.bloch - dense.bloch).max() < 1e-12


def test_ising_g0_fast_vs_dense():
    times = np.linspace(0.0, 2.5, 11)
    rho0 = qcore.density_from_bloch(0.8 * _bloch(1.1, 0.4))
    for n in (2, 3, 4, 5):
        spec = evolve.IsingChain(n_spins=n, J=0.9, g=0.0, boundary="closed")
        cg = non_preferential(n)
        fast = evolve.trajectory(rho0, cg, spec, times, method="fast")
        dense = evolve.trajectory(rho0, cg, spec, times, method="dense")
        assert np.abs(fast.bloch - dense.bloch).max() < 1e-12


def test_local_z_fast_vs_dense():
    times = np.linspace(0.0, 2 * math.pi, 9)
    rho0 = qcore.density_from_bloch([0.7, 0.1, 0.2])
    spec = evolve.LocalZSecond(omega=1.0)
    cg = non_preferential(2)
    fast = evolve.trajectory(rho0, cg, spec, times, method="fast")
    dense = evolve.trajectory(rho0, cg, spec, times, method="dense")
    assert np.abs(fast.bloch - dense.bloch).max() < 1e-12


def test_ising_g0_n_independence():
    # the effective trajectory does not depend on the chain length
    times = np.linspace(0.0, 2.0, 9)
    rho0 = qcore.density_from_bloch(0.9 * _bloch(0.9))
    ref = None
    for n in (3, 4, 5, 6):
        spec = evolve.IsingChain(n_spins=n, J=1.0, g=0.0, boundary="closed")
        traj = evolve.trajectory(rho0, non_preferential(n), spec, times)
        if ref is None:
            ref = traj.bloch
        else:
            assert np.abs(traj.bloch - ref).max() < 1e-12


def test_ising_g0_p_independence(rng):
    # any strictly positive weighting gives the same effective state for a
    # pure input (mixed inputs assign different radii per site, so their
    # trajectories legitimately depend on the weights)
    times = np.linspace(0.0, 2.0, 7)
    rho0 = qcore.density_from_bloch(_bloch(1.3, 0.5))
    n = 3
    spec = evolve.IsingChain(n_spins=n, J=1.0, g=0.0, boundary="closed")
    ref = evolve.trajectory(rho0, non_preferential(n), spec, times, method="dense").bloch
    for _ in range(4):
        w = rng.uniform(0.1, 1.0, n)
        cg = custom(w / w.sum())
        got = evolve.trajectory(rho0, cg, spec, times, method="dense").bloch
        assert np.abs(got - ref).max() < 1e-10


def test_ising_g0_diagonal_population_conserved():
    # [rho]_00 is an invariant of the interaction-only chain
    theta = 1.05
    times = np.linspace(0.0, 3.0, 12)
    rho0 = qcore.density_from_bloch(_bloch(theta))
    spec = evolve.IsingChain(n_spins=4, J=1.0, g=0.0, boundary="closed")
    traj = evolve.trajectory(rho0, non_preferential(4), spec, times, method="dense")
    pop = 0.5 * (1.0 + traj.bloch[:, 2])
    assert np.abs(pop - math.cos(theta / 2) ** 2).max() < 1e-12


def test_ising_translation_symmetric_marginals():
    # closed chain + symmetric product input: every site marginal is equal
    spec = evolve.IsingChain(n_spins=4, J=1.0, g=0.5, boundary="closed")
    psi_site = np.array([math.cos(0.35), math.sin(0.35) * np.exp(0.2j)])
    rho0 = qcore.kron([np.outer(psi_site, psi_site.conj())] * 4)
    h = evolve.build_hamiltonian(spec)
    rho_t = qcore.propagate(*qcore.eigensystem(h), rho0, 0.9)
    marginals = [qcore.partial_trace(rho_t, [k], 4) for k in range(1, 5)]
    for m in marginals[1:]:
        assert qcore.trace_norm(m - marginals[0]) < 1e-10


def test_trajectory_validation(rng):
    rho0 = qcore.random_density(2, rng)
    spec = evolve.Swap(omega=1.0)
    with pytest.raises(ValueError):
        evolve.trajectory(rho0, non_preferential(3), spec, [0.0, 1.0])
    cg = non_preferential(2)
    with pytest.raises(ValueError):
        evolve.trajectory(rho0, cg, spec, [])
    with pytest.raises(ValueError):
        evolve.trajectory(rho0, cg, spec, [0.0, 1.0, 0.5])


def test_trajectory_purity_column(rng):
    rho0 = qcore.random_density(2, rng)
    cg = preferential(2, 0.6)
    traj = evolve.trajectory(rho0, cg, evolve.Cnot(omega=1.0), np.linspace(0, 2, 9))
    want = 0.5 * (1.0 + np.sum(traj.bloch ** 2, axis=1))
    assert np.allclose(traj.purity, want, atol=1e-14)


def test_trajectory_route_and_solution():
    spec, cg = evolve.sample_field(3, seed=5), non_preferential(3)
    traj = evolve.trajectory(qcore.density_from_bloch([0.3, 0.0, 0.0]), cg, spec, [0.0, 1.0])
    assert traj.route == "fast"
    # the solution is the assignment's own lambda solve
    want = maxent.solve_lambda(0.3, cg)
    assert traj.solution.lam == want.lam
    assert np.array_equal(traj.solution.per_particle_r, want.per_particle_r)
    # a pure input carries the infinite sentinel
    traj2 = evolve.trajectory(qcore.density_from_bloch([0.0, 0.0, 1.0]), cg, spec, [0.0])
    assert traj2.solution.lam == math.inf


def test_non_finite_times_and_outputs_raise():
    rho = qcore.density_from_bloch([0.3, 0.1, 0.2])
    cg = preferential(2, 0.7)
    # an infinite time is refused, naming the grid, instead of giving a NaN row
    with pytest.raises(ValueError, match="time grid must hold finite values"):
        evolve.trajectory(rho, cg, evolve.Swap(), [0.0, np.inf])
    # an infinite coupling is refused when the spec is built, naming its field
    with pytest.raises(ValueError, match="IsingChain.J must be finite, got inf"):
        evolve.trajectory(rho, non_preferential(3), evolve.IsingChain(3, J=math.inf), [0.0, 1.0])
    # so is a non-finite entry of a tuple field
    with pytest.raises(ValueError, match="FieldAllToAll.omegas must be finite, got nan"):
        evolve.trajectory(rho, cg, evolve.FieldAllToAll((math.nan, 1.0)), [0.0, 1.0])
    # a NaN effective radius fails the ball check instead of reaching the caller (the
    # pure input's read-out on Swap's three orbits)
    with mock.patch.object(evolve, "_orbit_bloch", lambda psi, read: np.full(psi.shape[:-1] + (3,), np.nan)):
        with pytest.raises(qcore.PositivityError, match="radius nan left the ball at time index 0"):
            evolve.trajectory(qcore.density_from_bloch(_bloch(0.8, 0.3)), cg, evolve.Swap(), [0.0, 1.0])


def test_empty_input_stack_is_refused():
    # every route, and the assignment behind them, refuses a stack with no inputs
    empty, cg = np.empty((0, 2, 2)), preferential(2, 0.7)
    field = evolve.FieldAllToAll((1.0, 1.3))
    for spec, method in ((field, "fast"), (field, "dense"), (evolve.Swap(), "statevector")):
        with pytest.raises(ValueError, match="nonempty stack"):
            evolve.dynamics(cg, spec, method)(empty, [0.0, 1.0])
    with pytest.raises(ValueError, match="nonempty stack"):
        maxent.assign(empty, cg)


def test_field_refuses_non_flat_omegas():
    with pytest.raises(ValueError, match="field omegas must be a flat vector"):
        evolve.FieldAllToAll([[1.0, 1.3], [1.7, 2.1]])
    with pytest.raises(ValueError, match="field model needs at least two sites"):
        evolve.FieldAllToAll(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("spec, name", [
    (evolve.Swap(), "omega"), (evolve.Cnot(), "omega"), (evolve.CnotInteraction(), "omega"),
    (evolve.LocalZSecond(), "omega"), (evolve.IsingChain(3, g=0.5), "J"),
    (evolve.IsingChain(3, g=0.5), "g"), (evolve.FieldAllToAll((1.0, 2.0)), "omegas"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_specs_reject_non_finite_coefficients_when_built(spec, name, bad):
    value = (1.0, bad) if name == "omegas" else bad
    want = f"{type(spec).__name__}.{name} must be finite, got {bad}"
    for build in (lambda: type(spec)(**{**vars(spec), name: value}),
                  lambda: dataclasses.replace(spec, **{name: value})):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == want


def test_ising_chain_validates():
    # a non-finite or fractional site count raises ValueError, not int()'s OverflowError
    for n in (1, 2.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="chain needs at least two spins"):
            evolve.IsingChain(n)
    with pytest.raises(ValueError, match="boundary must be 'closed' or 'open'"):
        evolve.IsingChain(3, boundary="ring")
    assert evolve.IsingChain(3.0).n == 3


def test_sample_field_rejects_non_finite():
    for mu, sigma in ((math.nan, 0.2), (math.inf, 0.2), (1.5, math.nan), (1.5, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            evolve.sample_field(3, mu=mu, sigma=sigma)


def test_route_caps():
    rho0 = qcore.density_from_bloch([0.5, 0.0, 0.0])
    n_big = evolve.STATEVECTOR_MAX_SPINS + 1
    big = evolve.IsingChain(n_spins=n_big, J=1.0, g=0.5, boundary="closed")
    with pytest.raises(ValueError, match=f"statevector route capped at {n_big - 1} spins"):
        evolve.trajectory(rho0, non_preferential(n_big), big, [0.0], method="statevector")
    # the diagonal dense route builds no matrix but keeps the dense cap
    big_field = evolve.sample_field(13, seed=1, include_interaction=True)
    with pytest.raises(ValueError, match=f"dense route capped at {evolve.DENSE_MAX_QUBITS} qubits"):
        evolve.trajectory(rho0, non_preferential(13), big_field, [0.0], method="dense")
    # a mixed input under a transverse field is capped on the automatic route too
    mixed_big = evolve.IsingChain(n_spins=9, J=1.0, g=0.5, boundary="closed")
    with pytest.raises(ValueError, match="mixed inputs capped at 8 sites"):
        evolve.trajectory(rho0, non_preferential(9), mixed_big, [0.0])
    with pytest.raises(ValueError):
        evolve.trajectory(rho0, non_preferential(2), evolve.Swap(omega=1.0), [0.0], method="fast")


def test_mixed_statevector_cap_and_dense_needs_diagonal():
    mixed = qcore.density_from_bloch([0.5, 0.0, 0.0])
    # a mixed input's 2^n x 2^n eigenbasis state is held up to MIXED_MAX_SPINS sites
    chain = evolve.IsingChain(n_spins=evolve.MIXED_MAX_SPINS + 1, J=1.0, g=0.3)
    with pytest.raises(ValueError, match=f"capped at {evolve.MIXED_MAX_SPINS} sites; use a pure input"):
        evolve.trajectory(mixed, non_preferential(chain.n), chain, [0.0, 1.0], method="statevector")
    # a forced dense route takes diagonal Hamiltonians only
    spec = evolve.IsingChain(n_spins=3, J=1.0, g=0.3)
    for rho in (mixed, qcore.density_from_bloch([1.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="z-only"):
            evolve.trajectory(rho, non_preferential(3), spec, [0.0, 1.0], method="dense")


def test_fast_coherences_match_dense(rng):
    # arbitrary (non-collinear) product inputs through the factorized path
    cases = [
        evolve.sample_field(3, seed=2, include_interaction=True),
        evolve.IsingChain(n_spins=4, J=0.8, g=0.0, boundary="closed"),
        evolve.IsingChain(n_spins=2, J=1.1, g=0.0, boundary="closed"),
        evolve.LocalZSecond(omega=1.4),
    ]
    t = 1.3
    for spec in cases:
        factors = np.array([qcore.random_density(2, rng) for _ in range(spec.n)])
        invariants = evolve._fast_invariants(factors, evolve._z_strings(spec))
        pop0, coh = invariants[0], evolve._fast_coherences(invariants, t)
        h = evolve.build_hamiltonian(spec)
        rho_t = qcore.propagate(*qcore.eigensystem(h), qcore.kron(factors), t)
        for k in range(spec.n):
            want = qcore.partial_trace(rho_t, [k + 1], spec.n)
            got = np.array([[pop0[k], coh[k]], [np.conj(coh[k]), 1.0 - pop0[k]]])
            assert qcore.trace_norm(got - want) < 1e-12


def test_z_energies_match_pauli_sum(rng):
    # the dense route's energies come from the merged strings: pauli_sum's
    # diagonal less the identity strings, which are a global phase
    for n in (1, 2, 3, 5):
        pool = [tuple(rng.choice(np.arange(1, n + 1), size=k, replace=False))
                for k in rng.integers(0, n + 1, size=3)]
        for size in (0, 1, 8):  # supports repeat, in any site order
            terms = [(float(rng.normal()), tuple((int(s), "z") for s in rng.permutation(pool[i])))
                     for i in rng.integers(0, len(pool), size=size)]
            got = evolve._z_energies(evolve._z_strings(_PauliSum(n, tuple(terms))), n)
            want = np.diag(qcore.pauli_sum(terms, n)).real - sum(c for c, ops in terms if not ops)
            scale = sum(abs(c) for c, _ in terms)
            assert got.shape == (2 ** n,) and np.abs(got - want).max() <= 1e-12 * scale
    for axis in ("x", "y"):
        assert evolve._z_strings(_PauliSum(2, ((1.0, ((1, "z"),)), (1.0, ((2, axis),))))) is None


def _reference_hamiltonian(spec):
    # the explicit Kronecker formulas each spec's terms() must reproduce
    z, x, i2 = qcore.SIGMA_Z, qcore.SIGMA_X, qcore.IDENTITY_2
    n = spec.n
    if isinstance(spec, evolve.Swap):
        h = sum(np.kron(qcore.pauli(a), qcore.pauli(a)) for a in qcore.AXES)
        return 0.5 * spec.omega * h
    if isinstance(spec, evolve.Cnot):
        return -0.5 * spec.omega * (np.kron(z, i2) + np.kron(i2, x) - np.kron(z, x))
    if isinstance(spec, evolve.CnotInteraction):
        return 0.5 * spec.omega * np.kron(z, x)
    if isinstance(spec, evolve.LocalZSecond):
        return 0.5 * spec.omega * np.kron(i2, z)
    def on_sites(ops):
        return qcore.kron([ops.get(k, i2) for k in range(1, n + 1)])

    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    if isinstance(spec, evolve.FieldAllToAll):
        for k, w in enumerate(spec.omegas, start=1):
            h += w * on_sites({k: z})
        if spec.include_interaction:
            h += qcore.kron([z] * n)
        return h
    for a, b in spec.bonds():
        h -= spec.J * on_sites({a: z, b: z})
    for j in range(1, n + 1):
        h -= spec.g * on_sites({j: x})
    return h


def test_specs_match_kron_formulas():
    specs = [
        evolve.Swap(omega=1.3),
        evolve.Cnot(omega=0.7),
        evolve.CnotInteraction(omega=1.1),
        evolve.LocalZSecond(omega=2.0),
        evolve.sample_field(4, seed=1),
        evolve.sample_field(4, seed=2, include_interaction=True),
        evolve.IsingChain(n_spins=2, J=1.0, g=0.3, boundary="closed"),
        evolve.IsingChain(n_spins=4, J=0.9, g=0.0, boundary="closed"),
        evolve.IsingChain(n_spins=5, J=-0.7, g=0.4, boundary="open"),
    ]
    for spec in specs:
        want = _reference_hamiltonian(spec)
        assert np.array_equal(evolve.build_hamiltonian(spec), want), spec
        csr = evolve._sparse_hamiltonian(spec.terms(), spec.n, _basis_orbits(spec.n))
        assert np.array_equal(csr.toarray(), want), spec


def test_auto_route_follows_structure():
    mixed = qcore.density_from_bloch([0.5, -0.2, 0.4])
    pure = qcore.density_from_bloch(_bloch(0.7, 0.3))
    # (spec, route for a pure input, route for a mixed input)
    cases = [
        (evolve.Swap(omega=1.0), "statevector", "statevector"),
        (evolve.Cnot(omega=1.0), "statevector", "statevector"),
        (evolve.CnotInteraction(omega=1.0), "statevector", "statevector"),
        (evolve.LocalZSecond(omega=1.0), "fast", "fast"),
        (evolve.sample_field(3, seed=4, include_interaction=True), "fast", "fast"),
        (evolve.IsingChain(n_spins=3, J=1.0, g=0.0), "fast", "fast"),
        (evolve.IsingChain(n_spins=3, J=1.0, g=0.5), "statevector", "statevector"),
    ]
    for spec, want_pure, want_mixed in cases:
        cg = preferential(spec.n, 0.6)
        for rho0, want in ((pure, want_pure), (mixed, want_mixed)):
            traj = evolve.trajectory(rho0, cg, spec, [0.0, 0.7])
            assert traj.route == want, (spec, want)
    # the mixed-input cap binds the statevector route only: a diagonal H runs
    # a mixed input on dense past it
    field = evolve.sample_field(evolve.MIXED_MAX_SPINS + 1, seed=4)
    evolve.trajectory(mixed, non_preferential(field.n), field, [0.5], method="dense")


def test_krylov_field_vs_fast():
    # 13 sites puts the state-vector route on the generic sparse Hamiltonian
    times = np.linspace(0.0, 2.0, 4)
    rho0 = qcore.density_from_bloch(_bloch(1.2, 0.4))
    spec = evolve.sample_field(13, seed=3, include_interaction=True)
    cg = preferential(13, 0.3)
    sv = evolve.trajectory(rho0, cg, spec, times, method="statevector")
    fast = evolve.trajectory(rho0, cg, spec, times, method="fast")
    assert np.abs(sv.bloch - fast.bloch).max() < 1e-10


def test_dense_diagonal_skips_eigensystem(monkeypatch):
    def boom(*args):
        raise AssertionError("a diagonal Hamiltonian needs no matrix or eigh")

    monkeypatch.setattr(qcore, "eigensystem", boom)
    monkeypatch.setattr(evolve, "build_hamiltonian", boom)
    times = np.linspace(0.0, 3.0, 7)
    rho0 = qcore.density_from_bloch([0.5, -0.2, 0.4])
    specs = [evolve.LocalZSecond(omega=1.3)]
    for n in range(2, 11):
        specs.append(evolve.sample_field(n, seed=n, include_interaction=False))
        specs.append(evolve.sample_field(n, seed=n, include_interaction=True))
    specs += [evolve.IsingChain(n_spins=n, J=0.9, g=0.0) for n in (2, 5, 8)]
    for spec in specs:
        cg = preferential(spec.n, 0.4)
        dense = evolve.trajectory(rho0, cg, spec, times, method="dense")
        fast = evolve.trajectory(rho0, cg, spec, times, method="fast")
        assert np.abs(dense.bloch - fast.bloch).max() < 1e-12, spec


def test_krylov_steps_match_per_point_oracle():
    # a non-uniform grid that starts after t = 0: each point must equal a
    # fresh expm_multiply from t = 0, whatever the spacing before it
    from scipy.sparse.linalg import expm_multiply

    n = 13
    times = np.array([0.15, 0.2, 0.55, 0.6, 1.4])
    direction = _bloch(0.8, 0.3)
    spec = evolve.IsingChain(n_spins=n, J=1.0, g=0.5)
    cg = preferential(n, 0.3)
    traj = evolve.trajectory(qcore.density_from_bloch(direction), cg, spec, times)
    assert traj.route == "statevector"

    site = np.array([math.cos(0.4), math.sin(0.4) * np.exp(0.3j)])
    psi0 = site
    for _ in range(n - 1):
        psi0 = np.kron(psi0, site)
    h = evolve._sparse_hamiltonian(spec.terms(), n, _basis_orbits(n))
    for t, got in zip(times, traj.bloch):
        psi = expm_multiply(-1j * t * h, psi0)
        eff = np.zeros((2, 2), dtype=complex)
        for k, p in enumerate(cg.probs, start=1):
            a = psi.reshape(2 ** (k - 1), 2, 2 ** (n - k))
            eff += p * np.einsum("aib,ajb->ij", a, a.conj())
        assert np.abs(got - qcore.bloch_from_density(eff)).max() < 1e-10, t


@dataclass(frozen=True)
class _ZSum:
    """A z-only Pauli sum given as (coeff, sites) pairs, sites in any order."""

    n: int
    strings: tuple

    def terms(self):
        for coeff, sites in self.strings:
            yield coeff, tuple((k, "z") for k in sites)


@st.composite
def _z_sum_cases(draw):
    n = draw(st.integers(2, 6))
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    support = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    kind = draw(st.sampled_from(["repeats", "ring", "graph", "overlap"]))
    if kind == "repeats":  # a few supports, each drawn again in either order
        pool = draw(st.lists(support, min_size=1, max_size=4))
        strings = []
        for _ in range(draw(st.integers(1, 7))):
            sites = draw(st.sampled_from(pool))
            strings.append((draw(coeff), sites[::-1] if draw(st.booleans()) else sites))
    elif kind == "ring":  # the two-site ring's doubled bond, with fields
        j = draw(coeff)
        strings = [(j, (1, 2)), (j, (2, 1))] + [(draw(coeff), (k,)) for k in range(1, n + 1)]
    elif kind == "graph":  # two-body ZZ on a random coupling graph, with fields
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        strings = [(draw(coeff), e) for e in edges] + [(draw(coeff), (k,)) for k in range(1, n + 1)]
    else:  # a string sharing two sites with a longer one, among random others
        n = max(n, 3)
        a, b, c = draw(st.permutations(range(1, n + 1)))[:3]
        strings = [(draw(coeff), (a, b, c)), (draw(coeff), (b, a))]
        extra = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
        strings += [(draw(coeff), s) for s in draw(st.lists(extra, max_size=3))]
    pure = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.dirichlet(np.ones(n))
    if not pure:  # zero weights are allowed for mixed inputs only
        probs[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
        if probs.sum() == 0.0:
            probs[0] = 1.0
    direction = rng.normal(size=3)
    radius = 1.0 if pure else draw(st.floats(0.05, 0.95))
    bloch = radius * direction / np.linalg.norm(direction)
    return _ZSum(n, tuple(strings)), custom(probs / probs.sum()), bloch


def _shares_two_sites(strings):
    # the eligibility rule, written independently: merged supports, pairwise
    supports = list({frozenset(sites) for _, sites in strings})
    return any(len(a & b) > 1 for i, a in enumerate(supports) for b in supports[i + 1:])


@settings(max_examples=80, deadline=None)
@given(case=_z_sum_cases())
def test_fast_route_matches_diagonal_dense(case):
    spec, cg, bloch = case
    rho0 = qcore.density_from_bloch(bloch)
    times = [0.0, 0.37, 1.3, 2.9]
    dense = evolve.trajectory(rho0, cg, spec, times, method="dense")
    auto = evolve.trajectory(rho0, cg, spec, times)
    if _shares_two_sites(spec.strings):
        assert auto.route == "dense"
        assert np.array_equal(auto.bloch, dense.bloch)
        with pytest.raises(ValueError, match="share two or more sites"):
            evolve.trajectory(rho0, cg, spec, times, method="fast")
    else:
        assert auto.route == "fast"
        assert np.abs(auto.bloch - dense.bloch).max() < 1e-12


def test_fast_chain_keeps_scalar_rounding(rng):
    # a per-bond loop multiplies each site's factors one scalar at a time in
    # ascending partner order; the fast route keeps those bytes, which the
    # shipped g = 0 chain sweep pins
    t = 1.3
    for n, boundary in ((2, "closed"), (2, "open"), (3, "closed"), (6, "closed"), (6, "open")):
        spec = evolve.IsingChain(n_spins=n, J=0.9, g=0.0, boundary=boundary)
        factors = np.array([qcore.random_density(2, rng) for _ in range(n)])
        invariants = evolve._fast_invariants(factors, evolve._z_strings(spec))
        got = evolve._fast_coherences(invariants, t)
        zval = np.array([(f[0, 0] - f[1, 1]).real for f in factors])
        want = np.array([f[0, 1] for f in factors], dtype=complex)
        for j in range(1, n + 1):
            bonds = spec.bonds()
            partners = [b for a, b in bonds if a == j] + [a for a, b in bonds if b == j]
            for m in sorted(set(partners)):
                ang = 2.0 * spec.J * partners.count(m) * t
                want[j - 1] *= np.cos(ang) + 1j * zval[m - 1] * np.sin(ang)
        assert got.tobytes() == want.tobytes(), (n, boundary)


def test_fast_route_rejects_bad_sites():
    rho0 = qcore.density_from_bloch([0.3, 0.1, 0.2])
    for strings in (((1.0, (0,)),), ((1.0, (4,)),), ((1.0, (2, 2)),), ((0.5, (1, 3, 4)),)):
        with pytest.raises(ValueError, match="distinct sites"):
            evolve.trajectory(rho0, non_preferential(3), _ZSum(3, strings), [0.0, 1.0])


def _reference_z_strings(terms):
    # a plain parse: merge the sorted z supports in term order, then one sorted
    # group per support size, identity strings dropped; None on any other axis
    merged = {}
    for coeff, ops in terms:
        if any(axis != "z" for _, axis in ops):
            return None
        key = tuple(sorted(site for site, _ in ops))
        merged[key] = merged[key] + coeff if key in merged else coeff
    groups = []
    for size in sorted({len(k) for k in merged} - {0}):
        keys = sorted(k for k in merged if len(k) == size)
        groups.append((np.array(keys, dtype=np.intp), np.array([merged[k] for k in keys], dtype=float)))
    return groups


@st.composite
def _z_term_lists(draw, n):
    """z-only terms on sites 1..n: repeated supports in any site order, identity
    strings and the two-site ring's doubled bond."""
    coeff = st.floats(-3.0, 3.0, allow_nan=False)
    support = st.lists(st.integers(1, n), min_size=0, max_size=n, unique=True)
    pool = draw(st.lists(support, min_size=1, max_size=5)) + [[1, 2], [2, 1], []]
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        sites = draw(st.permutations(draw(st.sampled_from(pool))))
        terms.append((draw(coeff), tuple((k, "z") for k in sites)))
    return terms


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 7))
def test_z_strings_match_a_plain_parse(data, n):
    terms = data.draw(_z_term_lists(n))
    got, want = evolve._z_strings(_PauliSum(n, tuple(terms))), _reference_z_strings(terms)
    assert len(got) == len(want)
    for (sites, coeffs), (ref_sites, ref_coeffs) in zip(got, want):
        assert sites.dtype == ref_sites.dtype and sites.shape == ref_sites.shape
        assert sites.tobytes() == ref_sites.tobytes() and coeffs.tobytes() == ref_coeffs.tobytes()
    # one x or y factor anywhere gives None, even beside a bad site
    bad = (1.0, ((n + 1, "z"),))
    where = data.draw(st.integers(0, len(terms) + 1))
    axis, site = data.draw(st.sampled_from(["x", "y"])), data.draw(st.integers(1, n))
    ops = data.draw(st.permutations([(site, axis)] + [(k, "z") for k in range(1, n + 1) if k != site][:2]))
    other = terms[:where] + [bad, (0.5, tuple(ops))] + terms[where:]
    assert evolve._z_strings(_PauliSum(n, tuple(other))) is None
    # a repeated or out-of-range site in a z-only sum raises
    for wrong in (((0, "z"),), ((n + 1, "z"),), ((1, "z"), (1, "z")), ((2, "z"), (1, "z"), (2, "z"))):
        with pytest.raises(ValueError, match="distinct sites"):
            evolve._z_strings(_PauliSum(n, tuple(terms[:where] + [(1.0, wrong)] + terms[where:])))


def _per_point_fast_bloch(rho, cg, spec, times):
    # the fast route as it stood with np.exp(-2j * coeffs * t) and a real-weight
    # np.dot formed at every point, on the plain parse: the bytes to keep
    factors = maxent.assign(rho, cg).factors
    coh, zval = factors[:, 0, 1], (factors[:, 0, 0] - factors[:, 1, 1]).real
    rz = 2 * float(np.dot(cg.probs, factors[:, 0, 0].real.copy())) - 1.0
    groups = _reference_z_strings(spec.terms())
    bloch, cohs = [], []
    for t in times:
        out = coh.copy()
        for sites, coeffs in groups:
            if sites.shape[1] == 1:
                factor = np.exp(-2j * coeffs * t)
            else:
                ang = 2 * coeffs * t
                factor = np.cos(ang)[:, None] - 1j * np.sin(ang)[:, None] * qcore.exclusive_products(
                    zval[sites - 1])
            np.multiply.at(out, sites.ravel() - 1, factor.ravel())
        eff_coh = complex(np.dot(cg.probs, out))
        bloch.append([2 * eff_coh.real, -2 * eff_coh.imag, rz])
        cohs.append(out)
    return np.array(bloch), cohs


@pytest.mark.parametrize("spec", [
    evolve.sample_field(10, seed=3), evolve.sample_field(10, seed=4, include_interaction=True),
    evolve.sample_field(1000, seed=5), evolve.sample_field(1000, seed=6, include_interaction=True),
    evolve.IsingChain(n_spins=7, J=0.8, g=0.0), evolve.IsingChain(n_spins=50, J=1.1, g=0.0, boundary="open"),
], ids=["field-10", "nbody-10", "field-1000", "nbody-1000", "chain-7", "open-chain-50"])
def test_fast_route_keeps_the_per_point_bytes(spec):
    rng = np.random.default_rng(spec.n)
    rho, cg = qcore.random_density(2, rng), custom(rng.dirichlet(np.ones(spec.n)))
    times = np.linspace(0.0, 5.0, 21)
    want, cohs = _per_point_fast_bloch(rho, cg, spec, times)
    got = evolve.trajectory(rho, cg, spec, times, method="fast")
    assert got.route == "fast" and got.bloch.tobytes() == want.tobytes()
    invariants = evolve._fast_invariants(maxent.assign(rho, cg).factors, evolve._z_strings(spec))
    for t, coh in zip(times, cohs):
        assert evolve._fast_coherences(invariants, t).tobytes() == coh.tobytes()


@pytest.mark.parametrize("n, points", [(10, 1000), (160, 401)])
@pytest.mark.parametrize("kind", ["field", "nbody", "chain"])
def test_blocked_fast_route_keeps_the_per_point_bytes(n, points, kind):
    # the grid is stepped in blocks of HEISENBERG_BLOCK coherences, here several
    # full blocks and a short last one for every stack size
    spec = (evolve.IsingChain(n_spins=n, J=0.7, g=0.0) if kind == "chain"
            else evolve.sample_field(n, seed=n, include_interaction=kind == "nbody"))
    rng = np.random.default_rng(n + points)
    rhos, cg = np.array([qcore.random_density(2, rng) for _ in range(3)]), custom(rng.dirichlet(np.ones(n)))
    times = np.linspace(0.0, 7.0, points)
    want = [_per_point_fast_bloch(rho, cg, spec, times)[0] for rho in rhos]
    for size in (1, 2, 3):
        assert points % (evolve.HEISENBERG_BLOCK // (size * n)) != 0  # a short last block
        got = evolve.trajectory(rhos[:size], cg, spec, times, method="fast")
        for b in range(size):
            assert got.bloch[b].tobytes() == want[b].tobytes(), (size, b)
    # a scalar t is the matching row of a block
    invariants = evolve._fast_invariants(maxent.assign(rhos, cg).factors, evolve._z_strings(spec), points)
    block = evolve._fast_coherences(invariants, times)
    assert block.shape == (points, 3, n)
    for t, row in zip(times, block):
        assert evolve._fast_coherences(invariants, t).tobytes() == row.tobytes()


def test_fast_route_blocks_hold_at_most_heisenberg_block_coherences(monkeypatch):
    calls, step = [], evolve._fast_coherences
    monkeypatch.setattr(evolve, "_fast_coherences", lambda inv, t: calls.append(np.size(t)) or step(inv, t))
    rho = qcore.density_from_bloch([0.8, 0.0, 0.0])
    evolve.trajectory(rho, non_preferential(10 ** 4), evolve.sample_field(10 ** 4), np.linspace(0.0, 1.0, 101))
    assert calls == [1] * 101  # past HEISENBERG_BLOCK sites one point at a time
    calls.clear()
    # the field-small-n config's grid in one block
    t_c = 2.0 * math.pi / 0.2
    evolve.trajectory(rho, preferential(10, 0.5), evolve.sample_field(10, seed=7), np.linspace(0.0, 4 * t_c, 401))
    assert calls == [401]


@pytest.mark.parametrize("points", [1, 2, 33])
@pytest.mark.parametrize("n, size", [(2049, 1), (1025, 2), (10 ** 4, 3), (20001, 1)])
@pytest.mark.parametrize("nbody", [False, True], ids=["field", "nbody"])
def test_worker_count_never_changes_a_byte(monkeypatch, n, size, points, nbody):
    # one-point blocks run on the process's CPUs: 3 workers give uneven shares on two
    # cores, switching often, and n = 20,001 reaches OpenBLAS's threaded zdotu in the read-out
    spec = evolve.sample_field(n, seed=n, include_interaction=nbody)
    rng = np.random.default_rng(n + size)
    rhos, cg = np.array([qcore.random_density(2, rng) for _ in range(size)]), custom(rng.dirichlet(np.ones(n)))
    times = np.linspace(0.0, 5.0, points)
    got, before, interval = [], threading.active_count(), sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 3):
            monkeypatch.setattr(evolve, "_CPUS", workers)
            got.append(evolve.trajectory(rhos, cg, spec, times).bloch.tobytes())
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
    assert got[1] == got[0] and got[2] == got[0]


def test_threads_start_only_on_one_point_blocks(monkeypatch):
    starts, start, step = [], threading.Thread.start, evolve._fast_coherences
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
    rho, before = qcore.density_from_bloch([0.8, 0.0, 0.0]), threading.active_count()

    def busy_off_main(invariants, t):  # the pool hands the next share to a worker that is done with its own
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.001)
        return step(invariants, t)

    monkeypatch.setattr(evolve, "_fast_coherences", busy_off_main)

    def started(spec, points):
        starts.clear()
        evolve.trajectory(rho, non_preferential(spec.n), spec, np.linspace(0.0, 5.0, points))
        assert threading.active_count() == before
        return len(starts)

    assert started(evolve.sample_field(160, seed=7), 401) == 0  # the field-dephasing config
    assert started(evolve.IsingChain(n_spins=50, J=1.0, g=0.0), 101) == 0
    assert started(evolve.sample_field(1000, seed=1), 101) == 0
    assert started(evolve.sample_field(2049, seed=1), 101) == evolve._CPUS - 1
    monkeypatch.setattr(evolve, "_CPUS", 3)
    assert started(evolve.sample_field(2049, seed=1), 101) == 2
    assert started(evolve.sample_field(2049, seed=1), 2) == 1  # no more workers than blocks


@pytest.mark.parametrize("error, on_worker", [(ValueError("boom"), True), (KeyboardInterrupt(), False)],
                         ids=["worker-value-error", "caller-interrupt"])
def test_failing_share_surfaces_after_every_thread_joined(monkeypatch, error, on_worker):
    n, times = 2049, np.linspace(0.0, 5.0, 101)
    spec, cg = evolve.sample_field(n, seed=2, include_interaction=True), custom(np.full(n, 1.0 / n))
    rho, step = qcore.density_from_bloch([0.6, 0.3, 0.1]), evolve._fast_coherences
    want = _per_point_fast_bloch(rho, cg, spec, times)[0]
    dyn, before = evolve.dynamics(cg, spec), threading.active_count()
    monkeypatch.setattr(evolve, "_CPUS", 2)
    calls = {True: 0, False: 0}

    def failing(invariants, t):
        worker = threading.current_thread() is not threading.main_thread()
        calls[worker] += 1
        if worker == on_worker and t[0] == times[5 if on_worker else 0]:
            raise error
        return step(invariants, t)

    monkeypatch.setattr(evolve, "_fast_coherences", failing)
    with pytest.raises(type(error)) as raised:
        dyn(rho, times)
    assert raised.value is error and threading.active_count() == before
    if not on_worker:  # the caller's interrupt waits for the worker's whole share
        assert calls == {False: 1, True: 50}
    monkeypatch.setattr(evolve, "_fast_coherences", step)
    assert dyn(rho, times).bloch.tobytes() == want.tobytes()


def test_a_thread_that_cannot_start_leaves_the_started_ones_joined(monkeypatch):
    started, start, step = [], threading.Thread.start, evolve._fast_coherences

    def start_once(self):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(self)
        start(self)

    def slow_off_main(invariants, t):  # the started worker is still busy when the next start fails
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.002)
        return step(invariants, t)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    monkeypatch.setattr(evolve, "_fast_coherences", slow_off_main)
    monkeypatch.setattr(evolve, "_CPUS", 3)
    n, before = 2049, threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        evolve.trajectory(qcore.density_from_bloch([0.8, 0.0, 0.0]), non_preferential(n), evolve.sample_field(n),
                          np.linspace(0.0, 5.0, 101))
    assert len(started) == 1 and not started[0].is_alive() and threading.active_count() == before


# ---------------------------------------------------------------------------
# Continuity across the two radius cuts of the assignment


@st.composite
def _cut_cases(draw):
    """A spec on n <= 5 sites, positive weights (some near zero), a unit
    direction and a strictly increasing grid."""
    kind = draw(st.sampled_from(["swap", "cnot", "chain", "field"]))
    if kind in ("swap", "cnot"):
        omega = draw(st.floats(0.3, 2.0))
        spec = evolve.Swap(omega=omega) if kind == "swap" else evolve.Cnot(omega=omega)
    elif kind == "chain":
        spec = evolve.IsingChain(
            n_spins=draw(st.integers(2, 5)), J=1.0, g=draw(st.sampled_from([0.0, 0.5, 1.3]))
        )
    else:
        spec = evolve.sample_field(
            draw(st.integers(2, 5)), seed=draw(st.integers(0, 99)),
            include_interaction=draw(st.booleans()),
        )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.dirichlet(np.ones(spec.n))
    tiny = draw(st.lists(st.booleans(), min_size=spec.n, max_size=spec.n))
    probs[tiny] = draw(st.sampled_from([1e-3, 1e-7]))
    direction = rng.normal(size=3)
    times = np.cumsum(draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=4)))
    return spec, custom(probs / probs.sum()), direction / np.linalg.norm(direction), times


def _read_radius(r, direction):
    # the radius the assignment reads back from the input state
    return float(np.linalg.norm(qcore.bloch_from_density(qcore.density_from_bloch(r * direction))))


def _last_mixed_radius(direction):
    # the largest input radius along direction that the assignment reads as mixed
    r = qcore.PURE_RADIUS
    while _read_radius(r, direction) >= qcore.PURE_RADIUS:
        r = np.nextafter(r, 0.0)
    while _read_radius(np.nextafter(r, 2.0), direction) < qcore.PURE_RADIUS:
        r = np.nextafter(r, 2.0)
    return r


@settings(max_examples=40, deadline=None)
@given(case=_cut_cases(), shrink=st.floats(0.2, 0.5))
def test_trajectory_continuous_across_zero_radius(case, shrink):
    spec, cg, direction, times = case
    below, above = (
        evolve.trajectory(qcore.density_from_bloch(r * direction), cg, spec, times)
        for r in (qcore.ZERO_RADIUS * (1.0 - shrink), qcore.ZERO_RADIUS * (1.0 + shrink))
    )
    assert below.solution.lam == 0.0 < above.solution.lam
    assert np.abs(below.bloch - above.bloch).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(case=_cut_cases())
def test_pure_radius_jump_is_bounded(case):
    # Below PURE_RADIUS the solve gives sum_k p_k (1 - r_k) = 1 - r, so the
    # snap to r_k = 1 moves the site radii by at most (1 - r)/p_min in total.
    # Each unit of site radius is one unit of trace norm on the product state;
    # U(t) keeps the trace norm and the averaging contracts it, so the
    # effective Bloch vector moves by at most the same amount. The output is
    # not continuous across this cut: the bound is all that holds.
    spec, cg, direction, times = case
    r = _last_mixed_radius(direction)
    below, above = (
        evolve.trajectory(qcore.density_from_bloch(x * direction), cg, spec, times)
        for x in (r, np.nextafter(r, 2.0))
    )
    assert math.isfinite(below.solution.lam) and above.solution.lam == math.inf
    bound = (1.0 - _read_radius(r, direction)) / cg.probs.min()
    move = np.linalg.norm(above.bloch - below.bloch, axis=1).max()
    # 1e-12 absorbs the two routes' rounding, far below the bound's 1e-9 scale
    assert move <= bound + 1e-12


# ---------------------------------------------------------------------------
# The state-vector engines: a joint-density oracle against eigh, Krylov and
# the Heisenberg form on random Pauli sums, the cost model that picks between
# eigh and Krylov, and the positivity report


@dataclass(frozen=True)
class _PauliSum:
    """Any Pauli sum, given as its (coeff, ((site, axis), ...)) terms."""

    n: int
    strings: tuple

    def terms(self):
        return iter(self.strings)


@st.composite
def _pauli_sum_cases(draw):
    """x/y/z strings on 1-3 distinct sites of n <= 6, supports drawn again to
    repeat them, and in a rotation-closed sum each string with all n of its
    rotations at one coefficient; weights with values near 1e-7, and zeros
    for mixed inputs; a mixed, pure or just-mixed input; a strictly
    increasing grid that may start before t = 0."""
    n = draw(st.integers(2, 6))
    closed = draw(st.booleans())
    pool = draw(st.lists(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True),
                         min_size=1, max_size=4))
    coeff = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
    strings = []
    for _ in range(draw(st.integers(1, 7))):
        sites = draw(st.sampled_from(pool))
        axes = draw(st.lists(st.sampled_from(qcore.AXES), min_size=len(sites), max_size=len(sites)))
        c = draw(coeff)
        for k in range(n if closed else 1):
            strings.append((c, tuple(((j + k - 1) % n + 1, a) for j, a in zip(sites, axes))))
    kind = draw(st.sampled_from(["pure", "mixed", "just-mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.dirichlet(np.ones(n))
    probs[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = draw(st.floats(5e-8, 2e-7))
    if kind == "mixed":  # a pure input needs every weight positive
        probs[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
        if probs.sum() == 0.0:
            probs[0] = 1.0
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = {"pure": 1.0, "mixed": draw(st.floats(0.05, 0.95))}.get(kind)
    if radius is None:
        radius = _last_mixed_radius(direction)
    steps = draw(st.lists(st.floats(0.05, 1.5), max_size=4))
    times = draw(st.sampled_from([0.0, 0.4, -0.9])) + np.cumsum([0.0] + steps)
    return _PauliSum(n, tuple(strings)), custom(probs / probs.sum()), direction, radius, times, closed


def _joint_density_oracle(rho0, cg, spec, times):
    # C(U rho U^dag) on the assigned 2^n x 2^n joint state, U from one eigh of H
    evals, evecs = qcore.eigensystem(qcore.pauli_sum(spec.terms(), spec.n))
    joint = maxent.assign(rho0, cg).to_matrix()
    return np.array([qcore.bloch_from_density(apply_cg(qcore.propagate(evals, evecs, joint, t), cg))
                     for t in times])


@settings(max_examples=120, deadline=None)
@given(case=_pauli_sum_cases())
def test_dense_and_statevector_engines_agree(case):
    spec, cg, direction, radius, times, closed = case
    if closed:  # forced Krylov then steps the momentum-zero sector
        assert evolve._orbits(spec)[0].size < 2 ** spec.n
    rho0 = qcore.density_from_bloch(radius * direction)
    oracle = _joint_density_oracle(rho0, cg, spec, times)
    # every input: a pure one as amplitudes, a mixed one in the Heisenberg form
    outputs = [evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch]
    if evolve._z_strings(spec) is not None:  # a diagonal H also runs on dense
        outputs.append(evolve.trajectory(rho0, cg, spec, times, method="dense").bloch)
    for bloch in outputs:
        assert np.abs(bloch - oracle).max() <= 1e-10
    if radius > 0.95:  # pure or just mixed: both engines on the pure snap
        engines = {}
        for engine in ("eigh", "krylov"):
            # the selector returns (modelled ns, engine); trajectory reads the engine
            with mock.patch.object(evolve, "_statevector_engine", lambda *_: (0.0, engine)):
                engines[engine] = evolve.trajectory(qcore.density_from_bloch(direction), cg, spec,
                                                    times, method="statevector").bloch
        assert np.abs(engines["eigh"] - engines["krylov"]).max() <= 1e-10
        # a just-mixed input sits at most (1 - r)/p_min from its pure snap
        # (test_pure_radius_jump_is_bounded); a pure one is its own snap
        bound = 0.0 if radius == 1.0 else (1.0 - _read_radius(radius, direction)) / cg.probs.min()
        for bloch in engines.values():
            assert np.abs(bloch - oracle).max() <= bound + 1e-10
        outputs += engines.values()
    for bloch in outputs:
        assert np.sqrt((bloch ** 2).sum(axis=1)).max() <= qcore.MAX_RADIUS


def _complex_eigenbasis_oracle(rho0, cg, spec, times):
    # the Heisenberg form in a complex eigenbasis: LAPACK's complex eigh of H and
    # V^dag M V by complex products, whatever the dtype of H's entries
    evals, v = np.linalg.eigh(qcore.pauli_sum(spec.terms(), spec.n).astype(complex))
    rho_hat = v.conj().T @ maxent.assign(rho0, cg).to_matrix() @ v
    g_hat = [v.conj().T @ fuzzy_operator(a, cg) @ v for a in qcore.AXES]
    out = []
    for t in times:
        phases = np.exp(-1j * evals * t)
        rho_t = rho_hat * np.outer(phases, phases.conj())
        out.append([np.trace(g @ rho_t).real for g in g_hat])
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7), closed=st.booleans(), J=st.floats(-1.5, 1.5), g=st.floats(-1.5, 1.5),
    radius=st.one_of(st.just(1.0), st.floats(0.05, 0.95)), seed=st.integers(0, 2 ** 32 - 1),
    steps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
)
def test_real_eigenbasis_matches_complex_oracle(n, closed, J, g, radius, seed, steps):
    # the chain's H is real, so eigh and every product with its eigenvectors run
    # in real arithmetic; a complex eigenbasis gives the same trajectory
    spec = evolve.IsingChain(n, J=J, g=g, boundary="closed" if closed else "open")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    rho0 = qcore.density_from_bloch(radius * direction / np.linalg.norm(direction))
    cg = custom(rng.dirichlet(np.ones(n)))
    times = np.cumsum([0.0] + steps)
    got = evolve.trajectory(rho0, cg, spec, times).bloch
    assert np.abs(got - _complex_eigenbasis_oracle(rho0, cg, spec, times)).max() <= 1e-12


@pytest.mark.parametrize("strings", [
    ((0.8, ((1, "y"),)),),
    ((0.8, ((1, "y"),)), (-0.5, ((1, "x"), (2, "y"))), (0.3, ((2, "z"),))),
    ((0.6, ((1, "x"), (2, "y"))), (0.4, ((2, "z"), (3, "x"))), (-0.7, ((1, "y"), (3, "z")))),
])
def test_imaginary_hamiltonian_keeps_a_complex_eigenbasis(strings):
    # a string with one Y factor makes H's entries imaginary: eigh stays complex
    # and both engines that use it match the propagate + apply_cg oracle
    spec = _PauliSum(max(2, *(site for _, ops in strings for site, _ in ops)), strings)
    h = evolve.build_hamiltonian(spec)
    assert h.imag.any()
    evals, evecs = qcore.eigensystem(h)
    assert evecs.dtype == complex and evals.dtype == float
    cg, times = preferential(spec.n, 0.6), np.linspace(0.0, 2.5, 6)
    for r in (1.0, 0.7):  # a pure input takes the eigh engine, a mixed one the Heisenberg form
        rho0 = qcore.density_from_bloch(r * _bloch(1.1, 0.6))
        with _forced("eigh"):
            got = evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch
        assert np.abs(got - _joint_density_oracle(rho0, cg, spec, times)).max() <= 1e-12


def test_eigensystem_is_real_for_a_real_hamiltonian():
    for spec in (evolve.IsingChain(5, J=1.0, g=0.7), evolve.Swap(omega=1.3), evolve.Cnot(omega=0.8)):
        h = evolve.build_hamiltonian(spec)
        assert not h.imag.any()
        evals, evecs = qcore.eigensystem(h)
        assert evecs.dtype == float
        assert np.abs(evecs @ np.diag(evals) @ evecs.T - h).max() <= 1e-13


_Z_PART = ((1.0, ((1, "z"),)), (0.5, ((1, "z"), (3, "z"))))
_XX_RING = tuple((1.0, ((k, "x"), (k % 13 + 1, "x"))) for k in range(1, 14))


@pytest.mark.parametrize("bad", [1j, math.nan, math.inf], ids=["complex", "nan", "inf"])
@pytest.mark.parametrize("route, engine, n, rest, string, pure", [
    ("fast", None, 3, _Z_PART, ((2, "z"),), False),
    ("dense", None, 3, _Z_PART, ((1, "z"), (2, "z"), (3, "z")), False),  # Z1Z3 in Z1Z2Z3: not a product
    ("statevector", None, 3, ((1.0, ((1, "x"),)),), ((2, "z"),), False),  # mixed: eigh, Heisenberg form
    ("statevector", "eigh", 3, ((1.0, ((1, "x"),)),), ((2, "z"),), True),
    ("statevector", "krylov", 13, _XX_RING, ((1, "z"),), True),
], ids=["fast", "dense", "mixed-eigh", "pure-eigh", "krylov"])
def test_coefficient_that_is_no_finite_real_is_refused_before_any_step(monkeypatch, route, engine, n, rest,
                                                                        string, pure, bad):
    # a spec that declares its strings through terms() need not check its own coefficients
    rho, times = qcore.density_from_bloch([0.0, 0.0, 1.0] if pure else [0.3, 0.2, 0.1]), np.linspace(0.0, 1.0, 4)
    good = _PauliSum(n, rest + ((0.3, string),))
    assert evolve.trajectory(rho, non_preferential(n), good, times).route == route
    if engine is not None:
        norm = sum(abs(c) for c, _ in good.terms())
        assert evolve._statevector_engine(good, times, evolve._orbits(good)[0].size, norm)[1] == engine

    def stepped(*args, **kwargs):
        raise AssertionError("stepped")

    for owner, name in ((evolve, "_fast_coherences"), (evolve, "_orbit_bloch"), (qcore, "propagate"),
                        (qcore, "eigensystem"), (scipy.sparse.linalg, "expm_multiply")):
        monkeypatch.setattr(owner, name, stepped)
    spec = _PauliSum(n, rest + ((0.3 * bad, string),))
    with pytest.raises(ValueError) as exc:
        evolve.dynamics(non_preferential(n), spec)(rho, times)
    assert str(exc.value) == f"coefficient {0.3 * bad!r} of Pauli string {string!r} is not a finite real number"


_OVERFLOWING = _PauliSum(2, ((1e308, ((1, "x"),)), (1e308, ((1, "x"),)), (1.0, ((2, "z"),))))
_FIELD_OVERFLOWING = evolve.FieldAllToAll((1e308, 1e308))  # finite per site; the all-up energy overflows
_GAP_OVERFLOWING = evolve.FieldAllToAll((1e308, -1e308, 1e308))  # the total is finite; z = (+, -, +) is at 3e308
_RATE_OVERFLOWING = evolve.FieldAllToAll((1e308, 1.0))  # every energy is finite; the gap 2 (1e308 + 1) is not


@pytest.mark.parametrize("spec, method, engine, bloch, string", [
    (_OVERFLOWING, "statevector", None, [0.3, 0.2, 0.1], ((1, "x"),)),
    (_OVERFLOWING, "statevector", "eigh", [0.0, 0.0, 1.0], ((1, "x"),)),
    (_OVERFLOWING, "statevector", "krylov", [0.0, 0.0, 1.0], ((1, "x"),)),
    (_FIELD_OVERFLOWING, "auto", None, [0.3, 0.2, 0.1], ((1, "z"),)),
    (_FIELD_OVERFLOWING, "dense", None, [0.3, 0.2, 0.1], ((1, "z"),)),
    (_FIELD_OVERFLOWING, "statevector", None, [0.3, 0.2, 0.1], ((1, "z"),)),
] + [(spec, method, None, [0.3, 0.2, 0.1], ((1, "z"),))
     for spec in (_GAP_OVERFLOWING, _RATE_OVERFLOWING) for method in ("auto", "dense", "fast", "statevector")],
    ids=["mixed-eigh", "pure-eigh", "krylov", "field-auto", "field-dense", "field-statevector"]
    + [f"{kind}-{method}" for kind in ("gap", "rate") for method in ("auto", "dense", "fast", "statevector")])
def test_merged_coefficient_that_overflows_names_its_string(spec, method, engine, bloch, string):
    # two finite X1 coefficients whose sum is past the float range: the block of
    # that xmask is refused, naming one of its strings, with no overflow warning
    # (tier-1 turns a RuntimeWarning into an error). So are z fields whose largest
    # energy gap, 2 sum |c|, is past it, on every route and before any step, also
    # where the all-up energy or every energy is finite
    with _forced(engine) if engine else contextlib.nullcontext():
        with pytest.raises(ValueError) as exc:
            evolve.trajectory(qcore.density_from_bloch(bloch), non_preferential(spec.n), spec, [0.0, 1.0],
                              method=method)
    assert str(exc.value) == f"Pauli strings flipping the sites of {string!r} sum to values that are not finite"


@pytest.mark.parametrize("engine", ["eigh", "krylov"])
def test_sum_with_no_strings_keeps_every_input(engine):
    # H = 0: a pure and a mixed input keep their Bloch vectors on the statevector route
    cg, times = preferential(3, 0.5), np.linspace(0.0, 2.0, 5)
    with _forced(engine):
        for r in ([0.0, 0.0, 1.0], _bloch(0.7, 0.4), [0.3, 0.2, 0.1]):
            got = evolve.trajectory(qcore.density_from_bloch(r), cg, _PauliSum(3, ()), times, method="statevector")
            assert np.abs(got.bloch - r).max() <= 1e-12, r


# ---------------------------------------------------------------------------
# The sectors of site rotation and reflection: Krylov steps an H that either
# fixes on the orbits of its basis states under the group they generate, and
# a pure closed-chain input's trajectory cannot depend on the weights


def _forced(engine):
    # the selector returns (modelled ns, engine); trajectory reads the engine
    return mock.patch.object(evolve, "_statevector_engine", lambda *_: (0.0, engine))


def _ulp_chain(n):
    # the closed chain with one bond's coefficient moved by one ulp
    terms = list(evolve.IsingChain(n, J=1.0, g=0.6).terms())
    terms[1] = (np.nextafter(terms[1][0], 0.0), terms[1][1])
    return _PauliSum(n, tuple(terms))


@pytest.mark.parametrize("spec", [
    *(evolve.IsingChain(n, J=1.0, g=g) for n in range(2, 7) for g in (0.0, 0.6)),  # n = 2: the doubled bond
    evolve.Swap(omega=1.3),
], ids=repr)
def test_rotation_sector_detects_invariant_sums(spec):
    assert evolve._orbits(spec)[0].size < 2 ** spec.n


@pytest.mark.parametrize("spec", [
    evolve.Cnot(omega=0.7),
    evolve.FieldAllToAll((1.0, 1.0, 1.5)),
    _ulp_chain(5),
], ids=["cnot", "unequal-field", "ulp-chain"])
def test_rotation_sector_refuses_other_sums(spec):
    got, want = evolve._orbits(spec), _basis_orbits(spec.n)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _mirror(b, n):
    # the basis state with site k's bit moved to site n + 1 - k
    return int(format(b, f"0{n}b")[::-1], 2)


def _chiral(n):
    # x_k y_{k+1} z_{k+2} around the ring: every rotation keeps it, the reflection
    # turns each string into z y x
    return _PauliSum(n, tuple((0.3, ((k, "x"), (k % n + 1, "y"), ((k + 1) % n + 1, "z"))) for k in range(1, n + 1)))


@pytest.mark.parametrize("n", [2, 3, 5, 6, 9])
def test_reflection_orbits_of_the_open_chain(n):
    # the reflection alone fixes the open chain (and a mirror-symmetric field): the
    # orbits are the pairs {b, mirror b}, (2^n + 2^ceil(n/2)) / 2 of them
    for spec in (evolve.IsingChain(n, J=0.7, g=0.4, boundary="open"),
                 evolve.FieldAllToAll(tuple(1.0 + min(k, n - 1 - k) for k in range(n)))):
        reps, index, lengths = evolve._orbits(spec)
        assert reps.size == (2 ** n + 2 ** ((n + 1) // 2)) // 2 and lengths.sum() == 2 ** n
        for b in range(2 ** n):
            assert reps[index[b]] == min(b, _mirror(b, n))
        assert list(lengths) == [1 + (r != _mirror(r, n)) for r in reps]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_rotation_invariant_sum_that_the_reflection_changes_keeps_the_rotation_orbits(n):
    reps, index, lengths = evolve._orbits(_chiral(n))
    for b in range(2 ** n):
        orbit = {((b >> k) | (b << (n - k))) & (2 ** n - 1) for k in range(n)}
        assert reps[index[b]] == min(orbit)
        if b == min(orbit):
            assert lengths[list(reps).index(b)] == len(orbit)


def _least_images(n, rotate, reflect):
    # each basis state's least image under the rotations and/or the reflection
    b = np.arange(2 ** n)
    images = [((b >> k) | (b << (n - k))) & (2 ** n - 1) for k in range(n)] if rotate else [b]
    if reflect:
        images += [sum(((x >> k) & 1) << (n - 1 - k) for k in range(n)) for x in images]
    return np.min(images, axis=0)


_GROUP_CASES = [
    *(("closed", evolve.IsingChain(n, J=1.0, g=0.5), True, True) for n in range(2, 11)),
    # at n = 2 the rotation is the reflection, so it fixes the open chain too
    *(("open", evolve.IsingChain(n, J=0.7, g=0.4, boundary="open"), n == 2, True) for n in range(2, 11)),
    *(("chiral", _chiral(n), True, False) for n in range(3, 11)),
    ("cnot", evolve.Cnot(omega=0.7), False, False),
    # at n = 4 the moved bond (2, 3) is its own mirror image, so the reflection fixes it
    *(("ulp", _ulp_chain(n), False, n == 4) for n in range(3, 11)),
]


@pytest.mark.parametrize("spec, rotate, reflect", [case[1:] for case in _GROUP_CASES],
                         ids=[f"{case[0]}-n{case[1].n}" for case in _GROUP_CASES])
def test_orbit_numbers_index_the_least_images(spec, rotate, reflect):
    # under both generators, the reflection alone, the rotation alone and neither:
    # representative i has orbit number i, orbit i holds lengths[i] states, and each
    # state's representative is the least of its images under the group
    reps, index, lengths = evolve._orbits(spec)
    assert np.array_equal(index[reps], np.arange(reps.size))
    assert np.array_equal(np.bincount(index), lengths)
    assert np.array_equal(reps[index], _least_images(spec.n, rotate, reflect))


def test_nearly_invariant_sum_runs_on_the_full_space():
    spec, times = _ulp_chain(6), np.linspace(0.0, 2.0, 5)
    rho0, cg = qcore.density_from_bloch(_bloch(0.8, 0.3)), preferential(6, 0.3)
    with _forced("eigh"):
        want = evolve.trajectory(rho0, cg, spec, times).bloch
    real = evolve._sparse_hamiltonian

    def full_space(terms, n, orbits):
        assert all(np.array_equal(a, b) for a, b in zip(orbits, _basis_orbits(n)))
        return real(terms, n, orbits)

    with _forced("krylov"), mock.patch.object(evolve, "_sparse_hamiltonian", full_space):
        got = evolve.trajectory(rho0, cg, spec, times).bloch
    assert np.abs(got - want).max() <= 1e-10


def test_rotation_sector_basis():
    # the closed chain is fixed by rotation and reflection: about 2^n / 2n
    # orbits (bracelets), whose lengths add up to 2^n
    for n, dim in ((4, 6), (6, 13), (10, 78), (13, 380), (14, 687), (15, 1224), (16, 2250)):
        reps, index, lengths = evolve._orbits(evolve.IsingChain(n, J=1.0, g=0.5))
        assert reps.size == dim and lengths.sum() == 2 ** n
    # each state's representative is the least of its 2n rotated and mirrored
    # images, and an orbit is as long as the number of distinct images
    n = 6
    reps, index, lengths = evolve._orbits(evolve.IsingChain(n, J=1.0, g=0.5))
    for b in range(2 ** n):
        rotations = {((b >> k) | (b << (n - k))) & (2 ** n - 1) for k in range(n)}
        orbit = rotations | {_mirror(r, n) for r in rotations}
        assert reps[index[b]] == min(orbit)
        if b == min(orbit):
            assert lengths[list(reps).index(b)] == len(orbit)


def test_sector_operator_is_the_invariant_block():
    # Q^T H Q, Q's columns the normalised orbit sums L_r^-1/2 sum_k T^k |r>
    specs = [evolve.IsingChain(6, J=1.0, g=0.6), evolve.IsingChain(2, J=0.7, g=0.4), evolve.Swap(omega=1.3),
             _PauliSum(4, tuple((0.3, ((k, "x"), (k % 4 + 1, "y"), ((k + 1) % 4 + 1, "z"))) for k in range(1, 5)))]
    for spec in specs:
        sector = evolve._orbits(spec)
        reps, index, lengths = sector
        q = np.zeros((2 ** spec.n, reps.size))
        q[np.arange(2 ** spec.n), index] = 1.0
        q /= np.sqrt(lengths)
        want = q.T @ evolve.build_hamiltonian(spec) @ q
        assert np.abs(evolve._sparse_hamiltonian(spec.terms(), spec.n, sector).toarray() - want).max() <= 1e-14, spec
        assert np.abs(qcore.pauli_sum(spec.terms(), spec.n, sector) - want).max() <= 1e-14, spec


def test_sector_matches_full_space_krylov():
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 2.0, 10)
    for n in (10, 11, 12):
        spec, cg = evolve.IsingChain(n, J=1.0, g=0.5), custom(rng.dirichlet(np.ones(n)))
        direction = rng.normal(size=3)
        rho0 = qcore.density_from_bloch(direction / np.linalg.norm(direction))
        with _forced("krylov"):
            got = evolve.trajectory(rho0, cg, spec, times).bloch
            with mock.patch.object(evolve, "_orbits", lambda spec: _basis_orbits(spec.n)):
                want = evolve.trajectory(rho0, cg, spec, times).bloch
        assert np.abs(got - want).max() <= 1e-12, n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 12), closed=st.booleans(), J=st.floats(-1.5, 1.5), g=st.floats(-1.5, 1.5),
       seed=st.integers(0, 2 ** 32 - 1), start=st.sampled_from([0.0, 0.4, -0.9]),
       steps=st.lists(st.floats(0.05, 1.5), max_size=4))
def test_chain_sector_matches_the_full_space_and_eigh(n, closed, J, g, seed, start, steps):
    # a pure chain input stepped on the orbits of rotation and reflection (the
    # closed chain) or of the reflection alone (the open chain), read out by the
    # group-averaged fuzzy operators, is the one on all 2^n states; eigh above
    # n = 10 takes seconds per draw, so there the full space stands in for it
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    rho0 = qcore.density_from_bloch(direction / np.linalg.norm(direction))
    spec = evolve.IsingChain(n, J=J, g=g, boundary="closed" if closed else "open")
    cg, times = custom(rng.dirichlet(np.ones(n))), start + np.cumsum([0.0] + steps)
    assert evolve._orbits(spec)[0].size < 2 ** n
    with _forced("krylov"):
        got = evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch
        with mock.patch.object(evolve, "_orbits", lambda spec: _basis_orbits(spec.n)):
            full = evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch
    assert np.abs(got - full).max() <= 1e-12
    if n <= 10:
        with _forced("eigh"):
            want = evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch
        assert np.abs(got - want).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), closed=st.booleans(), J=st.floats(-1.5, 1.5), g=st.floats(-1.5, 1.5),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.lists(st.booleans(), min_size=10, max_size=10),
       start=st.sampled_from([0.0, -0.7, -2.3]), steps=st.lists(st.floats(0.05, 1.5), max_size=4))
def test_sector_eigh_matches_the_full_space_and_krylov(n, closed, J, g, seed, zeros, start, steps):
    # eigh on the orbits of rotation and reflection (the closed chain) or of the
    # reflection (the open chain) is eigh on all 2^n states and Krylov on the orbits.
    # A pure input refuses a zero weight, so the dynamics take those sites' weights
    # down to 1e-7, and the gathers meet the zeros themselves on a random sector state
    rng = np.random.default_rng(seed)
    spec = evolve.IsingChain(n, J=J, g=g, boundary="closed" if closed else "open")
    orbits = evolve._orbits(spec)
    reps, index, lengths = orbits
    assert reps.size < 2 ** n
    probs, mask = rng.dirichlet(np.ones(n)), np.array(zeros[:n])
    direction, times = rng.normal(size=3), start + np.cumsum([0.0] + steps)
    tiny = np.where(mask, 1e-7, probs)
    rho0, cg = qcore.density_from_bloch(direction / np.linalg.norm(direction)), custom(tiny / tiny.sum())
    with _forced("eigh"):
        got = evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch
        with mock.patch.object(evolve, "_orbits", lambda spec: _basis_orbits(spec.n)):
            full = evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch
    with _forced("krylov"):
        krylov = evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch
    assert np.abs(got - full).max() <= 1e-12 and np.abs(got - krylov).max() <= 1e-12
    probs[mask] = 0.0
    cg = custom(probs / probs.sum() if probs.sum() else np.eye(n)[0])
    psi = rng.normal(size=reps.size) + 1j * rng.normal(size=reps.size)
    psi /= np.linalg.norm(psi)
    expanded = psi[index] / np.sqrt(lengths[index])  # sum_R psi_R |R> on the 2^n states
    want = qcore.bloch_from_density(apply_cg(np.outer(expanded, expanded.conj()), cg))
    assert np.abs(evolve._orbit_bloch(psi, evolve._orbit_read_out(orbits, cg.probs)) - want).max() <= 1e-13


@pytest.mark.parametrize("spec", [
    evolve.IsingChain(6, J=1.0, g=0.6), evolve.IsingChain(7, J=0.8, g=0.3, boundary="open"), evolve.Swap(omega=1.3),
    _chiral(5),
], ids=repr)
def test_dense_sector_matrix_is_the_sparse_one(spec):
    # eigh's sector matrix, built by numpy alone, holds the CSR's entries
    orbits = evolve._orbits(spec)
    csr = evolve._sparse_hamiltonian(spec.terms(), spec.n, orbits).toarray()
    assert np.abs(qcore.pauli_sum(spec.terms(), spec.n, orbits) - csr).max() <= 1e-15


@pytest.mark.parametrize("boundary", ["closed", "open"])
def test_sector_map_builds_sparse_h_for_krylov_alone(monkeypatch, boundary):
    # both engines read a sector's states by gathers: a map builds sparse H once
    # when its inputs take Krylov, and never when they take eigh alone
    real, built = evolve._sparse_hamiltonian, []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(evolve, "_sparse_hamiltonian", counted)
    spec, rho = evolve.IsingChain(8, J=1.0, g=0.5, boundary=boundary), qcore.density_from_bloch(_bloch(0.7, 0.4))
    for engine, want in (("eigh", 0), ("krylov", 1)):
        built.clear()
        with _forced(engine):
            dyn = evolve.dynamics(preferential(8, 0.3), spec)
            for times in ([0.0, 0.5], np.linspace(-1.0, 2.0, 5), [0.3]):
                dyn(np.stack([rho, rho]), times)
        assert len(built) == want, engine


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 9), g=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 32 - 1),
       start=st.sampled_from([0.0, 0.4, -0.9]), steps=st.lists(st.floats(0.05, 1.5), max_size=4))
def test_pure_closed_chain_ignores_the_weights(n, g, seed, start, steps):
    # n copies of one pure qubit under a rotation-invariant H stay
    # rotation-invariant, so every site marginal is the same
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    rho0 = qcore.density_from_bloch(direction / np.linalg.norm(direction))
    spec, times = evolve.IsingChain(n, J=1.0, g=g), start + np.cumsum([0.0] + steps)
    weights = [non_preferential(n), custom(rng.dirichlet(np.ones(n))), preferential(n, 0.9)]
    for engine in ("eigh", "krylov"):
        with _forced(engine):
            runs = [evolve.trajectory(rho0, cg, spec, times, method="statevector").bloch for cg in weights]
        assert max(np.abs(run - runs[0]).max() for run in runs) <= 1e-12, engine


def _rate(spec, times, orbits):
    # the selector reads sum |coeff|, which evolve.dynamics keeps per map
    return evolve._statevector_engine(spec, times, orbits, sum(abs(c) for c, _ in spec.terms()))


def _engine(spec, times):
    # rated on the orbits that Krylov would step
    return _rate(spec, np.asarray(times, dtype=float), evolve._orbits(spec)[0].size)[1]


def test_statevector_engine_keeps_eigh_where_configs_run():
    # ising-sweep-transverse: the n = 4 chain at one point, t = 0.9
    assert _engine(evolve.IsingChain(4, J=1.0, g=0.5), [0.9]) == "eigh"
    # diagnostics-swap's pure probes: one point at pi/2, 25-point grids up to 2 pi
    grid = np.linspace(math.pi / 25, math.pi, 25)
    swap = evolve.Swap(omega=1.0)
    assert all(_engine(swap, g) == "eigh" for g in [[math.pi / 2], grid, *(grid + s for s in grid)])
    # and any grid on four sites or fewer: Krylov's per-point overhead alone
    # exceeds a 16 x 16 eigh
    for n in (2, 3, 4):
        for steps in (1, 10, 101, 1001):
            for span in (0.1, 2.0, 200.0):
                assert _engine(evolve.IsingChain(n, J=1.0, g=0.5), np.linspace(0.0, span, steps)) == "eigh"


def test_statevector_engine_weighs_grid_length_and_span():
    # warm, 2 cores, four runs each, both engines on the orbits: on the closed n = 10
    # chain's 78 bracelets the benchmark's statevector.n10 case (10 points on [0, 2])
    # takes eigh 1.8-2.0 ms, Krylov 8.3-8.5 ms; over [0, 400] eigh 1.8-6.0 ms, Krylov
    # 0.38-0.39 s
    chain = evolve.IsingChain(10, J=1.0, g=0.5)
    assert _engine(chain, np.linspace(0.0, 2.0, 10)) == "eigh"
    assert _engine(chain, np.linspace(0.0, 400.0, 10)) == "eigh"
    # the open chain's 528 reflection pairs: over [0, 2] Krylov 12.1-12.4 ms, eigh
    # 37-42 ms; over [0, 400] Krylov 0.64-0.67 s, eigh 41-43 ms
    open_chain = evolve.IsingChain(10, J=1.0, g=0.5, boundary="open")
    assert _engine(open_chain, np.linspace(0.0, 2.0, 10)) == "krylov"
    assert _engine(open_chain, np.linspace(0.0, 400.0, 10)) == "eigh"
    # the span counts from t = 0, where the Krylov steps start
    assert _engine(open_chain, np.linspace(0.0, 30.0, 10)) == "krylov"
    assert _engine(open_chain, np.linspace(-28.0, 2.0, 10)) == "eigh"
    # the closed n = 13 chain's 380 bracelets cross over: Krylov with 10 points on
    # [0, 2] (12.3-18.3 ms, eigh 15.6-16.8 ms), eigh with 101 (21.8-22.0 ms, Krylov
    # 79-87 ms)
    big = evolve.IsingChain(13, J=1.0, g=0.5)
    assert _engine(big, np.linspace(0.0, 2.0, 10)) == "krylov"
    assert _engine(big, np.linspace(0.0, 2.0, 101)) == "eigh"


def test_statevector_engine_cost_rises_with_n():
    chains = [evolve.IsingChain(n, J=1.0, g=0.5) for n in range(2, evolve.STATEVECTOR_MAX_SPINS + 1)]
    orbits = [evolve._orbits(spec)[0].size for spec in chains]
    for span in (0.0, 2.0, 200.0):
        for steps in (1, 10, 101):
            times = np.linspace(span / steps, span, steps)
            costs = [_rate(spec, times, m) for spec, m in zip(chains, orbits)]
            assert all(b[0] >= a[0] for a, b in zip(costs, costs[1:])), (span, steps)
            # no eigh above 2^12 orbits
            cap = 2 ** evolve.DENSE_MAX_QUBITS
            assert {e for m, (_, e) in zip(orbits, costs) if m > cap} == {"krylov"}
    # not even where the model rates eigh cheaper: a long span on 2^12 orbits takes
    # eigh, and on one orbit more Krylov
    spec, times = chains[-1], np.linspace(0.0, 1e5, 10)
    assert _rate(spec, times, cap)[1] == "eigh" and _rate(spec, times, cap + 1)[1] == "krylov"


def test_krylov_travel_counts_the_step_to_the_first_point():
    # Krylov steps 0 -> t0 -> ... -> t_last: [-1, 0, 1] and [1, 2, 3] both
    # travel 3 over three points; above the dense cap the model rates Krylov alone
    spec = evolve.IsingChain(evolve.DENSE_MAX_QUBITS + 1, J=1.0, g=0.5)
    m = evolve._orbits(spec)[0].size
    grids = ([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    before, after = (_rate(spec, np.array(g), m) for g in grids)
    assert before == after and before[1] == "krylov"


@pytest.mark.parametrize("method, stage", [("statevector", "_orbit_bloch"), ("dense", "apply_cg")])
def test_positivity_error_names_index_time_and_route(monkeypatch, method, stage):
    # the exchange model keeps a symmetric pure product state pure, and a
    # z-pure product state is an eigenstate of the diagonal chain, so every
    # effective radius is 1; inflating the third read-out (the Bloch vector on
    # Swap's three orbits, or the marginal) pushes it off the ball
    real, calls = getattr(evolve, stage), []

    def inflated(state, other):
        calls.append(state)
        return real(state, other) * (1.0 + 1e-6 if len(calls) == 3 else 1.0)

    monkeypatch.setattr(evolve, stage, inflated)
    spec, bloch = {"statevector": (evolve.Swap(omega=1.0), _bloch(0.8, 0.3)),
                   "dense": (evolve.IsingChain(n_spins=2, J=1.0), _bloch(0.0))}[method]
    with pytest.raises(qcore.PositivityError, match=rf"time index 2 \(t = 1\.5\) on the {method} route"):
        evolve.trajectory(qcore.density_from_bloch(bloch), preferential(2, 0.7), spec,
                          [0.5, 1.0, 1.5, 2.0], method=method)


@pytest.mark.parametrize("excess", [5e-13, 5e-11, 5e-10])
def test_inputs_and_outputs_share_one_ball_bound(monkeypatch, excess):
    # an output the ball check accepts can be fed back in, as semigroup_gap does; past
    # MAX_RADIUS an output is a numeric failure and an input is bad input. Before one
    # bound, r = 1 + 5e-11 passed as an output and was refused as an input, and
    # r = 1 + 5e-10 raised PositivityError as an input
    cg = preferential(2, 0.7)
    dyn = evolve.dynamics(cg, evolve.Swap())
    edge = qcore.bloch_operator([0.0, 0.0, 1.0 + excess])
    # the pure input's read-out on Swap's three orbits
    monkeypatch.setattr(evolve, "_orbit_bloch", lambda psi, read: qcore.bloch_from_density(edge))
    rho0 = qcore.density_from_bloch(_bloch(0.8, 0.3))
    if 1.0 + excess <= qcore.MAX_RADIUS:
        out = dyn(rho0, [0.0, 1.0]).bloch[-1]
        assert maxent.assign(qcore.bloch_operator(out), cg).solution.is_pure
    else:
        with pytest.raises(qcore.PositivityError, match="left the ball at time index 0"):
            dyn(rho0, [0.0, 1.0])
        with pytest.raises(ValueError, match="effective state has Bloch radius"):
            maxent.assign(edge, cg)


# ---------------------------------------------------------------------------
# One map per (H, weights): evolve.dynamics keeps what depends on them alone


@pytest.mark.parametrize("cg, spec, times", [
    (preferential(2, 0.7), evolve.Swap(omega=1.0), np.linspace(-1.0, 30.0, 600)),  # 256 per block
    (preferential(3, 0.3), evolve.IsingChain(3, J=1.0, g=0.5), np.linspace(0.0, 6.0, 150)),  # 64
    (preferential(6, 0.3), evolve.IsingChain(6, J=1.0, g=0.5), [0.0, 0.4, 1.3]),  # one point
])
def test_heisenberg_blocks_match_one_point_calls(cg, spec, times):
    # a mixed input's grid, stepped in blocks, equals one-point calls bit for bit
    rho = qcore.density_from_bloch(0.6 * _bloch(0.7, 0.4))
    traj = evolve.trajectory(rho, cg, spec, times)
    assert traj.route == "statevector" and not traj.solution.is_pure
    assert len(times) > evolve.HEISENBERG_BLOCK // 4 ** spec.n
    for t, got in zip(times, traj.bloch):
        assert got.tobytes() == evolve.trajectory(rho, cg, spec, [t]).bloch[0].tobytes(), t


def _traced_peak(run, from_first_step):
    # peak traced bytes (numpy's buffers included) over run(), or from its first
    # qcore.propagate call on, and the number of propagate calls
    real, steps, tracing = qcore.propagate, [], tracemalloc.is_tracing()

    def step(*args):
        if from_first_step and not steps:
            tracemalloc.reset_peak()
        steps.append(None)
        return real(*args)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with mock.patch.object(qcore, "propagate", step):
            out = run()
        return out, tracemalloc.get_traced_memory()[1] - base, len(steps)
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("spec, method", [
    (evolve.sample_field(9, seed=9, include_interaction=True), "dense"),
    (evolve.IsingChain(8, J=1.0, g=0.5), "auto"),
], ids=["dense", "heisenberg"])
def test_joint_state_steps_hold_two_state_arrays(spec, method):
    # a lone mixed input's steps hold rho0 (or rho-hat) and one propagated state,
    # 2 * 16 * 4^n bytes, plus half a MiB for numpy's ufunc buffers (8192 entries
    # an operand) and small arrays: the dense route over the whole call, the
    # Heisenberg form from its first step on (rho-hat's two-sided product in H's
    # eigenbasis peaks higher). A third state array would exceed it from n = 8 on
    cg, rho = preferential(spec.n, 0.3), qcore.density_from_bloch(0.6 * _bloch(0.7, 0.4))
    dyn, times = evolve.dynamics(cg, spec, method), np.linspace(0.0, 2.0, 10)
    want = dyn(rho, times)  # builds what the map keeps: the energies, or eigh and G
    got, peak, steps = _traced_peak(lambda: dyn(rho, times), from_first_step=method != "dense")
    assert steps == times.size and got.route == want.route and got.bloch.tobytes() == want.bloch.tobytes()
    assert peak <= 2 * 16 * 4 ** spec.n + 2 ** 19, peak / (16 * 4 ** spec.n)


def test_heisenberg_set_up_holds_three_state_arrays():
    # a whole lone mixed call of the chain's Heisenberg form, the map already built:
    # rotating rho0 into H's eigenbasis holds rho0 and two products, 3 * 16 * 4^n
    # bytes, plus the allowance above; a fourth copy would exceed it
    spec, cg = evolve.IsingChain(8, J=1.0, g=0.5), preferential(8, 0.3)
    rho, times = qcore.density_from_bloch(0.6 * _bloch(0.7, 0.4)), np.linspace(0.0, 2.0, 10)
    dyn = evolve.dynamics(cg, spec)
    want = dyn(rho, times)
    got, peak, steps = _traced_peak(lambda: dyn(rho, times), from_first_step=False)
    assert steps == times.size and got.bloch.tobytes() == want.bloch.tobytes()
    assert peak <= 3 * 16 * 4 ** spec.n + 2 ** 19, peak / (16 * 4 ** spec.n)


def test_dense_route_multiplies_rho_into_the_phases():
    # a forced dense field at n = 7, where one input's (1, d, d) product first reaches
    # numpy's 256 KiB elision threshold: each point is rho0 * phases written into the
    # phases' array, then C and the Bloch vector, bit for bit
    spec, cg = evolve.sample_field(7, seed=7, include_interaction=True), preferential(7, 0.3)
    rho, times = qcore.density_from_bloch(0.6 * _bloch(0.7, 0.4)), np.linspace(0.0, 2.0, 6)
    got = evolve.trajectory(rho, cg, spec, times, method="dense")
    evals = evolve._z_energies(evolve._z_strings(spec), spec.n)
    rho0 = qcore.kron(maxent.assign(rho[None], cg).factors.swapaxes(0, 1))
    want = []
    for i in range(times.size):
        phases = np.exp(-1j * evals * times[i:i + 1, None])
        outer = phases[..., :, None] * phases[..., None, :].conj()
        want.append(qcore.bloch_from_density(apply_cg(np.multiply(rho0, outer, out=outer), cg)))
    assert got.route == "dense" and got.bloch.tobytes() == np.concatenate(want).tobytes()


def test_dynamics_reuse_is_exact(monkeypatch):
    # one map fed interleaved pure and mixed inputs on different grids returns
    # what fresh trajectory calls return, bit for bit, on every engine; it builds
    # the Krylov orbits and one eigh per basis (the 2^n states' and a sector's) at
    # most once, and only when an input needs them, and tests a diagonal H's strings
    # for the fast route once. A mixed input builds the 2^n states' H through
    # build_hamiltonian, unless a pure input's eigh on those states came first
    counts, engines = {}, []

    def counted(name, real):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)
        return wrapper

    orbits, pick = evolve._orbits, evolve._statevector_engine
    for module, name in ((evolve, "build_hamiltonian"), (qcore, "eigensystem"), (evolve, "_orbits"),
                         (evolve, "_fast_exact")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

    def picked(*args):
        cost, engine = pick(*args)
        engines.append(engine)
        return cost, engine

    monkeypatch.setattr(evolve, "_statevector_engine", picked)

    pure = [qcore.density_from_bloch(_bloch(th, ph)) for th, ph in ((0.4, 0.3), (2.0, -1.1))]
    mixed = [qcore.density_from_bloch(r * _bloch(th, ph)) for r, th, ph in ((0.6, 0.4, 0.3), (0.3, 2.0, -1.1))]
    short, wide = [0.0, 0.5, 1.0], np.linspace(-1.0, 3.0, 7)
    ten, many = np.linspace(0.0, 2.0, 10), np.linspace(0.0, 2.0, 101)
    mix = [(pure[0], short), (mixed[0], wide), (pure[1], wide), (mixed[1], short), (pure[0], wide)]
    field = evolve.FieldAllToAll((1.0, 1.3, 1.7, 2.1), include_interaction=True)
    cases = [  # weights, spec, method, the inputs fed and the engines they take
        (preferential(4, 0.4), evolve.sample_field(4, seed=2), "auto", mix, {"fast"}),
        (preferential(4, 0.4), field, "dense", mix, {"dense"}),
        (preferential(2, 0.7), evolve.Swap(omega=1.0), "auto", mix, {"heisenberg", "eigh sector"}),
        # no site map fixes Cnot: its pure and mixed inputs share the eigh of H
        (preferential(2, 0.7), evolve.Cnot(omega=0.8), "auto", mix, {"heisenberg", "eigh"}),
        # the closed n = 8 chain's pure inputs take eigh on its 30 bracelets, its mixed ones on all 2^n states
        (preferential(8, 0.3), evolve.IsingChain(8, J=1.0, g=0.5), "auto",
         [(pure[0], ten), (mixed[0], short), (pure[1], many), (pure[1], ten), (mixed[1], wide)],
         {"eigh sector", "heisenberg"}),
        # the open n = 10 chain's pure inputs take Krylov on its reflection pairs, and eigh there over [0, 400]
        (preferential(10, 0.3), evolve.IsingChain(10, J=1.0, g=0.5, boundary="open"), "auto",
         [(pure[0], ten), (pure[1], [0.3, 0.9]), (pure[0], np.linspace(0.0, 400.0, 10)), (pure[0], short)],
         {"krylov sector", "eigh sector"}),
    ]
    for cg, spec, method, fed, want in cases:
        counts.clear()
        dyn, order = evolve.dynamics(cg, spec, method), []
        runs = []
        for rho, times in fed:
            engines.clear()
            runs.append(dyn(rho, times))
            if runs[-1].route != "statevector":
                order.append(runs[-1].route)
            elif not runs[-1].solution.is_pure:
                order.append("heisenberg")
            else:
                order.append(engines[0] + " sector" * (orbits(spec)[0].size < 2 ** spec.n))
        taken = set(order)
        assert taken == want
        full = [kind for kind in order if kind in ("eigh", "heisenberg")]
        assert counts.get("build_hamiltonian", 0) == int(full[:1] == ["heisenberg"]), spec
        assert counts.get("eigensystem", 0) == bool(full) + ("eigh sector" in taken), spec
        assert counts.get("_orbits", 0) == int(bool(taken - {"fast", "dense", "heisenberg"})), spec
        assert counts.get("_fast_exact", 0) == int(evolve._z_strings(spec) is not None), spec
        for (rho, times), run in zip(fed, runs):
            fresh = evolve.trajectory(rho, cg, spec, times, method)
            assert run.route == fresh.route
            assert run.solution.lam == fresh.solution.lam
            for a, b in ((run.times, fresh.times), (run.bloch, fresh.bloch), (run.purity, fresh.purity),
                         (run.solution.per_particle_r, fresh.solution.per_particle_r)):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [
    evolve.Cnot(omega=0.8),
    _PauliSum(4, ((0.7, ((1, "x"), (2, "y"))), (0.4, ((2, "z"), (3, "z"))), (-0.3, ((4, "x"),)),
                  (0.5, ((1, "z"),)))),
], ids=["cnot", "unsymmetric-y"])
def test_full_space_eigh_is_shared_in_either_order(monkeypatch, spec):
    # no site map fixes H, so a pure input's eigh and a mixed input's both run on
    # the 2^n states: one map builds it once, from equal bytes whichever input
    # comes first, and each trajectory is the fresh call's, bit for bit
    n, times, cg = spec.n, np.linspace(0.0, 2.0, 6), preferential(spec.n, 0.6)
    assert evolve._orbits(spec)[0].size == 2 ** n
    pure, mixed = qcore.density_from_bloch(_bloch(0.9, 0.4)), qcore.density_from_bloch(0.6 * _bloch(2.1, -0.7))
    with _forced("eigh"):
        fresh = [evolve.trajectory(rho, cg, spec, times) for rho in (pure, mixed)]
        calls = []
        monkeypatch.setattr(qcore, "eigensystem", lambda h, real=qcore.eigensystem: calls.append(h) or real(h))
        for fed in ((pure, mixed), (mixed, pure)):
            calls.clear()
            dyn = evolve.dynamics(cg, spec)
            runs = [dyn(rho, times) for rho in fed]
            assert len(calls) == 1
            for want, got in zip(fresh, runs if fed[0] is pure else runs[::-1]):
                assert got.route == want.route == "statevector" and got.bloch.tobytes() == want.bloch.tobytes()


# ---------------------------------------------------------------------------
# One map over a stack of inputs: each stacked trajectory is the one-input call's


_STACK_ROUTES = ["fast", "dense", "heisenberg", "eigh", "krylov sector", "krylov reflection", "krylov full",
                 "mixed purity"]


@st.composite
def _stack_cases(draw, kind):
    """A spec, weights, method and forced engine that take the given route or engine,
    a grid, and a stack of 1-5 inputs: pure, mixed or (on statevector) both. Krylov
    steps the closed chain's bracelets, the open chain's reflection pairs, and the
    2^n states of an open chain with a field of its own on each site, which no site
    map fixes."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    method, engine, purity = "auto", None, "pure"
    if kind in ("fast", "dense"):
        spec = evolve.FieldAllToAll(tuple(rng.normal(1.5, 0.3, n)), include_interaction=draw(st.booleans()))
        method, purity = kind, draw(st.sampled_from(["pure", "mixed", "both"]))
    elif kind == "krylov full":
        bonds = tuple((-1.0, ((k, "z"), (k + 1, "z"))) for k in range(1, n))
        fields = tuple((-g, ((k, "x"),)) for k, g in enumerate(rng.uniform(0.2, 1.5, n).tolist(), start=1))
        spec, engine = _PauliSum(n, bonds + fields), "krylov"
        assert evolve._orbits(spec)[0].size == 2 ** n  # the full-space read-out
    else:
        boundary = {"krylov sector": "closed", "krylov reflection": "open"}.get(kind)
        spec = evolve.IsingChain(n, J=1.0, g=draw(st.floats(0.2, 1.5)),
                                 boundary=boundary or draw(st.sampled_from(["open", "closed"])))
        if kind == "heisenberg":
            purity = "mixed"
        elif kind == "mixed purity":
            engine, purity = draw(st.sampled_from(["eigh", "krylov"])), "both"
        else:
            engine = kind.split()[0]
    size = draw(st.integers(1, 5))
    pure = {"pure": [True] * size, "mixed": [False] * size}.get(purity)
    if pure is None:  # at least one of each when the stack holds two or more
        pure = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        pure[:2] = [True, False][:size]
    directions = rng.normal(size=(size, 3))
    radii = [1.0 if p else draw(st.floats(0.0, 0.95)) for p in pure]
    bloch = np.array([r * d / np.linalg.norm(d) for r, d in zip(radii, directions)])
    steps = draw(st.lists(st.floats(0.05, 1.2), max_size=3))
    times = draw(st.sampled_from([0.0, 0.3])) + np.cumsum([0.0] + steps)
    return spec, custom(rng.dirichlet(np.ones(n))), method, engine, qcore.density_from_bloch(bloch), times


@pytest.mark.parametrize("kind", _STACK_ROUTES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stacked_trajectory_matches_one_input_calls(kind, data):
    # every route and engine: a stack's trajectories lie within 1e-12 of the one-input
    # calls, with identical lambda solutions, and a stack of one is the one-input call
    spec, cg, method, engine, rho, times = data.draw(_stack_cases(kind))
    with _forced(engine) if engine else contextlib.nullcontext():
        dyn = evolve.dynamics(cg, spec, method)
        stack = dyn(rho, times)
        ones = [dyn(r, times) for r in rho]
        assert dyn(rho[:1], times).bloch.tobytes() == ones[0].bloch.tobytes()
    assert stack.bloch.shape == (len(rho), times.size, 3) and stack.purity.shape == (len(rho), times.size)
    want_route = {"fast": "fast", "dense": "dense"}.get(kind, "statevector")
    assert stack.route == want_route and all(one.route == want_route for one in ones)
    if kind == "mixed purity":
        assert len({sol.is_pure for sol in stack.solution}) == min(2, len(rho))
    for k, one in enumerate(ones):
        assert np.abs(stack.bloch[k] - one.bloch).max() <= 1e-12
        assert np.abs(stack.purity[k] - one.purity).max() <= 1e-12
        assert stack.solution[k].lam == one.solution.lam
        assert np.array_equal(stack.solution[k].per_particle_r, one.solution.per_particle_r)


@pytest.mark.parametrize("n, boundary", [(2, "closed"), (6, "closed"), (10, "closed"), (5, "open"), (9, "open")])
def test_stacked_sector_eigh_repeats_each_inputs_bytes(n, boundary):
    # eigh on a sector steps a column per input and reads each state by its own dots,
    # so each stacked trajectory is its one-input call's, bit for bit
    spec, rng = evolve.IsingChain(n, J=1.0, g=0.7, boundary=boundary), np.random.default_rng(n)
    assert evolve._orbits(spec)[0].size < 2 ** n
    directions = rng.normal(size=(7, 3))
    rho = qcore.density_from_bloch(directions / np.linalg.norm(directions, axis=1, keepdims=True))
    cg, times = custom(rng.dirichlet(np.ones(n))), np.linspace(-0.3, 2.0, 6)
    with _forced("eigh"):
        dyn = evolve.dynamics(cg, spec, "statevector")
        stack, ones = dyn(rho, times), [dyn(r, times) for r in rho]
    assert stack.bloch.tobytes() == np.stack([one.bloch for one in ones]).tobytes()


@pytest.mark.parametrize("n, size", [(3, 2), (5, 4), (6, 3)])
def test_stacked_full_space_krylov_matches_one_input_calls(n, size):
    # the open chain now steps its reflection pairs, so a sum that neither site map
    # fixes carries the full-space Krylov read-out: a stack of pure inputs gives
    # the one-input calls within 1e-12, and a stack of one gives their bytes
    spec, rng = _ulp_chain(n), np.random.default_rng(n)
    assert evolve._orbits(spec)[0].size == 2 ** n
    directions = rng.normal(size=(size, 3))
    rho = qcore.density_from_bloch(directions / np.linalg.norm(directions, axis=1, keepdims=True))
    cg, times = custom(rng.dirichlet(np.ones(n))), np.array([0.0, 0.4, 1.1, 1.3])
    with _forced("krylov"):
        dyn = evolve.dynamics(cg, spec, "statevector")
        stack, ones = dyn(rho, times), [dyn(r, times) for r in rho]
        assert dyn(rho[:1], times).bloch.tobytes() == ones[0].bloch.tobytes()
    for k, one in enumerate(ones):
        assert np.abs(stack.bloch[k] - one.bloch).max() <= 1e-12
