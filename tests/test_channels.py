import math

import numpy as np
import pytest

from cgdyn import channels, evolve, maxent, qcore
from cgdyn.coarse_grain import apply_cg, non_preferential, preferential


def _bloch(theta, phi=0.0):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _gamma_t(rho, cg, spec, t):
    # one point of the effective dynamics as a 2x2 state
    return qcore.bloch_operator(evolve.trajectory(rho, cg, spec, [t]).bloch[0])


# ---------------------------------------------------------------------------
# Primitive channels


def test_depolarize_scales_bloch():
    rho = qcore.density_from_bloch([0.0, 0.0, 0.8])
    out = channels.depolarize(rho, 0.5)
    assert np.allclose(qcore.bloch_from_density(out), [0.0, 0.0, 0.4])
    assert qcore.trace_norm(channels.depolarize(rho, 1.0) - rho) < 1e-15


def test_dephase_action():
    plus = qcore.density_from_bloch([1.0, 0.0, 0.0])
    assert qcore.trace_norm(channels.dephase(plus, 0.5, "z") - qcore.IDENTITY_2 / 2) < 1e-15
    assert qcore.trace_norm(channels.dephase(plus, 1.0, "z") - plus) < 1e-15
    # transverse components scale by 2q - 1, the kept axis is untouched
    rho = qcore.density_from_bloch([0.4, 0.2, 0.3])
    out = qcore.bloch_from_density(channels.dephase(rho, 0.8, "z"))
    assert np.allclose(out, [0.4 * 0.6, 0.2 * 0.6, 0.3])


def test_channel_weight_range():
    rho = qcore.IDENTITY_2 / 2
    for q in (-0.1, 1.1):
        with pytest.raises(ValueError):
            channels.depolarize(rho, q)
        with pytest.raises(ValueError):
            channels.dephase(rho, q, "z")
    with pytest.raises(ValueError):
        channels.dephase(rho, 0.5, "i")


# ---------------------------------------------------------------------------
# Exchange model


def test_kappa_frozen_value():
    cg = preferential(2, 0.7)
    k = channels.kappa_swap(math.pi / 2, cg, 0.8, 0.4, 0.68, omega=1.0)
    assert k == pytest.approx(0.52 / 0.68, rel=1e-14)
    assert channels.kappa_swap(0.0, cg, 0.8, 0.4, 0.68) == pytest.approx(1.0)


def test_kappa_constant_at_equal_weights():
    cg = non_preferential(2)
    ts = np.linspace(0, 2 * math.pi, 50)
    k = channels.kappa_swap(ts, cg, 0.8, 0.4, 0.6)
    assert np.abs(k - 1.0).max() < 1e-14
    assert np.abs(channels.swap_rate(ts, cg, 0.8, 0.4)).max() < 1e-14


def test_kappa_rejects_inconsistent_radii():
    cg = preferential(2, 0.7)
    with pytest.raises(ValueError):
        channels.kappa_swap(0.5, cg, 0.8, 0.4, 0.9)
    with pytest.raises(ValueError):
        channels.kappa_swap(0.5, cg, 0.0, 0.0, 0.0)


def test_swap_rate_finite_difference(rng):
    cg = preferential(2, 0.7)
    r1, r2 = 0.8, 0.4
    r0 = 0.7 * r1 + 0.3 * r2
    eps = 1e-6
    for t in rng.uniform(0.05, 3.0, 8):
        num = (
            math.log(channels.kappa_swap(t + eps, cg, r1, r2, r0))
            - math.log(channels.kappa_swap(t - eps, cg, r1, r2, r0))
        ) / (2 * eps)
        assert channels.swap_rate(t, cg, r1, r2) == pytest.approx(num, abs=1e-7)


def test_swap_rate_sign_structure():
    cg = preferential(2, 0.7)
    ts = np.linspace(0.01, math.pi - 0.01, 200)
    rates = channels.swap_rate(ts, cg, 0.8, 0.4)
    assert rates.min() < -1e-3 and rates.max() > 1e-3
    # zeros exactly at the half-period marks
    assert channels.swap_rate(math.pi / 2, cg, 0.8, 0.4) == pytest.approx(0.0, abs=1e-15)


def test_kappa_curve_invariants():
    cg = preferential(2, 0.9)
    kappa = channels.kappa_swap(np.linspace(0, 7, 100), cg, 0.9, 0.2, 0.9 * 0.9 + 0.1 * 0.2)
    assert kappa[0] == pytest.approx(1.0)
    assert kappa.min() > 0.0 and kappa.max() <= 1.0 + 1e-12


def test_swap_effective_matches_pipeline(rng):
    spec = evolve.Swap(omega=1.0)
    for _ in range(10):
        rho = qcore.random_density(2, rng)
        p1 = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.0, 2 * math.pi))
        cg = preferential(2, p1)
        got = channels.swap_effective(rho, cg, t)
        want = _gamma_t(rho, cg, spec, t)
        assert qcore.trace_norm(got - want) < 1e-10


def test_swap_preserves_direction(rng):
    cg = preferential(2, 0.8)
    r = 0.7 * _bloch(0.9, 1.2)
    out = channels.swap_effective(qcore.density_from_bloch(r), cg, 1.1)
    r_out = qcore.bloch_from_density(out)
    assert np.allclose(r_out / np.linalg.norm(r_out), r / np.linalg.norm(r), atol=1e-10)


# ---------------------------------------------------------------------------
# Conditional-flip model


def test_cnot_effective_matches_pipeline(rng):
    spec = evolve.Cnot(omega=1.0)
    cg = preferential(2, 0.6)
    for _ in range(10):
        rho = qcore.random_density(2, rng)
        t = float(rng.uniform(0.0, 2 * math.pi))
        got = channels.cnot_effective(rho, cg, t)
        want = _gamma_t(rho, cg, spec, t)
        assert qcore.trace_norm(got - want) < 1e-10


def test_cnot_fixed_points():
    cg = non_preferential(2)
    zero = qcore.density_from_bloch([0.0, 0.0, 1.0])
    for t in (0.3, math.pi / 2, 2.1):
        assert qcore.trace_norm(channels.cnot_effective(zero, cg, t) - zero) < 1e-12
        mixed = qcore.IDENTITY_2 / 2
        assert qcore.trace_norm(channels.cnot_effective(mixed, cg, t) - mixed) < 1e-12


def test_cnot_quarter_period_dephasing_mixture(rng):
    # at t = pi/(2 omega) the output is the weighted pair of dephasings,
    # each keyed by the partner factor's expectation value
    cg = preferential(2, 0.7)
    t = math.pi / 2

    def dephase_general(rho, q, ax):
        s = qcore.pauli(ax)
        return q * rho + (1 - q) * (s @ rho @ s)

    for _ in range(8):
        rho = qcore.random_density(2, rng)
        r1, r2 = maxent.assign(rho, cg).factors
        x2 = np.trace(qcore.SIGMA_X @ r2).real
        z1 = np.trace(qcore.SIGMA_Z @ r1).real
        want = 0.5 * (
            rho
            + cg.probs[0] * dephase_general(r1, x2, "z")
            + cg.probs[1] * dephase_general(r2, z1, "x")
        )
        assert qcore.trace_norm(channels.cnot_effective(rho, cg, t) - want) < 1e-12


# ---------------------------------------------------------------------------
# Interaction-term ellipses


def test_ellipse_t0_and_closure(rng):
    cg = preferential(2, 0.7)
    r1 = 0.6 * _bloch(0.5, 0.3)
    r2 = 0.8 * _bloch(2.0, -0.4)
    ep = channels.ellipse_params(r1, r2, cg)
    ts = np.linspace(0.0, 2 * math.pi, 101)
    pred = ep.predict(ts)
    assert np.allclose(pred[0], 0.7 * r1 + 0.3 * r2, atol=1e-14)
    assert np.allclose(pred[-1], pred[0], atol=1e-12)


def test_ellipse_constant_cases():
    cg = non_preferential(2)
    ep = channels.ellipse_params(np.zeros(3), np.zeros(3), cg)
    assert np.allclose(ep.u, 0) and np.allclose(ep.v, 0) and np.allclose(ep.c, 0)
    # z eigenstate on site 1, x eigenstate on site 2: a stationary pair
    ep2 = channels.ellipse_params(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), cg)
    pred = ep2.predict(np.linspace(0, 5, 40))
    assert np.abs(pred - pred[0]).max() < 1e-12


def test_ellipse_matches_dense_pipeline(rng):
    # the predictor against brute-force evolution of random product inputs
    spec = evolve.CnotInteraction(omega=1.0)
    h = evolve.build_hamiltonian(spec)
    ts = np.linspace(0.0, 2 * math.pi, 100)
    for _ in range(5):
        r1 = rng.uniform(-1, 1, 3)
        r2 = rng.uniform(-1, 1, 3)
        for r in (r1, r2):
            n = np.linalg.norm(r)
            if n > 1:
                r /= n * 1.05
        cg = preferential(2, float(rng.uniform(0.2, 0.8)))
        rho0 = qcore.kron([qcore.density_from_bloch(r1), qcore.density_from_bloch(r2)])
        pred = channels.ellipse_params(r1, r2, cg).predict(ts)
        for i, t in enumerate(ts):
            eff = apply_cg(qcore.propagate(*qcore.eigensystem(h), rho0, t), cg)
            assert np.abs(qcore.bloch_from_density(eff) - pred[i]).max() < 1e-9


def test_ellipse_stays_inside_ball(rng):
    for _ in range(5):
        r1 = 0.9 * _bloch(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        r2 = 0.9 * _bloch(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        ep = channels.ellipse_params(r1, r2, preferential(2, 0.6))
        pred = ep.predict(np.linspace(0, 2 * math.pi, 1000))
        assert (np.sum(pred ** 2, axis=1) <= 1.0 + 1e-12).all()


# ---------------------------------------------------------------------------
# Interaction-only chain


def test_ising_gamma_special_angles():
    assert channels.ising_gamma(0.7, 0.0, 1.0) == pytest.approx(1.0)
    ts = np.linspace(0, 2, 20)
    for t in ts:
        # equator: pure dephasing with a real, cos^2 factor
        g = channels.ising_gamma(math.pi / 2, t, 1.0)
        assert g == pytest.approx(math.cos(2 * t) ** 2, abs=1e-14)
        # pole: phase rotation only
        g0 = channels.ising_gamma(0.0, t, 1.0)
        assert abs(g0) == pytest.approx(1.0, abs=1e-14)
        assert g0 == pytest.approx(np.exp(4j * t), abs=1e-13)
    assert abs(channels.ising_gamma(1.1, 0.9, 1.3)) <= 1.0 + 1e-15


def test_ising_effective_matches_pipeline():
    ts = np.linspace(0.0, 2.2, 25)
    for n in (3, 4, 5):
        for theta in (0.4, 1.2, 2.5):
            rho0 = qcore.density_from_bloch(_bloch(theta, 0.6))
            spec = evolve.IsingChain(n_spins=n, J=1.0, g=0.0, boundary="closed")
            traj = evolve.trajectory(rho0, non_preferential(n), spec, ts, method="dense")
            for i, t in enumerate(ts):
                want = channels.ising_effective(theta, 0.6, t, 1.0)
                assert np.abs(qcore.bloch_from_density(want) - traj.bloch[i]).max() < 1e-10


# ---------------------------------------------------------------------------
# Field-model limits


def test_field_limit_prediction_contract():
    rho = qcore.density_from_bloch([0.6, 0.0, 0.2])
    out = channels.field_limit_prediction(rho, p1=0.5, r1=0.8, omega1=1.3, t=2.0)
    r = qcore.bloch_from_density(out)
    # transverse radius contracted to p1*r1 times the initial transverse radius
    assert np.hypot(r[0], r[1]) == pytest.approx(0.4 * 0.6, rel=1e-12)
    assert r[2] == pytest.approx(0.4 * 0.2, rel=1e-12)
    # with p1 r1 = 0 everything collapses to the center
    out0 = channels.field_limit_prediction(rho, p1=0.5, r1=0.0, omega1=1.3, t=2.0)
    assert qcore.trace_norm(out0 - qcore.IDENTITY_2 / 2) < 1e-14


def test_field_limit_interaction_modulation():
    rho = qcore.density_from_bloch([0.6, 0.0, 0.2])
    t = 0.8
    bare = channels.field_limit_prediction(rho, 0.5, 0.8, 1.3, t)
    mod = channels.field_limit_prediction(rho, 0.5, 0.8, 1.3, t, with_interaction=True)
    rb, rm = qcore.bloch_from_density(bare), qcore.bloch_from_density(mod)
    factor = math.cos(2 * t)
    assert np.allclose(rm[:2], factor * rb[:2], atol=1e-13)
    assert rm[2] == pytest.approx(rb[2])


# ---------------------------------------------------------------------------
# Local-field model: linear but with memory


def test_linear_nm_special_times():
    rho = qcore.density_from_bloch([0.5, 0.3, -0.2])
    omega = 1.0
    ident = channels.linear_nm_effective(rho, 2 * math.pi / omega, omega)
    assert qcore.trace_norm(ident - rho) < 1e-13
    deph = channels.linear_nm_effective(rho, math.pi / omega, omega)
    want = 0.5 * (rho + qcore.SIGMA_Z @ rho @ qcore.SIGMA_Z)
    assert qcore.trace_norm(deph - want) < 1e-13


def test_linear_nm_matches_pipeline(rng):
    spec = evolve.LocalZSecond(omega=1.0)
    cg = non_preferential(2)
    for _ in range(10):
        rho = qcore.random_density(2, rng)
        t = float(rng.uniform(0, 4 * math.pi))
        got = channels.linear_nm_effective(rho, t, 1.0)
        want = _gamma_t(rho, cg, spec, t)
        assert qcore.trace_norm(got - want) < 1e-12


def test_linear_nm_is_linear(rng):
    t = 1.7
    for _ in range(100):
        a, b = qcore.random_density(2, rng), qcore.random_density(2, rng)
        w = float(rng.uniform(0, 1))
        mix = channels.linear_nm_effective(w * a + (1 - w) * b, t, 1.0)
        parts = w * channels.linear_nm_effective(a, t, 1.0) + (1 - w) * channels.linear_nm_effective(b, t, 1.0)
        assert qcore.trace_norm(mix - parts) < 1e-12


def test_linear_nm_breaks_semigroup():
    rho = qcore.density_from_bloch([1.0, 0.0, 0.0])
    t = math.pi
    twice = channels.linear_nm_effective(channels.linear_nm_effective(rho, t, 1.0), t, 1.0)
    once = channels.linear_nm_effective(rho, 2 * t, 1.0)
    assert qcore.trace_norm(twice - once) > 0.99


def test_linear_nm_circle(rng):
    r0 = np.array([0.6, 0.2, 0.3])
    center, radius = channels.circle_params(r0)
    assert np.allclose(center, [0.3, 0.1, 0.3])
    assert radius == pytest.approx(0.5 * math.hypot(0.6, 0.2))
    ts = np.linspace(0, 2 * math.pi, 50)
    path = channels.linear_nm_circle(r0, 1.0, ts)
    # parametric curve equals the channel output at every time
    for t, row in zip(ts, path):
        out = channels.linear_nm_effective(qcore.density_from_bloch(r0), t, 1.0)
        assert np.allclose(row, qcore.bloch_from_density(out), atol=1e-12)
    # and it really is the stated circle
    assert np.allclose(np.linalg.norm(path - center, axis=1), radius, atol=1e-12)


# ---------------------------------------------------------------------------
# Reference many-body channels


def test_total_dephasing_kraus_oracle(rng):
    for n in (2, 3):
        dim = 2 ** n
        rho = qcore.random_density(dim, rng)
        want = np.zeros_like(rho)
        for i in range(dim):
            proj = np.zeros((dim, dim), dtype=complex)
            proj[i, i] = 1.0
            want += proj @ rho @ proj
        assert qcore.trace_norm(channels.total_dephasing(rho) - want) < 1e-14


def test_pauli_mask_matches_kraus(rng):
    # the Kraus form (rho + (Y x Y) rho (Y x Y)) / 2 keeps the Pauli components
    # sigma_a x sigma_b (a, b over i, x, y, z) whose two factors both lie in
    # {i, y} or both in {x, z}, and erases the rest
    paulis = [qcore.IDENTITY_2, qcore.SIGMA_X, qcore.SIGMA_Y, qcore.SIGMA_Z]
    kept = [(a, b) for a in range(4) for b in range(4) if (a in (0, 2)) == (b in (0, 2))]
    assert len(kept) == 8
    for _ in range(5):
        rho = qcore.random_density(4, rng)
        want = np.zeros((4, 4), dtype=complex)
        for a, b in kept:
            basis = np.kron(paulis[a], paulis[b])
            want += np.trace(basis @ rho) / 4.0 * basis
        got = channels.pauli_component_mask(rho)
        assert qcore.trace_norm(got - want) < 1e-13


def test_pauli_mask_shape_check(rng):
    with pytest.raises(ValueError):
        channels.pauli_component_mask(qcore.random_density(8, rng))
