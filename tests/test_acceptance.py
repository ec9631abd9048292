"""End-to-end acceptance battery.

Each test exercises one numbered criterion at its stated tolerance and
reports a single pass/fail line through the shared fixture; the lines are
echoed together after the run. Tolerances are part of the contract and are
not to be loosened here.
"""

import dataclasses
import math
import time

import numpy as np

from cgdyn import channels, diagnostics, evolve, maxent, qcore
from cgdyn.coarse_grain import apply_cg, custom, non_preferential, preferential


def _bloch(theta, phi=0.0):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _gamma_t(rho, cg, spec, t):
    # one point of the effective dynamics as a 2x2 state
    return qcore.bloch_operator(evolve.trajectory(rho, cg, spec, [t]).bloch[0])


def test_criterion_1_swap_oracle(rng, acceptance_report):
    spec = evolve.Swap(omega=1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        rho = qcore.random_density(2, rng)
        p1 = float(rng.uniform(0.01, 0.99))
        t = float(rng.uniform(0.0, 2 * math.pi))
        cg = preferential(2, p1)
        sol = maxent.assign(rho, cg).solution
        r1, r2 = sol.per_particle_r
        r0 = float(np.linalg.norm(qcore.bloch_from_density(rho)))
        got = _gamma_t(rho, cg, spec, t)
        if r0 < 1e-15:
            want = rho
        else:
            k = channels.kappa_swap(t, cg, r1, r2, r0)
            want = k * rho + (1.0 - k) * qcore.IDENTITY_2 / 2
        worst = max(worst, qcore.trace_norm(got - want))
    elapsed = time.perf_counter() - t0
    acceptance_report(
        1, "exchange pipeline equals analytic contraction",
        worst < 1e-10 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_swap_memory(acceptance_report):
    omega = 1.0
    times = np.linspace(1e-3, math.pi / omega - 1e-3, 400)
    rho0 = qcore.density_from_bloch([0.6, 0.0, 0.3])

    def pipeline_kappa(p1):
        cg = preferential(2, p1)
        traj = evolve.trajectory(rho0, cg, evolve.Swap(omega=omega), times)
        return np.linalg.norm(traj.bloch, axis=1) / np.linalg.norm([0.6, 0.0, 0.3])

    kappa = pipeline_kappa(0.7)
    rate_fd = np.gradient(np.log(kappa), times)
    both_signs = rate_fd.min() < -1e-3 and rate_fd.max() > 1e-3
    # and the analytic rate agrees about the sign structure
    cg = preferential(2, 0.7)
    r1, r2 = maxent.assign(rho0, cg).solution.per_particle_r
    rate = channels.swap_rate(times, cg, r1, r2, omega=omega)
    analytic_signs = rate.min() < -1e-3 and rate.max() > 1e-3
    flat = np.abs(pipeline_kappa(0.5) - 1.0).max()
    acceptance_report(
        2, "exchange rate changes sign; equal weights freeze",
        both_signs and analytic_signs and flat < 1e-12,
        f"rate range [{rate_fd.min():.2e}, {rate_fd.max():.2e}], |kappa-1| {flat:.1e}",
    )


def test_criterion_3_cnot_quarter_period(rng, acceptance_report):
    spec = evolve.Cnot(omega=1.0)
    t = math.pi / 2
    worst = 0.0

    def dephase_general(rho, q, ax):
        s = qcore.pauli(ax)
        return q * rho + (1 - q) * (s @ rho @ s)

    for _ in range(50):
        rho = qcore.random_density(2, rng)
        p1 = float(rng.uniform(0.05, 0.95))
        cg = preferential(2, p1)
        f1, f2 = maxent.assign(rho, cg).factors
        x2 = np.trace(qcore.SIGMA_X @ f2).real
        z1 = np.trace(qcore.SIGMA_Z @ f1).real
        want = 0.5 * (
            rho
            + cg.probs[0] * dephase_general(f1, x2, "z")
            + cg.probs[1] * dephase_general(f2, z1, "x")
        )
        worst = max(worst, qcore.trace_norm(_gamma_t(rho, cg, spec, t) - want))

    fixed_worst = 0.0
    for state in (qcore.density_from_bloch([0.0, 0.0, 1.0]), qcore.IDENTITY_2 / 2):
        for p1 in (0.5, 0.7):
            out = _gamma_t(state, preferential(2, p1), spec, t)
            fixed_worst = max(fixed_worst, qcore.trace_norm(out - state))
    acceptance_report(
        3, "conditional-flip matches state-keyed dephasing mixture",
        worst < 1e-10 and fixed_worst < 1e-12,
        f"max err {worst:.2e}, fixed points {fixed_worst:.2e}",
    )


def test_criterion_4_interaction_ellipses(rng, acceptance_report):
    spec = evolve.CnotInteraction(omega=1.0)
    h = evolve.build_hamiltonian(spec)
    times = np.linspace(0.0, 2 * math.pi, 100)
    worst = 0.0
    closure_worst = 0.0
    for _ in range(20):
        r1 = rng.uniform(-1, 1, 3)
        r2 = rng.uniform(-1, 1, 3)
        for r in (r1, r2):
            nrm = np.linalg.norm(r)
            if nrm > 1.0:
                r /= nrm * 1.01
        cg = preferential(2, float(rng.uniform(0.1, 0.9)))
        rho0 = qcore.kron([qcore.density_from_bloch(r1), qcore.density_from_bloch(r2)])
        pred = channels.ellipse_params(r1, r2, cg).predict(times)
        evals, evecs = qcore.eigensystem(h)
        track = np.empty((times.size, 3))
        for i, t in enumerate(times):
            eff = apply_cg(qcore.propagate(evals, evecs, rho0, t), cg)
            track[i] = qcore.bloch_from_density(eff)
        worst = max(worst, np.abs(track - pred).max())
        end = apply_cg(qcore.propagate(evals, evecs, rho0, 2 * math.pi), cg)
        closure_worst = max(
            closure_worst, np.abs(qcore.bloch_from_density(end) - track[0]).max()
        )
    acceptance_report(
        4, "interaction-term paths follow the sine/cosine ellipses",
        worst < 1e-9 and closure_worst < 1e-10,
        f"max err {worst:.2e}, closure {closure_worst:.2e}",
    )


def test_criterion_5_field_desk_scale(acceptance_report):
    t0 = time.perf_counter()
    rho0 = qcore.density_from_bloch([0.8, 0.0, 0.0])
    seeds = range(20)
    t_c = 2.0 * math.pi / 0.2  # the CLI's dephasing time 2 pi / sigma

    def stats(n):
        cg = preferential(n, 0.5)
        r1 = maxent.assign(rho0, cg).solution.per_particle_r[0]
        means, stds = [], []
        for seed in seeds:
            spec = evolve.sample_field(n, mu=1.5, sigma=0.2, seed=seed)
            times = np.linspace(1.01 * t_c, 4.0 * t_c, 240)
            traj = evolve.trajectory(rho0, cg, spec, times, method="fast")
            rt = np.hypot(traj.bloch[:, 0], traj.bloch[:, 1])
            means.append(rt.mean())
            stds.append(rt.std())
        return float(np.mean(means)), float(np.mean(stds)), 0.5 * r1

    mean160, std160, target = stats(160)
    _, std10, _ = stats(10)
    elapsed = time.perf_counter() - t0
    rel = abs(mean160 - target) / target
    ratio = std10 / std160
    acceptance_report(
        5, "large-field mean radius and fluctuation scaling",
        rel < 0.10 and 2.8 <= ratio <= 5.7 and elapsed < 60.0,
        f"mean off by {100 * rel:.1f}%, std ratio {ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_oscillating_dephasing_limit(acceptance_report):
    rho0 = qcore.density_from_bloch([0.6, 0.0, 0.5])
    times = np.linspace(0.0, math.pi, 60)
    rms_by_n = []
    for n in range(4, 11):
        cg = non_preferential(n)
        spec_int = evolve.sample_field(n, seed=11, include_interaction=True)
        spec_free = dataclasses.replace(spec_int, include_interaction=False)
        with_int = evolve.trajectory(rho0, cg, spec_int, times, method="fast").bloch
        free = evolve.trajectory(rho0, cg, spec_free, times, method="fast").bloch
        # dephasing of oscillating weight cos^2 t scales the transverse
        # components of the free evolution by cos 2t
        pred = free[:, :2] * np.cos(2.0 * times)[:, None]
        dev = np.linalg.norm(with_int[:, :2] - pred, axis=1)
        rms_by_n.append(float(np.sqrt(np.mean(dev ** 2)) / 0.6))
    monotone = all(a > b for a, b in zip(rms_by_n, rms_by_n[1:]))
    acceptance_report(
        6, "interacting field tracks the oscillating dephasing limit",
        rms_by_n[-1] < 0.05 and monotone,
        f"rms n=4 {rms_by_n[0]:.3f} -> n=10 {rms_by_n[-1]:.5f}, monotone={monotone}",
    )


def test_criterion_7_commutator_decay(acceptance_report):
    rho0 = qcore.density_from_bloch([0.6, 0.0, 0.5])
    ns = list(range(2, 9))
    norms = diagnostics.dyson_decay([non_preferential(n) for n in ns], rho0)
    # closed form: |r_z|^n times the n-independent commutator factor
    factor = 2.0 * 0.6 / 0.5
    closed = np.array([factor * 0.5 ** n for n in ns])
    worst = np.abs(norms - closed).max()
    monotone = (np.diff(norms) < 0).all()
    acceptance_report(
        7, "n-body commutator norm decays exponentially",
        worst < 1e-10 and monotone,
        f"max err {worst:.2e}, monotone={monotone}",
    )


def _two_site_ring_effective(theta, phi, t, J=1.0):
    # The closed two-site ring carries its one bond twice (see the IsingChain
    # docstring), H = -2J Z1 Z2. Populations are conserved and the initial
    # coherence is multiplied by cos 4Jt + i cos(theta) sin 4Jt: one neighbour
    # at doubled coupling, where ising_effective assumes two distinct ones.
    coh0 = 0.5 * math.sin(theta) * complex(math.cos(phi), -math.sin(phi))
    coh = (math.cos(4.0 * J * t) + 1j * math.cos(theta) * math.sin(4.0 * J * t)) * coh0
    pop0 = math.cos(theta / 2.0) ** 2
    return np.array([[pop0, coh], [np.conj(coh), 1.0 - pop0]], dtype=complex)


def test_criterion_8_ising_gamma_oracle(rng, acceptance_report):
    times = np.linspace(0.0, 2.0, 50)
    phi = 0.4
    per_n = {}
    for n in range(2, 7):
        spec = evolve.IsingChain(n_spins=n, J=1.0, g=0.0, boundary="closed")
        predict = _two_site_ring_effective if n == 2 else channels.ising_effective
        dists = [non_preferential(n)]
        for _ in range(5):
            w = rng.uniform(0.05, 1.0, n)
            dists.append(custom(w / w.sum()))
        worst = 0.0
        for theta in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            rho0 = qcore.density_from_bloch(_bloch(theta, phi))
            pred = np.array(
                [qcore.bloch_from_density(predict(theta, phi, t, 1.0)) for t in times]
            )
            for cg in dists:
                traj = evolve.trajectory(rho0, cg, spec, times, method="dense")
                worst = max(worst, np.abs(traj.bloch - pred).max())
        per_n[n] = worst
    ok = all(v < 1e-10 for v in per_n.values())
    detail = ", ".join(f"N={n}: {v:.1e}" for n, v in per_n.items())
    acceptance_report(8, "interaction-only chain matches the coherence factor", ok, detail)


def test_criterion_9_ising_invariants(acceptance_report):
    # translation symmetry of the closed ring at finite transverse field
    theta = 0.8
    psi = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(0.4j)])
    rho0 = qcore.kron([np.outer(psi, psi.conj())] * 4)
    spec = evolve.IsingChain(n_spins=4, J=1.0, g=0.5, boundary="closed")
    h = evolve.build_hamiltonian(spec)
    trans_worst = 0.0
    for t in np.linspace(0.2, 2.0, 7):
        rho_t = qcore.propagate(*qcore.eigensystem(h), rho0, t)
        marginals = [qcore.partial_trace(rho_t, [k], 4) for k in range(1, 5)]
        for m in marginals[1:]:
            trans_worst = max(trans_worst, qcore.trace_norm(m - marginals[0]))

    # at g=0 the diagonal population is a constant of motion
    times = np.linspace(0.0, 3.0, 25)
    spec0 = evolve.IsingChain(n_spins=4, J=1.0, g=0.0, boundary="closed")
    traj = evolve.trajectory(
        qcore.density_from_bloch(_bloch(theta)), non_preferential(4), spec0, times,
        method="dense",
    )
    pop_worst = np.abs(0.5 * (1 + traj.bloch[:, 2]) - math.cos(theta / 2) ** 2).max()
    acceptance_report(
        9, "ring symmetry and conserved population",
        trans_worst < 1e-10 and pop_worst < 1e-12,
        f"marginal spread {trans_worst:.2e}, population drift {pop_worst:.2e}",
    )


def test_criterion_10_linearity_suite(acceptance_report):
    def pipeline(spec, cg):
        return lambda rho, times: qcore.bloch_operator(evolve.trajectory(rho, cg, spec, times).bloch)

    def static(channel, cg):
        def dyn(rho, times):
            out = np.array([apply_cg(channel(qcore.kron(f)), cg) for f in maxent.assign(rho, cg).factors])
            return np.repeat(out[:, None], len(times), axis=1)
        return dyn

    linear_worst = diagnostics.linearity_probe(
        pipeline(evolve.LocalZSecond(omega=1.0), non_preferential(2)), 1.1,
        samples=100, seed=0,
    ).max_violation
    for n in (2, 3):
        rep = diagnostics.linearity_probe(
            static(channels.total_dephasing, non_preferential(n)), 0.0,
            samples=100, seed=1,
        )
        linear_worst = max(linear_worst, rep.max_violation)
    linear_worst = max(
        linear_worst,
        diagnostics.linearity_probe(
            static(channels.pauli_component_mask, non_preferential(2)), 0.0, samples=100, seed=2
        ).max_violation,
    )

    nonlinear_min = math.inf
    witnesses_ok = True
    for spec in (evolve.Swap(omega=1.0), evolve.Cnot(omega=1.0)):
        dyn = pipeline(spec, preferential(2, 0.7))
        rep = diagnostics.linearity_probe(dyn, math.pi / 2, samples=100, seed=3)
        nonlinear_min = min(nonlinear_min, rep.max_violation)
        replay = diagnostics.replay_linearity_witness(dyn, rep.witness)
        witnesses_ok = witnesses_ok and abs(replay - rep.max_violation) < 1e-12
    acceptance_report(
        10, "linearity splits the channel families",
        linear_worst < 1e-12 and nonlinear_min > 1e-3 and witnesses_ok,
        f"linear {linear_worst:.1e}, nonlinear {nonlinear_min:.1e}",
    )


def test_criterion_11_semigroup_violation(acceptance_report):
    omega = 1.0
    cg = non_preferential(2)
    spec = evolve.LocalZSecond(omega=omega)
    dyn = lambda rho, times: qcore.bloch_operator(evolve.trajectory(rho, cg, spec, times).bloch)
    plus = qcore.density_from_bloch([1.0, 0.0, 0.0])
    tpi = math.pi / omega
    gap = diagnostics.semigroup_gap(dyn, [tpi], [tpi], probes=[plus]).gap

    r0 = np.array([0.7, 0.1, 0.1])
    times = np.linspace(0.0, 2 * math.pi, 50)
    traj = evolve.trajectory(qcore.density_from_bloch(r0), cg, spec, times)
    circle = channels.linear_nm_circle(r0, omega, times)
    circ_worst = np.abs(traj.bloch - circle).max()
    acceptance_report(
        11, "full-dephasing memory gap and circle paths",
        abs(gap - 1.0) < 1e-10 and circ_worst < 1e-12,
        f"gap deviation {abs(gap - 1.0):.2e}, circle err {circ_worst:.2e}",
    )


def test_criterion_12_maxent_round_trip(rng, acceptance_report):
    worst_rt = 0.0
    worst_resid = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            cg = non_preferential(n)
        elif kind == 1:
            cg = preferential(n, float(rng.uniform(0.05, 0.95)))
        else:
            w = rng.uniform(0.05, 1.0, n)
            cg = custom(w / w.sum())
        rho = qcore.random_density(2, rng)
        sol = maxent.assign(rho, cg).solution
        back = apply_cg(maxent.assign(rho, cg).to_matrix(), cg)
        worst_rt = max(worst_rt, qcore.trace_norm(back - rho))
        if not math.isinf(sol.lam):
            r_ef = float(np.linalg.norm(qcore.bloch_from_density(rho)))
            resid = abs(float(np.dot(cg.probs, np.tanh(cg.probs * sol.lam))) - r_ef)
            worst_resid = max(worst_resid, resid)

    def entropy(rho):
        evals = np.linalg.eigvalsh(rho)
        evals = evals[evals > 1e-15]
        return float(-(evals * np.log(evals)).sum())

    entropy_ok = True
    for _ in range(5):
        cg = preferential(2, float(rng.uniform(0.55, 0.9)))
        r_ef = rng.uniform(-0.5, 0.5, 3)
        rho_eff = qcore.density_from_bloch(r_ef)
        s_best = sum(entropy(f) for f in maxent.assign(rho_eff, cg).factors)
        found = 0
        while found < 200:
            r1 = rng.uniform(-1, 1, 3)
            if np.linalg.norm(r1) > 1:
                continue
            r2 = (r_ef - cg.probs[0] * r1) / cg.probs[1]
            if np.linalg.norm(r2) > 1:
                continue
            found += 1
            s_alt = entropy(qcore.density_from_bloch(r1)) + entropy(
                qcore.density_from_bloch(r2)
            )
            entropy_ok = entropy_ok and s_alt <= s_best + 1e-12
    acceptance_report(
        12, "assignment inverts the averaging at maximum entropy",
        worst_rt < 1e-10 and worst_resid < 1e-12 and entropy_ok,
        f"round trip {worst_rt:.2e}, residual {worst_resid:.2e}, entropy ok={entropy_ok}",
    )
