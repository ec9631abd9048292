import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgdyn import maxent, qcore
from cgdyn.coarse_grain import apply_cg, custom, non_preferential, preferential

# frozen reference values, computed with an independent high-precision root
# finder before this module existed
LAMBDA_PREF_07 = 1.2492597364490618  # preferential p1=0.7, n=2, r_ef=0.6
R1_PREF_07 = 0.7036440757361245
R2_PREF_07 = 0.3581638232823762
LAMBDA_NONPREF_05 = 1.0986122886681098  # nonpref n=2, r_ef=0.5: ln 3


def test_lambda_frozen_preferential():
    cg = preferential(2, 0.7)
    sol = maxent.solve_lambda(0.6, cg)
    assert sol.lam == pytest.approx(LAMBDA_PREF_07, rel=1e-12)
    assert sol.per_particle_r[0] == pytest.approx(R1_PREF_07, rel=1e-12)
    assert sol.per_particle_r[1] == pytest.approx(R2_PREF_07, rel=1e-12)


def test_lambda_frozen_nonpreferential():
    sol = maxent.solve_lambda(0.5, non_preferential(2))
    assert sol.lam == pytest.approx(LAMBDA_NONPREF_05, rel=1e-12)


def test_lambda_residual(rng):
    # the defining constraint holds at solver precision
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p1 = float(rng.uniform(0.05, 0.95))
        cg = preferential(n, p1)
        r = float(rng.uniform(0.0, 0.999))
        sol = maxent.solve_lambda(r, cg)
        resid = np.dot(cg.probs, np.tanh(cg.probs * sol.lam)) - r
        assert abs(resid) < 1e-12


def test_lambda_at_tiny_radii():
    # the bisection runs until its bracket collapses, however small the root
    for cg in (preferential(3, 0.6), non_preferential(2), custom([0.1, 0.2, 0.7])):
        for r in (1e-60, 1e-100, 1e-300):
            got = float(np.dot(cg.probs, maxent.solve_lambda(r, cg).per_particle_r))
            assert abs(got - r) <= 1e-12 * r, (cg.probs, r, got)


def test_lambda_refuses_subnormal_radii():
    # below the smallest normal float p_k lambda underflows in the radius sum:
    # these two once gave lambda = 0 and a relative error of 4.9e-4
    tiny = np.finfo(float).tiny
    for cg, r in ((custom([1e-9, 1.0 - 1e-9]), 5e-324), (custom([0.1, 0.2, 0.7]), 1e-320)):
        with pytest.raises(ValueError) as exc:
            maxent.solve_lambda(r, cg)
        assert str(exc.value) == f"effective radius {r} is below the smallest normal radius {tiny}"
        # the smallest normal radius itself is still solved
        got = float(np.dot(cg.probs, maxent.solve_lambda(tiny, cg).per_particle_r))
        assert abs(got - tiny) <= 1e-12 * tiny, (cg.probs, got)


def _bisection_lambda(r_ef, probs):
    """The plain bisection: [0, 1] grown by doubling, then halved until adjacent
    floats; its lambda is the oracle for the bracketed solve."""
    def radius_sum(lam):
        return float(np.dot(probs, np.tanh(probs * lam)))

    lo, hi = 0.0, 1.0
    while radius_sum(hi) < r_ef:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return 0.5 * (lo + hi)
        if radius_sum(mid) < r_ef:
            lo = mid
        else:
            hi = mid


def _radius_draws(rng, count):
    """Effective radii from the smallest normal float up to just below PURE_RADIUS: a
    third log-uniform, a third uniform and a third with 1 - r from 1e-9 up to 1e-2."""
    tiny, top = np.finfo(float).tiny, np.nextafter(qcore.PURE_RADIUS, 0.0)
    out = [tiny, top]
    for k in range(count - 2):
        if k % 3 == 0:
            r = math.exp(rng.uniform(math.log(tiny), math.log(top)))
        elif k % 3 == 1:
            r = rng.uniform(0.0, top)
        else:
            r = 1.0 - math.exp(rng.uniform(math.log(1.0 - top), math.log(1e-2)))
        out.append(min(max(float(r), tiny), top))
    return out


def test_lambda_is_the_bisection_root(rng):
    # the same lambda as the plain bisection, bit for bit, however skewed the weights
    for r in _radius_draws(rng, 1000):
        n = int(rng.integers(2, 31))
        probs = rng.dirichlet(np.full(n, math.exp(rng.uniform(math.log(0.05), math.log(3.0)))))
        cg = custom(probs)
        assert maxent.solve_lambda(r, cg).lam == _bisection_lambda(r, cg.probs), (r, cg.probs)


def test_lambda_solve_evaluation_count(rng, monkeypatch):
    # perfbench counts maxent._radius_sum; the bisection alone needs about 55 calls
    calls = []
    inner = maxent._radius_sum

    def counted(lam, probs):
        calls.append(lam)
        return inner(lam, probs)

    monkeypatch.setattr(maxent, "_radius_sum", counted)
    for cg in (preferential(2, 0.7), non_preferential(4)):
        counts = []
        for r in _radius_draws(rng, 300):
            calls.clear()
            maxent.solve_lambda(r, cg)
            counts.append(len(calls))
        assert np.median(counts) <= 16, (cg.probs, np.median(counts))


@settings(max_examples=40, deadline=None)
@given(
    r_lo=st.floats(0.01, 0.9),
    bump=st.floats(0.001, 0.09),
    p1=st.floats(0.1, 0.9),
)
def test_lambda_monotone_in_radius(r_lo, bump, p1):
    cg = preferential(3, p1)
    lo = maxent.solve_lambda(r_lo, cg).lam
    hi = maxent.solve_lambda(r_lo + bump, cg).lam
    assert hi > lo


def test_round_trip_identity(rng):
    # assignment followed by coarse graining is the identity on states
    for _ in range(40):
        n = int(rng.integers(2, 5))
        kind = rng.integers(0, 3)
        if kind == 0:
            cg = non_preferential(n)
        elif kind == 1:
            cg = preferential(n, float(rng.uniform(0.1, 0.9)))
        else:
            w = rng.uniform(0.05, 1.0, n)
            cg = custom(w / w.sum())
        rho = qcore.random_density(2, rng)
        back = apply_cg(maxent.assign(rho, cg).to_matrix(), cg)
        assert qcore.trace_norm(back - rho) < 1e-10


def test_round_trip_with_zero_weight_site(rng):
    cg = custom([0.6, 0.4, 0.0])
    rho = qcore.random_density(2, rng)
    a = maxent.assign(rho, cg)
    back = apply_cg(a.to_matrix(), cg)
    assert qcore.trace_norm(back - rho) < 1e-10
    # the dead site carries no polarization
    assert qcore.trace_norm(a.factors[2] - qcore.IDENTITY_2 / 2) < 1e-12


def test_nonpreferential_assigns_copies(rng):
    cg = non_preferential(4)
    rho = qcore.random_density(2, rng)
    a = maxent.assign(rho, cg)
    for f in a.factors:
        assert qcore.trace_norm(f - rho) < 1e-12


def test_assigned_factors_are_states(rng):
    cg = preferential(3, 0.8)
    a = maxent.assign(qcore.random_density(2, rng), cg)
    for f in a.factors:
        qcore.assert_density_matrix(f)
    qcore.assert_density_matrix(a.to_matrix())


@settings(max_examples=200, deadline=None)
@given(
    radius=st.one_of(st.floats(0.0, 1.0), st.floats(1.0 - 1e-12, qcore.MAX_RADIUS), st.just(qcore.MAX_RADIUS)),
    log_weights=st.lists(st.floats(-7.0, 0.0), min_size=2, max_size=8),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_assigned_factors_stay_in_the_ball(radius, log_weights, seed):
    # each site radius is tanh(p_k lambda) <= 1 (or exactly 1) along a unit direction,
    # so no factor leaves the ball, up to the input's own MAX_RADIUS; assign has no
    # final check for it. At the edge, density_from_bloch refuses exactly the vectors
    # whose state reads back past MAX_RADIUS, and assign accepts every other one
    probs = 10.0 ** np.array(log_weights)
    direction = np.random.default_rng(seed).normal(size=3)
    bloch = radius * direction / np.linalg.norm(direction)
    try:
        rho = qcore.density_from_bloch(bloch)
    except ValueError:
        assert np.linalg.norm(qcore.bloch_from_density(qcore.bloch_operator(bloch))) > qcore.MAX_RADIUS
        return
    a = maxent.assign(rho, custom(probs / probs.sum()))
    for f in a.factors:
        assert np.linalg.norm(qcore.bloch_from_density(f)) <= qcore.MAX_RADIUS


def test_pure_sentinel():
    cg = preferential(2, 0.7)
    rho = qcore.density_from_bloch([0.0, 0.0, 1.0])
    a = maxent.assign(rho, cg)
    assert math.isinf(a.solution.lam)
    assert a.solution.is_pure
    for f in a.factors:
        assert np.trace(f @ f).real == pytest.approx(1.0, abs=1e-12)
    # and the joint state is the pure product it has to be
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 1.0
    assert qcore.trace_norm(a.to_matrix() - want) < 1e-12


def test_pure_with_dead_site_refused():
    # a zero-weight site cannot reproduce a pure effective state: the dead
    # site's mixedness would leak into the coarse-grained output
    cg = custom([1.0, 0.0])
    rho = qcore.density_from_bloch([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        maxent.assign(rho, cg)


def test_maximally_mixed_shortcut():
    cg = preferential(3, 0.5)
    a = maxent.assign(qcore.IDENTITY_2 / 2, cg)
    assert a.solution.lam == 0.0
    for f in a.factors:
        assert qcore.trace_norm(f - qcore.IDENTITY_2 / 2) < 1e-15


def test_assign_direction():
    # the factors' common axis is the input's unit Bloch direction; the
    # maximally mixed input has none and gets z
    cg = non_preferential(2)
    a = maxent.assign(qcore.density_from_bloch([0.0, 0.5, 0.0]), cg)
    assert np.allclose(a.direction, [0.0, 1.0, 0.0])
    assert np.allclose(maxent.assign(qcore.IDENTITY_2 / 2, cg).direction, [0.0, 0.0, 1.0])


def _entropy(rho):
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-15]
    return float(-(evals * np.log(evals)).sum())


def test_entropy_maximality_spot_check(rng):
    # the assigned product must beat every other two-site product with the
    # same weighted Bloch sum, and mixtures of such products
    cg = preferential(2, 0.7)
    r_ef = np.array([0.3, 0.1, 0.4])
    rho_eff = qcore.density_from_bloch(r_ef)
    a = maxent.assign(rho_eff, cg)
    s_best = sum(_entropy(f) for f in a.factors)

    p1, p2 = cg.probs
    found = 0
    while found < 200:
        r1 = rng.uniform(-1, 1, 3)
        if np.linalg.norm(r1) > 1:
            continue
        r2 = (r_ef - p1 * r1) / p2
        if np.linalg.norm(r2) > 1:
            continue
        found += 1
        alt = [qcore.density_from_bloch(r1), qcore.density_from_bloch(r2)]
        assert sum(_entropy(f) for f in alt) <= s_best + 1e-12


def test_assign_rejects_junk():
    cg = non_preferential(2)
    with pytest.raises(ValueError):
        maxent.assign(np.eye(2), cg)  # trace 2
    with pytest.raises(ValueError):
        maxent.solve_lambda(1.5, cg)
    with pytest.raises(ValueError):
        maxent.solve_lambda(-0.1, cg)
