import numpy as np
import pytest

from cgdyn import qcore
from cgdyn.coarse_grain import (
    CoarseGraining,
    apply_cg,
    custom,
    fuzzy_operator,
    non_preferential,
    preferential,
)


def test_non_preferential_uniform():
    cg = non_preferential(4)
    assert np.allclose(cg.probs, 0.25, rtol=0.0, atol=1e-15)


def test_preferential_remainder_split():
    cg = preferential(3, 0.7)
    assert np.allclose(cg.probs, [0.7, 0.15, 0.15])
    assert np.allclose(preferential(2, 0.5).probs, [0.5, 0.5])


def test_preferential_p1_range():
    with pytest.raises(ValueError):
        preferential(3, 0.0)
    with pytest.raises(ValueError):
        preferential(3, 1.2)
    # p1 = 1 is legal: everything on the first site
    assert np.allclose(preferential(3, 1.0).probs, [1.0, 0.0, 0.0])


def test_preferential_needs_two_sites():
    # the remainder (1 - p1)/(n - 1) has no sites to spread over below n = 2
    for n in (1, 0):
        with pytest.raises(ValueError, match="n >= 2"):
            preferential(n, 0.5)


def test_custom_allows_zeros_and_validates():
    cg = custom([0.5, 0.5, 0.0])
    assert cg.n == 3
    with pytest.raises(ValueError):
        custom([[0.5, 0.5]])
    with pytest.raises(ValueError):
        custom([0.6, 0.6])
    with pytest.raises(ValueError):
        custom([1.2, -0.2])


def test_weights_must_be_finite():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        custom([np.nan, 1.0])
    with pytest.raises(ValueError, match="sum to inf"):
        CoarseGraining(2, np.array([np.inf, 0.0]))


def test_constructor_validates():
    with pytest.raises(ValueError):
        CoarseGraining(1, np.array([1.0]))
    with pytest.raises(ValueError):
        CoarseGraining(3, np.array([0.5, 0.5]))
    # a non-finite site count is refused before int() sees it
    for n in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="n >= 2 sites"):
            CoarseGraining(n, np.array([1.0]))


def test_apply_cg_product_state(rng):
    # on a product, the output is just the weighted mixture of the factors
    factors = [qcore.random_density(2, rng) for _ in range(3)]
    cg = custom([0.2, 0.5, 0.3])
    got = apply_cg(qcore.kron(factors), cg)
    want = 0.2 * factors[0] + 0.5 * factors[1] + 0.3 * factors[2]
    assert qcore.trace_norm(got - want) < 1e-13


def test_apply_cg_is_a_channel(rng):
    cg = preferential(3, 0.6)
    for _ in range(5):
        rho = qcore.random_density(8, rng)
        out = apply_cg(rho, cg)
        qcore.assert_density_matrix(out)
    # linearity
    a, b = qcore.random_density(8, rng), qcore.random_density(8, rng)
    mix = 0.3 * a + 0.7 * b
    assert (
        qcore.trace_norm(apply_cg(mix, cg) - 0.3 * apply_cg(a, cg) - 0.7 * apply_cg(b, cg))
        < 1e-13
    )


def swap_permutation(n, k):
    """Permutation matrix exchanging tensor slots 1 and k (1-based).

    k = 1 returns the identity. The defining expression that the marginal
    shortcut in apply_cg is checked against.
    """
    if not 1 <= k <= n:
        raise ValueError(f"slot index k={k} outside 1..{n}")
    dim = 2 ** n
    perm = np.zeros((dim, dim))
    # bit positions count from the left: qubit 1 is the most significant bit
    b1 = n - 1
    bk = n - k
    for i in range(dim):
        v1 = (i >> b1) & 1
        vk = (i >> bk) & 1
        j = i & ~(1 << b1) & ~(1 << bk)
        j |= vk << b1
        j |= v1 << bk
        perm[j, i] = 1.0
    return perm


def test_swap_permutation_cross_checks_apply_cg(rng):
    # the averaging map can also be written as: swap site k to the front,
    # then trace out everything but the first slot
    n = 3
    cg = custom([0.2, 0.5, 0.3])
    rho = qcore.random_density(2 ** n, rng)
    want = np.zeros((2, 2), dtype=complex)
    for k in range(1, n + 1):
        perm = swap_permutation(n, k)
        swapped = perm @ rho @ perm.T
        want += cg.probs[k - 1] * qcore.partial_trace(swapped, [1], n)
    assert qcore.trace_norm(apply_cg(rho, cg) - want) < 1e-13


def test_swap_permutation_is_involution():
    for n in (2, 4):
        for k in range(1, n + 1):
            perm = swap_permutation(n, k)
            assert np.allclose(perm @ perm, np.eye(2 ** n))


def test_apply_cg_skips_zero_weights(rng):
    # a zero-weight site contributes nothing, so its marginal is never taken
    rho = qcore.random_density(8, rng)
    cg0 = custom([0.4, 0.6, 0.0])
    want = 0.4 * qcore.partial_trace(rho, [1], 3) + 0.6 * qcore.partial_trace(rho, [2], 3)
    assert qcore.trace_norm(apply_cg(rho, cg0, ) - want) < 1e-13


def test_apply_cg_matches_partial_trace_sum(rng):
    for n in range(2, 9):
        rho = qcore.random_density(2 ** n, rng)
        w = rng.uniform(0.1, 1.0, n)
        w[rng.choice(n, size=n // 2, replace=False)] = 0.0
        for cg in (non_preferential(n), custom(w / w.sum())):
            want = np.zeros((2, 2), dtype=complex)
            for k, p in enumerate(cg.probs, start=1):
                if p:
                    want += p * qcore.partial_trace(rho, [k], n)
            got = apply_cg(rho, cg)
            assert np.abs(got - want).max() < 1e-14, n
            if n == 2:
                # the two-qubit configs pinned by the manifest depend on these bytes
                assert got.tobytes() == want.tobytes()


def test_fuzzy_operator_identity(rng):
    # Tr[sigma^a C(rho)] = Tr[G^a rho] for every axis and any state
    cg = preferential(3, 0.5)
    for _ in range(10):
        rho = qcore.random_density(8, rng)
        eff = apply_cg(rho, cg)
        for a in qcore.AXES:
            lhs = np.trace(qcore.pauli(a) @ eff)
            rhs = np.trace(fuzzy_operator(a, cg) @ rho)
            assert abs(lhs - rhs) < 1e-12


def test_fuzzy_operator_shape_and_rejects_identity():
    g = fuzzy_operator("z", non_preferential(2))
    assert g.shape == (4, 4)
    want = 0.5 * (np.kron(qcore.SIGMA_Z, qcore.IDENTITY_2)
                  + np.kron(qcore.IDENTITY_2, qcore.SIGMA_Z))
    assert np.allclose(g, want)
    with pytest.raises(ValueError):
        fuzzy_operator("i", non_preferential(2))


def test_apply_cg_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        apply_cg(qcore.random_density(4, rng), non_preferential(3))
