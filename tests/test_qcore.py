import functools
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cgdyn import evolve, maxent, qcore
from cgdyn.coarse_grain import preferential


def test_pauli_algebra():
    for a in qcore.AXES:
        s = qcore.pauli(a)
        assert np.allclose(s @ s, qcore.IDENTITY_2)
        assert abs(np.trace(s)) == 0.0
        assert qcore.is_hermitian(s)
    assert np.allclose(
        qcore.SIGMA_X @ qcore.SIGMA_Y, 1j * qcore.SIGMA_Z
    )


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError):
        qcore.pauli("w")


def test_kron_and_embed(rng):
    a = qcore.random_density(2, rng)
    b = qcore.random_density(2, rng)
    c = qcore.random_density(2, rng)
    joint = qcore.kron([a, b, c])
    assert joint.shape == (8, 8)
    # an operator on site k is the k-th factor (1-based, leftmost factor first)
    x2 = qcore.kron([qcore.IDENTITY_2, qcore.SIGMA_X, qcore.IDENTITY_2])
    manual = np.kron(np.kron(qcore.IDENTITY_2, qcore.SIGMA_X), qcore.IDENTITY_2)
    assert np.allclose(x2, manual)


def _square_factors(stack):
    # 1-4 complex square factors of sizes 1, 2 and 4, with zeros of both signs frequent;
    # given a stack size, each factor is a stack of that many or a single matrix
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))
    entry = st.builds(complex, part, part)
    shape = st.sampled_from([1, 2, 4]).flatmap(
        lambda m: st.sampled_from([(m, m), (stack, m, m)] if stack else [(m, m)]))
    factor = shape.flatmap(lambda sh: st.lists(entry, min_size=math.prod(sh), max_size=math.prod(sh)).map(
        lambda v: np.array(v, dtype=complex).reshape(sh)))
    return st.lists(factor, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(factors=st.sampled_from([0, 1, 3]).flatmap(_square_factors))
def test_kron_bits_equal_numpy_kron(factors):
    # each entry is the one product np.kron forms, signed zeros included, for single
    # matrices and, matrix by matrix, for stacks of them beside single factors
    stack = max(f.shape[0] if f.ndim == 3 else 0 for f in factors)
    with np.errstate(all="ignore"):  # inf * 0 from overflowing entries
        got = qcore.kron(factors)
        want = [functools.reduce(np.kron, [f[b] if f.ndim == 3 else f for f in factors]) for b in range(stack)]
        want = np.array(want) if stack else functools.reduce(np.kron, factors)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_kron_strided_steps_keep_numpy_bits():
    # kron writes array-times-scalar blocks; up to 128 rows, with zeros of both
    # signs, underflowing and overflowing products, the bits stay np.kron's
    rng = np.random.default_rng(7)
    vals = np.array([0.0, -0.0, 1e-200, -2e-198, 1.0, -1.0, 3.7, 1e200, -1e200, np.inf])
    for _ in range(60):
        factors = []
        for m in rng.permutation([1] + [2] * int(rng.integers(5, 8))):
            f = np.empty((m, m), dtype=complex)
            f.real, f.imag = rng.choice(vals, size=(2, m, m))
            mixed = rng.random((m, m)) < 0.5
            f[mixed] = rng.normal(size=mixed.sum()) + 1j * rng.normal(size=mixed.sum())
            factors.append(f)
        with np.errstate(all="ignore"):
            assert qcore.kron(factors).tobytes() == functools.reduce(np.kron, factors).tobytes()


def _kron_sum(terms, n):
    # reference: each string as an explicit Kronecker product, summed in order
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for coeff, ops in terms:
        factors = [qcore.IDENTITY_2] * n
        for site, axis in ops:
            factors[site - 1] = qcore.pauli(axis)
        out = out + coeff * qcore.kron(factors)
    return out


def _random_string(rng, n, n_y=None):
    # a Pauli string on a random nonempty site subset; n_y fixes the Y count
    k = int(rng.integers(n_y or 1, n + 1))
    sites = sorted(int(s) for s in rng.choice(np.arange(1, n + 1), size=k, replace=False))
    if n_y is None:
        axes = [str(a) for a in rng.choice(list(qcore.AXES), size=k)]
    else:
        axes = ["y"] * n_y + [str(a) for a in rng.choice(["x", "z"], size=k - n_y)]
        rng.shuffle(axes)
    return tuple(zip(sites, axes))


def _basis_orbits(n):
    # what evolve._orbits returns for a sum that site rotation changes
    b = np.arange(2 ** n)
    return b, b, np.ones(2 ** n, dtype=int)


def test_pauli_sum_matches_kron_sums(rng):
    for n in (1, 2, 3, 4):
        for _ in range(20):
            strings = [_random_string(rng, n) for _ in range(int(rng.integers(1, 6)))]
            # strings with an odd Y count carry a phase of +-i
            strings.append(_random_string(rng, n, n_y=1))
            if n >= 3:
                strings.append(_random_string(rng, n, n_y=3))
            terms = [(float(rng.normal()), ops) for ops in strings]
            want = _kron_sum(terms, n)
            assert np.array_equal(qcore.pauli_sum(terms, n), want)
            # the Krylov engine's CSR on the 2^n one-state orbits
            got = evolve._sparse_hamiltonian(iter(terms), n, _basis_orbits(n))
            assert got.has_sorted_indices
            assert np.array_equal(got.toarray(), want)


def test_pauli_sum_rejects_bad_strings():
    for ops in (((0, "z"),), ((3, "z"),), ((1, "z"), (1, "x")), ((1, "i"),)):
        with pytest.raises(ValueError):
            qcore.pauli_sum([(1.0, ops)], 2)


def test_pauli_sum_csr_drops_cancelled_entries():
    # XX + YY cancels on |00> <-> |11>; the CSR stores no explicit zeros
    terms = [(1.0, ((1, "x"), (2, "x"))), (1.0, ((1, "y"), (2, "y")))]
    csr = evolve._sparse_hamiltonian(terms, 2, _basis_orbits(2))
    assert csr.nnz == 2
    assert np.array_equal(csr.toarray(), _kron_sum(terms, 2))


def test_partial_trace_products(rng):
    a = qcore.random_density(2, rng)
    b = qcore.random_density(2, rng)
    c = qcore.random_density(2, rng)
    joint = qcore.kron([a, b, c])
    for k, want in [(1, a), (2, b), (3, c)]:
        got = qcore.partial_trace(joint, [k], 3)
        assert qcore.trace_norm(got - want) < 1e-13
    # multi-site keep preserves ordering
    got = qcore.partial_trace(joint, [1, 3], 3)
    assert qcore.trace_norm(got - qcore.kron([a, c])) < 1e-13


def test_partial_trace_matches_einsum_oracle(rng):
    rho = qcore.random_density(8, rng)
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    # axes (a1 a2 a3, b1 b2 b3); tracing out the middle site ties a2 = b2
    want = np.einsum("ajcbjd->acbd", t).reshape(4, 4)
    got = qcore.partial_trace(rho, [1, 3], 3)
    assert qcore.trace_norm(got - want) < 1e-13
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_validates_keep():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        qcore.partial_trace(rho, [3], 2)
    with pytest.raises(ValueError):
        qcore.partial_trace(rho, [], 2)


def test_bloch_round_trip(rng):
    for _ in range(20):
        r = rng.uniform(-1, 1, 3)
        if np.linalg.norm(r) > 1:
            r /= np.linalg.norm(r) * 1.01
        rho = qcore.density_from_bloch(r)
        assert np.allclose(qcore.bloch_from_density(rho), r)
        assert abs(np.trace(rho) - 1) < 1e-14


def test_bloch_from_density_matches_trace_form(rng):
    # the entry read-out is Tr[sigma rho] bit for bit, signed zeros included
    def trace_form(rho):
        return np.array([np.trace(qcore.pauli(a) @ rho).real for a in qcore.AXES])

    mats = [np.array(entries).reshape(2, 2) for entries in itertools.product(
        [0.0, -0.0, 0.3, complex(0.0, -0.0), complex(-0.0, 0.7)], repeat=4)]
    for scale in 10.0 ** np.arange(-20, 21, 4):
        for _ in range(100):
            m = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            mats += [m, m + m.conj().T]
    for m in mats:
        assert qcore.bloch_from_density(m).tobytes() == trace_form(m).tobytes()


def test_bloch_operator_stack_matches_one_vector(rng):
    r = np.concatenate([
        rng.uniform(-1.0, 1.0, (200, 3)),
        np.array(list(itertools.product([0.0, -0.0, 0.5, -1.0], repeat=3))),
    ])
    stack = qcore.bloch_operator(r)
    assert stack.shape == (len(r), 2, 2)
    for v, op in zip(r, stack):
        want = 0.5 * (qcore.IDENTITY_2 + v[0] * qcore.SIGMA_X + v[1] * qcore.SIGMA_Y + v[2] * qcore.SIGMA_Z)
        assert op.tobytes() == qcore.bloch_operator(v).tobytes() == want.tobytes()
    blocks = qcore.bloch_operator(r[:12].reshape(3, 4, 3))
    assert blocks.tobytes() == stack[:12].tobytes()


def _pauli_sum_form(r):
    # bloch_operator as the Pauli sum itself, the form whose bytes it keeps, halved
    # into a fresh array: numpy would halve a temporary of 256 KiB or more in place,
    # by a loop that takes -5e-324 / 2 to +0 where the one-vector product gives -0
    r = np.asarray(r, dtype=float)[..., None, None]
    x, y, z = r[..., 0, :, :], r[..., 1, :, :], r[..., 2, :, :]
    total = qcore.IDENTITY_2 + x * qcore.SIGMA_X + y * qcore.SIGMA_Y + z * qcore.SIGMA_Z
    return np.multiply(0.5, total, out=np.empty_like(total))


def _bits(a):
    # the bytes, with every NaN written as np.nan: numpy's own NaN sign bits
    # differ between its loops, so only where the NaNs are is compared
    a = np.array(a, dtype=complex)
    parts = a.view(float)
    parts[np.isnan(parts)] = np.nan
    return a.tobytes()


_BLOCH_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.5e-323, -1.5e-323]),
    st.floats(-1e-307, 1e-307),  # subnormals and the smallest normals
    st.floats(-1.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(r=st.sampled_from([(3,), (2, 3), (25, 3), (10 ** 4, 3), (3, 4, 3)]).flatmap(
    lambda shape: hnp.arrays(float, shape, elements=_BLOCH_VALUES)))
def test_bloch_operator_bytes_match_the_pauli_sum(r):
    # the entrywise form keeps the sum's bytes: signed zeros, subnormals, and
    # NaN in every entry of a matrix whose vector is not finite
    with np.errstate(invalid="ignore"):
        want = _pauli_sum_form(r)
        got = qcore.bloch_operator(r)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert _bits(got) == _bits(want)


def test_bloch_operator_special_value_stack_matches_one_vector():
    # every (x, y, z) over 17 special values: 4,913 rows, past the 4,096 from which
    # numpy elides the halving of a temporary by a loop that took -5e-324 / 2 to +0
    # where the one-vector product gives -0; every row keeps its one-vector bits
    vals = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.5e-323, -1.5e-323,
            1e-310, -1e-310, 0.3, -0.7, 0.5, -0.5, 1.0, -1.0]
    r = np.array(list(itertools.product(vals, repeat=3)))
    with np.errstate(invalid="ignore"):
        stack = qcore.bloch_operator(r)
        assert stack.shape == (4913, 2, 2)
        assert [_bits(op) for op in stack] == [_bits(qcore.bloch_operator(v)) for v in r]


def test_density_from_bloch_rejects_outside_ball():
    with pytest.raises(ValueError):
        qcore.density_from_bloch([1.0, 0.5, 0.0])


def test_density_from_bloch_rejects_non_finite():
    # a NaN norm fails every comparison, so the check is written to fail it
    for r in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="is not at most 1"):
            qcore.density_from_bloch(r)


@settings(max_examples=300, deadline=None)
@given(
    radius=st.one_of(st.just(qcore.MAX_RADIUS), st.floats(1.0 - 1e-12, qcore.MAX_RADIUS)),
    direction=st.one_of(
        # |r| = MAX_RADIUS along this direction read back past the bound before the check
        st.just((0.1093599465673873, -0.39769933084788145, -0.910975106318458)),
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    ),
)
def test_density_from_bloch_edge_states_assign(radius, direction):
    # at the ball's edge every vector either is refused here or builds a state
    # that the assignment accepts: the check reads the radius back as assign does
    r = radius * np.asarray(direction) / np.linalg.norm(direction)
    try:
        rho = qcore.density_from_bloch(r)
    except ValueError:
        return
    maxent.assign(rho, preferential(2, 0.7))


def test_time_grid_rejects_non_finite():
    for grid in ([np.nan], [0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="t_grid must hold finite values"):
            qcore.time_grid(grid, "t_grid")


def test_time_grid_names_the_first_failing_check():
    # shape, then finiteness, then order: the first check that fails names the refusal
    for values, reason in (([], "be a nonempty 1-d array"), (0.5, "be a nonempty 1-d array"),
                           ([[math.nan, 1.0]], "be a nonempty 1-d array"),
                           ([2.0, math.inf, 1.0], "hold finite values"),
                           ([0.0, 0.0], "be strictly increasing"), ([1.0, 0.5], "be strictly increasing")):
        with pytest.raises(ValueError) as exc:
            qcore.time_grid(values, "t_grid")
        assert str(exc.value) == f"t_grid must {reason}"
    grid = qcore.time_grid([-1, 5e-324, 2.5])
    assert grid.dtype == float and grid.tolist() == [-1.0, 5e-324, 2.5]


def test_trace_norm_is_abs_eigenvalue_sum(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    want = np.abs(np.linalg.eigvalsh(h)).sum()
    assert qcore.trace_norm(h) == pytest.approx(want, rel=1e-12)


def test_trace_norm_stack_matches_one_matrix(rng):
    for m in (2, 4):
        a = rng.normal(size=(50, m, m)) + 1j * rng.normal(size=(50, m, m))
        stack = a + np.swapaxes(a.conj(), -1, -2)
        norms = qcore.trace_norm(stack)
        assert norms.shape == (50,)
        for h, got in zip(stack, norms):
            one = qcore.trace_norm(h)
            assert type(one) is float
            assert got == one
        assert qcore.trace_norm(stack[:1]).shape == (1,)
    # any memory layout: every other column of a (.., 2, 4) stack
    wide = rng.normal(size=(5, 2, 4)) + 1j * rng.normal(size=(5, 2, 4))
    assert (qcore.trace_norm(wide[..., ::2]) == [qcore.trace_norm(m) for m in wide[..., ::2]]).all()


def _matrices(kind, parts):
    # a 2x2 of the given kind from 8 parts in [-1, 1]: general, Hermitian,
    # anti-Hermitian (a commutator's kind), rank 1 or zero
    a = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    m = a.reshape(2, 2)
    if kind == "hermitian":
        m = m + m.conj().T
    elif kind == "anti-hermitian":
        m = m - m.conj().T
    elif kind == "rank-1":
        u, w = (f / max(np.abs(f.view(float)).max(), 1e-300) for f in (a[:2], a[2:]))
        m = np.outer(u, w)
    elif kind == "zero":
        m = np.zeros((2, 2), dtype=complex)
    return m


_MATRIX = st.tuples(
    st.sampled_from(["general", "hermitian", "anti-hermitian", "rank-1", "zero"]),
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=8, max_size=8),
    st.sampled_from([1e-200, 1e-5, 1.0, 1e200]),
)


@settings(max_examples=500, deadline=None)
@given(draws=st.lists(_MATRIX, min_size=1, max_size=5))
def test_trace_norm_closed_form_matches_svd(draws):
    # sigma_1 + sigma_2 = sqrt(|A|_F^2 + 2 |det A|), scaled, at every scale;
    # normalised to a largest part of 1 first, so no entry starts subnormal
    stack = []
    for kind, parts, scale in draws:
        m = _matrices(kind, parts)
        top = np.abs(m.view(float)).max()
        stack.append(m / top * scale if top > 0.0 else m)
    stack = np.array(stack)
    norms = qcore.trace_norm(stack)
    want = np.linalg.svd(stack, compute_uv=False).sum(-1)
    for m, got, ref in zip(stack, norms, want):
        one = qcore.trace_norm(m)
        assert type(one) is float and one == got
        if ref == 0.0:
            assert got == 0.0
        else:
            assert abs(got - ref) <= 1e-15 * ref


def test_trace_norm_refuses_non_finite(rng):
    # a NaN or infinite entry is bad input at every size, not a NaN norm
    for shape in ((2, 2), (3, 2, 2), (4, 4)):
        for bad in (math.nan, math.inf, -math.inf):
            m = rng.normal(size=shape) + 0j
            m[..., 0, 1] = bad
            if shape == (4, 4):
                with np.errstate(invalid="ignore"), pytest.raises(ValueError):
                    qcore.trace_norm(m)
            else:
                _refused_without_warnings(m)
    for shape in ((2, 2), (3, 2, 2)):
        _refused_without_warnings(np.full(shape, 1e308))  # the norm itself overflows


def test_trace_norm_at_the_scale_edges():
    # closed-form values from the smallest subnormal to near overflow, with no
    # warning: the scale divides in real arithmetic, so no 0 * inf makes a NaN
    tiny = math.ulp(0.0)
    cases = [(np.zeros((2, 2)), 0.0), (np.array([[tiny, 0.0], [0.0, 0.0]]), tiny)]
    for s in (1e-310, 1e307):
        cases += [(s * np.array([[1.0, 0.0], [0.0, -2.0]]), 3 * s),  # |1| + |-2|
                  (s * np.array([[3.0, 4.0j], [0.0, 0.0]]), 5 * s)]  # rank 1: its Frobenius norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = qcore.trace_norm(np.array([m for m, _ in cases]))
        for (m, want), got in zip(cases, norms):
            one = qcore.trace_norm(m)
            assert one == want and got == one and math.copysign(1.0, one) == 1.0


def _refused_without_warnings(m):
    # the 2x2 closed form raises only its ValueError, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            qcore.trace_norm(m)


def test_propagate_grid_matches_scalar_times(rng):
    # a grid gives the (T, d, d) stack of the scalar calls, bit for bit, in either form
    for d in (2, 4, 8):
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        evals, evecs = qcore.eigensystem(h + h.conj().T)
        rho = qcore.random_density(d, rng)
        times = np.concatenate([[-0.7, 0.0], np.sort(rng.uniform(0.0, 20.0, 30))])
        for vecs in (None, evecs):
            stack = qcore.propagate(evals, vecs, rho, times)
            assert stack.shape == (times.size, d, d)
            for t, got in zip(times, stack):
                assert got.tobytes() == qcore.propagate(evals, vecs, rho, t).tobytes()
            assert qcore.propagate(evals, vecs, rho, times[:1]).shape == (1, d, d)


def test_to_eigenbasis_matches_complex_products(rng):
    # a real V: real, imaginary and general M against v.T @ m @ v; a complex V
    # keeps the complex products; matmul on columns and matrices
    for d in (2, 4, 16):
        h = rng.normal(size=(d, d))
        v = np.linalg.eigh(h + h.T)[1]
        a, b = rng.normal(size=(2, d, d))
        for m in (a + 0j, 1j * b, a + 1j * b):
            want = v.T @ m @ v
            assert np.abs(qcore.to_eigenbasis(v, m) - want).max() <= 1e-13
        assert qcore.to_eigenbasis(v, a).dtype == float
        assert np.abs(qcore.to_eigenbasis(v, a) - v.T @ a @ v).max() <= 1e-13
        assert np.abs(1j * qcore.to_eigenbasis(v, b) - v.T @ (1j * b) @ v).max() <= 1e-13
        vc = v * np.exp(1j * rng.uniform(0.0, 6.0, d))
        m = a + 1j * b
        assert np.abs(qcore.to_eigenbasis(vc, m) - vc.conj().T @ m @ vc).max() <= 1e-13
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        for arr in (x[:, None], m):
            assert np.abs(qcore.matmul(v, arr) - v.astype(complex) @ arr).max() <= 1e-13
            assert qcore.matmul(vc, arr).tobytes() == (vc @ arr).tobytes()


def test_assert_density_matrix_raises():
    with pytest.raises(ValueError):
        qcore.assert_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        qcore.assert_density_matrix(np.eye(2, dtype=complex))
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(qcore.PositivityError):
        qcore.assert_density_matrix(bad)


def _verdict(rho):
    try:
        qcore.assert_density_matrix(rho)
    except qcore.PositivityError:
        return False
    return True


def test_assert_density_matrix_2x2_closed_form(rng, monkeypatch):
    # random states and states with an eigenvalue near the floor: the closed-form
    # smallest eigenvalue lies within 1e-15 of eigvalsh's, read off the verdict at a
    # floor just below and just above it, and the verdict at the real floor is
    # eigvalsh's wherever eigvalsh is more than 1e-15 from PSD_FLOOR
    floor = qcore.PSD_FLOOR
    near = floor + np.concatenate([[0.0], np.geomspace(1e-17, 1e-9, 40), -np.geomspace(1e-17, 1e-9, 40)])
    states = [qcore.random_density(2, rng) for _ in range(300)]
    for w in near:
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        states.append(u @ np.diag([1.0 - w, w]) @ u.conj().T)
    for rho in states:
        w_min = np.linalg.eigvalsh(rho).min()
        if abs(w_min - floor) > 1e-15:
            assert _verdict(rho) == (w_min >= floor)
        monkeypatch.setattr(qcore, "PSD_FLOOR", w_min - 1e-15)
        assert _verdict(rho)
        monkeypatch.setattr(qcore, "PSD_FLOOR", w_min + 1e-15)
        assert not _verdict(rho)
        monkeypatch.setattr(qcore, "PSD_FLOOR", floor)


def _hermitian_verdict(rho):
    # assert_density_matrix's Hermiticity decision alone: False for its "not Hermitian"
    # ValueError, True whatever the positivity check then says
    try:
        qcore.assert_density_matrix(rho)
    except ValueError as exc:
        assert "not Hermitian" in str(exc), exc
        return False
    except qcore.PositivityError:
        pass
    return True


_SPECIAL = (math.nan, math.inf, -math.inf)


@st.composite
def _near_hermitian_2x2(draw):
    """Unit-trace 2x2 matrices whose Hermiticity error lands near the tolerance edge:
    rho10 moved off conj rho01 by about the bound (rounding against rho01 keeps it
    from being ulp-exact), the two imaginary diagonal parts at exactly (1 + k ulp)
    times it (opposite, so the trace stays real), or NaN and infinite parts off the
    diagonal or a NaN on it."""
    x = draw(st.floats(-2.0, 3.0))
    b = complex(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
    a, d, c = complex(x, 0.0), complex(1.0 - x, 0.0), b.conjugate()
    scale = max(1.0, float(np.abs([a, b, c, d]).max()))
    edge = qcore.HERMITICITY_TOL * scale * (1.0 + draw(st.integers(-4, 4)) * 2.0 ** -52)
    where = draw(st.sampled_from(["off", "diag", "special", "none"]))
    if where == "off":
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        c = c + complex(edge * math.cos(phase), edge * math.sin(phase))
    elif where == "diag":
        a, d = complex(a.real, edge / 2.0), complex(d.real, -edge / 2.0)
    elif where == "special":  # one or two parts, e.g. a NaN |rho01| beside an infinite rho10
        entries = {"a": a, "b": b, "c": c}
        parts = st.sampled_from(["a.real", "b.real", "b.imag", "c.real", "c.imag"])
        for part, value in draw(st.lists(st.tuples(parts, st.sampled_from(_SPECIAL)), min_size=1, max_size=2)):
            z = entries[part[0]]
            value = math.nan if part[0] == "a" else value  # an infinite trace fails first
            entries[part[0]] = complex(value, z.imag) if part.endswith("real") else complex(z.real, value)
        a, b, c = entries["a"], entries["b"], entries["c"]
    return np.array([[a, b], [c, d]])


@settings(max_examples=400, deadline=None)
@given(rho=_near_hermitian_2x2())
def test_2x2_hermiticity_is_is_hermitian(rho):
    # the closed-form 2x2 test takes the general is_hermitian's decision bit for bit,
    # at the tolerance edge and on NaN and infinite entries
    with np.errstate(invalid="ignore"):  # inf - inf in rho - rho^dag
        want = qcore.is_hermitian(rho)
    assert _hermitian_verdict(rho) == want


def test_is_hermitian_on_infinite_entries_is_quiet():
    # inf - inf in m - m^dag is NaN: the verdict is False, with no numpy warning
    rho = np.array([[0.5, complex(math.inf, 0.0)], [complex(math.inf, 0.0), 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not qcore.is_hermitian(rho)
        assert not qcore.is_hermitian(np.stack([np.eye(2) / 2, rho]))


def test_2x2_hermiticity_at_the_edge():
    # ulp-exact edges: with rho01 = 0, rho01 - conj rho10 is -conj rho10 exactly, and
    # |rho10| is set at (1 + k ulp) times the bound. numpy's |z| and libm's hypot
    # differ in the last bit on some of these, so only numpy's, which is_hermitian
    # takes, gives its verdict on all of them
    verdicts = set()
    for k in range(-2, 3):
        edge = qcore.HERMITICITY_TOL * (1.0 + k * 2.0 ** -52)
        for phi in np.linspace(0.0, 2.0 * math.pi, 400):
            rho = np.array([[0.3, 0.0], [complex(edge * math.cos(phi), edge * math.sin(phi)), 0.7]])
            verdicts.add(qcore.is_hermitian(rho))
            assert _hermitian_verdict(rho) == qcore.is_hermitian(rho), (k, phi)
    assert verdicts == {True, False}
    # a NaN |rho10| beside an infinite rho01: np.max makes is_hermitian's scale 1, so
    # the infinite error fails, although max(1, |rho_ij|) over the numbers is infinite
    rho = np.array([[0.5, complex(0.0, math.inf)], [complex(math.nan, 0.0), 0.5]])
    with np.errstate(invalid="ignore"):
        assert not qcore.is_hermitian(rho)
    assert not _hermitian_verdict(rho)


def test_propagate_matches_expm(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    rho = qcore.random_density(4, rng)
    t = 0.37
    u = scipy.linalg.expm(-1j * h * t)
    want = u @ rho @ u.conj().T
    evals, evecs = qcore.eigensystem(h)
    got = qcore.propagate(evals, evecs, rho, t)
    assert qcore.trace_norm(got - want) < 1e-12


def test_propagate_diagonal_matches_eigenbasis(rng):
    # evecs=None is the computational eigenbasis: same result as the identity
    evals = rng.normal(size=8)
    rho = qcore.random_density(8, rng)
    got = qcore.propagate(evals, None, rho, 0.83)
    want = qcore.propagate(evals, np.eye(8, dtype=complex), rho, 0.83)
    assert np.abs(got - want).max() < 1e-15


def _exclusive_products_loop(values):
    # the prefix/suffix loop that exclusive_products must reproduce bit for bit
    values = np.asarray(values)
    n = len(values)
    pre = np.ones(n, dtype=values.dtype if values.dtype.kind == "c" else float)
    suf = np.ones_like(pre)
    for j in range(1, n):
        pre[j] = pre[j - 1] * values[j - 1]
    for j in range(n - 2, -1, -1):
        suf[j] = suf[j + 1] * values[j + 1]
    return pre * suf


def test_exclusive_products_matches_loop(rng):
    # several draws each: a complex rounding difference shows in about half
    for n in (1, 2, 3, 10, 10 ** 4):
        for complex_input in (False, True):
            for zeros in ((), (0, n - 1), (n // 2,), (0, n // 2, n - 1)):
                for _ in range(5):
                    vals = rng.uniform(-1.2, 1.2, n)
                    if complex_input:
                        vals = vals + 1j * rng.uniform(-1.2, 1.2, n)
                    vals[list(zeros)] = 0.0
                    want = _exclusive_products_loop(vals)
                    got = qcore.exclusive_products(vals)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (n, complex_input, zeros)
            # stacked rows act along the last axis with each row's 1-d bytes
            rows = np.stack([vals, vals[::-1], rng.permutation(vals)])
            want = np.stack([_exclusive_products_loop(row) for row in rows])
            assert qcore.exclusive_products(rows).tobytes() == want.tobytes(), n


def test_exclusive_products_brute_force(rng):
    vals = rng.uniform(-1, 1, 6)
    got = qcore.exclusive_products(vals)
    for k in range(6):
        want = np.prod(np.delete(vals, k))
        assert got[k] == pytest.approx(want, abs=1e-15)
    # zeros are fine: only the excluded-zero slot survives
    vals = np.array([0.5, 0.0, 2.0])
    assert np.allclose(qcore.exclusive_products(vals), [0.0, 1.0, 0.0])


def test_random_density_is_a_state(rng):
    for dim in (2, 4, 8):
        rho = qcore.random_density(dim, rng)
        qcore.assert_density_matrix(rho)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-14
