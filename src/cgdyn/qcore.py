"""Dense qubit algebra shared by every other module.

Conventions used throughout the package:

* qubit 1 is the leftmost tensor factor, i.e. the most significant bits
  of the computational-basis index,
* hbar = 1, so a Hamiltonian H generates U(t) = exp(-i H t),
* density matrices are plain complex numpy arrays; validation is explicit
  via `assert_density_matrix` rather than wrapped in a class.

Everything here is d = 2 (qubits). Local dimension is not a parameter.
"""

from __future__ import annotations

import math

import numpy as np

# Pauli basis. Module-level constants, never mutated.
IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Closed axis enumeration; "i" is accepted where an identity slot makes sense.
PAULI = {"i": IDENTITY_2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
AXES = ("x", "y", "z")

# Validation tolerances, one name per meaning. PSD_FLOOR is the most negative
# eigenvalue a state may show before it is treated as a hard numerical error,
# not noise.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10
MAX_RADIUS = 1.0 + 1e-12  # the edge of the Bloch ball for every input and output check
ZERO_RADIUS = 1e-15  # a radius or direction norm below this counts as zero
WEIGHT_SUM_TOL = 1e-12  # site weights sum to one within this
PURE_RADIUS = 1.0 - 1e-9  # an effective radius from here up is pure (lambda diverges)
RADII_SUM_TOL = 1e-9  # p1 r1 + p2 r2 given to kappa_swap meets r_ef0 within this
EQUAL_MARGINAL_TOL = 1e-10  # the largest marginal deviation that still counts as equal


class PositivityError(ArithmeticError):
    """A computed state left the positive cone: an eigenvalue below PSD_FLOOR,
    or an effective Bloch radius above MAX_RADIUS.

    Raised for numerical failures detected mid-computation, as opposed to
    ValueError which flags invalid caller input.
    """


def pauli(axis):
    """Return the 2x2 Pauli matrix for axis in {"i","x","y","z"}."""
    try:
        return PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of 'i','x','y','z'") from None


def kron(factors):
    """Kronecker product of a nonempty sequence of square matrices or of
    (..., m, m) stacks of them, matrix by matrix, in the qubit-1-leftmost
    order. Each step writes out * f[..., i, j] into the strided block of rows
    i::m, columns j::m: every entry is the one product a_ij * b_kl of
    np.kron's loop, with its bits.
    """
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors:
        raise ValueError("kron needs at least one factor")
    if any(f.ndim < 2 or f.shape[-1] != f.shape[-2] for f in factors):
        raise ValueError("kron factors must be square matrices")
    out = factors[0]
    for f in factors[1:]:
        d, m = out.shape[-1], f.shape[-1]
        new = np.empty(np.broadcast_shapes(out.shape[:-2], f.shape[:-2]) + (d * m, d * m), dtype=complex)
        for i, j in np.ndindex(m, m):  # array times scalar: np.kron's bits
            np.multiply(out, f[..., i, j, None, None], out=new[..., i::m, j::m])
        out = new
    return out


def pauli_sum(terms, n):
    """Dense matrix of sum coeff * string on n qubits.

    Terms are (coeff, ((site, axis), ...)) with distinct 1-based sites and
    axes "x", "y", "z". Terms with one xmask fill the same entries and are
    summed in declaration order.
    """
    dim = 2 ** n
    b = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    for xmask, vals in _pauli_blocks(terms, n, b).items():
        h[b ^ xmask, b] = vals
    return h


def _pauli_blocks(terms, n, states):
    """{xmask: the sum's values in the columns of the given basis states}: a string
    maps |b> to i^#Y (-1)^popcount(b & zmask) |b ^ xmask>; X, Y flip and Z, Y sign."""
    blocks = {}
    for coeff, ops in terms:
        xmask = zmask = ny = 0
        for site, axis in ops:
            if not 1 <= site <= n or axis not in AXES:
                raise ValueError(f"Pauli factor {(site, axis)!r} is not an x/y/z on sites 1..{n}")
            bit = 1 << (n - site)
            if (xmask | zmask) & bit:
                raise ValueError(f"site {site} appears twice in one Pauli string")
            if axis != "z":
                xmask |= bit
            if axis != "x":
                zmask |= bit
            if axis == "y":
                ny += 1
        # i^ny: a real sign times one factor of i when ny is odd
        scale = coeff if ny % 4 < 2 else -coeff
        vals = scale * (1.0 - 2.0 * (np.bitwise_count(states & zmask) & 1))
        if ny % 2:
            vals = 1j * vals
        blocks[xmask] = blocks.get(xmask, 0j) + vals
    return blocks


def partial_trace(rho, keep, n):
    """Trace out every qubit not listed in `keep` (1-based indices).

    The retained slots keep their original relative order. Works on any
    square 2^n operator, not only states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2 ** n, 2 ** n):
        raise ValueError(f"matrix shape {rho.shape} does not match n={n} qubits")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep indices {keep} outside 1..{n}")
    t = rho.reshape((2,) * (2 * n))
    for q in range(n, 0, -1):
        if q in keep:
            continue
        half = t.ndim // 2
        t = np.trace(t, axis1=q - 1, axis2=q - 1 + half)
    d = 2 ** len(keep)
    return np.ascontiguousarray(t.reshape(d, d))


def bloch_from_density(rho):
    """Bloch vector (rx, ry, rz) of a single-qubit operator, or the (..., 3)
    vectors of a (..., 2, 2) stack.

    Reads Tr[sigma rho] off the entries. Every Pauli product is exact, so
    each component equals the trace of the product bit for bit; the + 0.0
    turns a -0.0 into the +0.0 that the trace's sum gives.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError("bloch_from_density expects 2x2 matrices")
    b, c, out = rho[..., 0, 1], rho[..., 1, 0], np.empty(rho.shape[:-2] + (3,))
    out[..., 0], out[..., 1] = c.real + b.real, c.imag - b.imag
    out[..., 2] = rho[..., 0, 0].real - rho[..., 1, 1].real
    out += 0.0
    return out


def bloch_radius(r):
    """|r| per (..., 3) vector, np.linalg.norm's bits: a stacked 1x3 by 3x1 product is its dot."""
    r = np.asarray(r, dtype=float)
    return np.sqrt((r[..., None, :] @ r[..., :, None])[..., 0, 0])


# I + r . sigma on the float view (re, im of a00, a01, a10, a11) as _BLOCH_SIGN *
# r[_BLOCH_PART] + _BLOCH_CONST: 1 + z, 0, x + 0, 0 - y, x + 0, y + 0, 1 - z, 0
_BLOCH_PART = np.array([2, 0, 0, 1, 0, 1, 2, 0])
_BLOCH_SIGN = np.array([1.0, 0.0, 1.0, -1.0, 1.0, 1.0, -1.0, 0.0])
_BLOCH_CONST = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def bloch_operator(r):
    """(I + r . sigma)/2 for a real (..., 3) array r, unchecked: no ball test.

    Each Pauli product is exact, so the sum is written entry by entry with
    its bits: 1 +/- z on the diagonal, x + 0 -/+ i (y + 0) off it (a -0
    becomes +0), NaN throughout for a non-finite component (0 * inf). The
    sum is halved as 0.5 * sum into its own buffer: numpy would elide a
    large temporary's product by the loop for sum * 0.5, which halves
    -5e-324 to +0, not -0. So a stack equals its one-vector calls bit for
    bit at every size.
    """
    r = np.asarray(r, dtype=float)
    out = np.empty(r.shape[:-1] + (2, 2), dtype=complex)
    parts = out.view(float).reshape(r.shape[:-1] + (8,))
    np.multiply(_BLOCH_SIGN, r[..., _BLOCH_PART], out=parts)  # in place: one temporary, the gather
    parts += _BLOCH_CONST
    if not math.isfinite(r.sum()):  # a sum that overflows on finite parts only costs the scan
        out[~np.isfinite(r).all(-1)] = np.nan
    return np.multiply(0.5, out, out=out)


def density_from_bloch(r):
    """Single-qubit state (I + r . sigma)/2 per (..., 3) vector r, refused unless
    each radius, and the one `bloch_from_density` reads back (which rounds), is at
    most MAX_RADIUS, so every state returned passes `maxent.assign`'s ball check."""
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != (3,):
        raise ValueError("Bloch vector must have exactly three components")
    rho = bloch_operator(r)
    norm = np.maximum(bloch_radius(r), bloch_radius(bloch_from_density(rho)))  # a NaN stays
    if not (norm <= MAX_RADIUS).all():
        raise ValueError(f"Bloch vector norm {np.max(norm)} is not at most 1")
    return rho


_SMALLEST = math.ulp(0.0)  # the scale of a zero matrix, so that it gives 0.0
_NOT_FINITE = "trace norm is not finite: a NaN or infinite entry, or overflow"


def trace_norm(a):
    """Schatten 1-norm: sum of singular values.

    A single matrix gives a float; a (..., m, m) stack gives an array of one
    norm per matrix, each equal bit for bit to the single-matrix call. A 2x2
    takes sigma_1 + sigma_2 = sqrt(|A|_F^2 + 2 |det A|) with A scaled by its
    largest |real or imaginary part|, so no square overflows or underflows;
    one matrix takes the same elementwise steps. Other sizes take the SVD. ValueError unless
    every norm is finite (a NaN or infinite entry, or overflow).
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] == (2, 2):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            norms = _trace_norm_2x2(a)
    else:
        norms = np.linalg.svd(a, compute_uv=False).sum(-1)
    if not np.isfinite(norms).all():
        raise ValueError(_NOT_FINITE)
    return float(norms) if norms.ndim == 0 else norms


def _trace_norm_2x2(a):
    v = np.ascontiguousarray(a).view(float)  # (..., 2, 4): re, im of each entry
    m = np.abs(v).max((-2, -1), initial=_SMALLEST, keepdims=True)
    a = (v / m).view(complex)  # a real division: a subnormal scale gives no 0 * inf
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return m[..., 0, 0] * np.sqrt((a.real ** 2 + a.imag ** 2).sum((-2, -1)) + 2.0 * np.abs(det))


def is_hermitian(m):
    """Every matrix of m (..., d, d) is within HERMITICITY_TOL * max(1, max |entry|) of its adjoint."""
    m = np.asarray(m)
    scale = np.fmax(1.0, np.abs(m).max((-2, -1)))  # fmax: a NaN entry leaves the scale 1
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test below
        return bool((np.abs(m - np.swapaxes(m.conj(), -1, -2)).max((-2, -1)) <= HERMITICITY_TOL * scale).all())


def assert_density_matrix(rho, name="state"):
    """Validate trace one, Hermiticity and positivity (floor PSD_FLOOR) of a
    square matrix or of every matrix of a (..., d, d) stack, in one pass.
    Trace and Hermiticity failures are ValueError (bad input); an eigenvalue
    below the floor raises PositivityError (numerical failure).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{name} must be a square matrix")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        raise ValueError(f"{name} has trace {tr[off][0]}, expected 1 within {TRACE_TOL}")
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL}")
    w_min = np.linalg.eigvalsh(rho).min(-1)
    if (w_min < PSD_FLOOR).any():
        raise PositivityError(f"{name} has eigenvalue {w_min.min():.3e} below floor {PSD_FLOOR}")
    return rho


def time_grid(values, name="time grid"):
    """values as a float array; ValueError unless nonempty, 1-d, finite and strictly increasing."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if not np.isfinite(grid).all():
        raise ValueError(f"{name} must hold finite values")
    if not (np.diff(grid) > 0).all():
        raise ValueError(f"{name} must be strictly increasing")
    return grid


def eigensystem(h):
    """Eigendecomposition of a Hermitian matrix, validated once.

    Returns (evals, evecs) for reuse across a whole time sweep; a real H (no
    string with an odd number of Y factors) gives a real evecs by a real eigh.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("Hamiltonian is not Hermitian within tolerance")
    return np.linalg.eigh(h if h.imag.any() else h.real)


def matmul(a, x):
    """a @ x for x of shape (..., d, k). A real a meets a C-contiguous complex x
    as real products on x's interleaved (re, im) float view: half a complex
    product's flops, no complex copy of a, and one product per leading index,
    as for that matrix alone."""
    if a.dtype.kind == "c" or x.dtype.kind != "c":
        return a @ x
    return (a @ x.view(float)).view(complex)


def to_eigenbasis(evecs, m):
    """evecs^dag m evecs, for one matrix or a (..., d, d) stack. A real evecs
    takes real products only: `matmul` from both sides for a complex m, plain
    real products for a real one (pass a real or imaginary operator's one
    nonzero part)."""
    if evecs.dtype.kind == "c" or m.dtype.kind != "c":
        return evecs.conj().T @ m @ evecs
    half = np.swapaxes(matmul(evecs.T, m), -1, -2).copy()
    return np.ascontiguousarray(np.swapaxes(matmul(evecs.T, half), -1, -2))


def propagate(evals, evecs, rho, t):
    """U(t) rho U(t)^dag with U from a precomputed eigendecomposition.

    evecs=None means H is diagonal in the computational basis with energies
    evals; U(t) rho U(t)^dag is then elementwise, O(d^2) with no matrix
    products. A scalar t gives one (d, d) matrix; a 1-d grid t gives a
    (T, d, d) stack, each slice equal bit for bit to the scalar call at that
    point.
    """
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * evals * t[..., None])
    if evecs is None:
        return rho * (phases[..., :, None] * phases[..., None, :].conj())
    u = (evecs * phases[..., None, :]) @ evecs.conj().T
    return u @ rho @ np.swapaxes(u.conj(), -1, -2)


def exclusive_products(values):
    """prod of all entries except index j, for every j along the last axis,
    without division.

    Division by the total would poison every slot as soon as one entry is
    zero; the prefix/suffix form keeps zeros local.
    """
    values = np.asarray(values)
    n = values.shape[-1]
    dtype = values.dtype if values.dtype.kind == "c" else float
    one = np.ones(values.shape[:-1] + (1,), dtype=dtype)
    # pre[j] = v[0] ... v[j-1] and suf[j] = v[n-1] ... v[j+1]; each running
    # product starts from one, as in pre[j] = pre[j-1] * v[j-1], so the
    # rounding is that of the recurrence
    pre = np.cumprod(np.concatenate((one, values[..., :-1]), axis=-1), axis=-1)[..., :n]
    suf = np.cumprod(np.concatenate((one, values[..., :0:-1]), axis=-1), axis=-1)[..., :n]
    return pre * suf[..., ::-1]


def random_density(dim, rng):
    """Hilbert-Schmidt random mixed state: A A^dag / Tr, A complex Gaussian."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real
