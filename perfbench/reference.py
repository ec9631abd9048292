"""Independent references for the benchmark's correctness checks.

Nothing here calls cgdyn: the assignment is solved with Brent's method
instead of cgdyn's bisection, the chain is propagated with a Chebyshev
expansion or a Pade matrix exponential instead of an eigendecomposition or
scipy's `expm_multiply`, and the field model uses its closed form vectorised
over the time grid. Every function
returns Bloch vectors of shape (len(times), 3).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import jv

PURE_RADIUS = 1.0 - 1e-9


def site_radii(r, probs):
    """Per-site Bloch radii tanh(p_k lam) of the maxent product state of radius r."""
    probs = np.asarray(probs, dtype=float)
    if r >= PURE_RADIUS:
        return np.where(probs > 0.0, 1.0, 0.0)
    if r == 0.0:
        return np.zeros_like(probs)

    def excess(lam):
        return float(np.dot(probs, np.tanh(probs * lam))) - r

    hi = 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
    lam = brentq(excess, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
    return np.tanh(probs * lam)


def _bloch_of_coherence(coh, rz):
    return np.column_stack([2.0 * coh.real, -2.0 * coh.imag, rz])


def field(bloch0, probs, omegas, times, nbody):
    """All-to-all field sum_k w_k Z_k (+ Z x ... x Z) on the maxent product input.

    Site k's coherence turns at 2 w_k; the n-body term multiplies it by
    cos 2t - i sin 2t prod_{m != k} z_m. Populations are conserved.
    """
    bloch0 = np.asarray(bloch0, dtype=float)
    probs = np.asarray(probs, dtype=float)
    times = np.asarray(times, dtype=float)
    r = float(np.linalg.norm(bloch0))
    radii = site_radii(r, probs)
    u = bloch0 / r if r > 0 else np.array([0.0, 0.0, 1.0])
    z = radii * u[2]
    coh0 = 0.5 * radii * complex(u[0], -u[1])
    phase = np.exp(-2j * np.outer(times, np.asarray(omegas, dtype=float)))
    coh = coh0[None, :] * phase
    if nbody:
        before = np.concatenate([[1.0], np.cumprod(z[:-1])])
        after = np.concatenate([np.cumprod(z[::-1][:-1])[::-1], [1.0]])
        others = before * after
        coh = coh * (np.cos(2 * times)[:, None] - 1j * np.sin(2 * times)[:, None] * others[None, :])
    return _bloch_of_coherence(coh @ probs, np.full(times.size, float(np.dot(probs, z))))


# ---------------------------------------------------------------------------
# Closed chain H = -J sum_bonds Z_a Z_b - g sum_j X_j


def _zz_diagonal(n, J):
    idx = np.arange(2 ** n)
    z = 1 - 2 * ((idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)
    return -J * sum(z[:, j] * z[:, (j + 1) % n] for j in range(n)).astype(float)


def _chebyshev_step(apply, bound, v, dt):
    """exp(-i H dt) v for a Hermitian H with spectrum inside [-bound, bound]."""
    x = bound * dt
    coeffs = jv(np.arange(int(x) + 60), x)
    coeffs = coeffs[: np.nonzero(np.abs(coeffs) > 1e-18)[0][-1] + 1]
    coeffs = coeffs * (-1j) ** np.arange(coeffs.size)
    coeffs[1:] *= 2.0
    prev, cur = v, apply(v) / bound
    out = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        prev, cur = cur, 2.0 * apply(cur) / bound - prev
        out = out + c * cur
    return out


def _effective_bloch(n, probs, site_marginal):
    coh, rz = 0.0j, 0.0
    for k in range(n):
        m = site_marginal(k)
        coh += probs[k] * m[0, 1]
        rz += probs[k] * (m[0, 0] - m[1, 1]).real
    return [2.0 * coh.real, -2.0 * coh.imag, rz]


def chain(bloch0, probs, times, J, g):
    """Closed transverse-field chain on the maxent product input, from t = times[0] = 0.

    Both step through the grid. Pure inputs step a 2^n state vector with a
    Chebyshev expansion. Mixed inputs conjugate the density matrix by scipy's
    Pade `expm` of the dense Hamiltonian, which is cheap at the sizes they reach.
    """
    bloch0 = np.asarray(bloch0, dtype=float)
    probs = np.asarray(probs, dtype=float)
    times = np.asarray(times, dtype=float)
    n = probs.size
    dim = 2 ** n
    diag = _zz_diagonal(n, J)
    r = float(np.linalg.norm(bloch0))
    u = bloch0 / r
    out = np.empty((times.size, 3))

    if r >= PURE_RADIUS:
        theta = math.acos(max(-1.0, min(1.0, u[2])))
        phi = math.atan2(u[1], u[0])
        site = np.array([math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))])
        psi = site
        for _ in range(n - 1):
            psi = np.kron(psi, site)

        def apply(v):
            w = diag * v
            for j in range(n):
                w -= g * v.reshape(2 ** j, 2, -1)[:, ::-1, :].reshape(-1)
            return w

        def marginal(k):
            a = psi.reshape(2 ** k, 2, -1)
            return np.einsum("aib,ajb->ij", a, a.conj())

        bound = (abs(J) + abs(g)) * n
        prev_t = 0.0
        for i, t in enumerate(times):
            if t > prev_t:
                psi = _chebyshev_step(apply, bound, psi, t - prev_t)
                prev_t = t
            out[i] = _effective_bloch(n, probs, marginal)
        return out

    rho0 = np.ones((1, 1), dtype=complex)
    for rk in site_radii(r, probs):
        v = rk * u
        rho0 = np.kron(rho0, 0.5 * np.array([[1 + v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], 1 - v[2]]]))
    h = np.diag(diag).astype(complex)
    idx = np.arange(dim)
    for j in range(n):
        h[idx ^ (1 << j), idx] -= g
    rho, prev_t, steps = rho0, 0.0, {}
    for i, t in enumerate(times):
        if t > prev_t:
            # a linspace grid repeats one step up to rounding, far below the check tolerance
            key = round(t - prev_t, 12)
            if key not in steps:
                steps[key] = expm(-1j * (t - prev_t) * h)
            step = steps[key]
            rho = step @ rho @ step.conj().T
            prev_t = t
        out[i] = _effective_bloch(
            n, probs, lambda k: np.einsum("aibajb->ij", rho.reshape(2 ** k, 2, -1, 2 ** k, 2, 2 ** (n - k - 1)))
        )
    return out
