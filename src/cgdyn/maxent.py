"""Maximum-entropy assignment: one effective qubit back to n sites.

Among all n-qubit states whose fuzzy-operator expectations reproduce a
given effective state, the entropy maximizer is a product of collinear
factors whose Bloch radii follow a tanh profile in the site weights:

    rho_k = (I + tanh(p_k lambda) nhat . sigma) / 2,
    sum_k p_k tanh(p_k lambda) = r_ef.

lambda is found by a bracketed solve: the map F(lambda) is strictly
increasing with F(0) = 0 and F(inf) = 1, so the root is unique. Newton
is deliberately avoided: for very small p_k the derivative underflows
and the iteration stalls. Illinois false-position steps narrow the
bracket to a few ulps and bisection collapses it to adjacent floats,
the same lambda a bisection alone finds, in a quarter of its
evaluations of F.

Composing coarse-graining after assignment is the identity on effective
states; assignment after coarse-graining is not (information loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore

_BISECT_ITERS = 1100  # [0, 1] halves down to the smallest subnormal in 1075 steps
_SECANT_STEPS = 20  # false-position steps at most; the bisection finishes in any case
_SECANT_ULPS = 4  # how far a false-position point keeps off each end of the bracket
_DIRECTION_Z = np.array([0.0, 0.0, 1.0])
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class LagrangeSolution:
    """Root of the radius constraint for one (r_ef, cg) pair.

    lam is math.inf for pure inputs; per_particle_r holds tanh(p_k lam)
    (ones on positively weighted sites in the pure case, zeros on
    zero-weight sites always).
    """

    lam: float
    per_particle_r: np.ndarray

    @property
    def is_pure(self):
        return math.isinf(self.lam)


@dataclass(frozen=True)
class AssignedState:
    """Product state rho_1 x ... x rho_n stored as its (n, 2, 2) factors,
    whose Bloch vectors all point along the unit vector direction; a stack of
    B inputs has (B, n, 2, 2), (B, 3) and a tuple of B solutions."""

    factors: np.ndarray
    direction: np.ndarray
    solution: LagrangeSolution | tuple

    def to_matrix(self):
        return qcore.kron(np.moveaxis(self.factors, -3, 0))


def _radius_sum(lam, probs):
    return float(np.dot(probs, np.tanh(probs * lam)))


def solve_lambda(r_ef, cg):
    """Solve sum_k p_k tanh(p_k lambda) = r_ef for lambda >= 0.

    r_ef is the Bloch radius of the effective state, 0 or in [tiny, 1]
    with tiny the smallest normal float: below it p_k lambda underflows in
    the radius sum. lambda is (lo + hi) / 2 for the adjacent floats lo < hi
    with F(lo) < r_ef <= F(hi), F the radius sum. F increases, so that is
    the pair a bisection from [0, 1] reaches (unless rounding leaves F
    uneven within an ulp of r_ef; another such pair then solves it as well).
    The bracket starts at Jensen's lower bound atanh(r_ef) / sum p^2, grows
    geometrically and narrows by Illinois false-position steps, and
    bisection collapses it: about 14 evaluations of F instead of 55.
    """
    r_ef = float(r_ef)
    if not 0.0 <= r_ef <= qcore.MAX_RADIUS:
        raise ValueError(f"effective radius must lie in [0, 1], got {r_ef}")
    if 0.0 < r_ef < _TINY:
        raise ValueError(f"effective radius {r_ef} is below the smallest normal radius {_TINY}")
    probs = cg.probs

    if r_ef >= qcore.PURE_RADIUS:
        per = np.where(probs > 0.0, 1.0, 0.0)
        return LagrangeSolution(math.inf, per)
    if r_ef == 0.0:
        return LagrangeSolution(0.0, np.zeros(cg.n))

    # tanh is concave, so F(lam) <= tanh(lam sum p^2): the root is at least atanh(r_ef) / sum p^2
    lo, f_lo, hi = 0.0, -r_ef, math.atanh(r_ef) / float(np.dot(probs, probs))
    while (f_hi := _radius_sum(hi, probs) - r_ef) < 0.0:
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        if hi > 1e18:
            raise ValueError(f"radius constraint {r_ef} not reachable; bracket blew up")
    # each point keeps a few ulps off both ends, so once the secant estimate is that
    # close to the root the next point lands on its far side and closes the bracket
    kept = 0  # -1 after a step that kept hi, +1 after one that kept lo
    for _ in range(_SECANT_STEPS):
        step = _SECANT_ULPS * math.ulp(hi)
        if hi - lo <= 2.0 * step:
            break
        lam = min(max(lo - f_lo * (hi - lo) / (f_hi - f_lo), lo + step), hi - step)
        f = _radius_sum(lam, probs) - r_ef
        if f < 0.0:
            if kept < 0:
                f_hi *= 0.5  # Illinois: hi kept twice in a row
            lo, f_lo, kept = lam, f, -1
        else:
            if kept > 0:
                f_lo *= 0.5
            hi, f_hi, kept = lam, f, 1

    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # interval collapsed to adjacent floats
        if _radius_sum(mid, probs) < r_ef:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return LagrangeSolution(lam, np.tanh(probs * lam))


def assign(rho_eff, cg):
    """Maxent product state reproducing rho_eff, one 2x2 state or a (B, 2, 2)
    stack checked in one pass, under the given weights; each input gets its
    own lambda solve and its own call's factors, bit for bit.

    Uniform weights give n identical copies of rho_eff. A pure input
    requires every weight positive (a zero-weight site would be
    unconstrained) and yields n copies of the pure state.
    """
    rho_eff = np.asarray(rho_eff, dtype=complex)
    if rho_eff.shape[-2:] != (2, 2) or rho_eff.ndim > 3 or rho_eff.size == 0:
        raise ValueError("effective state must be a single qubit or a nonempty stack of them")
    r = qcore.bloch_from_density(rho_eff)
    r_ef = qcore.bloch_radius(r)
    # the radius first: outside the ball is bad input (ValueError) however far, and
    # inside it no eigenvalue can fall below PSD_FLOOR; a NaN fails here too
    if not (r_ef <= qcore.MAX_RADIUS).all():
        raise ValueError(f"effective state has Bloch radius {r_ef.max()} > {qcore.MAX_RADIUS}")
    qcore.assert_density_matrix(rho_eff, name="effective state")
    r_ef = np.minimum(r_ef, 1.0)

    zero = r_ef < qcore.ZERO_RADIUS
    direction = np.where(zero[..., None], _DIRECTION_Z, r / np.where(zero, 1.0, r_ef)[..., None])
    sols = [LagrangeSolution(0.0, np.zeros(cg.n)) if z else solve_lambda(x, cg)
            for x, z in zip(np.ravel(r_ef).tolist(), np.ravel(zero).tolist())]
    if any(sol.is_pure for sol in sols) and (cg.probs <= 0.0).any():
        raise ValueError("pure effective state with a zero-weight site: the assignment "
                         "is not defined (that factor is unconstrained)")
    per = np.array([sol.per_particle_r for sol in sols]).reshape(r_ef.shape + (cg.n,))
    site_r = per[..., None] * direction[..., None, :]  # radii tanh(p_k lambda) <= 1, a unit direction
    return AssignedState(qcore.bloch_operator(site_r), direction, tuple(sols) if r_ef.ndim else sols[0])
