"""Maximum-entropy assignment: one effective qubit back to n sites.

Among all n-qubit states whose fuzzy-operator expectations reproduce a
given effective state, the entropy maximizer is a product of collinear
factors whose Bloch radii follow a tanh profile in the site weights:

    rho_k = (I + tanh(p_k lambda) nhat . sigma) / 2,
    sum_k p_k tanh(p_k lambda) = r_ef.

lambda is found by bracketed bisection; the map F(lambda) is strictly
increasing with F(0) = 0 and F(inf) = 1, so the root is unique. Newton
is deliberately avoided: for very small p_k the derivative underflows
and the iteration stalls, while bisection converges unconditionally.

Composing coarse-graining after assignment is the identity on effective
states; assignment after coarse-graining is not (information loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qcore

_BISECT_ITERS = 1100  # [0, 1] halves down to the smallest subnormal in 1075 steps
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
    whose Bloch vectors all point along the unit vector direction."""

    factors: np.ndarray
    direction: np.ndarray
    solution: LagrangeSolution

    def to_matrix(self):
        return qcore.kron(self.factors)


def _radius_sum(lam, probs):
    return float(np.dot(probs, np.tanh(probs * lam)))


def solve_lambda(r_ef, cg):
    """Solve sum_k p_k tanh(p_k lambda) = r_ef for lambda >= 0.

    r_ef is the Bloch radius of the effective state, 0 or in [tiny, 1]
    with tiny the smallest normal float: below it p_k lambda underflows in
    the radius sum. The bracket is grown geometrically from [0, 1] and then
    bisected until it collapses to adjacent floats.
    """
    r_ef = float(r_ef)
    if not 0.0 <= r_ef <= 1.0 + qcore.BLOCH_SLACK:
        raise ValueError(f"effective radius must lie in [0, 1], got {r_ef}")
    if 0.0 < r_ef < _TINY:
        raise ValueError(f"effective radius {r_ef} is below the smallest normal radius {_TINY}")
    probs = cg.probs

    if r_ef >= qcore.PURE_RADIUS:
        per = np.where(probs > 0.0, 1.0, 0.0)
        return LagrangeSolution(math.inf, per)
    if r_ef == 0.0:
        return LagrangeSolution(0.0, np.zeros(cg.n))

    lo, hi = 0.0, 1.0
    while _radius_sum(hi, probs) < r_ef:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError(f"radius constraint {r_ef} not reachable; bracket blew up")
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
    """Maxent product state reproducing rho_eff under the given weights.

    Uniform weights give n identical copies of rho_eff. A pure input
    requires every weight positive (a zero-weight site would be
    unconstrained) and yields n copies of the pure state.
    """
    rho_eff = qcore.assert_density_matrix(rho_eff, name="effective state")
    if rho_eff.shape != (2, 2):
        raise ValueError("effective state must be a single qubit")
    r = qcore.bloch_from_density(rho_eff)
    r_ef = float(np.linalg.norm(r))
    if r_ef > 1.0 + qcore.BLOCH_SLACK:
        raise ValueError(f"effective state has Bloch radius {r_ef} > 1")
    r_ef = min(r_ef, 1.0)

    if r_ef < qcore.ZERO_RADIUS:
        direction = _DIRECTION_Z
        sol = LagrangeSolution(0.0, np.zeros(cg.n))
    else:
        direction = r / r_ef
        sol = solve_lambda(r_ef, cg)
        if sol.is_pure and (cg.probs <= 0.0).any():
            raise ValueError(
                "pure effective state with a zero-weight site: the assignment "
                "is not defined (that factor is unconstrained)"
            )
    site_r = sol.per_particle_r[:, None] * direction
    norm = float(np.linalg.norm(site_r, axis=1).max())
    if norm > 1.0 + qcore.BLOCH_SLACK:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return AssignedState(qcore.bloch_operator(site_r), direction, sol)
