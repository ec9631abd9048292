"""Coarse-graining of n qubits into one effective qubit.

The map averages single-qubit marginals with a probability weight per site:

    C(rho) = sum_k p_k Tr_{all but k}(rho)

which is the same as first swapping site k to the front and tracing the
rest. It is completely positive and trace preserving for every weight
vector, and linear in rho by construction. The weights are the knob that
makes the induced effective dynamics linear or not. A `CoarseGraining` is a
plain value; the CLI writes it into run metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore


@dataclass(frozen=True)
class CoarseGraining:
    """A site count n >= 2 together with weights p_k >= 0 summing to one.

    Zero entries are allowed here; consumers that cannot tolerate them
    (pure-state assignment) check at their own boundary.
    """

    n: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not math.isfinite(self.n) or int(self.n) != self.n or self.n < 2:
            raise ValueError(f"coarse graining needs n >= 2 sites, got {self.n}")
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"expected {self.n} weights, got shape {p.shape}")
        if not (p >= 0).all():  # NaN fails too; an infinity fails the sum
            raise ValueError("weights must be finite and nonnegative")
        if abs(p.sum() - 1.0) > qcore.WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {p.sum()}, expected 1 within {qcore.WEIGHT_SUM_TOL}")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "probs", p)


def non_preferential(n):
    """Uniform weights 1/n over all sites."""
    return CoarseGraining(n, np.full(n, 1.0 / n))


def preferential(n, p1):
    """Weight p1 on site 1, the remainder spread evenly over sites 2..n.

    p1 must lie in (0, 1]; p1 = 1 puts everything on the first site.
    """
    if n < 2:
        raise ValueError(f"preferential weights need n >= 2 sites, got {n}")
    if not 0.0 < p1 <= 1.0:
        raise ValueError(f"p1 must lie in (0, 1], got {p1}")
    probs = np.full(n, (1.0 - p1) / (n - 1))
    probs[0] = p1
    return CoarseGraining(n, probs)


def custom(probs):
    """Arbitrary weight vector; zeros allowed."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("custom weights must be a flat vector")
    return CoarseGraining(probs.shape[0], probs)


def apply_cg(rho, cg):
    """The coarse-graining map: weighted average of single-site marginals, of
    one state or of each state of a (..., 2^n, 2^n) stack."""
    rho = np.asarray(rho, dtype=complex)
    n, lead = cg.n, rho.shape[:-2]
    if rho.shape[-2:] != (2 ** n, 2 ** n):
        raise ValueError(f"state shape {rho.shape} does not match n={n} qubits")
    out = np.zeros(lead + (2, 2), dtype=complex)
    for k, p in enumerate(cg.probs, start=1):
        if p == 0.0:
            continue  # zero-weight sites contribute nothing; skip the trace
        # site k's marginal reads the 2 * 2^n entries with equal bits elsewhere
        a, b = 2 ** (k - 1), 2 ** (n - k)
        out += p * np.einsum("...aibajb->...ij", rho.reshape(lead + (a, 2, b, a, 2, b)))
    return out


def fuzzy_operator(axis, cg):
    """G^axis = sum_k p_k sigma^axis on site k.

    Satisfies Tr[sigma^axis C(rho)] = Tr[G^axis rho]; the identity axis is
    rejected because it is not an observable of the effective qubit.
    """
    if axis not in qcore.AXES:
        raise ValueError(f"fuzzy operator axis must be one of 'x','y','z', got {axis!r}")
    terms = ((p, ((k, axis),)) for k, p in enumerate(cg.probs, start=1) if p != 0.0)
    return qcore.pauli_sum(terms, cg.n)
