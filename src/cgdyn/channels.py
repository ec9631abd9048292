"""Closed-form predictors for the effective dynamics of specific models.

Each function here states, as explicit algebra, what the full pipeline
(assign, evolve, coarse-grain) produces for one Hamiltonian family. They
are kept separate from the pipeline so tests can confront the two routes;
none of them calls into evolve.

Bloch conventions: rho = (I + r . sigma)/2, transverse components mean
(rx, ry), and a dephasing along axis a scales the components orthogonal
to a by 2q - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import maxent, qcore


def depolarize(rho, q):
    """q rho + (1 - q) I/2; contracts the Bloch vector by q."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"depolarizing weight must lie in [0, 1], got {q}")
    rho = np.asarray(rho, dtype=complex)
    return q * rho + (1.0 - q) * np.eye(rho.shape[0], dtype=complex) / rho.shape[0]


def dephase(rho, q, axis="z"):
    """q rho + (1 - q) sigma rho sigma for the given axis."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"dephasing weight must lie in [0, 1], got {q}")
    if axis not in qcore.AXES:
        raise ValueError(f"dephasing axis must be x, y or z, got {axis!r}")
    s = qcore.pauli(axis)
    rho = np.asarray(rho, dtype=complex)
    return q * rho + (1.0 - q) * (s @ rho @ s)


# ---------------------------------------------------------------------------
# Exchange model: isotropic contraction with an oscillating rate


def _kappa_numerator(t, cg, r1, r2, omega):
    p1, p2 = cg.probs
    c2 = np.cos(omega * t) ** 2
    s2 = np.sin(omega * t) ** 2
    return p1 * (r1 * c2 + r2 * s2) + p2 * (r2 * c2 + r1 * s2)


def kappa_swap(t, cg, r1, r2, r_ef0, omega=1.0):
    """Contraction factor kappa(t) of the exchange model.

    r1, r2 are the assigned per-site radii and r_ef0 the initial effective
    radius; the three must satisfy p1 r1 + p2 r2 = r_ef0, which is checked
    because a mismatched triple silently predicts the wrong curve.
    """
    if cg.n != 2:
        raise ValueError("exchange model is two sites")
    p1, p2 = cg.probs
    if abs(p1 * r1 + p2 * r2 - r_ef0) > qcore.RADII_SUM_TOL:
        raise ValueError(
            f"inconsistent radii: p1 r1 + p2 r2 = {p1 * r1 + p2 * r2}, given r_ef0 = {r_ef0}"
        )
    if r_ef0 <= 0:
        raise ValueError("initial effective radius must be positive")
    t = np.asarray(t, dtype=float)
    return _kappa_numerator(t, cg, r1, r2, omega) / r_ef0


def swap_rate(t, cg, r1, r2, omega=1.0):
    """Logarithmic derivative d/dt ln kappa(t).

    Changes sign on (0, pi/omega) whenever r1 != r2 and p1 != p2, which is
    the memory signature of this model: the contraction partially undoes
    itself within a period.
    """
    if cg.n != 2:
        raise ValueError("exchange model is two sites")
    p1, p2 = cg.probs
    t = np.asarray(t, dtype=float)
    num = omega * np.sin(2.0 * omega * t) * (r2 - r1) * (p1 - p2)
    return num / _kappa_numerator(t, cg, r1, r2, omega)


def swap_effective(rho_eff, cg, t, omega=1.0):
    """Effective state of the exchange model: kappa-depolarized input."""
    assigned = maxent.assign(rho_eff, cg)
    r1, r2 = assigned.solution.per_particle_r
    r = qcore.bloch_from_density(np.asarray(rho_eff, dtype=complex))
    r_ef0 = float(np.linalg.norm(r))
    if r_ef0 < qcore.ZERO_RADIUS:
        return np.asarray(rho_eff, dtype=complex).copy()
    k = float(kappa_swap(t, cg, r1, r2, r_ef0, omega=omega))
    return 0.5 * (
        qcore.IDENTITY_2
        + k * (r[0] * qcore.SIGMA_X + r[1] * qcore.SIGMA_Y + r[2] * qcore.SIGMA_Z)
    )


# ---------------------------------------------------------------------------
# Conditional-flip model


def cnot_effective(rho_eff, cg, t, omega=1.0):
    """Effective state under the conditional-flip generator at any t.

    Mixes each assigned factor with its dephased image, weighted by the
    other factor's relevant expectation; at t = pi/(2 omega) this is the
    half-sum of two dephasing channels. The expectations are taken from
    the t = 0 assigned factors.
    """
    if cg.n != 2:
        raise ValueError("conditional-flip model is two sites")
    assigned = maxent.assign(rho_eff, cg)
    rho1, rho2 = assigned.factors
    p1, p2 = cg.probs
    z, x = qcore.SIGMA_Z, qcore.SIGMA_X
    ex2 = float(np.trace(rho2 @ x).real)
    ez1 = float(np.trace(rho1 @ z).real)
    c, s = math.cos(omega * t), math.sin(omega * t)

    flip_x = (
        rho1 * c * c
        + (ex2 * rho1 + (1.0 - ex2) * (z @ rho1 @ z)) * s * s
        - 1j * (1.0 - ex2) * c * s * (rho1 @ z - z @ rho1)
    )
    flip_z = (
        rho2 * c * c
        + (ez1 * rho2 + (1.0 - ez1) * (x @ rho2 @ x)) * s * s
        - 1j * (1.0 - ez1) * c * s * (rho2 @ x - x @ rho2)
    )
    rho_ef = p1 * rho1 + p2 * rho2
    return 0.5 * rho_ef + 0.5 * p1 * flip_x + 0.5 * p2 * flip_z


# ---------------------------------------------------------------------------
# Interaction-only term: elliptical effective orbits


@dataclass(frozen=True)
class EllipseParams:
    """r_ef(t) = u sin t + v cos t + c for the interaction-only generator."""

    u: np.ndarray
    v: np.ndarray
    c: np.ndarray

    def predict(self, times):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        s = np.sin(times)[:, None]
        co = np.cos(times)[:, None]
        return s * self.u[None, :] + co * self.v[None, :] + self.c[None, :]


def ellipse_params(r1_0, r2_0, cg):
    """Ellipse coefficients for H = (1/2) Z x X acting on a product input.

    Site 1 turns in the x-y plane at a rate set by the other site's
    x-component; site 2 turns in the y-z plane at a rate set by site 1's
    z-component. rz of site 1 and rx of site 2 are conserved, so the
    weighted sum traces a closed ellipse of period 2 pi.
    """
    if cg.n != 2:
        raise ValueError("elliptical orbits are a two-site statement")
    r1 = np.asarray(r1_0, dtype=float)
    r2 = np.asarray(r2_0, dtype=float)
    if r1.shape != (3,) or r2.shape != (3,):
        raise ValueError("initial Bloch vectors must be 3-vectors")
    for name, r in (("site 1", r1), ("site 2", r2)):
        if np.linalg.norm(r) > qcore.MAX_RADIUS:
            raise ValueError(f"{name} Bloch vector leaves the ball")
    p1, p2 = cg.probs
    r1x, r1y, r1z = r1
    r2x, r2y, r2z = r2
    u = np.array(
        [
            -p1 * r1y * r2x,
            p1 * r1x * r2x - p2 * r1z * r2z,
            p2 * r1z * r2y,
        ]
    )
    v = np.array(
        [
            p1 * r1x,
            p1 * r1y + p2 * r2y,
            p2 * r2z,
        ]
    )
    c = np.array([p2 * r2x, 0.0, p1 * r1z])
    return EllipseParams(u=u, v=v, c=c)


# ---------------------------------------------------------------------------
# Chain at g = 0: pure dephasing of the effective qubit


def ising_gamma(theta, t, J=1.0):
    """Coherence multiplier (cos 2Jt + i cos(theta) sin 2Jt)^2.

    Holds for the closed chain with at least three spins (two distinct
    neighbors); the two-spin ring double-counts its bond and falls outside
    this formula.
    """
    a = 2.0 * J * np.asarray(t, dtype=float)
    return (np.cos(a) + 1j * math.cos(theta) * np.sin(a)) ** 2


def ising_effective(theta, phi, t, J=1.0):
    """Effective state at time t for the symmetric pure input (theta, phi).

    Populations are conserved; the initial coherence (1/2) sin(theta)
    e^{-i phi} is multiplied by ising_gamma. Same domain as ising_gamma: the
    closed chain with at least three spins. The two-spin ring, which carries
    its bond twice, multiplies the coherence by cos 4Jt + i cos(theta) sin 4Jt
    instead.
    """
    coh0 = 0.5 * math.sin(theta) * complex(math.cos(phi), -math.sin(phi))
    coh = ising_gamma(theta, t, J=J) * coh0
    pop0 = math.cos(theta / 2.0) ** 2
    return np.array([[pop0, coh], [np.conj(coh), 1.0 - pop0]], dtype=complex)


# ---------------------------------------------------------------------------
# Local-field model: many-site dephasing limit


def field_limit_prediction(rho_eff, p1, r1, omega1, t, with_interaction=False):
    """Large-n limit after the dephasing time: site 1 is all that survives.

    The effective state collapses onto the depolarized image with weight
    p1 r1 (r1 = assigned radius of the preferred site), rotating with that
    site's frequency. With the n-body term on, an additional dephasing
    with weight cos^2(t) multiplies the transverse plane; the rotation
    angle grows as omega1 * t.
    """
    if not 0.0 <= p1 * r1 <= 1.0:
        raise ValueError(f"weight p1*r1 = {p1 * r1} must lie in [0, 1]")
    rho = depolarize(np.asarray(rho_eff, dtype=complex), p1 * r1)
    u = np.diag([np.exp(-1j * omega1 * t), np.exp(1j * omega1 * t)])
    rho = u @ rho @ u.conj().T
    if with_interaction:
        rho = dephase(rho, math.cos(t) ** 2, axis="z")
    return rho


# ---------------------------------------------------------------------------
# Reference microscopic channels used by the linearity diagnostics


def total_dephasing(rho):
    """n-qubit dephasing averaging all {identity, Z} Pauli strings.

    The 2^n-term Kraus average projects onto the computational diagonal,
    which is how it is evaluated here.
    """
    rho = np.asarray(rho, dtype=complex)
    return np.diag(np.diag(rho))


def pauli_component_mask(rho):
    """Two-qubit map (rho + (Y x Y) rho (Y x Y)) / 2.

    It erases every Pauli component pairing {i, y} with {x, z}, so each
    marginal comes out dephased along y.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("component mask is a two-qubit map")
    yy = np.kron(qcore.SIGMA_Y, qcore.SIGMA_Y)
    return 0.5 * (rho + yy @ rho @ yy)


# ---------------------------------------------------------------------------
# Second-site rotation: linear but indivisible effective dynamics


def linear_nm_effective(rho_eff, omega, t):
    """(rho + R(t) rho R(t)^dag)/2 with R the z-rotation by angle omega t."""
    rho = np.asarray(rho_eff, dtype=complex)
    u = np.diag([np.exp(-0.5j * omega * t), np.exp(0.5j * omega * t)])
    return 0.5 * (rho + u @ rho @ u.conj().T)


def circle_params(r0):
    """Center and radius of the half-mixing circle traced by linear_nm_effective.

    The trajectory is r(t) = center + radius * (cos(wt + phase), sin(wt + phase), 0)
    with phase = atan2(ry, rx): explicitly,

        rx(t) = (rx cos wt - ry sin wt + rx) / 2
        ry(t) = (ry cos wt + rx sin wt + ry) / 2
        rz(t) = rz.
    """
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    center = np.array([0.5 * r0[0], 0.5 * r0[1], r0[2]])
    radius = 0.5 * math.hypot(r0[0], r0[1])
    return center, radius


def linear_nm_circle(r0, omega, times):
    """Parametric circle trajectory; matches linear_nm_effective to rounding."""
    center, radius = circle_params(r0)
    angle = omega * np.atleast_1d(np.asarray(times, dtype=float)) + math.atan2(r0[1], r0[0])
    ring = np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=1)
    return center + radius * ring
