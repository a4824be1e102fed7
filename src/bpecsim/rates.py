"""Closed-form rate quantities for the two-user multi-modal erasure channel.

Outer-bound regions (c1, c2, c3 in the CSV/JSON schema), their intersection
as a 2-D polytope, and the analytic sum rates of the inter-modal, intra-modal
and no-feedback strategies.  All functions are pure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

CONTAIN_TOL = 1e-9
IDENTITY_TOL = 1e-12


class UnboundedRegionError(ValueError):
    """Raised when a rate region admits a recession direction."""


class UnsupportedParametersError(ValueError):
    """Raised for parameter ranges the achievability analysis does not cover."""


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class ModeParams:
    """Asymptotic channel description: per-mode erasure probabilities and the
    fraction eta of the block occupied by the first non-transient mode."""

    delta_a: float
    delta_b: float
    eta: float

    def __post_init__(self) -> None:
        _check_prob("delta_a", self.delta_a)
        _check_prob("delta_b", self.delta_b)
        _check_prob("eta", self.eta)


@dataclass(frozen=True)
class HalfSpace:
    """Constraint c1*R1 + c2*R2 <= bound with c1, c2 >= 0 and bound >= 0."""

    c1: float
    c2: float
    bound: float


@dataclass(frozen=True)
class RatePair:
    r1: float
    r2: float

    @property
    def sum(self) -> float:
        return self.r1 + self.r2


@dataclass(frozen=True)
class RateRegion:
    """Intersection of halfspaces plus the implicit R1 >= 0, R2 >= 0."""

    halfspaces: tuple[HalfSpace, ...]

    def contains(self, r1: float, r2: float) -> bool:
        """Membership up to ``CONTAIN_TOL``."""
        if r1 < -CONTAIN_TOL or r2 < -CONTAIN_TOL:
            return False
        return all(h.c1 * r1 + h.c2 * r2 <= h.bound + CONTAIN_TOL for h in self.halfspaces)


def avg_erasure(p: ModeParams) -> float:
    """Block-average erasure probability; transient modes vanish in the limit."""
    return p.eta * p.delta_a + (1.0 - p.eta) * p.delta_b


def betas(p: ModeParams) -> tuple[float, float, float, float]:
    """(beta_a, beta_b, beta_max, beta_min) with beta = 1 + delta."""
    beta_a = 1.0 + p.delta_a
    beta_b = 1.0 + p.delta_b
    return beta_a, beta_b, max(beta_a, beta_b), min(beta_a, beta_b)


def unimodal_sum_capacity(delta: float) -> float:
    """Two-user feedback sum capacity of a single-mode erasure channel."""
    return 2.0 * (1.0 + delta) * (1.0 - delta) / (2.0 + delta)


def kappa(p: ModeParams) -> float:
    """Leakage correction of the c2 bound.

    Branches on which mode has the larger erasure probability; the tie
    delta_a == delta_b is broken toward the A branch (either branch yields the
    same beta, so only the time weight differs and the choice is fixed for
    determinism).
    """
    if p.delta_a >= p.delta_b:
        return (p.eta / (1.0 + p.delta_a)) * (1.0 - p.delta_a**2)
    return ((1.0 - p.eta) / (1.0 + p.delta_b)) * (1.0 - p.delta_b**2)


def region_c1(p: ModeParams) -> RateRegion:
    """Bound whose boundary slope is set by the larger erasure probability."""
    _, _, beta_max, _ = betas(p)
    rhs = beta_max * (1.0 - avg_erasure(p))
    return RateRegion(
        halfspaces=(
            HalfSpace(beta_max, 1.0, rhs),
            HalfSpace(1.0, beta_max, rhs),
        )
    )


def region_c2(p: ModeParams) -> RateRegion:
    """Bound with slope set by the smaller erasure probability, corrected by kappa."""
    _, _, _, beta_min = betas(p)
    dbar = avg_erasure(p)
    rhs = beta_min * (1.0 - dbar) + kappa(p)
    return RateRegion(
        halfspaces=(
            HalfSpace(1.0, 0.0, 1.0 - dbar),
            HalfSpace(0.0, 1.0, 1.0 - dbar),
            HalfSpace(beta_min, 1.0, rhs),
            HalfSpace(1.0, beta_min, rhs),
        )
    )


def region_c3(p: ModeParams) -> RateRegion:
    """Capacity region with instantaneous feedback; always an outer bound."""
    dbar = avg_erasure(p)
    sum_bound = p.eta * (1.0 - p.delta_a**2) + (1.0 - p.eta) * (1.0 - p.delta_b**2)
    return RateRegion(
        halfspaces=(
            HalfSpace(1.0, 0.0, 1.0 - dbar),
            HalfSpace(0.0, 1.0, 1.0 - dbar),
            HalfSpace(1.0, 1.0, sum_bound),
        )
    )


def outer_region(p: ModeParams) -> RateRegion:
    """Intersection of the c1, c2 and c3 regions."""
    return RateRegion(
        halfspaces=region_c1(p).halfspaces
        + region_c2(p).halfspaces
        + region_c3(p).halfspaces
    )


def vertices(region: RateRegion) -> list[RatePair]:
    """All extreme points of a bounded region, sorted by r1 then r2.

    Enumerates pairwise intersections of the constraint boundaries (including
    the axes), keeps the feasible ones and merges duplicates within ``CONTAIN_TOL``.
    """
    if not any(h.c1 > 0 for h in region.halfspaces) or not any(
        h.c2 > 0 for h in region.halfspaces
    ):
        raise UnboundedRegionError("region admits a recession direction")
    lines = [(h.c1, h.c2, h.bound) for h in region.halfspaces]
    lines.append((1.0, 0.0, 0.0))  # R1 = 0
    lines.append((0.0, 1.0, 0.0))  # R2 = 0
    points: list[tuple[float, float]] = []
    for (a1, a2, b_a), (c1, c2, b_c) in itertools.combinations(lines, 2):
        det = a1 * c2 - a2 * c1
        if abs(det) < 1e-14:
            continue
        r1 = (b_a * c2 - a2 * b_c) / det
        r2 = (a1 * b_c - b_a * c1) / det
        if region.contains(r1, r2):
            points.append((r1 if r1 > 0.0 else 0.0, r2 if r2 > 0.0 else 0.0))
    unique: list[tuple[float, float]] = []
    for pt in sorted(points):
        if not any(
            abs(pt[0] - q[0]) <= CONTAIN_TOL and abs(pt[1] - q[1]) <= CONTAIN_TOL for q in unique
        ):
            unique.append(pt)
    return [RatePair(r1, r2) for r1, r2 in unique]


def max_sum_rate(region: RateRegion) -> float:
    """Maximum of r1 + r2 over the region."""
    return max(v.sum for v in vertices(region))


def achievability_threshold(delta_a: float, delta_b: float) -> float:
    """Smallest eta at which the inter-modal scheme meets the outer bound
    (for delta_a >= delta_b); undefined when mode B is fully erased."""
    _check_prob("delta_a", delta_a)
    _check_prob("delta_b", delta_b)
    if delta_b >= 1.0:
        raise UnsupportedParametersError("threshold undefined for delta_b = 1")
    return 1.0 / (1.0 + delta_a * (1.0 - delta_a) / (2.0 * (1.0 - delta_b)))


def outer_bound_achievable(p: ModeParams) -> bool:
    """True when the inter-modal scheme attains the outer bound: the stronger
    mode comes second and is long enough to absorb the multicast backlog."""
    if p.delta_a < p.delta_b or p.delta_b >= 1.0:
        return False
    return p.eta >= achievability_threshold(p.delta_a, p.delta_b)


def multicast_delivery_rate(p: ModeParams, alpha: float) -> float:
    """Average delivery rate of multicast packets over the post-raw fraction
    (1 - alpha) of the block, for raw-phase fraction alpha <= eta < 1."""
    if alpha >= 1.0:
        raise UnsupportedParametersError("post-raw fraction is empty for alpha >= 1")
    return (
        (1.0 - p.eta) * (1.0 - p.delta_b) + (p.eta - alpha) * (1.0 - p.delta_a)
    ) / (1.0 - alpha)


def optimal_raw_fraction(p: ModeParams) -> float:
    """Raw-phase fraction that exactly fills the block with raw plus multicast
    traffic; may exceed eta, in which case callers clip to eta."""
    if p.delta_a >= 1.0:
        raise UnsupportedParametersError("raw fraction undefined for delta_a = 1")
    alpha = 2.0 * (1.0 - avg_erasure(p)) / ((2.0 + p.delta_a) * (1.0 - p.delta_a))
    if alpha < 1.0 and p.delta_a > 0.0:
        residual = alpha + alpha * p.delta_a * (1.0 - p.delta_a) / (
            2.0 * multicast_delivery_rate(p, alpha)
        )
        if abs(residual - 1.0) >= IDENTITY_TOL:
            raise RuntimeError("raw-fraction self-check failed")
    return alpha


def achievable_intermodal_sum(p: ModeParams) -> float:
    """Analytic sum rate of coding across the modes: raw phases in mode A,
    multicast pushed to mode B, leftover mode-B time refilled with a fresh
    single-mode round."""
    if p.delta_a < p.delta_b:
        raise UnsupportedParametersError(
            "inter-modal analysis requires delta_a >= delta_b"
        )
    if p.delta_b >= 1.0:
        raise UnsupportedParametersError("inter-modal analysis requires delta_b < 1")
    if outer_bound_achievable(p):
        return 2.0 * (1.0 + p.delta_a) * (1.0 - avg_erasure(p)) / (2.0 + p.delta_a)
    # Raw phases are clipped to mode A; the multicast backlog drains early in
    # mode B and the remaining fraction runs the single-mode feedback scheme.
    leftover = (1.0 - p.eta) - p.eta * p.delta_a * (1.0 - p.delta_a) / (
        2.0 * (1.0 - p.delta_b)
    )
    return p.eta * (1.0 - p.delta_a**2) + leftover * unimodal_sum_capacity(p.delta_b)


def achievable_intramodal_sum(p: ModeParams) -> float:
    """Sum rate when each mode runs its own independent feedback scheme."""
    return p.eta * unimodal_sum_capacity(p.delta_a) + (1.0 - p.eta) * unimodal_sum_capacity(
        p.delta_b
    )


def achievable_nofeedback_sum(p: ModeParams) -> float:
    """Sum rate of feedback-free erasure coding, time-shared between users."""
    return 1.0 - avg_erasure(p)
