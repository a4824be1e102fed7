"""Closed-form rate quantities for the two-user multi-modal erasure channel.

Outer-bound regions (c1, c2, c3 in the CSV/JSON schema), their intersection
as a 2-D polytope, and the analytic sum rates of the inter-modal, intra-modal
and no-feedback strategies.  All functions are pure.

eta may be a float or a 1-D float64 array, so that one call covers a block of
an eta grid.  For fixed (delta_a, delta_b) every halfspace slope is a float
and only the bounds move with eta; a region built from an array eta has array
bounds, and its sum rates come back as arrays, element for element equal to
the float results.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

CONTAIN_TOL = 1e-9
IDENTITY_TOL = 1e-12


class UnboundedRegionError(ValueError):
    """Raised when a rate region admits a recession direction."""


class UnsupportedParametersError(ValueError):
    """Raised for parameter ranges the achievability analysis does not cover."""


def _check_prob(name: str, value: float | np.ndarray) -> None:
    """Raise for the first element of a float or array outside [0, 1] or NaN."""
    outside = np.logical_not((0.0 <= value) & (value <= 1.0))
    if outside.any():
        raise ValueError(f"{name} must lie in [0, 1], got {np.ravel(value)[outside.argmax()]}")


def _unwrap(x: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a float, so that float input gives float output."""
    return x if x.ndim else float(x)


@dataclass(frozen=True)
class ModeParams:
    """Asymptotic channel description: per-mode erasure probabilities and the
    fraction eta of the block occupied by the first non-transient mode (a
    float, or a 1-D array of them)."""

    delta_a: float
    delta_b: float
    eta: float | np.ndarray

    def __post_init__(self) -> None:
        _check_prob("delta_a", self.delta_a)
        _check_prob("delta_b", self.delta_b)
        _check_prob("eta", self.eta)


@dataclass(frozen=True)
class HalfSpace:
    """Constraint c1*R1 + c2*R2 <= bound with c1, c2 >= 0 and bound >= 0."""

    c1: float
    c2: float
    bound: float | np.ndarray


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

    def contains(self, r1: float | np.ndarray, r2: float | np.ndarray) -> bool | np.ndarray:
        """Membership up to ``CONTAIN_TOL``: a bool, or elementwise for arrays."""
        inside = (r1 >= -CONTAIN_TOL) & (r2 >= -CONTAIN_TOL)
        for h in self.halfspaces:
            inside &= h.c1 * r1 + h.c2 * r2 <= h.bound + CONTAIN_TOL
        return inside


def avg_erasure(p: ModeParams) -> float | np.ndarray:
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


def kappa(p: ModeParams) -> float | np.ndarray:
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


def _vertex_table(region: RateRegion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate vertices of a region whose bounds are floats or 1-D arrays.

    Intersects every pair of constraint boundaries (including the axes) and
    drops the pairs that are infeasible in every column.  Returns (r1, r2,
    kept): r1 and r2 clamped to the quadrant and each column sorted by r1 then
    r2; kept marks the feasible points not within ``CONTAIN_TOL`` of an earlier
    kept one.  Each has one row per pair and the shape of the bounds after
    it: float bounds give 1-D arrays.
    """
    if not any(h.c1 > 0 for h in region.halfspaces) or not any(
        h.c2 > 0 for h in region.halfspaces
    ):
        raise UnboundedRegionError("region admits a recession direction")
    # a repeated halfspace (c2 and c3 share two) only repeats points and tests
    halfspaces: list[HalfSpace] = []
    for h in region.halfspaces:
        if not any(
            (h.c1, h.c2) == (g.c1, g.c2) and np.array_equal(h.bound, g.bound) for g in halfspaces
        ):
            halfspaces.append(h)
    # the slopes are floats; the bounds may be arrays of one length
    c1 = np.array([h.c1 for h in halfspaces] + [1.0, 0.0])  # R1 = 0, R2 = 0
    c2 = np.array([h.c2 for h in halfspaces] + [0.0, 1.0])
    bounds = np.array(np.broadcast_arrays(*(h.bound for h in halfspaces), 0.0, 0.0), dtype=float)
    shape = bounds.shape[1:]
    bounds = bounds.reshape(len(c1), -1)
    a, c = np.array(list(itertools.combinations(range(len(c1)), 2))).T
    det = c1[a] * c2[c] - c2[a] * c1[c]
    regular = np.abs(det) >= 1e-14
    a, c, det = a[regular], c[regular], det[regular, None]
    # one row per pair and one column per bound element, worked in place to
    # bound a block's memory
    r1 = bounds[a] * c2[c, None]
    r1 -= c2[a, None] * bounds[c]
    r1 /= det
    r2 = c1[a, None] * bounds[c]
    r2 -= bounds[a] * c1[c, None]
    r2 /= det
    inside = RateRegion(tuple(halfspaces)).contains(r1, r2)
    somewhere = inside.any(axis=1)
    r1, r2, inside = r1[somewhere], r2[somewhere], inside[somewhere]
    r1 = np.where(r1 > 0.0, r1, 0.0)
    r2 = np.where(r2 > 0.0, r2, 0.0)
    order = np.lexsort((r2, r1), axis=0)
    r1, r2, inside = (np.take_along_axis(x, order, axis=0) for x in (r1, r2, inside))
    kept = np.zeros_like(inside)
    for k in range(len(kept)):
        near = (
            kept[:k]
            & (np.abs(r1[:k] - r1[k]) <= CONTAIN_TOL)
            & (np.abs(r2[:k] - r2[k]) <= CONTAIN_TOL)
        )
        kept[k] = inside[k] & ~near.any(axis=0)
    return tuple(x.reshape(x.shape[:1] + shape) for x in (r1, r2, kept))


def vertices(region: RateRegion) -> list[RatePair]:
    """All extreme points of a bounded region with float bounds, sorted by r1
    then r2; points within ``CONTAIN_TOL`` of an earlier one are merged."""
    r1, r2, kept = _vertex_table(region)
    if kept.ndim != 1:
        raise ValueError("vertices needs a region with float bounds")
    return [RatePair(x, y) for x, y in zip(r1[kept].tolist(), r2[kept].tolist())]


def max_sum_rate(region: RateRegion) -> float | np.ndarray:
    """Maximum of r1 + r2 over the region: a float, or an array for array bounds."""
    r1, r2, kept = _vertex_table(region)
    best = np.max(np.where(kept, r1 + r2, -np.inf), axis=0, initial=-np.inf)
    if np.isneginf(best).any():
        raise ValueError("region is empty")
    return _unwrap(best)


def achievability_threshold(delta_a: float, delta_b: float) -> float:
    """Smallest eta at which the inter-modal scheme meets the outer bound
    (for delta_a >= delta_b); undefined when mode B is fully erased."""
    _check_prob("delta_a", delta_a)
    _check_prob("delta_b", delta_b)
    if delta_b >= 1.0:
        raise UnsupportedParametersError("threshold undefined for delta_b = 1")
    return 1.0 / (1.0 + delta_a * (1.0 - delta_a) / (2.0 * (1.0 - delta_b)))


def outer_bound_achievable(p: ModeParams) -> bool | np.ndarray:
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


def achievable_intermodal_sum(p: ModeParams) -> float | np.ndarray:
    """Analytic sum rate of coding across the modes: raw phases in mode A,
    multicast pushed to mode B, leftover mode-B time refilled with a fresh
    single-mode round."""
    if p.delta_a < p.delta_b:
        raise UnsupportedParametersError(
            "inter-modal analysis requires delta_a >= delta_b"
        )
    if p.delta_b >= 1.0:
        raise UnsupportedParametersError("inter-modal analysis requires delta_b < 1")
    at_bound = 2.0 * (1.0 + p.delta_a) * (1.0 - avg_erasure(p)) / (2.0 + p.delta_a)
    # Below the threshold raw phases are clipped to mode A; the multicast
    # backlog drains early in mode B and the remaining fraction runs the
    # single-mode feedback scheme.
    leftover = (1.0 - p.eta) - p.eta * p.delta_a * (1.0 - p.delta_a) / (
        2.0 * (1.0 - p.delta_b)
    )
    clipped = p.eta * (1.0 - p.delta_a**2) + leftover * unimodal_sum_capacity(p.delta_b)
    return _unwrap(np.where(outer_bound_achievable(p), at_bound, clipped))


def achievable_intramodal_sum(p: ModeParams) -> float | np.ndarray:
    """Sum rate when each mode runs its own independent feedback scheme."""
    return p.eta * unimodal_sum_capacity(p.delta_a) + (1.0 - p.eta) * unimodal_sum_capacity(
        p.delta_b
    )


def achievable_nofeedback_sum(p: ModeParams) -> float | np.ndarray:
    """Sum rate of feedback-free erasure coding, time-shared between users."""
    return 1.0 - avg_erasure(p)
