"""``rates.vertices`` and ``rates.max_sum_rate`` against a scalar oracle.

The oracle is the pure-Python pairwise enumeration that ``vertices`` used
before it ran on numpy arrays: intersect every pair of constraint lines,
keep the points inside the region, clamp them to the quadrant, sort them and
merge those within ``CONTAIN_TOL`` of an earlier kept point.  The reports
print sums at ``.12g``, where a last-bit difference can show, so every
comparison here is exact.  A block of eta values must give, element for
element, what each value gives alone.
"""
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpecsim.rates import (
    CONTAIN_TOL,
    ModeParams,
    RatePair,
    achievability_threshold,
    achievable_intermodal_sum,
    achievable_intramodal_sum,
    achievable_nofeedback_sum,
    avg_erasure,
    kappa,
    max_sum_rate,
    outer_region,
    region_c1,
    region_c2,
    region_c3,
    vertices,
)

BUILDERS = (region_c1, region_c2, region_c3, outer_region)


def oracle_contains(region, r1, r2):
    if r1 < -CONTAIN_TOL or r2 < -CONTAIN_TOL:
        return False
    return all(h.c1 * r1 + h.c2 * r2 <= h.bound + CONTAIN_TOL for h in region.halfspaces)


def oracle_vertices(region):
    lines = [(h.c1, h.c2, h.bound) for h in region.halfspaces]
    lines.append((1.0, 0.0, 0.0))  # R1 = 0
    lines.append((0.0, 1.0, 0.0))  # R2 = 0
    points = []
    for (a1, a2, b_a), (c1, c2, b_c) in itertools.combinations(lines, 2):
        det = a1 * c2 - a2 * c1
        if abs(det) < 1e-14:
            continue
        r1 = (b_a * c2 - a2 * b_c) / det
        r2 = (a1 * b_c - b_a * c1) / det
        if oracle_contains(region, r1, r2):
            points.append((r1 if r1 > 0.0 else 0.0, r2 if r2 > 0.0 else 0.0))
    unique = []
    for pt in sorted(points):
        if not any(
            abs(pt[0] - q[0]) <= CONTAIN_TOL and abs(pt[1] - q[1]) <= CONTAIN_TOL for q in unique
        ):
            unique.append(pt)
    return [RatePair(r1, r2) for r1, r2 in unique]


def oracle_max_sum_rate(region):
    return max(v.sum for v in oracle_vertices(region))


probs = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))


@st.composite
def mode_params(draw):
    """Random points plus near ties: equal deltas, deltas at 0 or 1, and eta
    at the threshold where the inter-modal scheme meets the outer bound."""
    delta_a = draw(probs)
    delta_b = draw(st.one_of(probs, st.just(delta_a)))
    etas = [probs]
    if delta_b < 1.0:
        etas.append(st.just(achievability_threshold(delta_a, delta_b)))
    return ModeParams(delta_a, delta_b, draw(st.one_of(*etas)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p=mode_params())
@example(p=ModeParams(0.75, 0.0, 32 / 35))
@example(p=ModeParams(0.75, 0.0, 1 / 6))
@example(p=ModeParams(0.5, 0.5, 0.8))
@example(p=ModeParams(1.0, 1.0, 0.5))
@example(p=ModeParams(0.0, 0.0, 0.0))
def test_enumeration_matches_the_scalar_oracle_exactly(p):
    for builder in BUILDERS:
        region = builder(p)
        assert vertices(region) == oracle_vertices(region)
        best = max_sum_rate(region)
        assert type(best) is float
        assert best == oracle_max_sum_rate(region)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=mode_params(), extra=st.lists(probs, min_size=0, max_size=6))
def test_a_block_of_eta_equals_its_rows(p, extra):
    etas = [p.eta, *extra]
    block = ModeParams(p.delta_a, p.delta_b, np.array(etas))
    rows = [ModeParams(p.delta_a, p.delta_b, eta) for eta in etas]
    for builder in BUILDERS:
        assert max_sum_rate(builder(block)).tolist() == [
            oracle_max_sum_rate(builder(row)) for row in rows
        ]
    for formula in (avg_erasure, kappa, achievable_intramodal_sum, achievable_nofeedback_sum):
        assert formula(block).tolist() == [formula(row) for row in rows]
    if p.delta_a >= p.delta_b and p.delta_b < 1.0:
        assert achievable_intermodal_sum(block).tolist() == [
            achievable_intermodal_sum(row) for row in rows
        ]
