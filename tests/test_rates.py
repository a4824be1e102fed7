import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from bpecsim.rates import (
    HalfSpace,
    ModeParams,
    RateRegion,
    UnboundedRegionError,
    UnsupportedParametersError,
    achievability_threshold,
    achievable_intermodal_sum,
    achievable_intramodal_sum,
    achievable_nofeedback_sum,
    avg_erasure,
    betas,
    kappa,
    max_sum_rate,
    multicast_delivery_rate,
    optimal_raw_fraction,
    outer_bound_achievable,
    outer_region,
    region_c1,
    region_c2,
    region_c3,
    unimodal_sum_capacity,
    vertices,
)

TOL = 1e-9


def lp_max_sum(region):
    """Independent oracle: maximize r1 + r2 by linear programming."""
    A = [[h.c1, h.c2] for h in region.halfspaces]
    b = [h.bound for h in region.halfspaces]
    res = linprog(c=[-1.0, -1.0], A_ub=A, b_ub=b, bounds=[(0, None), (0, None)])
    assert res.status == 0
    return -res.fun


# ---------------------------------------------------------------------------
# scalar formulas
# ---------------------------------------------------------------------------


def test_avg_erasure_examples():
    assert abs(avg_erasure(ModeParams(0.75, 0.0, 32 / 35)) - 24 / 35) < TOL
    assert abs(avg_erasure(ModeParams(0.3, 0.3, 0.77)) - 0.3) < TOL
    assert abs(avg_erasure(ModeParams(0.75, 0.0, 1 / 6)) - 1 / 8) < TOL


def test_betas_examples():
    assert betas(ModeParams(0.75, 0.0, 0.5)) == (1.75, 1.0, 1.75, 1.0)
    assert betas(ModeParams(0.0, 0.0, 0.5)) == (1.0, 1.0, 1.0, 1.0)
    assert betas(ModeParams(0.75, 0.125, 0.5)) == (1.75, 1.125, 1.75, 1.125)


def test_kappa_examples():
    assert abs(kappa(ModeParams(0.75, 0.0, 32 / 35)) - 8 / 35) < TOL
    assert abs(kappa(ModeParams(0.0, 0.5, 0.4)) - 0.3) < TOL
    for delta in (0.0, 0.3, 0.8):
        assert abs(kappa(ModeParams(delta, delta, 1.0)) - (1 - delta)) < TOL


def test_unimodal_sum_capacity():
    assert abs(unimodal_sum_capacity(0.75) - 7 / 22) < TOL
    assert unimodal_sum_capacity(0.0) == 1.0
    assert unimodal_sum_capacity(1.0) == 0.0


def test_threshold_examples():
    assert abs(achievability_threshold(0.75, 0.0) - 32 / 35) < 1e-12
    assert achievability_threshold(0.0, 0.7) == 1.0
    assert abs(achievability_threshold(0.5, 0.5) - 0.8) < 1e-12
    with pytest.raises(UnsupportedParametersError):
        achievability_threshold(0.5, 1.0)


def test_outer_bound_achievable_examples():
    assert outer_bound_achievable(ModeParams(0.75, 0.0, 32 / 35))
    assert not outer_bound_achievable(ModeParams(0.75, 0.0, 1 / 6))
    assert not outer_bound_achievable(ModeParams(0.2, 0.3, 0.99))


def test_optimal_raw_fraction_examples():
    assert abs(optimal_raw_fraction(ModeParams(0.75, 0.0, 32 / 35)) - 32 / 35) < 1e-12
    for eta in (0.1, 0.5, 1.0):
        assert abs(optimal_raw_fraction(ModeParams(0.0, 0.0, eta)) - 1.0) < 1e-12
    assert abs(optimal_raw_fraction(ModeParams(0.5, 0.5, 0.5)) - 0.8) < 1e-12
    with pytest.raises(UnsupportedParametersError):
        optimal_raw_fraction(ModeParams(1.0, 0.5, 0.5))


def test_raw_fraction_quadratic_residual_grid():
    # 50+ points with delta_a < 1 and alpha* <= eta: residual below 1e-12
    count = 0
    for delta_a in np.linspace(0.05, 0.95, 10):
        for delta_b in np.linspace(0.0, delta_a, 5):
            p = ModeParams(float(delta_a), float(delta_b), 1.0)
            alpha = optimal_raw_fraction(p)
            if alpha > p.eta:
                continue
            r_eff = multicast_delivery_rate(p, alpha)
            residual = alpha + alpha * p.delta_a * (1 - p.delta_a) / (2 * r_eff)
            assert abs(residual - 1.0) < 1e-12
            count += 1
    assert count >= 50


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@example(0.9999, 0.9999, 0.2)  # 1 - avg_erasure cancels to 1e-4
@example(1.828897586412145e-16, 0.9515285397352897, 0.8920679988059864)  # rate below rounding
@example(0.5, 1.0, 0.0)  # avg_erasure = 1: no room for any traffic
def test_raw_fraction_self_check_passes_for_any_parameters(delta_a, delta_b, eta):
    p = ModeParams(delta_a, delta_b, eta)
    alpha = optimal_raw_fraction(p)
    assert alpha == 2.0 * (1.0 - avg_erasure(p)) / ((2.0 + delta_a) * (1.0 - delta_a))


def test_multicast_delivery_rate_is_convex_combination():
    for delta_a in np.linspace(0.1, 0.9, 6):
        for delta_b in np.linspace(0.0, delta_a, 4):
            for eta in np.linspace(0.1, 0.9, 5):
                p = ModeParams(float(delta_a), float(delta_b), float(eta))
                for alpha in np.linspace(0.0, eta, 4):
                    r = multicast_delivery_rate(p, float(alpha))
                    lo = min(1 - delta_a, 1 - delta_b) - TOL
                    hi = max(1 - delta_a, 1 - delta_b) + TOL
                    assert lo <= r <= hi


# ---------------------------------------------------------------------------
# regions and polytope algebra
# ---------------------------------------------------------------------------


def test_region_c1_capacity_example():
    reg = region_c1(ModeParams(0.75, 0.0, 32 / 35))
    (h1, h2) = reg.halfspaces
    assert (h1.c1, h1.c2) == (1.75, 1.0)
    assert abs(h1.bound - 1.75 * 11 / 35) < TOL
    assert (h2.c1, h2.c2) == (1.0, 1.75)
    verts = vertices(reg)
    assert any(abs(v.r1 - 0.2) < TOL and abs(v.r2 - 0.2) < TOL for v in verts)
    assert any(abs(v.r1 - 11 / 35) < TOL and abs(v.r2) < TOL for v in verts)


def test_region_c1_erasure_free():
    reg = region_c1(ModeParams(0.0, 0.0, 0.4))
    assert abs(max_sum_rate(reg) - 1.0) < TOL


def test_region_c2_slope_and_trivial():
    reg = region_c2(ModeParams(0.75, 0.125, 0.5))
    slopes = {(h.c1, h.c2) for h in reg.halfspaces}
    assert (1.125, 1.0) in slopes and (1.0, 1.125) in slopes
    reg0 = region_c2(ModeParams(0.0, 0.0, 0.5))
    k = kappa(ModeParams(0.0, 0.0, 0.5))
    assert abs(max_sum_rate(reg0) - min(1.0 + k, 2.0)) < TOL


def test_region_c2_symmetric_vertex_of_c1_inside():
    # the c1 symmetric vertex satisfies the c2 slope constraints at equal deltas
    for delta in (0.1, 0.5, 0.9):
        p = ModeParams(delta, delta, 0.7)
        r = (1 + delta) * (1 - delta) / (2 + delta)
        assert region_c2(p).contains(r, r)


def test_region_c3_examples():
    p = ModeParams(0.75, 0.0, 1 / 6)
    reg = region_c3(p)
    assert abs(max_sum_rate(reg) - 87 / 96) < TOL
    verts = vertices(reg)
    assert any(abs(v.r1 - 7 / 8) < TOL and abs(v.r2 - (87 / 96 - 7 / 8)) < TOL for v in verts)
    assert abs(max_sum_rate(region_c3(ModeParams(0.0, 0.0, 0.5))) - 1.0) < TOL
    dead = region_c3(ModeParams(1.0, 1.0, 0.5))
    assert [(v.r1, v.r2) for v in vertices(dead)] == [(0.0, 0.0)]
    assert max_sum_rate(dead) == 0.0


def test_vertices_simplex():
    reg = RateRegion(halfspaces=(HalfSpace(1.0, 1.0, 1.0),))
    verts = vertices(reg)
    assert [(v.r1, v.r2) for v in verts] == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


def test_vertices_unbounded_signals():
    with pytest.raises(UnboundedRegionError):
        vertices(RateRegion(halfspaces=(HalfSpace(1.0, 0.0, 1.0),)))


def test_empty_region_is_named():
    empty = RateRegion(halfspaces=(HalfSpace(1.0, 1.0, -1.0),))
    assert vertices(empty) == []
    with pytest.raises(ValueError, match="region is empty"):
        max_sum_rate(empty)
    # one empty row of a block is enough
    block = RateRegion(halfspaces=(HalfSpace(1.0, 1.0, np.array([1.0, -1.0])),))
    with pytest.raises(ValueError, match="region is empty"):
        max_sum_rate(block)


def test_vertices_needs_float_bounds():
    block = outer_region(ModeParams(0.75, 0.0, np.array([0.25, 0.5])))
    with pytest.raises(ValueError, match="float bounds"):
        vertices(block)


@pytest.mark.parametrize(
    "eta, shown",
    [(1.5, "1.5"), (math.nan, "nan"), (np.array([0.5, -0.25, 2.0]), "-0.25"),
     (np.array([0.5, math.nan]), "nan")],
)
def test_mode_params_name_the_first_bad_eta(eta, shown):
    with pytest.raises(ValueError, match=rf"^eta must lie in \[0, 1\], got {shown}$"):
        ModeParams(0.5, 0.5, eta)


def test_outer_region_examples():
    assert abs(max_sum_rate(outer_region(ModeParams(0.75, 0.0, 32 / 35))) - 0.4) < TOL
    assert abs(max_sum_rate(outer_region(ModeParams(0.75, 0.0, 1.0))) - 7 / 22) < TOL
    assert abs(max_sum_rate(outer_region(ModeParams(0.75, 0.0, 0.0))) - 1.0) < TOL
    assert abs(max_sum_rate(outer_region(ModeParams(0.75, 0.0, 1 / 6))) - 87 / 96) < TOL


def test_max_sum_rate_against_lp_oracle():
    cases = [
        ModeParams(0.75, 0.0, 32 / 35),
        ModeParams(0.75, 0.0, 1 / 6),
        ModeParams(0.75, 0.125, 0.5),
        ModeParams(0.6, 0.2, 0.35),
        ModeParams(0.2, 0.9, 0.5),
        ModeParams(0.5, 0.5, 0.8),
    ]
    for p in cases:
        for builder in (region_c1, region_c2, region_c3, outer_region):
            reg = builder(p)
            assert abs(max_sum_rate(reg) - lp_max_sum(reg)) < 1e-7


def test_region_symmetry_grid():
    # every region maps to itself under swapping the two rates
    for delta_a in np.linspace(0.0, 1.0, 6):
        for delta_b in np.linspace(0.0, 1.0, 6):
            for eta in (0.0, 0.3, 1.0):
                p = ModeParams(float(delta_a), float(delta_b), float(eta))
                for builder in (region_c1, region_c2, region_c3, outer_region):
                    reg = builder(p)
                    for v in vertices(reg):
                        assert reg.contains(v.r2, v.r1)


def _vertex_sets_equal(a, b, tol=TOL):
    if len(a) != len(b):
        return False
    return all(
        abs(u.r1 - v.r1) <= tol and abs(u.r2 - v.r2) <= tol for u, v in zip(a, b)
    )


def test_eta_extremes_degenerate_to_unimodal():
    for delta_a in np.linspace(0.0, 0.9, 5):
        for delta_b in np.linspace(0.0, 0.9, 5):
            for eta, active in ((0.0, float(delta_b)), (1.0, float(delta_a))):
                p = ModeParams(float(delta_a), float(delta_b), eta)
                beta = 1 + active
                uni = RateRegion(
                    halfspaces=(
                        HalfSpace(beta, 1.0, beta * (1 - active)),
                        HalfSpace(1.0, beta, beta * (1 - active)),
                    )
                )
                assert _vertex_sets_equal(vertices(outer_region(p)), vertices(uni))


def test_equal_delta_degenerates_to_unimodal():
    for delta in np.linspace(0.0, 0.95, 20):
        for eta in np.linspace(0.0, 1.0, 20):
            p = ModeParams(float(delta), float(delta), float(eta))
            beta = 1 + float(delta)
            uni = RateRegion(
                halfspaces=(
                    HalfSpace(beta, 1.0, beta * (1 - float(delta))),
                    HalfSpace(1.0, beta, beta * (1 - float(delta))),
                )
            )
            assert _vertex_sets_equal(vertices(outer_region(p)), vertices(uni))


def test_outer_sum_equals_min_of_region_sums():
    for delta_a in np.linspace(0.0, 0.95, 8):
        for delta_b in np.linspace(0.0, 0.95, 8):
            for eta in np.linspace(0.0, 1.0, 9):
                p = ModeParams(float(delta_a), float(delta_b), float(eta))
                expected = min(
                    max_sum_rate(region_c1(p)),
                    max_sum_rate(region_c2(p)),
                    max_sum_rate(region_c3(p)),
                    2 * (1 - avg_erasure(p)),
                )
                assert abs(max_sum_rate(outer_region(p)) - expected) < TOL


# ---------------------------------------------------------------------------
# achievable sums
# ---------------------------------------------------------------------------


def test_intermodal_examples():
    assert abs(achievable_intermodal_sum(ModeParams(0.75, 0.0, 32 / 35)) - 0.4) < TOL
    assert abs(achievable_intermodal_sum(ModeParams(0.75, 0.0, 1 / 6)) - 0.890625) < TOL
    for delta in (0.2, 0.6):
        eta = 2 / (2 + delta) + 0.05
        p = ModeParams(delta, delta, eta)
        assert abs(achievable_intermodal_sum(p) - unimodal_sum_capacity(delta)) < TOL
    with pytest.raises(UnsupportedParametersError):
        achievable_intermodal_sum(ModeParams(0.2, 0.5, 0.5))
    with pytest.raises(UnsupportedParametersError):
        achievable_intermodal_sum(ModeParams(1.0, 1.0, 0.5))


def test_intramodal_examples():
    assert abs(achievable_intramodal_sum(ModeParams(0.75, 0.0, 32 / 35)) - 29 / 77) < TOL
    assert abs(achievable_intramodal_sum(ModeParams(0.75, 0.0, 1 / 6)) - 39 / 44) < TOL
    for delta in (0.0, 0.4, 0.9):
        p = ModeParams(delta, delta, 0.3)
        assert abs(achievable_intramodal_sum(p) - unimodal_sum_capacity(delta)) < TOL


def test_nofeedback_examples():
    assert abs(achievable_nofeedback_sum(ModeParams(0.75, 0.0, 32 / 35)) - 11 / 35) < TOL
    assert achievable_nofeedback_sum(ModeParams(0.0, 0.0, 0.5)) == 1.0
    assert abs(achievable_nofeedback_sum(ModeParams(0.75, 0.125, 0.5)) - 0.5625) < TOL


def test_rate_ordering_grid():
    # nofb <= intra <= inter <= outer over a 20x20x20 grid with delta_a >= delta_b
    grid = np.linspace(0.0, 0.95, 20)
    etas = np.linspace(0.0, 1.0, 20)
    for delta_a in grid:
        for delta_b in grid:
            if delta_b > delta_a:
                continue
            for eta in etas:
                p = ModeParams(float(delta_a), float(delta_b), float(eta))
                nofb = achievable_nofeedback_sum(p)
                intra = achievable_intramodal_sum(p)
                inter = achievable_intermodal_sum(p)
                outer = max_sum_rate(outer_region(p))
                assert nofb <= intra + TOL
                assert intra <= inter + TOL
                assert inter <= outer + TOL


def test_intermodal_matches_outer_when_threshold_met():
    grid = np.linspace(0.0, 0.95, 12)
    checked = 0
    for delta_a in grid:
        for delta_b in grid:
            if delta_b > delta_a:
                continue
            for eta in np.linspace(0.0, 1.0, 12):
                p = ModeParams(float(delta_a), float(delta_b), float(eta))
                if outer_bound_achievable(p):
                    checked += 1
                    assert (
                        abs(achievable_intermodal_sum(p) - max_sum_rate(outer_region(p)))
                        < TOL
                    )
    assert checked > 100
