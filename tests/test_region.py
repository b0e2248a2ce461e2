"""The matrix form of the regions (`uplink.Region`) against scalar loops,
the per-law cache of regions and enumerations, and overflowing points."""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from cranregions import (
    FaceQuery,
    JointLaw,
    RateFronthaulPoint,
    build_downlink_joint,
    build_uplink_joint,
    downlink_enumerate_corners,
    enumerate_corners,
    je_slack,
    jd_slack,
    min_jd_slack,
    mutual_info,
    on_dominant_face_alt,
    sample_face_points,
)
from cranregions.cli import main
from cranregions.downlink import je_region
from cranregions.face import in_sub_face_cond, in_sub_face_DST
from cranregions.prob import ACTIVE_TOL, FACE_TOL, MEMBERSHIP_TOL, NEGATIVE_RATE_TOL, subsets
from cranregions.uplink import _row_rank, check_corner, coord_labels, jd_region

from conftest import k2l2_bsc_spec, product_spec, random_downlink_spec, random_uplink_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1)]
CASES = [(d, K, L) for d in ("uplink", "downlink") for K, L in SHAPES]


def _case(direction, K, L):
    """A seeded random law of one direction and shape, its region, slack and corners."""
    rng = np.random.default_rng(1000 + 10 * K + L)
    if direction == "uplink":
        law = build_uplink_joint(random_uplink_spec(rng, K, L))
        return law, jd_region(law), jd_slack, enumerate_corners(law), rng
    law = build_downlink_joint(random_downlink_spec(rng, K, L))
    return law, je_region(law), je_slack, downlink_enumerate_corners(law), rng


def _box_points(enum, n, rng):
    mat = np.array([p.as_vector() for p in enum.vertices])
    K = len(enum.vertices[0].R)
    lo, hi = mat.min(axis=0) - 0.25, mat.max(axis=0) + 0.25
    return [RateFronthaulPoint.from_vector(rng.uniform(lo, hi), K, len(lo) - K)
            for _ in range(n)]


def _pairs(K, L):
    return [(S, T) for S in subsets(range(1, K + 1)) for T in subsets(range(1, L + 1))]


def scalar_min_slack(law, slack, point):
    """Reference: the first (S, T) pair of least slack, one slack call per pair."""
    best, arg = math.inf, None
    for S, T in _pairs(len(point.R), len(point.C)):
        s = slack(law, point, S, T)
        if s < best:
            best, arg = s, (set(S), set(T))
    return best, arg


def scalar_check_corner(law, slack, point):
    """Reference: (in_region, rank, is_corner, negative_coords), one slack call per pair."""
    K, L = len(point.R), len(point.C)
    normals, lowest = [], math.inf
    for S, T in _pairs(K, L):
        s = slack(law, point, S, T)
        lowest = min(lowest, s)
        if abs(s) <= ACTIVE_TOL and (S or T):
            n = np.zeros(K + L)
            n[[i - 1 for i in S]] = -1.0
            n[[K + j - 1 for j in T]] = 1.0
            normals.append(n)
    rank = _row_rank(normals)
    in_region = lowest >= -MEMBERSHIP_TOL
    negative = tuple(lab for lab, v in zip(coord_labels(K, L), point.as_vector())
                     if v < -NEGATIVE_RATE_TOL)
    return in_region, rank, in_region and rank >= K + L, negative


@pytest.mark.parametrize("direction, K, L", CASES)
def test_min_slack_matches_scalar_loop(direction, K, L):
    law, region, slack, enum, rng = _case(direction, K, L)
    for point in _box_points(enum, 50, rng):
        s = region.slacks(point)
        i = int(np.argmin(s))
        best, arg = s[i], tuple(set(x) for x in region.pairs[i])
        if direction == "uplink":
            assert min_jd_slack(law, point) == (best, arg)
        ref_best, ref_arg = scalar_min_slack(law, slack, point)
        assert best == pytest.approx(ref_best, abs=1e-12)
        assert arg == ref_arg


@pytest.mark.parametrize("direction, K, L", CASES)
def test_check_corner_matches_scalar_loop(direction, K, L):
    law, region, slack, enum, rng = _case(direction, K, L)
    points = [p for _, p in enum.corners] + _box_points(enum, 50, rng)
    outcomes = set()
    for point in points:
        rep = check_corner(region, point)
        got = (rep.in_region, rep.rank, rep.is_corner, rep.negative_coords)
        assert got == scalar_check_corner(law, slack, point)
        outcomes.add(rep.is_corner)
    assert outcomes == {True, False}


# --- the two-sided face families, with their bound formulas written out again ---


def _xs(idx):
    return [f"X{i}" for i in sorted(idx)]


def _ys(idx):
    return [f"Y{l}" for l in sorted(idx)]


def _yhs(idx):
    return [f"Yh{l}" for l in sorted(idx)]


def scalar_within_bounds(point, users, relays, bounds, tol):
    for A in subsets(users):
        for B in subsets(relays):
            A_, B_ = set(A), set(B)
            gap = point.c_sum(B_) - point.r_sum(A_)
            lb, ub = bounds(A_, B_)
            if gap < lb - tol or gap > ub + tol:
                return False
    return True


def scalar_alt(law, K, L, point):
    def bounds(S, T):
        Sc, Tc = set(range(1, K + 1)) - S, set(range(1, L + 1)) - T
        lb = mutual_info(law, _ys(T), _yhs(T), _xs(range(1, K + 1))) - mutual_info(
            law, _xs(S), _yhs(Tc), _xs(Sc))
        return lb, mutual_info(law, _ys(T), _yhs(T), _xs(S))
    return scalar_within_bounds(point, range(1, K + 1), range(1, L + 1), bounds,
                                MEMBERSHIP_TOL)


def scalar_sub_face_DST(law, q, point):
    S, T = q.S, q.T

    def bounds(A, B):
        lb = mutual_info(law, _ys(B), _yhs(B), _xs(S) + _yhs(T - B)) - mutual_info(
            law, _xs(A), _yhs(T - B), _xs(S - A))
        return lb, mutual_info(law, _ys(B), _yhs(B), _xs(A))
    return scalar_within_bounds(point, S, T, bounds, FACE_TOL)


def scalar_sub_face_cond(law, K, L, q, point):
    S, T = set(q.S), set(q.T)
    Sc, Tc = set(range(1, K + 1)) - S, set(range(1, L + 1)) - T

    def bounds(A, B):
        lb = mutual_info(law, _ys(B), _yhs(B), _xs(range(1, K + 1)) + _yhs((Tc - B) | T)
                         ) - mutual_info(law, _xs(A), _yhs((Tc - B) | T), _xs((Sc - A) | S))
        ub = mutual_info(law, _ys(B), _yhs(B), _xs(A | S) + _yhs(T)) - mutual_info(
            law, _xs(A), _yhs(T), _xs(S))
        return lb, ub
    return scalar_within_bounds(point, Sc, Tc, bounds, FACE_TOL)


def _queries(K, L):
    for S, T in _pairs(K, L):
        if (S or T) and (len(S) < K or len(T) < L):
            yield FaceQuery(frozenset(S), frozenset(T))


@pytest.mark.parametrize("K, L", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_face_families_match_scalar_loops(K, L):
    law, _, _, enum, rng = _case("uplink", K, L)
    points = (list(enum.vertices) + sample_face_points(law, 20, rng)
              + _box_points(enum, 20, rng))
    alt = [on_dominant_face_alt(law, p) for p in points]
    assert alt == [scalar_alt(law, K, L, p) for p in points]
    assert set(alt) == {True, False}
    sub = []
    for q in _queries(K, L):
        for p in points:
            sub.append(in_sub_face_DST(law, p, q))
            assert sub[-1] == scalar_sub_face_DST(law, q, p)
            sub.append(in_sub_face_cond(law, p, q))
            assert sub[-1] == scalar_sub_face_cond(law, K, L, q, p)
    assert set(sub) == {True, False}


# --- the per-law cache ---


def test_enumeration_is_computed_once_per_law_and_dedup_tol():
    law = build_uplink_joint(k2l2_bsc_spec())
    enum = enumerate_corners(law)
    assert enumerate_corners(law) is enum
    coarse = enumerate_corners(law, dedup_tol=10.0)
    assert coarse is not enum and len(coarse.vertices) == 1 < len(enum.vertices)
    assert enumerate_corners(law, dedup_tol=10.0) is coarse
    for e in (enum, coarse):
        # CSV --dedup picks the vertices out of the corners by identity
        assert {id(p) for p in e.vertices} <= {id(p) for _, p in e.corners}
    down = build_downlink_joint(random_downlink_spec(np.random.default_rng(3)))
    assert downlink_enumerate_corners(down) is downlink_enumerate_corners(down)


def test_laws_share_no_cached_structure():
    a = build_uplink_joint(k2l2_bsc_spec())
    b = build_uplink_joint(product_spec())
    for law in (a, b):
        enumerate_corners(law)
        on_dominant_face_alt(law, enumerate_corners(law).vertices[0])
        jd_region(law)
    assert a._memo is not b._memo
    assert not {id(v) for v in a._memo.values()} & {id(v) for v in b._memo.values()}
    assert not np.array_equal(jd_region(a).lb, jd_region(b).lb)


def test_equality_and_repr_ignore_the_cache():
    law = build_uplink_joint(k2l2_bsc_spec())
    twin = JointLaw(law.names, law.probs)
    before = repr(law)
    enumerate_corners(law)
    jd_region(law)
    assert law._memo and not twin._memo
    assert law == twin
    assert repr(law) == before == repr(twin)


# --- points whose constraint sums overflow ---


@pytest.mark.parametrize(
    "spec, point",
    [("identity_k1l1.json", "1e308,-1e308"), ("uplink_k2l2.json", "1e308,-1e308,-1e308,1e308")],
)
def test_overflowing_face_point_is_outside_and_warns_nothing(capsys, spec, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["face", str(SPECS / spec), f"--point={point}"])
    out = capsys.readouterr()
    assert out.err == ""
    res = json.loads(out.out)["results"]
    assert (res["in_region"], res["on_dominant_face"], res["on_dominant_face_alt"]) == (
        False, False, False)
    assert code == 1
