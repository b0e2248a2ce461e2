"""The matrix form of the regions (`uplink.Region`) against scalar loops,
stacked predicates against scalar references, the per-law cache of regions
and enumerations, law equality, and overflowing points."""

import csv
import io
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from cranregions import (
    FaceQuery,
    JointLaw,
    build_downlink_joint,
    build_uplink_joint,
    check_face_decomposition,
    downlink_enumerate_corners,
    enumerate_corners,
    in_face_FST,
    in_jd_region,
    in_je_region,
    je_slack,
    jd_slack,
    mutual_info,
    on_dominant_face,
    on_dominant_face_alt,
    sample_face_points,
)
from cranregions import face as df
from cranregions.cli import main
from cranregions.downlink import je_region
from cranregions.face import FaceDecompositionReport, in_sub_face_cond, in_sub_face_DST
from cranregions.prob import (
    ACTIVE_TOL,
    FACE_TOL,
    MEMBERSHIP_TOL,
    NEGATIVE_RATE_TOL,
    PIVOT_TOL,
)
from cranregions.uplink import (
    STACK_CHUNK,
    _row_rank,
    capacity_minus_rate,
    check_corner,
    coord_labels,
    dedup_index,
    jd_region,
)

from conftest import (
    downlink_k1l1_spec,
    k2l2_bsc_spec,
    pair_of_row,
    product_spec,
    random_downlink_spec,
    random_uplink_spec,
    subsets,
)

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
    mat = enum.vertices
    lo, hi = mat.min(axis=0) - 0.25, mat.max(axis=0) + 0.25
    return [rng.uniform(lo, hi) for _ in range(n)]


def _pairs(K, L):
    """The (S, T) pairs in the row order of a full region, by bitmask."""
    return [pair_of_row(i, K, L) for i in range(1 << (K + L))]


def scalar_min_slack(law, slack, point):
    """Reference: the first (S, T) pair of least slack in row order, one slack
    call per pair."""
    best, arg = math.inf, None
    for S, T in _pairs(*law.built[1:]):
        s = slack(law, point, S, T)
        if s < best:
            best, arg = s, (set(S), set(T))
    return best, arg


def scalar_check_corner(law, slack, point):
    """Reference: (in_region, rank, is_corner, negative_coords), one slack call per pair."""
    _, K, L = law.built
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
    negative = tuple(lab for lab, v in zip(coord_labels(K, L), point) if v < -NEGATIVE_RATE_TOL)
    return in_region, rank, in_region and rank >= K + L, negative


@pytest.mark.parametrize("direction, K, L", CASES)
def test_min_slack_matches_scalar_loop(direction, K, L):
    law, region, slack, enum, rng = _case(direction, K, L)
    for point in _box_points(enum, 50, rng):
        s = region.slacks(point[None])[0]  # one point, as a stack of one
        i = int(np.argmin(s))
        best, arg = s[i], pair_of_row(i, K, L)
        ref_best, ref_arg = scalar_min_slack(law, slack, point)
        assert best == pytest.approx(ref_best, abs=1e-12)
        assert arg == ref_arg
    # a stack of more than two chunks: each chunk's answers land in their own places
    mat = enum.vertices
    stack = rng.uniform(mat.min(axis=0) - 0.25, mat.max(axis=0) + 0.25,
                        size=(2 * STACK_CHUNK + 1, K + L))
    inside = region.contains(stack, MEMBERSHIP_TOL)
    assert np.array_equal(inside, region.slacks(stack).min(axis=1) >= -MEMBERSHIP_TOL)
    assert set(inside.tolist()) == {True, False}


@pytest.mark.parametrize("direction, K, L", CASES)
def test_check_corner_matches_scalar_loop(direction, K, L):
    law, region, slack, enum, rng = _case(direction, K, L)
    points = list(enum.points) + _box_points(enum, 50, rng)
    rep = check_corner(region, np.array(points))
    got = list(zip(rep.in_region.tolist(), rep.rank.tolist(), rep.is_corner.tolist(),
                   rep.negative_coords))
    assert got == [scalar_check_corner(law, slack, point) for point in points]
    assert set(rep.is_corner.tolist()) == {True, False}


# --- the two-sided face families, with their bound formulas written out again ---


def _xs(idx):
    return [f"X{i}" for i in sorted(idx)]


def _ys(idx):
    return [f"Y{l}" for l in sorted(idx)]


def _yhs(idx):
    return [f"Yh{l}" for l in sorted(idx)]


def scalar_within_bounds(point, K, users, relays, bounds, tol):
    for A in subsets(users):
        for B in subsets(relays):
            A_, B_ = set(A), set(B)
            gap = capacity_minus_rate(point, K, A_, B_)
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
    return scalar_within_bounds(point, K, range(1, K + 1), range(1, L + 1), bounds,
                                MEMBERSHIP_TOL)


def scalar_sub_face_DST(law, q, point):
    S, T = q.S, q.T

    def bounds(A, B):
        lb = mutual_info(law, _ys(B), _yhs(B), _xs(S) + _yhs(T - B)) - mutual_info(
            law, _xs(A), _yhs(T - B), _xs(S - A))
        return lb, mutual_info(law, _ys(B), _yhs(B), _xs(A))
    return scalar_within_bounds(point, law.built[1], S, T, bounds, FACE_TOL)


def scalar_sub_face_cond(law, K, L, q, point):
    S, T = set(q.S), set(q.T)
    Sc, Tc = set(range(1, K + 1)) - S, set(range(1, L + 1)) - T

    def bounds(A, B):
        lb = mutual_info(law, _ys(B), _yhs(B), _xs(range(1, K + 1)) + _yhs((Tc - B) | T)
                         ) - mutual_info(law, _xs(A), _yhs((Tc - B) | T), _xs((Sc - A) | S))
        ub = mutual_info(law, _ys(B), _yhs(B), _xs(A | S) + _yhs(T)) - mutual_info(
            law, _xs(A), _yhs(T), _xs(S))
        return lb, ub
    return scalar_within_bounds(point, K, Sc, Tc, bounds, FACE_TOL)


def _queries(K, L):
    for S, T in _pairs(K, L):
        if (S or T) and (len(S) < K or len(T) < L):
            yield FaceQuery(frozenset(S), frozenset(T))


def scalar_in_face_FST(law, q, point):
    cap = mutual_info(law, _ys(q.T), _yhs(q.T), _xs(q.S))
    return bool(on_dominant_face(law, point[None], FACE_TOL)[0]
                and abs(capacity_minus_rate(point, law.built[1], q.S, q.T) - cap) <= FACE_TOL)


def scalar_member(law, slack, point):
    """Reference: region membership, one slack call per pair."""
    return scalar_min_slack(law, slack, point)[0] >= -MEMBERSHIP_TOL


def scalar_on_dominant_face(law, point):
    """Reference: a joint-decoding member with no slack on the ([K], [L]) pair."""
    _, K, L = law.built
    return scalar_member(law, jd_slack, point) and abs(
        jd_slack(law, point, range(1, K + 1), range(1, L + 1))) <= MEMBERSHIP_TOL


def per_point_face_decomposition(law, q, tol=FACE_TOL, corners=None):
    """Reference: `check_face_decomposition` by brute force on the face's
    `corners`, by default the vertices that `in_face_FST` admits one at a time.
    Forward: the corners outside `in_sub_face_DST` or `in_sub_face_cond`, one
    predicate call per corner.  Converse: every pair of a kept row of the
    (S, T) projection and one of the complement projection (one `dedup_index`
    call per projection at max(tol, PIVOT_TOL)) whose joined point has no
    corner within that distance."""
    K, L = law.dims("uplink")
    q.validate(K, L)
    face_corners = [v for v in enumerate_corners(law).vertices
                    if df.in_face_FST(law, v[None], q, tol)[0]] if corners is None else list(corners)
    if not face_corners:
        return FaceDecompositionReport(0, 0)
    forward_failures = 0
    for p in face_corners:
        if not (df.in_sub_face_DST(law, p[None], q, tol)[0]
                and df.in_sub_face_cond(law, p[None], q, tol)[0]):
            forward_failures += 1
    mat, mask, near = np.array(face_corners), q.mask(K, L), max(tol, PIVOT_TOL)
    kept_a, kept_b = (np.unique(dedup_index(mat[:, m], near)) for m in (mask, ~mask))
    converse_failures = 0
    for i in kept_a:
        for j in kept_b:
            vec = np.where(mask, mat[i], mat[j])
            if not any(np.max(np.abs(v - vec)) <= near for v in mat):
                converse_failures += 1
    return FaceDecompositionReport(forward_failures, converse_failures)


def assert_stacked_matches(predicate, points, per_point):
    """One call on the stacked points gives the per-point list, as numpy bools."""
    got = predicate(np.array(points))
    assert got.dtype == bool and got.tolist() == per_point


@pytest.mark.parametrize("K, L", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_face_families_match_scalar_loops(K, L):
    law, _, _, enum, rng = _case("uplink", K, L)
    points = (list(enum.vertices) + list(sample_face_points(law, 20, rng))
              + _box_points(enum, 20, rng))
    alt = [scalar_alt(law, K, L, p) for p in points]
    assert set(alt) == {True, False}
    assert_stacked_matches(lambda x: on_dominant_face_alt(law, x), points, alt)
    assert_stacked_matches(lambda x: in_jd_region(law, x), points,
                           [scalar_member(law, jd_slack, p) for p in points])
    assert_stacked_matches(lambda x: on_dominant_face(law, x), points,
                           [scalar_on_dominant_face(law, p) for p in points])
    down, _, _, down_enum, _ = _case("downlink", K, L)
    down_points = list(down_enum.vertices) + _box_points(down_enum, 20, rng)
    assert_stacked_matches(lambda x: in_je_region(down, x), down_points,
                           [scalar_member(down, je_slack, p) for p in down_points])
    sub, fst = [], set()
    for q in _queries(K, L):
        dst = [scalar_sub_face_DST(law, q, p) for p in points]
        cond = [scalar_sub_face_cond(law, K, L, q, p) for p in points]
        per_point = [scalar_in_face_FST(law, q, p) for p in points]
        for predicate, ref in ((in_sub_face_DST, dst), (in_sub_face_cond, cond),
                               (in_face_FST, per_point)):
            assert_stacked_matches(lambda x: predicate(law, x, q), points, ref)
        sub += dst + cond
        fst.update(per_point)
        assert check_face_decomposition(law, q) == per_point_face_decomposition(law, q)
    assert set(sub) == {True, False} and fst == {True, False}


def test_face_decomposition_draws_the_reference_points():
    """With bounds tightened on the law's memo there are failures to count, and
    the stacked check counts the brute-force reference's: it reads the same
    bounds, which the reference reads through the per-query predicates.
    R_1 at least its second least distinct vertex value in every D_{S,T} with
    the ({1}, {}) row fails the vertices below it, forward.  C_1 - R_1 at most
    its third greatest distinct vertex value takes the vertices above it off
    the dominant face before the face vertices are found, so a face that was
    the product of its projections, with R_1 and C_1 on two sides, misses
    their pairs, converse.  Some faces fail in part."""
    law = _case("uplink", 2, 2)[0]
    vertices, jd, queries = enumerate_corners(law).vertices, jd_region(law), df.face_queries(law)
    face, row, lb, ub = law.memo("sub-face bounds", lambda: df._sub_face_bounds(law))
    r1 = np.unique(np.round(vertices[:, 0], 9))
    gap = np.unique(np.round(vertices[:, 2] - vertices[:, 0], 9))
    ub[(face % 2 == 0) & (row == 0b0001)] = -r1[1]  # the ({1}, {}) row is bitmask 1
    jd.ub[0b0101] = gap[-3]  # ({1}, {1}): R_1 is bit 0, C_1 bit K = 2
    reports = [check_face_decomposition(law, q) for q in queries]
    assert reports == [per_point_face_decomposition(law, q) for q in queries]
    sizes = [len(df.face_corners(law, q)) for q in queries]
    assert any(0 < r.forward_failures < n for r, n in zip(reports, sizes))
    assert any(r.converse_failures for r in reports)


# --- the per-law cache ---


def test_enumeration_is_computed_once_per_law_and_dedup_tol():
    law = build_uplink_joint(k2l2_bsc_spec())
    enum = enumerate_corners(law)
    assert enumerate_corners(law) is enum
    coarse = enumerate_corners(law, dedup_tol=10.0)
    assert coarse is not enum and len(coarse.vertices) == 1 < len(enum.vertices)
    assert enumerate_corners(law, dedup_tol=10.0) is coarse
    down = build_downlink_joint(random_downlink_spec(np.random.default_rng(3)))
    assert downlink_enumerate_corners(down) is downlink_enumerate_corners(down)


def test_laws_share_no_cached_structure():
    a = build_uplink_joint(k2l2_bsc_spec())
    b = build_uplink_joint(product_spec())
    for law in (a, b):
        enumerate_corners(law)
        on_dominant_face_alt(law, enumerate_corners(law).vertices[:1])
        jd_region(law)
    assert a._memo is not b._memo
    assert not {id(v) for v in a._memo.values()} & {id(v) for v in b._memo.values()}
    assert not np.array_equal(jd_region(a).lb, jd_region(b).lb)


def test_laws_compare_by_names_and_probabilities():
    laws = [build_uplink_joint(k2l2_bsc_spec()), build_uplink_joint(k2l2_bsc_spec()),
            build_uplink_joint(product_spec()), build_downlink_joint(downlink_k1l1_spec())]
    assert laws[0] == laws[1] and hash(laws[0]) == hash(laws[1])
    assert laws[0] != laws[2] and laws[0] != laws[3] and laws[0] != laws[0].names
    assert len(set(laws)) == 3
    renamed = JointLaw(tuple(n + "_" for n in laws[0].names), laws[0].probs)
    assert renamed != laws[0]


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
    [("identity_k1l1.json", "1e308,-1e308"), ("uplink_k2l2.json", "1e308,-1e308,-1e308,1e308"),
     ("downlink_k2l2.json", "R2=1e308,C2=-1e308")],
)
def test_overflowing_face_point_is_outside_and_warns_nothing(capsys, spec, point):
    """`face` at the point; a downlink point fixes R2, C2 of a 3x3 `slice` grid,
    whose stacked product overflows on every grid point."""
    is_slice = "=" in point
    argv = ["face", str(SPECS / spec), f"--point={point}"]
    if is_slice:
        argv = ["slice", str(SPECS / spec), "--vary=R1,C1", f"--fixed={point}", "--min=0",
                "--max=1", "--steps=3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out = capsys.readouterr()
    assert out.err == ""
    if is_slice:
        rows = list(csv.reader(io.StringIO(out.out)))
        assert rows[0] == ["R1", "C1", "in_region"]
        assert [r[:2] for r in rows[1:]] == [[x, y] for x in ("0.0", "0.5", "1.0")
                                             for y in ("0.0", "0.5", "1.0")]
        assert [r[2] for r in rows[1:]] == ["0"] * 9 and code == 0
        return
    res = json.loads(out.out)["results"]
    assert (res["in_region"], res["on_dominant_face"], res["on_dominant_face_alt"]) == (
        False, False, False)
    assert code == 1


def test_overflowing_sum_inside_the_region_warns_nothing(capsys):
    # in the region, so on_dominant_face reads the face row, whose C - R product overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["face", str(SPECS / "uplink_k2l2.json"), "--point=-1e308,-1e308,1,1"])
    out = capsys.readouterr()
    assert out.err == ""
    res = json.loads(out.out)["results"]
    assert (res["in_region"], res["on_dominant_face"], res["on_dominant_face_alt"]) == (
        True, False, False)
    assert code == 1
