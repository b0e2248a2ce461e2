"""The corner set as arrays against scalar references kept here: the
closed-form table and its gather against the per-order loop, the batched
exact-rank corner check against the per-corner float elimination, and the
windowed dedup against the quadratic one."""

import math
import pathlib

import numpy as np
import pytest

from cranregions import (
    build_downlink_joint,
    build_uplink_joint,
    downlink_corner_closed,
    downlink_enumerate_corners,
    enumerate_corners,
    corner_closed,
    mutual_info,
    verify_corner,
    verify_downlink_corner,
)
from cranregions.downlink import je_region
from cranregions.face import face_bounds
from cranregions.prob import ACTIVE_TOL, DEDUP_TOL, MEMBERSHIP_TOL, NEGATIVE_RATE_TOL, PIVOT_TOL
from cranregions.specio import load_spec
from cranregions.uplink import (
    Region,
    _row_rank,
    _tight_ranks,
    check_corner,
    coord_labels,
    dedup_points,
    jd_region,
    solve_perms,
)

from conftest import prefix_sets, random_downlink_spec, random_uplink_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (3, 2), (2, 3), (4, 1), (3, 3), (2, 4), (5, 1)]
CASES = [(d, K, L) for d in ("uplink", "downlink") for K, L in SHAPES]


def _law(direction, K, L, seed=0):
    rng = np.random.default_rng(2000 + 10 * K + L + seed)
    if direction == "uplink":
        return build_uplink_joint(random_uplink_spec(rng, K, L))
    return build_downlink_joint(random_downlink_spec(rng, K, L))


def _direction(direction):
    """(enumerate, verify, region, closed form) of one direction."""
    if direction == "uplink":
        return enumerate_corners, verify_corner, jd_region, corner_closed
    return downlink_enumerate_corners, verify_downlink_corner, je_region, downlink_corner_closed


# --- scalar references ---


def _xs(prefix, idx):
    return [f"{prefix}{i}" for i in sorted(idx)]


def loop_corner(law, direction, perm, K, L):
    """Reference: the closed form solved one step of the order at a time."""
    vec = np.zeros(K + L)
    for k, c in enumerate(perm, start=1):
        I, J = prefix_sets(perm, k, K)
        a, b = (1, c + 1) if c < K else (0, c - K + 1)
        if direction == "uplink":
            Ic, Jc = set(range(1, K + 1)) - I, set(range(1, L + 1)) - J
            if a:
                vec[b - 1] = mutual_info(law, [f"X{b}"], _xs("Yh", Jc), _xs("X", Ic - {b}))
            else:
                vec[K + b - 1] = mutual_info(law, [f"Y{b}"], [f"Yh{b}"]) - mutual_info(
                    law, [f"Yh{b}"], _xs("X", Ic) + _xs("Yh", Jc - {b}))
        elif a:
            vec[b - 1] = mutual_info(law, [f"U{b}"], [f"Y{b}"]) - mutual_info(
                law, [f"U{b}"], _xs("U", I) + _xs("X", J))
        else:
            vec[K + b - 1] = mutual_info(law, [f"X{b}"], _xs("U", I) + _xs("X", J))
    return vec


def loop_row_rank(rows):
    """Reference: Gaussian elimination with one row update at a time."""
    if len(rows) == 0:
        return 0
    a = np.array(rows, dtype=float)
    rank = 0
    for col in range(a.shape[1]):
        if rank >= a.shape[0]:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= PIVOT_TOL:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        for r in range(a.shape[0]):
            if r != rank:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


def point_check(region, vec):
    """Reference: (in_region, rank, is_corner, negative_coords) of one point,
    the rank by float elimination of its tight rows."""
    K = int(np.count_nonzero((region.A < 0).any(axis=0)))
    s = region.slacks(vec[None])[0]  # one point, as a stack of one
    tight = (np.abs(s) <= ACTIVE_TOL) & region.A.any(axis=1)
    rank = loop_row_rank(region.A[tight])
    in_region = bool(s.min() >= -MEMBERSHIP_TOL)
    negative = tuple(lab for lab, v in zip(coord_labels(K, len(vec) - K), vec)
                     if v < -NEGATIVE_RATE_TOL)
    return in_region, rank, in_region and rank >= len(vec), negative


def quadratic_dedup(vecs, tol):
    """Reference: indices kept by comparing each point with every point kept so far."""
    kept, mat = [], np.empty_like(vecs)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
        for i, v in enumerate(vecs):
            if not np.any(np.max(np.abs(mat[:len(kept)] - v), axis=1) <= tol):
                mat[len(kept)] = v
                kept.append(i)
    return kept


def _kept_indices(vecs, tol):
    return dedup_points(list(vecs), tol).tolist()  # a list of rows, as a tracer passes them


def _stack_reports(report):
    return list(zip(report.in_region.tolist(), report.rank.tolist(),
                    report.is_corner.tolist(), report.negative_coords))


# --- the closed-form table and its gather ---


@pytest.mark.parametrize("direction, K, L", CASES)
def test_corner_matrix_matches_per_order_loop(direction, K, L):
    law = _law(direction, K, L)
    enumerate_, _, _, closed = _direction(direction)
    enum = enumerate_(law)
    perms = solve_perms(K, L).tolist()
    ref = np.array([loop_corner(law, direction, p, K, L) for p in perms])
    assert np.array_equal(enum.points, ref)  # bit for bit
    assert enum.perms.tolist() == perms
    labels = coord_labels(K, L)
    assert enum.order_labels == [",".join(labels[c] for c in p) for p in perms]
    for i in (0, len(perms) // 3, len(perms) - 1):  # a one-row stack reads the same table
        assert np.array_equal(closed(law, [perms[i]]), ref[i:i + 1])


def test_corner_matrix_matches_per_order_loop_at_seven_coordinates():
    for direction, (K, L) in (("uplink", (4, 3)), ("downlink", (3, 4))):
        law = _law(direction, K, L)
        enum = _direction(direction)[0](law)
        rows = range(0, math.factorial(K + L), 7)
        perms = solve_perms(K, L)
        ref = np.array([loop_corner(law, direction, perms[i].tolist(), K, L) for i in rows])
        assert np.array_equal(enum.points[list(rows)], ref)
        if direction == "uplink":  # the reference takes about 1.5 s
            assert enum.kept.tolist() == quadratic_dedup(enum.points, DEDUP_TOL)
        stack = verify_corner(law, enum.points) if direction == "uplink" else \
            verify_downlink_corner(law, enum.points)
        region = _direction(direction)[2](law)
        assert [_stack_reports(stack)[i] for i in rows] == \
            [point_check(region, enum.points[i]) for i in rows]


def test_solve_order_perm_names_the_coordinates():
    enum = enumerate_corners(_law("uplink", 2, 2))
    assert enum.order_labels[enum.perms.tolist().index([3, 0, 2, 1])] == "C2,R1,C1,R2"


# --- the batched exact-rank corner check ---


def _probe_points(enum, rng, n=60):
    """Corners, corners nudged off their tight rows, and random box points."""
    pts = enum.points
    lo, hi = pts.min(axis=0) - 0.25, pts.max(axis=0) + 0.25
    picks = pts[rng.integers(len(pts), size=n)]
    nudged = picks + rng.choice([0.0, 1e-6, -1e-6], size=picks.shape)
    return np.vstack([pts, nudged, rng.uniform(lo, hi, size=(n, pts.shape[1]))])


@pytest.mark.parametrize("direction, K, L", CASES)
def test_batched_check_matches_per_corner_check(direction, K, L):
    law = _law(direction, K, L)
    enumerate_, verify, region_of, _ = _direction(direction)
    enum, region = enumerate_(law), region_of(law)
    points = _probe_points(enum, np.random.default_rng(K * 10 + L))
    got = _stack_reports(verify(law, points))
    assert got == [point_check(region, p) for p in points]
    assert all(c for _, _, c, _ in got[:len(enum.points)])  # every corner is one
    assert {c for _, _, c, _ in got} == {True, False}
    for p, row in zip(points[::17], got[::17]):  # one point is a stack of one
        assert _stack_reports(check_corner(region, p[None])) == [row]


def test_check_in_chunks_matches_one_stack(monkeypatch):
    law = _law("downlink", 2, 3)
    points = _probe_points(downlink_enumerate_corners(law), np.random.default_rng(5))
    whole = _stack_reports(verify_downlink_corner(law, points))
    assert any(neg for _, _, _, neg in whole)
    monkeypatch.setattr("cranregions.uplink.STACK_CHUNK", 7)
    monkeypatch.setattr("cranregions.uplink.RANK_CHUNK", 50)  # a few points per elimination
    assert _stack_reports(verify_downlink_corner(law, points)) == whole


def test_degenerate_spec_has_rank_deficient_tight_sets():
    law = load_spec(SPECS / "product_k2l2.json").law
    enum, region = enumerate_corners(law), jd_region(law)
    points = _probe_points(enum, np.random.default_rng(1), n=200)
    got = _stack_reports(verify_corner(law, points))
    assert got == [point_check(region, p) for p in points]
    assert {rank for _, rank, _, _ in got} >= {2, 3, 4}


def _twice(region):
    """The region with every row repeated."""
    return Region(*(np.concatenate([a, a]) for a in (region.A, region.lb, region.ub)))


def test_duplicated_tight_rows_count_once():
    law = _law("uplink", 2, 2)
    region = jd_region(law)
    twice = _twice(region)
    points = _probe_points(enumerate_corners(law), np.random.default_rng(2))
    got = _stack_reports(check_corner(twice, points))
    assert got == _stack_reports(check_corner(region, points))
    assert got == [point_check(twice, p) for p in points]


def test_orders_need_one_row_per_bitmask():
    """The chain of a solve order reads row m for the bitmask m of each prefix,
    so `check_corner` refuses orders with a region of other rows, naming both
    shapes: the face caps, which lack the first and last pair, and a region
    with every row twice.  Without orders they get the exact rank."""
    law = _law("uplink", 2, 2)
    enum = enumerate_corners(law)
    for other in (face_bounds(law)[1], _twice(jd_region(law))):
        with pytest.raises(ValueError, match=rf"\(16, 4\).*\({len(other.A)}, 4\)"):
            check_corner(other, enum.points, enum.perms)
        assert check_corner(other, enum.points).rank.max() == 4


def test_exact_rank_matches_float_rank_on_random_sign_rows():
    rng = np.random.default_rng(7)
    for d in (1, 3, 5, 8):
        normals = rng.integers(-1, 2, size=(40, d))
        normals[5] = normals[3]  # a repeated row
        normals[6] = -normals[4]  # and a negated one
        tight = rng.random((300, 40)) < rng.uniform(0.02, 0.4, size=(300, 1))
        tight[0] = False  # no tight row at all
        got = _tight_ranks(normals, tight)
        assert got.tolist() == [loop_row_rank(normals[t]) for t in tight]


# --- _row_rank, one outer product per pivot ---


def test_row_rank_matches_row_loop():
    rng = np.random.default_rng(3)
    for n, d, r in ((6, 4, 4), (9, 8, 5), (30, 7, 7), (12, 6, 2), (3, 5, 3)):
        full = rng.normal(size=(n, d))
        low = rng.normal(size=(n, r)) @ rng.normal(size=(r, d))
        scaled = low * np.logspace(-9, 0, d)  # columns near the pivot threshold
        for m in (full, low, scaled):
            assert _row_rank(m) == loop_row_rank(m)
    assert _row_rank([]) == loop_row_rank([]) == 0
    for direction, K, L in CASES:
        vertices = _direction(direction)[0](_law(direction, K, L)).points
        diffs = vertices[1:] - vertices[0]
        assert _row_rank(diffs) == loop_row_rank(diffs)


# --- the windowed dedup ---


@pytest.mark.parametrize("direction, K, L", CASES)
def test_dedup_matches_quadratic_on_corners(direction, K, L):
    points = _direction(direction)[0](_law(direction, K, L)).points
    for tol in (0.0, DEDUP_TOL, 1e-3, 0.1):
        assert _kept_indices(points, tol) == quadratic_dedup(points, tol)


def test_dedup_matches_quadratic_on_near_duplicates():
    rng = np.random.default_rng(11)
    for d, tol in ((1, 1e-8), (3, 1e-3), (6, 0.05), (8, 1e-8)):
        base = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(40, d))
        copies = base[rng.integers(40, size=200)]
        jitter = tol * rng.uniform(-1.2, 1.2, size=copies.shape)
        same_sum = np.roll(copies, 1, axis=1)  # every coordinate moved, the sum kept
        pts = np.vstack([base, copies + jitter, same_sum, copies + tol])
        pts = pts[rng.permutation(len(pts))]
        kept = _kept_indices(pts, tol)
        assert kept == quadratic_dedup(pts, tol)
        assert len(kept) < len(pts)


def test_dedup_window_reaches_the_tolerance_boundary():
    """Copies moved by just under tol in every coordinate have weighted means
    about tol apart, at the edge of the window."""
    rng = np.random.default_rng(5)
    d, tol = 8, 1e-3
    u = rng.uniform(100.0, 200.0, size=(2000, d))
    v = u + tol
    for _ in range(4):  # step down by one ulp where the rounded distance exceeds tol
        v = np.where(np.abs(v - u) > tol, np.nextafter(v, u), v)
    assert np.all(np.max(np.abs(v - u), axis=1) <= tol)
    pts = np.vstack([u, v])
    assert _kept_indices(pts, tol) == quadratic_dedup(pts, tol) == list(range(len(u)))


def test_dedup_keeps_points_and_non_finite_rows():
    a, b, c = np.array([0.5, 1.0]), np.array([0.5 + 1e-9, 1.0]), np.array([0.75, 1.0])
    assert dedup_points([a, b, c]).tolist() == [0, 2]
    assert dedup_points([]).tolist() == []
    rows = np.array([[np.inf, 0.0], [np.inf, 0.0], [np.nan, 1.0], [1e308, 1e308],
                     [1e308, 1e308], [0.0, 0.0]])
    assert _kept_indices(rows, DEDUP_TOL) == quadratic_dedup(rows, DEDUP_TOL) == [0, 1, 2, 3, 5]
    assert _kept_indices(rows[3:], 1.7e308) == quadratic_dedup(rows[3:], 1.7e308) == [0]  # no warning


def test_enumeration_objects_follow_the_arrays():
    law = _law("uplink", 2, 2)
    enum = enumerate_corners(law)
    assert [tuple(v) for v in enum.vertices] == [tuple(enum.points[i]) for i in enum.kept]
    assert not enum.points.flags.writeable and not enum.vertices.flags.writeable
    assert len(set(enum.order_labels)) == math.factorial(4)
