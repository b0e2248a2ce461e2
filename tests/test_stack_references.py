"""The verify suites on whole stacks against the per-order, per-point and
per-name loops they replace, kept here as references: the greedy corner
procedure, the successive-decoding and successive-encoding corners, the
factorization test of the dominant face, the telescope suite, and the
merge check and rates of the splitting map.  Every shipped spec and seeded
specs up to K+L = 6 are checked."""

import pathlib
from functools import partial

import numpy as np
import pytest

from cranregions import (
    RateFronthaulPoint,
    build_downlink_joint,
    build_uplink_joint,
    mutual_info,
)
from cranregions import downlink as dl
from cranregions import face as df
from cranregions import splitting as sp
from cranregions import suites
from cranregions import uplink as ul
from cranregions.prob import FACE_TOL, LawError
from cranregions.specio import load_spec

from conftest import random_downlink_spec, random_uplink_spec, solve_orders
from test_corner_arrays import quadratic_dedup

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (3, 2), (2, 3), (4, 1), (3, 3), (2, 4), (5, 1)]
SHIPPED = {"uplink": ["identity_k1l1", "uplink_k2l2", "product_k2l2"],
           "downlink": ["downlink_k1l1", "downlink_k2l2"]}
CASES = [(d, name) for d, names in SHIPPED.items() for name in names] + [
    (d, (K, L)) for d in ("uplink", "downlink") for K, L in SHAPES]


def _spec(direction, case):
    if isinstance(case, str):
        return load_spec(SPECS / f"{case}.json")
    K, L = case
    rng = np.random.default_rng(3000 + 10 * K + L)
    return (random_uplink_spec if direction == "uplink" else random_downlink_spec)(rng, K, L)


def _ids(case):
    return case if isinstance(case, str) else "k%dl%d" % case


UPLINK = [c for d, c in CASES if d == "uplink"]


# --- the references ---


def loop_greedy(slack, order):
    """Reference: one scalar slack per step of one solve order."""
    K, L = order.K, order.L
    vec = np.zeros(K + L)
    for k, (a, b) in enumerate(zip(order.a, order.b), start=1):
        I, J = order.index_sets(k)
        point = RateFronthaulPoint.from_vector(vec.copy(), K, L)
        if a == 1:
            vec[b - 1] = slack(point, I | {b}, J)
        else:
            vec[K + b - 1] = -slack(point, I, J | {b})
    return vec


def loop_sd_corner(law, order):
    """Reference: the successive-decoding corner, one decoded variable at a time."""
    R, C = np.zeros(order.K), np.zeros(order.L)
    before = []
    for lab in order.labels:
        if lab.startswith("Yh"):
            l = int(lab[2:])
            C[l - 1] = mutual_info(law, [f"Y{l}"], [lab]) - mutual_info(law, [lab], before)
        else:
            R[int(lab[1:]) - 1] = mutual_info(law, [lab], before)
        before.append(lab)
    return np.concatenate([R, C])


def loop_se_corner(law, order):
    """Reference: the successive-encoding corner, one encoded variable at a time."""
    R, C = np.zeros(order.K), np.zeros(order.L)
    before = []
    for lab in order.labels:
        if lab.startswith("U"):
            k = int(lab[1:])
            R[k - 1] = mutual_info(law, [lab], [f"Y{k}"]) - mutual_info(law, [lab], before)
        else:
            C[int(lab[1:]) - 1] = mutual_info(law, [lab], before)
        before.append(lab)
    return np.concatenate([R, C])


def scan_factorization(law, q):
    """Reference: every product of the two deduplicated projections has a vertex
    within FACE_TOL, and there are as many vertices as products."""
    K, L = ul.uplink_dims(law)
    enum = ul.enumerate_corners(law)
    mat = enum.points[enum.kept]
    mask = q.mask(K, L)
    proj_a = mat[:, mask][quadratic_dedup(mat[:, mask], FACE_TOL)]
    proj_b = mat[:, ~mask][quadratic_dedup(mat[:, ~mask], FACE_TOL)]
    if len(mat) != len(proj_a) * len(proj_b):
        return False
    for ra in proj_a:
        for rb in proj_b:
            vec = np.empty(K + L)
            vec[mask], vec[~mask] = ra, rb
            if not np.any(np.max(np.abs(mat - vec), axis=1) <= FACE_TOL):
                return False
    return True


def loop_face_decomposition(law, q, samples, seed, tol):
    """Reference: the face decomposition check with the face corners found by
    in_face_FST, which checks the dominant face again for every query."""
    K, L = ul.uplink_dims(law)
    rng = np.random.default_rng(seed)
    enum = ul.enumerate_corners(law)
    vertices = enum.points[enum.kept]
    mat = vertices[df.in_face_FST(law, vertices, q, tol)]
    if not len(mat):
        return 0, 0
    ones = np.ones(len(mat))
    points = np.vstack([mat, rng.dirichlet(ones, size=samples) @ mat])
    forward = df.in_sub_face_DST(law, points, q, tol) & df.in_sub_face_cond(law, points, q, tol)
    w = rng.dirichlet(ones, size=(samples, 2))
    converse = df.in_face_FST(law, np.where(q.mask(K, L), w[:, 0] @ mat, w[:, 1] @ mat), q, tol)
    return int(np.sum(~forward)), int(np.sum(~converse))


def loop_telescope(spec, seed, samples):
    """Reference: one alpha draw, one psi call and one face check per sample;
    the gap is the scalar slack of the ([K], [L]) constraint."""
    law = spec.law
    rng = np.random.default_rng(seed)
    alphas, worst, on_face = [], 0.0, True
    for _ in range(samples):
        alpha = rng.uniform(0.0, 1.0, size=spec.K + spec.L - 1)
        point = sp.psi(spec, alpha)
        gap = ul.jd_slack(law, point, range(1, spec.K + 1), range(1, spec.L + 1))
        worst = max(worst, abs(gap))
        on_face = on_face and bool(df.on_dominant_face(law, point, tol=FACE_TOL))
        alphas.append(alpha)
    return np.array(alphas), worst, on_face


def add_at_merge(vc):
    """Reference: the pushforward through the merge maps by one np.add.at."""
    grid = dict(zip(vc.joint.names, np.indices(vc.joint.probs.shape)))
    idx = [grid["X1"]]
    idx += [np.maximum(grid[f"X{i}a"], grid[f"X{i}b"]) for i in range(2, vc.K + 1)]
    idx += [grid[f"Y{l}"] for l in range(1, vc.L + 1)]
    idx += [np.maximum(grid[f"Yh{l}c"], grid[f"Yh{l}d"]) for l in range(1, vc.L + 1)]
    out = np.zeros((2,) * (vc.K + 2 * vc.L))
    np.add.at(out, tuple(idx), vc.joint.probs)
    return out


def name_beta_rates(vc, config):
    """Reference: each rate as a mutual information of named virtual variables."""
    betas, decoded = {}, []
    for lab in config.order:
        if lab == "1" or lab[-1] in "ab":
            var = f"X{lab}"
            betas[lab] = mutual_info(vc.joint, [var], decoded)
        else:
            var = f"Yh{lab}"
            betas[lab] = mutual_info(vc.joint, [f"Y{lab[:-1]}"], [var], decoded)
        decoded.append(var)
    return betas


# --- the comparisons ---


@pytest.mark.parametrize("direction, case", CASES, ids=lambda c: _ids(c))
def test_greedy_stack_matches_per_order_loop(direction, case):
    spec = _spec(direction, case)
    if direction == "uplink":
        law, slack, iterative = spec.law, ul.jd_slack, ul.corner_iterative
        enum = ul.enumerate_corners(spec.law)
    else:
        law, slack, iterative = spec.law, dl.je_slack, dl.downlink_corner_iterative
        enum = dl.downlink_enumerate_corners(spec.law)
    ref = np.array([loop_greedy(partial(slack, law), o) for o in solve_orders(spec.K, spec.L)])
    stack = iterative(law, enum.perms)
    assert np.array_equal(stack, ref)  # bit for bit, so max_deviation is too
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(ref, enum.points))
    suite = suites.suite_lemma1 if direction == "uplink" else suites.suite_lemma7
    assert suite(spec)[1]["max_deviation"] == worst
    order = next(iter(solve_orders(spec.K, spec.L)))
    assert np.array_equal(iterative(law, order).as_vector(), ref[0])


@pytest.mark.parametrize("direction, case", CASES, ids=lambda c: _ids(c))
def test_successive_table_matches_per_order_loop(direction, case):
    spec = _spec(direction, case)
    law = spec.law
    orders = list(solve_orders(spec.K, spec.L))
    perms = ul.solve_perms(spec.K, spec.L)
    if direction == "uplink":
        coded = [ul.solve_order_to_decode_order(o) for o in orders]
        ref = np.array([loop_sd_corner(law, o) for o in coded])
        stack, one = ul.sd_corner(law, perms[:, ::-1]), ul.sd_corner(law, coded[-1])
    else:
        coded = [dl.solve_order_to_encode_order(o) for o in orders]
        ref = np.array([loop_se_corner(law, o) for o in coded])
        stack, one = dl.se_corner(law, perms), dl.se_corner(law, coded[-1])
    assert [o.perm for o in coded] == [tuple(p) for p in (perms[:, ::-1] if direction == "uplink"
                                                          else perms)]
    assert np.array_equal(stack, ref)
    assert np.array_equal(one.as_vector(), ref[-1])


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_factorization_count_matches_product_scan(case):
    spec = _spec("uplink", case)
    verdicts = []
    for q in suites._admissible_queries(spec.K, spec.L):
        verdicts.append(df.check_degenerate_factorization(spec.law, q))
        assert verdicts[-1] == scan_factorization(spec.law, q), q
    if case == "product_k2l2":  # the network splits, as users and relays 1 | 2
        assert any(verdicts) and not all(verdicts)


def test_factorization_count_on_a_product_of_point_sets():
    """Vertex sets built as products, with one vertex moved off the product, and
    projections that repeat exactly or to within FACE_TOL."""
    rng = np.random.default_rng(8)
    a, b = rng.random((5, 2)), rng.random((4, 3))
    mat = np.array([np.concatenate([x, y]) for x in a for y in b])
    law = build_uplink_joint(random_uplink_spec(rng, 2, 3))
    q = df.FaceQuery({1, 2}, set())

    def verdicts(points):
        enum = ul.CornerEnumeration(2, 3, np.zeros((len(points), 5), dtype=int), points,
                                    np.arange(len(points)))
        law._memo.clear()
        law._memo[("jd corners", ul.DEDUP_TOL)] = enum
        return df.check_degenerate_factorization(law, q), scan_factorization(law, q)

    assert verdicts(mat) == (True, True)
    moved = mat.copy()
    moved[3, 4] += 0.5
    assert verdicts(moved) == (False, False)
    jitter = mat + rng.uniform(-0.4, 0.4, size=mat.shape) * FACE_TOL
    assert verdicts(jitter) == (True, True)
    assert verdicts(mat[:-1]) == (False, False)
    repeat = mat.copy()  # as many vertices as products, but one pair twice
    repeat[1, 2:] = mat[0, 2:] + 0.5 * FACE_TOL
    assert verdicts(repeat) == (False, False)


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_face_decomposition_matches_per_query_face_check(case):
    spec = _spec("uplink", case)
    faces = 0
    for tol in (FACE_TOL, 0.05):  # the face mask of the vertices is kept per tolerance
        for q in suites._admissible_queries(spec.K, spec.L):
            rep = df.check_face_decomposition(spec.law, q, samples=15, seed=2, tol=tol)
            assert (rep.forward_failures, rep.converse_failures) == \
                loop_face_decomposition(spec.law, q, 15, 2, tol), (q, tol)
            faces += bool(df.in_face_FST(spec.law, ul.enumerate_corners(spec.law).points, q).any())
    assert faces  # some query has corners on its face


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_telescope_matches_scalar_loop(case, monkeypatch):
    spec = _spec("uplink", case)
    alphas, worst, on_face = loop_telescope(spec, seed=4, samples=12)
    seen = []
    psi = sp.psi
    monkeypatch.setattr(sp, "psi", lambda spec, alpha: seen.append(np.array(alpha)) or
                        psi(spec, alpha))
    ok, details = suites.suite_telescope(spec, seed=4, samples=12)
    assert np.array_equal(np.array(seen), alphas)  # the same draws
    assert details["all_on_dominant_face"] == on_face
    assert abs(details["max_telescoping_gap"] - worst) <= 1e-15  # a few ulps of the coordinates
    assert ok == (worst <= 1e-9 and on_face)


@pytest.mark.parametrize("case", UPLINK, ids=_ids)
def test_merge_and_rates_match_name_based(case):
    spec = _spec("uplink", case)
    rng = np.random.default_rng(9)
    for alpha in rng.uniform(0.0, 1.0, size=(6, spec.K + spec.L - 1)):
        config = sp.decode_order_from_alpha(spec.K, spec.L, alpha)
        vc = sp.build_virtual_cran(spec, config)
        assert np.max(np.abs(vc.merged_joint() - add_at_merge(vc))) <= 1e-13
        betas, point = sp.beta_rates(vc, config)
        assert not vc.joint._entropy_cache  # the virtual law stays lazy
        ref = name_beta_rates(vc, config)
        assert betas.keys() == ref.keys()
        assert max(abs(betas[k] - ref[k]) for k in ref) <= 1e-13


def test_direction_functions_refuse_the_other_direction():
    up = build_uplink_joint(random_uplink_spec(np.random.default_rng(1), 3, 2))
    down = build_downlink_joint(random_downlink_spec(np.random.default_rng(1), 2, 3))
    for fn in (ul.uplink_dims, ul.enumerate_corners, ul.jd_region, df.dominant_face_dimension):
        with pytest.raises(LawError, match="not an uplink law"):
            fn(down)
    for fn in (dl.downlink_dims, dl.downlink_enumerate_corners, dl.je_region):
        with pytest.raises(LawError, match="not a downlink law"):
            fn(up)
    assert ul.uplink_dims(up) == (3, 2) and dl.downlink_dims(down) == (2, 3)


@pytest.mark.parametrize("work", [0, 10**12])
def test_dedup_settles_alike_in_rounds_and_in_order(work, monkeypatch):
    """Both ways of settling the close pairs, each forced, against the quadratic
    reference; kept indices name the first kept row within tol."""
    monkeypatch.setattr(ul, "ROUNDS_WORK", work)
    rng = np.random.default_rng(12)
    base = rng.normal(size=(30, 3))
    chain = np.cumsum(np.full((12, 3), 0.6e-3), axis=0)  # each within tol of the next only
    pts = np.vstack([base, base[rng.integers(30, size=60)] + rng.uniform(-1.2e-3, 1.2e-3, (60, 3)),
                     base[:5], chain, [[np.inf, 0, 0]], [[np.inf, 0, 0]]])
    pts = pts[rng.permutation(len(pts))]
    for tol in (0.0, 1e-3, 0.5):
        kept_of = ul.dedup_index(pts, tol)
        kept = quadratic_dedup(pts, tol)
        assert np.flatnonzero(kept_of == np.arange(len(pts))).tolist() == kept
        with np.errstate(invalid="ignore"):  # inf - inf in a non-finite row
            for i, k in enumerate(kept_of):
                close = [j for j in kept if np.max(np.abs(pts[j] - pts[i])) <= tol]
                assert k == (close[0] if close else i)
    spec = _spec("uplink", (3, 2))
    enum = ul.enumerate_corners(spec.law)
    for tol in (ul.DEDUP_TOL, 0.05):
        kept_of = ul.dedup_index(enum.points, tol)
        assert np.flatnonzero(kept_of == np.arange(len(kept_of))).tolist() == \
            quadratic_dedup(enum.points, tol)
