"""Dominant-face predicates: the two equivalent descriptions, face
decomposition into sub-face factors, degeneracy and dimension."""

import numpy as np
import pytest

from cranregions import (
    FaceQuery,
    check_degenerate_factorization,
    check_face_decomposition,
    degeneracy_condition,
    dominant_face_dimension,
    enumerate_corners,
    face_gap,
    in_face_FST,
    on_dominant_face,
    on_dominant_face_alt,
    sample_face_points,
)
from cranregions import face as df
from cranregions import suites
from cranregions.prob import FACE_TOL, PIVOT_TOL, build_uplink_joint
from cranregions.face import in_sub_face_DST, in_sub_face_cond
from cranregions.uplink import dedup_index

from conftest import (
    identity_chain_spec,
    k2l2_bsc_spec,
    pair_of_row,
    product_spec,
    random_uplink_spec,
)


def admissible_queries(K, L):
    import itertools

    users = list(range(1, K + 1))
    relays = list(range(1, L + 1))
    out = []
    for rs in range(len(users) + 1):
        for S in itertools.combinations(users, rs):
            for rt in range(len(relays) + 1):
                for T in itertools.combinations(relays, rt):
                    S_, T_ = set(S), set(T)
                    if (S_ | T_) and ((set(users) - S_) | (set(relays) - T_)):
                        out.append(FaceQuery(frozenset(S_), frozenset(T_)))
    return out


class TestDominantFace:
    def test_identity_chain_face_points(self):
        law = build_uplink_joint(identity_chain_spec())
        assert on_dominant_face(law, [[1.0, 1.0]])[0]
        assert on_dominant_face(law, [[0.0, 0.0]])[0]
        assert on_dominant_face(law, [[0.5, 0.5]])[0]
        # in the region but above the face
        assert not on_dominant_face(law, [[0.5, 1.0]])[0]

    def test_face_gap_sign(self):
        law = build_uplink_joint(identity_chain_spec())
        assert face_gap(law, [[0.5, 1.0]])[0] == pytest.approx(0.5)

    def test_all_corners_on_face(self, rng):
        for _ in range(3):
            law = build_uplink_joint(random_uplink_spec(rng))
            for v in enumerate_corners(law).vertices:
                assert on_dominant_face(law, v[None], tol=1e-8)[0]

    def test_descriptions_agree(self, rng):
        """Both face descriptions classify 500 mixed points identically."""
        law = build_uplink_joint(k2l2_bsc_spec())
        pts = list(enumerate_corners(law).vertices)
        pts += list(sample_face_points(law, 250, rng))
        mat = np.array(pts[:4])
        lo, hi = mat.min(axis=0) - 0.25, mat.max(axis=0) + 0.25
        for _ in range(250):
            pts.append(rng.uniform(lo, hi))
        for p in pts:
            assert on_dominant_face(law, p[None])[0] == on_dominant_face_alt(law, p[None])[0]


class TestFaceFST:
    def test_corner_on_its_face(self, rng):
        law = build_uplink_joint(random_uplink_spec(rng))
        # the all-rates-first corner saturates C([L]) - R([K]) and the
        # face with S = [K], T = [L] is inadmissible; use S={1,2}, T={1}
        found_any = False
        for q in admissible_queries(2, 2):
            for v in enumerate_corners(law).vertices:
                if in_face_FST(law, v[None], q)[0]:
                    found_any = True
        assert found_any

    def test_decomposition_forward_and_converse(self, rng):
        law = build_uplink_joint(k2l2_bsc_spec())
        for q in admissible_queries(2, 2):
            rep = check_face_decomposition(law, q)
            assert rep.passed, (sorted(q.S), sorted(q.T))

    def test_perturbed_point_violates_sub_face(self):
        """Pushing a face corner off its face breaks the two-sided bounds."""
        law = build_uplink_joint(k2l2_bsc_spec())
        q = FaceQuery(frozenset({1}), frozenset({1}))
        corners = [
            v for v in enumerate_corners(law).vertices if in_face_FST(law, v[None], q)[0]
        ]
        assert corners
        bad = corners[0].copy()[None]
        bad[0, 0] += 0.1  # raise R_1 without compensating
        assert not (
            in_sub_face_DST(law, bad, q)[0]
            and in_sub_face_cond(law, bad, q)[0]
            and in_face_FST(law, bad, q)[0]
        )


class TestExactFaceCheck:
    """lemma4 counts on the face vertices, with no draws: a vertex missing from a
    product face is one missing pair of projections, and a sub-face bound that
    cuts off one vertex is one forward failure, whatever the seed and sample
    count."""

    @staticmethod
    def _product_face(law):
        """A query whose face is the product of n_a >= 2 and n_b >= 2 projections."""
        K, L = law.dims("uplink")
        for i, q in enumerate(df.face_queries(law)):
            face, mask = df.face_corners(law, q), q.mask(K, L)
            n_a, n_b = (len(np.unique(dedup_index(face[:, m], FACE_TOL))) for m in (mask, ~mask))
            if n_a >= 2 and n_b >= 2 and n_a * n_b == len(face):
                return i, q
        raise AssertionError("no product face with two projections of two or more rows")

    @staticmethod
    def _reports(spec, i):
        return {suites.suite_lemma4(spec, seed=seed, samples=n)[1][
            "S=%s,T=%s" % (sorted(df.face_queries(spec.law)[i].S),
                           sorted(df.face_queries(spec.law)[i].T))]["converse_failures"]
            for seed, n in ((0, 1), (5, 200), (9, 20))}

    def test_a_vertex_dropped_from_a_product_face_is_one_missing_pair(self):
        spec = k2l2_bsc_spec()
        law = spec.law
        i, q = self._product_face(law)
        assert check_face_decomposition(law, q) == df.FaceDecompositionReport(0, 0)
        rows = law.memo(("face corners", FACE_TOL), lambda: df._face_corner_rows(law, FACE_TOL))
        rows[i] = rows[i][1:]  # the face loses its first vertex, and with it one pair
        face, mask = df.face_corners(law, q), q.mask(2, 2)
        a, b = (dedup_index(face[:, m], PIVOT_TOL).tolist() for m in (mask, ~mask))
        missing = len(set(a)) * len(set(b)) - len(set(zip(a, b)))
        assert missing == 1 and check_face_decomposition(law, q).converse_failures == missing
        assert self._reports(spec, i) == {missing}

    def test_a_sub_face_bound_cutting_off_one_vertex_is_one_forward_failure(self):
        law = build_uplink_joint(k2l2_bsc_spec())
        queries = df.face_queries(law)
        face, row, lb, ub = law.memo("sub-face bounds", lambda: df._sub_face_bounds(law))
        for k in range(len(face)):  # a sub-face row with one least face vertex
            q = queries[face[k] // 2]
            values = np.sort(df.face_corners(law, q) @ df.jd_region(law).A[row[k]])
            if len(values) > 1 and values[1] - values[0] > 4 * FACE_TOL:
                lb[k] = (values[0] + values[1]) / 2
                break
        else:
            raise AssertionError("no sub-face row with one least face vertex")
        assert check_face_decomposition(law, q) == df.FaceDecompositionReport(1, 0)

    def test_pairs_merged_at_the_tolerance_scale_count_as_vertices(self):
        """On this seeded (1, 4) spec, with projections told apart at FACE_TOL,
        four pairs of them are no face vertex's: vertices about FACE_TOL apart
        were merged or left off the face.  At PIVOT_TOL, where lemma4 tells
        them apart, every face is a product, as the sampled check found."""
        law = build_uplink_joint(random_uplink_spec(np.random.default_rng(1014), 1, 4))
        rows = law.memo(("face corners", FACE_TOL), lambda: df._face_corner_rows(law, FACE_TOL))
        missing, vertices = 0, enumerate_corners(law).vertices
        for r, m in zip(rows, df.face_bounds(law)[1].A != 0):
            a, b = (dedup_index(vertices[r][:, x], FACE_TOL) for x in (m, ~m))
            missing += len(set(a)) * len(set(b)) - len(set(zip(a, b)))
        assert missing == 4
        assert not df.face_decomposition_failures(law, df.face_queries(law)).any()


class TestDegeneracy:
    def test_product_spec_separating_pair(self):
        law = build_uplink_joint(product_spec())
        q = FaceQuery(frozenset({1}), frozenset({1}))
        assert degeneracy_condition(law, q)
        assert check_degenerate_factorization(law, q)

    def test_coupled_spec_never_degenerate(self):
        law = build_uplink_joint(k2l2_bsc_spec())
        for q in admissible_queries(2, 2):
            assert not degeneracy_condition(law, q), (sorted(q.S), sorted(q.T))

    def test_dimension_drop_iff_product(self):
        dim_prod = dominant_face_dimension(build_uplink_joint(product_spec()))
        dim_coup = dominant_face_dimension(build_uplink_joint(k2l2_bsc_spec()))
        assert dim_prod < 3
        assert dim_coup == 3


class TestFaceQueryValidation:
    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            FaceQuery(frozenset(), frozenset()).validate(2, 2)

    def test_full_union_rejected(self):
        with pytest.raises(ValueError):
            FaceQuery(frozenset({1, 2}), frozenset({1, 2})).validate(2, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            FaceQuery(frozenset({3}), frozenset()).validate(2, 2)


class TestQueryLookup:
    """Query i of `face_queries` is joint-decoding row i + 1: the face bounds
    are gathered over those rows, and the face functions find a query by its
    bitmask, which is that row."""

    def test_queries_are_the_rows_but_the_first_and_last(self):
        for K in range(1, 8):
            for L in range(1, 9 - K):
                pairs = [pair_of_row(i, K, L) for i in range(1 << (K + L))]
                assert list(df.admissible_queries(K, L)) == [
                    FaceQuery(S, T) for S, T in pairs[1:-1]], (K, L)

    @pytest.mark.parametrize("K, L", [(2, 2), (3, 3)])
    def test_lookup_gives_the_position_in_face_queries(self, K, L):
        law = build_uplink_joint(random_uplink_spec(np.random.default_rng(K), K, L))
        queries = df.face_queries(law)
        assert [df._query_index(law, q) for q in queries] == list(range(len(queries)))

    @pytest.mark.parametrize("S, T", [({3}, ()), ((), {3}), ({0}, ()), ((), ()), ({1, 2}, {1, 2})])
    def test_lookup_rejects_what_validate_rejects(self, S, T):
        law = build_uplink_joint(k2l2_bsc_spec())
        q = FaceQuery(frozenset(S), frozenset(T))
        with pytest.raises(ValueError):
            q.validate(2, 2)
        point = np.zeros((1, 4))
        for lookup in (lambda: df._query_index(law, q), lambda: degeneracy_condition(law, q),
                       lambda: df.face_corners(law, q), lambda: check_face_decomposition(law, q),
                       lambda: in_face_FST(law, point, q), lambda: in_sub_face_DST(law, point, q),
                       lambda: in_sub_face_cond(law, point, q)):
            with pytest.raises(ValueError):
                lookup()
