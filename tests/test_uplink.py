"""Joint-decoding region, corner procedures, and the successive-decoding
equivalence.  The closed form and the iterative procedure are checked
against each other and against hand-computed oracles on small chains.
"""

import itertools
import math

import numpy as np
import pytest

from cranregions import (
    DecodeOrder,
    RateFronthaulPoint,
    SolveOrder,
    corner_closed,
    corner_iterative,
    enumerate_corners,
    in_jd_region,
    jd_slack,
    min_jd_slack,
    sd_corner,
    solve_order_to_decode_order,
    verify_corner,
)
from cranregions.prob import build_uplink_joint
from cranregions.uplink import build_region, greedy_corner, solve_perms, uplink_dims

from conftest import (
    bsc,
    bsc_chain_spec,
    identity_chain_spec,
    k2l2_bsc_spec,
    random_uplink_spec,
)
from test_prob import h2


def all_solve_orders(K, L):
    labels = [f"R{i}" for i in range(1, K + 1)] + [f"C{j}" for j in range(1, L + 1)]
    return [SolveOrder(p, K, L) for p in itertools.permutations(labels)]


class TestSolveOrder:
    def test_index_sets_worked_example(self):
        # K=3, L=2, order (R3, R1, C2, R2, C1)
        order = SolveOrder(("R3", "R1", "C2", "R2", "C1"), 3, 2)
        assert order.a == (1, 1, 0, 1, 0)
        assert order.b == (3, 1, 2, 2, 1)
        assert order.index_sets(1) == (set(), set())
        assert order.index_sets(2) == ({3}, set())
        assert order.index_sets(3) == ({1, 3}, set())
        assert order.index_sets(4) == ({1, 3}, {2})
        assert order.index_sets(5) == ({1, 2, 3}, {2})

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            SolveOrder(("R1", "R1"), 1, 1)
        with pytest.raises(ValueError):
            SolveOrder(("R1", "C2"), 1, 1)

    def test_from_labels_infers_dims(self):
        order = SolveOrder.from_labels(["C1", "R2", "R1"])
        assert (order.K, order.L) == (2, 1)


class TestSlack:
    def test_bsc_chain_oracle(self):
        """Origin violates the fronthaul constraint by exactly the conditional MI."""
        law = build_uplink_joint(bsc_chain_spec(0.1, 0.05))
        origin = RateFronthaulPoint(np.zeros(1), np.zeros(1))
        # Y = X + Bern(0.1), Yh = Y + Bern(0.05); I(Y;Yh|X) = h2(0.14) - h2(0.05)
        expect = -(h2(0.1 * 0.95 + 0.9 * 0.05) - h2(0.05))
        assert jd_slack(law, origin, [], [1]) == pytest.approx(expect, abs=1e-12)

    def test_identity_chain_membership(self):
        law = build_uplink_joint(identity_chain_spec())
        assert in_jd_region(law, RateFronthaulPoint(np.zeros(1), np.zeros(1)))
        assert in_jd_region(law, RateFronthaulPoint(np.array([0.5]), np.array([1.0])))
        # rate exceeding fronthaul is infeasible
        assert not in_jd_region(law, RateFronthaulPoint(np.array([1.5]), np.array([1.0])))

    def test_min_slack_value(self):
        law = build_uplink_joint(identity_chain_spec())
        best, (S, T) = min_jd_slack(
            law, RateFronthaulPoint(np.array([2.0]), np.array([1.0]))
        )
        assert best == pytest.approx(-1.0)
        assert S == {1}


class TestGreedyCorner:
    """The greedy core on a modular slack, with no entropies involved."""

    def test_modular_slack_gives_its_own_point_for_every_order(self):
        # f(S, T) = c*(T) - r*(S); dyadic values keep every sum exact
        star = RateFronthaulPoint(np.array([0.5, 0.25]), np.array([1.0, 0.75]))

        def f(S, T):
            return star.c_sum(T) - star.r_sum(S)

        region = build_region(2, 2, range(1, 3), range(1, 3), lambda S, T: (f(S, T), np.inf))
        terms = np.array([[-f(S, T)] for S, T in region.pairs])
        for order in all_solve_orders(2, 2):
            corner = greedy_corner(region, terms, order)
            assert corner.R.tolist() == star.R.tolist(), order.labels
            assert corner.C.tolist() == star.C.tolist(), order.labels
        stack = greedy_corner(region, terms, solve_perms(2, 2))
        assert (stack == star.as_vector()).all()


class TestCornerEquivalence:
    """Iterative and closed-form corner procedures agree everywhere."""

    def test_identity_chain_corners(self):
        law = build_uplink_joint(identity_chain_spec())
        # solving R first hits (1, 1), solving C first hits (0, 0)
        assert corner_closed(law, SolveOrder(("R1", "C1"), 1, 1)).as_vector() == pytest.approx(
            [1.0, 1.0]
        )
        assert corner_closed(law, SolveOrder(("C1", "R1"), 1, 1)).as_vector() == pytest.approx(
            [0.0, 0.0]
        )

    def test_iterative_matches_closed_k2l2(self):
        law = build_uplink_joint(k2l2_bsc_spec())
        for order in all_solve_orders(2, 2):
            a = corner_iterative(law, order).as_vector()
            b = corner_closed(law, order).as_vector()
            assert np.max(np.abs(a - b)) <= 1e-9, order.labels

    def test_iterative_matches_closed_random(self, rng):
        for _ in range(5):
            law = build_uplink_joint(random_uplink_spec(rng))
            for order in all_solve_orders(2, 2):
                a = corner_iterative(law, order).as_vector()
                b = corner_closed(law, order).as_vector()
                assert np.max(np.abs(a - b)) <= 1e-9


class TestSuccessiveDecoding:
    def test_reversal_map(self):
        order = SolveOrder(("R2", "C1", "R1", "C2"), 2, 2)
        decode = solve_order_to_decode_order(order)
        assert decode.labels == ("Yh2", "X1", "Yh1", "X2")

    def test_corner_equals_sd_under_reversed_order(self, rng):
        for _ in range(5):
            law = build_uplink_joint(random_uplink_spec(rng))
            for order in all_solve_orders(2, 2):
                corner = corner_closed(law, order)
                sd = sd_corner(law, solve_order_to_decode_order(order))
                assert np.max(
                    np.abs(corner.as_vector() - sd.as_vector())
                ) <= 1e-9, order.labels

    def test_all_sd_corners_in_region(self, rng):
        law = build_uplink_joint(random_uplink_spec(rng))
        labels = ["X1", "X2", "Yh1", "Yh2"]
        for perm in itertools.permutations(labels):
            sd = sd_corner(law, DecodeOrder(tuple(perm), 2, 2))
            assert in_jd_region(law, sd, tol=1e-9)

    def test_identity_chain_sd_oracle(self):
        law = build_uplink_joint(identity_chain_spec())
        # decode Yh first, then X: C = I(Y;Yh) = 1, R = I(X;Yh) = 1
        p = sd_corner(law, DecodeOrder(("Yh1", "X1"), 1, 1))
        assert p.as_vector() == pytest.approx([1.0, 1.0])
        # decode X first (impossible for free): R = I(X;nothing) = 0
        p = sd_corner(law, DecodeOrder(("X1", "Yh1"), 1, 1))
        assert p.as_vector() == pytest.approx([0.0, 0.0])


class TestVerifyCorner:
    def test_corners_verify(self, rng):
        law = build_uplink_joint(random_uplink_spec(rng))
        for _, point in enumerate_corners(law).corners:
            rep = verify_corner(law, point)
            assert rep.in_region
            assert rep.rank >= 4
            assert rep.is_corner

    def test_interior_point_is_not_corner(self):
        law = build_uplink_joint(identity_chain_spec())
        rep = verify_corner(law, RateFronthaulPoint(np.array([0.25]), np.array([1.5])))
        assert rep.in_region and not rep.is_corner

    def test_outside_point_flagged(self):
        law = build_uplink_joint(identity_chain_spec())
        rep = verify_corner(law, RateFronthaulPoint(np.array([2.0]), np.array([0.0])))
        assert not rep.in_region and not rep.is_corner


class TestEnumeration:
    def test_counts(self):
        law = build_uplink_joint(k2l2_bsc_spec())
        enum = enumerate_corners(law)
        assert len(enum.corners) == math.factorial(4)
        assert 1 <= len(enum.vertices) <= 24

    def test_identity_chain_two_vertices(self):
        law = build_uplink_joint(identity_chain_spec())
        enum = enumerate_corners(law)
        vs = sorted(tuple(v.as_vector()) for v in enum.vertices)
        assert vs == [(0.0, 0.0), (1.0, 1.0)]

    def test_useless_test_channel_collapses_vertices(self):
        """A constant quantizer makes every fronthaul-first corner hit C=0."""
        from cranregions import UplinkSpec

        spec = UplinkSpec(
            K=1,
            L=1,
            input_pmfs=(np.array([0.5, 0.5]),),
            channel=bsc(0.1),
            test_channels=(np.array([[1.0, 0.0], [1.0, 0.0]]),),
        )
        law = build_uplink_joint(spec)
        enum = enumerate_corners(law)
        assert len(enum.vertices) == 1
        assert enum.vertices[0].as_vector() == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_guard_on_large_networks(self, rng):
        law = build_uplink_joint(random_uplink_spec(rng, K=2, L=2))
        # fake larger dims by renaming is awkward; just check the guard constant
        from cranregions.uplink import MAX_ENUM

        assert MAX_ENUM == 8

    def test_permutation_covariance(self, rng):
        """Swapping the two users permutes corners accordingly."""
        spec = random_uplink_spec(rng)
        law = build_uplink_joint(spec)
        swapped = build_uplink_joint(
            type(spec)(
                K=2,
                L=2,
                input_pmfs=(spec.input_pmfs[1], spec.input_pmfs[0]),
                channel=np.swapaxes(spec.channel, 0, 1),
                test_channels=spec.test_channels,
            )
        )
        order = SolveOrder(("R1", "R2", "C1", "C2"), 2, 2)
        mirror = SolveOrder(("R2", "R1", "C1", "C2"), 2, 2)
        a = corner_closed(law, order)
        b = corner_closed(swapped, mirror)
        assert a.R[0] == pytest.approx(b.R[1], abs=1e-12)
        assert a.R[1] == pytest.approx(b.R[0], abs=1e-12)
        assert np.allclose(a.C, b.C, atol=1e-12)


def test_uplink_dims():
    law = build_uplink_joint(k2l2_bsc_spec())
    assert uplink_dims(law) == (2, 2)
