"""Joint-decoding region, corner procedures, and the successive-decoding
equivalence.  The closed form and the iterative procedure are checked
against each other and against hand-computed oracles on small chains.
"""

import math

import numpy as np
import pytest

from cranregions import (
    corner_closed,
    corner_iterative,
    enumerate_corners,
    in_jd_region,
    jd_slack,
    sd_corner,
    verify_corner,
)
from cranregions.prob import build_uplink_joint
from cranregions.uplink import capacity_minus_rate, greedy_corner, solve_perms

from conftest import (
    bsc,
    bsc_chain_spec,
    build_region,
    identity_chain_spec,
    k2l2_bsc_spec,
    pair_of_row,
    random_uplink_spec,
)
from test_prob import h2


class TestSlack:
    def test_bsc_chain_oracle(self):
        """Origin violates the fronthaul constraint by exactly the conditional MI."""
        law = build_uplink_joint(bsc_chain_spec(0.1, 0.05))
        origin = np.zeros(2)
        # Y = X + Bern(0.1), Yh = Y + Bern(0.05); I(Y;Yh|X) = h2(0.14) - h2(0.05)
        expect = -(h2(0.1 * 0.95 + 0.9 * 0.05) - h2(0.05))
        assert jd_slack(law, origin, [], [1]) == pytest.approx(expect, abs=1e-12)

    def test_pair_out_of_range_rejected(self):
        law = build_uplink_joint(bsc_chain_spec())
        for S, T in (([2], []), ([0], [1]), ([], [2])):
            with pytest.raises(ValueError, match="no constraint"):
                jd_slack(law, np.zeros(2), S, T)

    def test_identity_chain_membership(self):
        law = build_uplink_joint(identity_chain_spec())
        assert in_jd_region(law, [[0.0, 0.0]])[0]
        assert in_jd_region(law, [[0.5, 1.0]])[0]
        # rate exceeding fronthaul is infeasible
        assert not in_jd_region(law, [[1.5, 1.0]])[0]

class TestGreedyCorner:
    """The greedy core on a modular slack, with no entropies involved."""

    def test_modular_slack_gives_its_own_point_for_every_order(self):
        # f(S, T) = c*(T) - r*(S); dyadic values keep every sum exact
        star = np.array([0.5, 0.25, 1.0, 0.75])

        def f(S, T):
            return capacity_minus_rate(star, 2, S, T)

        region = build_region(2, 2, range(1, 3), range(1, 3), lambda S, T: (f(S, T), np.inf))
        terms = np.array([[-f(*pair_of_row(i, 2, 2))] for i in range(len(region.A))])
        perms = solve_perms(2, 2)
        corners = greedy_corner(region, terms, perms)
        assert corners.tolist() == [star.tolist()] * len(perms)


class TestCornerEquivalence:
    """Iterative and closed-form corner procedures agree everywhere."""

    def test_identity_chain_corners(self):
        law = build_uplink_joint(identity_chain_spec())
        # solving R first (row 0, 1) hits (1, 1), solving C first (row 1, 0) hits (0, 0)
        assert np.allclose(corner_closed(law, [[0, 1], [1, 0]]), [[1.0, 1.0], [0.0, 0.0]],
                           rtol=1e-6, atol=1e-12)

    def test_iterative_matches_closed_k2l2(self):
        law = build_uplink_joint(k2l2_bsc_spec())
        perms = solve_perms(2, 2)
        gap = np.max(np.abs(corner_iterative(law, perms) - corner_closed(law, perms)), axis=1)
        assert np.all(gap <= 1e-9), perms[gap > 1e-9]

    def test_iterative_matches_closed_random(self, rng):
        perms = solve_perms(2, 2)
        for _ in range(5):
            law = build_uplink_joint(random_uplink_spec(rng))
            assert np.max(np.abs(corner_iterative(law, perms) - corner_closed(law, perms))) <= 1e-9


class TestSuccessiveDecoding:
    def test_reversal_map(self):
        """Solving (R2, C1, R1, C2) reaches the corner of decoding (Yh2, X1, Yh1, X2),
        the row reversed, and not that of decoding the row as it stands."""
        law = build_uplink_joint(k2l2_bsc_spec())
        solve = np.array([[1, 2, 0, 3]])
        decode = solve[:, ::-1]
        assert decode.tolist() == [[3, 0, 2, 1]]  # X1, X2, Yh1, Yh2 are 0, 1, 2, 3
        corner = corner_closed(law, solve)
        assert np.max(np.abs(sd_corner(law, decode) - corner)) <= 1e-9
        assert np.max(np.abs(sd_corner(law, solve) - corner)) > 1e-3

    def test_corner_equals_sd_under_reversed_order(self, rng):
        perms = solve_perms(2, 2)
        for _ in range(5):
            law = build_uplink_joint(random_uplink_spec(rng))
            gap = np.max(np.abs(corner_closed(law, perms) - sd_corner(law, perms[:, ::-1])), axis=1)
            assert np.all(gap <= 1e-9), perms[gap > 1e-9]

    def test_all_sd_corners_in_region(self, rng):
        law = build_uplink_joint(random_uplink_spec(rng))
        # every decode order of X1, X2, Yh1, Yh2 is a row of solve_perms(2, 2)
        assert np.all(in_jd_region(law, sd_corner(law, solve_perms(2, 2)), tol=1e-9))

    def test_identity_chain_sd_oracle(self):
        law = build_uplink_joint(identity_chain_spec())
        # decode Yh first, then X (row 1, 0): C = I(Y;Yh) = 1, R = I(X;Yh) = 1
        # decode X first (impossible for free, row 0, 1): R = I(X;nothing) = 0
        assert np.allclose(sd_corner(law, [[1, 0], [0, 1]]), [[1.0, 1.0], [0.0, 0.0]],
                           rtol=1e-6, atol=1e-12)


class TestVerifyCorner:
    def test_corners_verify(self, rng):
        law = build_uplink_joint(random_uplink_spec(rng))
        for vec in enumerate_corners(law).points:
            rep = verify_corner(law, vec[None])  # one point, as a stack of one
            assert rep.in_region[0]
            assert rep.rank[0] >= 4
            assert rep.is_corner[0]

    def test_interior_point_is_not_corner(self):
        law = build_uplink_joint(identity_chain_spec())
        rep = verify_corner(law, [[0.25, 1.5]])
        assert rep.in_region[0] and not rep.is_corner[0]

    def test_outside_point_flagged(self):
        law = build_uplink_joint(identity_chain_spec())
        rep = verify_corner(law, [[2.0, 0.0]])
        assert not rep.in_region[0] and not rep.is_corner[0]


class TestEnumeration:
    def test_counts(self):
        law = build_uplink_joint(k2l2_bsc_spec())
        enum = enumerate_corners(law)
        assert len(enum.points) == math.factorial(4)
        assert 1 <= len(enum.vertices) <= 24

    def test_identity_chain_two_vertices(self):
        law = build_uplink_joint(identity_chain_spec())
        enum = enumerate_corners(law)
        vs = sorted(tuple(v) for v in enum.vertices)
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
        assert enum.vertices[0] == pytest.approx([0.0, 0.0], abs=1e-12)

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
        (a,) = corner_closed(law, [[0, 1, 2, 3]])  # R1, R2, C1, C2
        (b,) = corner_closed(swapped, [[1, 0, 2, 3]])  # R2, R1, C1, C2
        assert a[0] == pytest.approx(b[1], abs=1e-12)
        assert a[1] == pytest.approx(b[0], abs=1e-12)
        assert np.allclose(a[2:], b[2:], atol=1e-12)


def test_built_law_knows_its_direction():
    law = build_uplink_joint(random_uplink_spec(np.random.default_rng(2), 3, 1))
    assert law.built == ("uplink", 3, 1) and law.dims("uplink") == (3, 1)
