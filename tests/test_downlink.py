"""Joint-encoding region, downlink corner procedures, and the successive
encoding equivalence (solve order maps to encode order without reversal)."""

import pathlib

import numpy as np
import pytest

from cranregions import (
    downlink_corner_closed,
    downlink_corner_iterative,
    downlink_enumerate_corners,
    in_je_region,
    istar,
    je_slack,
    se_corner,
    verify_downlink_corner,
)
from cranregions.prob import LawError, build_downlink_joint
from cranregions.specio import load_spec
from cranregions.suites import suite_thm3
from cranregions.uplink import solve_perms

from conftest import downlink_k1l1_spec, random_downlink_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


class TestIstar:
    def test_pairwise_equals_mutual_info(self):
        law = build_downlink_joint(downlink_k1l1_spec())
        # single variable: zero by definition
        assert istar(law, ["U1"]) == 0.0
        assert istar(law, []) == 0.0

    def test_mixed_groups_rejected(self):
        law = build_downlink_joint(downlink_k1l1_spec())
        with pytest.raises(LawError):
            istar(law, ["U1", "X1"])

    def test_singletons_add_left_to_right(self):
        """The singleton entropies add in order, not compensated as the built-in
        sum adds them from Python 3.12 on: 1 + 1e-16 + 1e-16 is 1.0."""
        law = build_downlink_joint(random_downlink_spec(np.random.default_rng(1), 3, 1))
        h = law.H.copy()
        h[[0b001, 0b010, 0b100, 0b111]] = 1.0, 1e-16, 1e-16, 0.5  # U1..U3
        law._memo["entropy vector"] = h
        assert istar(law, ["U1", "U2", "U3"]) == 0.5

    def test_independent_components_vanish(self, rng):
        law = build_downlink_joint(random_downlink_spec(rng))
        # istar over one variable is always zero; over two it is their MI
        from cranregions import mutual_info

        assert istar(law, ["U1", "U2"]) == pytest.approx(
            mutual_info(law, ["U1"], ["U2"]), abs=1e-12
        )


class TestRegion:
    def test_k1l1_constraint_oracle(self):
        """Single pair: C1 - R1 >= I(U;X) - I(U;Y) + 0 + 0."""
        law = build_downlink_joint(downlink_k1l1_spec())
        from cranregions import mutual_info

        rhs = mutual_info(law, ["U1"], ["X1"]) - mutual_info(law, ["U1"], ["Y1"])
        assert je_slack(law, np.zeros(2), [1], [1]) == pytest.approx(-rhs, abs=1e-12)

    def test_origin_membership(self):
        law = build_downlink_joint(downlink_k1l1_spec())
        # R = 0, C large is always feasible
        assert in_je_region(law, [[0.0, 5.0]])[0]


class TestCornerEquivalence:
    def test_iterative_matches_closed(self, rng):
        perms = solve_perms(2, 2)
        for _ in range(5):
            law = build_downlink_joint(random_downlink_spec(rng))
            a = downlink_corner_iterative(law, perms)
            gap = np.max(np.abs(a - downlink_corner_closed(law, perms)), axis=1)
            assert np.all(gap <= 1e-9), perms[gap > 1e-9]

    def test_k1l1_closed_form_oracle(self):
        law = build_downlink_joint(downlink_k1l1_spec())
        from cranregions import mutual_info

        ((R, C),) = downlink_corner_closed(law, [[0, 1]])  # R1, then C1
        assert R == pytest.approx(mutual_info(law, ["U1"], ["Y1"]), abs=1e-12)
        assert C == pytest.approx(mutual_info(law, ["X1"], ["U1"]), abs=1e-12)


class TestSuccessiveEncoding:
    def test_order_map_no_reversal(self, rng):
        """Solving (R2, C1, R1, C2) reaches the corner of encoding (U2, X1, U1, X2),
        the same row, and not that of encoding the row reversed."""
        law = build_downlink_joint(random_downlink_spec(rng))
        solve = np.array([[1, 2, 0, 3]])  # U1, U2, X1, X2 are 0, 1, 2, 3
        corner = downlink_corner_closed(law, solve)
        assert np.max(np.abs(se_corner(law, solve) - corner)) <= 1e-9
        assert np.max(np.abs(se_corner(law, solve[:, ::-1]) - corner)) > 1e-3

    def test_corner_equals_se_corner(self, rng):
        perms = solve_perms(2, 2)
        for _ in range(5):
            law = build_downlink_joint(random_downlink_spec(rng))
            gap = np.max(np.abs(downlink_corner_iterative(law, perms) - se_corner(law, perms)),
                         axis=1)
            assert np.all(gap <= 1e-9), perms[gap > 1e-9]

    def test_thm3_measures_se_corners_against_greedy_corners(self):
        """thm3 compares the successive-encoding corners with the independent greedy
        corners, so its deviation is theirs and, on this spec, not 0."""
        spec = load_spec(SPECS / "downlink_k2l2.json")
        perms, law = solve_perms(2, 2), spec.law
        worst = np.max(np.abs(se_corner(law, perms) - downlink_corner_iterative(law, perms)))
        assert worst > 0.0
        assert suite_thm3(spec)[1]["max_deviation"] == worst

    def test_se_corners_in_region(self, rng):
        law = build_downlink_joint(random_downlink_spec(rng))
        assert np.all(in_je_region(law, se_corner(law, solve_perms(2, 2)), tol=1e-9))


class TestVerifyAndEnumerate:
    def test_all_corners_verify(self, rng):
        law = build_downlink_joint(random_downlink_spec(rng))
        for vec in downlink_enumerate_corners(law).points:
            rep = verify_downlink_corner(law, vec[None])  # one point, as a stack of one
            assert rep.is_corner[0]

    def test_negative_rates_flagged_not_clamped(self, rng):
        """Encoding a user late can push its computed rate below zero; the
        raw value must survive so the equivalences stay exact."""
        found = False
        for seed in range(10):
            law = build_downlink_joint(
                random_downlink_spec(np.random.default_rng(seed))
            )
            for vec in downlink_enumerate_corners(law).points:
                rep = verify_downlink_corner(law, vec[None])
                if rep.negative_coords[0]:
                    found = True
                    assert np.min(vec) < 0
        assert found
