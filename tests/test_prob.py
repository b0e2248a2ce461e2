"""Entropy/mutual-information engine checks against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranregions import DownlinkSpec, JointLaw, LawError, UplinkSpec, entropy, mutual_info
from cranregions.prob import build_uplink_joint

from conftest import bsc, bsc_chain_spec, identity_chain_spec, random_uplink_spec


def h2(p):
    """Binary entropy, the hand oracle for everything below."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestEntropy:
    def test_fair_bit(self):
        law = JointLaw(("X",), np.array([0.5, 0.5]))
        assert entropy(law, ["X"]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_set(self):
        law = JointLaw(("X",), np.array([0.3, 0.7]))
        assert entropy(law, []) == 0.0

    def test_biased_bit_oracle(self):
        # h2(0.11) computed independently of the library
        law = JointLaw(("X",), np.array([0.89, 0.11]))
        assert entropy(law, ["X"]) == pytest.approx(h2(0.11), abs=1e-12)

    def test_joint_of_independent_pair_adds(self):
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        law = JointLaw(("A", "B"), p)
        assert entropy(law, ["A", "B"]) == pytest.approx(
            h2(0.3) + h2(0.6), abs=1e-12
        )

    def test_memoization_returns_same_object_value(self):
        law = JointLaw(("A", "B"), np.outer([0.5, 0.5], [0.25, 0.75]))
        v1 = entropy(law, ["A", "B"])
        v2 = entropy(law, ["B", "A"])  # frozenset key: order-insensitive
        assert v1 == v2


class TestMutualInfo:
    def test_identity_channel_is_one_bit(self):
        law = JointLaw(("X", "Y"), 0.5 * np.eye(2))
        assert mutual_info(law, ["X"], ["Y"]) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_capacity_oracle(self):
        # uniform input through BSC(0.11): I = 1 - h2(0.11)
        p = (bsc(0.11).T * np.array([0.5, 0.5])).T
        law = JointLaw(("X", "Y"), p)
        assert mutual_info(law, ["X"], ["Y"]) == pytest.approx(
            1.0 - h2(0.11), abs=1e-12
        )

    def test_independent_pair_is_zero(self):
        law = JointLaw(("A", "B"), np.outer([0.2, 0.8], [0.55, 0.45]))
        assert mutual_info(law, ["A"], ["B"]) == 0.0

    def test_overlap_rejected(self):
        law = JointLaw(("A", "B"), np.outer([0.5, 0.5], [0.5, 0.5]))
        with pytest.raises(LawError):
            mutual_info(law, ["A"], ["A"])
        with pytest.raises(LawError):
            mutual_info(law, ["A"], ["B"], ["B"])

    def test_markov_chain_in_uplink_joint(self):
        # construction guarantees Yh - Y - X
        law = build_uplink_joint(bsc_chain_spec(0.1, 0.05))
        assert mutual_info(law, ["X1"], ["Yh1"], ["Y1"]) <= 1e-12

    def test_input_independence_in_uplink_joint(self, rng):
        law = build_uplink_joint(random_uplink_spec(rng))
        assert mutual_info(law, ["X1"], ["X2"]) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_chain_rule(self, seed):
        """I(X;YZ) = I(X;Y) + I(X;Z|Y) on random three-variable laws."""
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        law = JointLaw(("X", "Y", "Z"), p)
        lhs = mutual_info(law, ["X"], ["Y", "Z"])
        rhs = mutual_info(law, ["X"], ["Y"]) + mutual_info(law, ["X"], ["Z"], ["Y"])
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        law = JointLaw(("X", "Y", "Z"), p)
        assert mutual_info(law, ["X"], ["Y"], ["Z"]) >= 0.0


class TestValidation:
    def test_negative_probability(self):
        with pytest.raises(LawError):
            JointLaw(("X",), np.array([1.1, -0.1]))

    def test_unnormalized(self):
        with pytest.raises(LawError):
            JointLaw(("X",), np.array([0.5, 0.4]))

    def test_duplicate_names(self):
        with pytest.raises(LawError):
            JointLaw(("X", "X"), 0.25 * np.ones((2, 2)))

    def test_name_count_mismatch(self):
        with pytest.raises(LawError):
            JointLaw(("X",), 0.25 * np.ones((2, 2)))

    def test_bad_channel_row_named_in_error(self):
        chan = np.eye(2)
        chan[1, 1] = 0.5  # row 1 sums to 0.5
        from cranregions import UplinkSpec

        with pytest.raises(LawError, match=r"row \(1,\)"):
            UplinkSpec(
                K=1,
                L=1,
                input_pmfs=(np.array([0.5, 0.5]),),
                channel=chan,
                test_channels=(np.eye(2),),
            )


    @pytest.mark.parametrize(
        "make, field",
        [
            (
                lambda: UplinkSpec(
                    K=1, L=1, input_pmfs=([math.nan, math.nan],),
                    channel=np.eye(2), test_channels=(np.eye(2),),
                ),
                "input pmf",
            ),
            (
                lambda: UplinkSpec(
                    K=1, L=1, input_pmfs=([0.5, 0.5],),
                    channel=[[math.inf, 0.0], [0.0, 1.0]], test_channels=(np.eye(2),),
                ),
                "channel",
            ),
            (
                lambda: DownlinkSpec(
                    K=1, L=1, aux_joint=[[math.nan, 0.5], [0.0, 0.5]], channel=np.eye(2)
                ),
                "aux joint",
            ),
        ],
        ids=["nan-input-pmf", "inf-channel", "nan-aux-joint"],
    )
    def test_non_finite_entries_rejected(self, make, field):
        with pytest.raises(LawError, match=f"non-finite entries in {field}"):
            make()


def test_uplink_joint_normalized_and_shaped():
    law = build_uplink_joint(identity_chain_spec())
    assert law.names == ("X1", "Y1", "Yh1")
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # noiseless chain: all mass on the diagonal
    assert law.probs[0, 0, 0] == pytest.approx(0.5)
    assert law.probs[1, 1, 1] == pytest.approx(0.5)
