"""Entropy/mutual-information engine checks against closed-form oracles."""

import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranregions import DownlinkSpec, JointLaw, LawError, UplinkSpec, entropy, mutual_info
from cranregions.prob import build_uplink_joint, entropies, mutual_infos
from cranregions.specio import load_spec

from conftest import bsc, bsc_chain_spec, identity_chain_spec, random_uplink_spec

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


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


def _names(law, mask):
    return [n for i, n in enumerate(law.names) if mask >> i & 1]


class TestMaskGather:
    """`entropies` and `mutual_infos` on variable bitmasks against the
    name-keyed `entropy` and `mutual_info`, bit for bit."""

    @pytest.mark.parametrize("spec", ["identity_k1l1", "uplink_k2l2", "product_k2l2",
                                      "downlink_k1l1", "downlink_k2l2"])
    def test_every_disjoint_triple_matches_mutual_info(self, spec):
        law = load_spec(SPECS / f"{spec}.json").law
        n = len(law.names)
        # each variable in a, b, c or in none of them: every disjoint triple once
        place = np.array(list(itertools.product(range(4), repeat=n))).T
        a, b, c = (((place == part).T * (1 << np.arange(n))).sum(axis=1) for part in range(3))
        want = np.array([mutual_info(law, _names(law, x), _names(law, y), _names(law, z))
                         for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())])
        assert mutual_infos(law, a, b, c).tobytes() == want.tobytes()
        h = np.array([entropy(law, _names(law, m)) for m in range(1 << n)])
        assert entropies(law, np.arange(1 << n)[::-1]).tobytes() == h[::-1].tobytes()

    def test_clamp_keeps_negative_zero_as_max_does(self):
        law = JointLaw(("A", "B"), np.full((2, 2), 0.25))
        # cached entropies that make I(A; B) = (-0.0 + -0.0) - 0.0 - 0.0 = -0.0, then
        # ones a rounding below and above zero
        for ha, hab, want in ((-0.0, 0.0, -0.0), (1.0, 2.0 + 1e-13, 0.0), (1.0, 2.0 - 1e-13, None)):
            law._entropy_cache.clear()
            law._entropy_cache.update({0b01: ha, 0b10: ha, 0b11: hab})  # A, B, AB
            one = mutual_info(law, ["A"], ["B"])
            got = mutual_infos(law, [1, 1], [2, 2])
            assert got.tobytes() == np.array([one, one]).tobytes()
            if want is not None:
                assert math.copysign(1.0, one) == math.copysign(1.0, want) and one == want
        assert math.copysign(1.0, float(np.maximum(-0.0, 0.0))) == 1.0  # why max, not np.maximum

    def test_overlap_rejected(self):
        law = JointLaw(("X", "Y", "Z"), np.full((2, 2, 2), 0.125))
        assert mutual_infos(law, [1, 2], [2, 4], 0).shape == (2,)
        with pytest.raises(LawError, match="overlapping.*'Y'"):
            mutual_infos(law, [1, 2], [2, 2], 0)


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
