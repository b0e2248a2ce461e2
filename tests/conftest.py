import itertools

import numpy as np
import pytest

from cranregions import DownlinkSpec, UplinkSpec
from cranregions.uplink import Region, region_rows


def bsc(p: float) -> np.ndarray:
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def identity_chain_spec() -> UplinkSpec:
    """X -> Y -> Yhat, everything a noiseless bit."""
    return UplinkSpec(
        K=1,
        L=1,
        input_pmfs=(np.array([0.5, 0.5]),),
        channel=np.eye(2),
        test_channels=(np.eye(2),),
    )


def bsc_chain_spec(p: float = 0.1, q: float = 0.05) -> UplinkSpec:
    return UplinkSpec(
        K=1,
        L=1,
        input_pmfs=(np.array([0.5, 0.5]),),
        channel=bsc(p),
        test_channels=(bsc(q),),
    )


def k2l2_bsc_spec() -> UplinkSpec:
    """Coupled 2-user, 2-relay network: relay 1 sees X1 xor X2, relay 2 sees X2."""
    chan = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            chan[x1, x2] = np.outer(bsc(0.1)[x1 ^ x2], bsc(0.2)[x2])
    return UplinkSpec(
        K=2,
        L=2,
        input_pmfs=(np.array([0.6, 0.4]), np.array([0.5, 0.5])),
        channel=chan,
        test_channels=(bsc(0.05), bsc(0.1)),
    )


def product_spec() -> UplinkSpec:
    """Two independent single-user chains side by side."""
    chan = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            chan[x1, x2] = np.outer(bsc(0.1)[x1], bsc(0.2)[x2])
    return UplinkSpec(
        K=2,
        L=2,
        input_pmfs=(np.array([0.5, 0.5]), np.array([0.7, 0.3])),
        channel=chan,
        test_channels=(bsc(0.05), bsc(0.15)),
    )


def random_uplink_spec(rng: np.random.Generator, K: int = 2, L: int = 2) -> UplinkSpec:
    """Random binary spec with Dirichlet rows.

    Each relay observes its own noisy function of all inputs, so the
    channel factors as p(y|x) = prod_l p(y_l | x); the successive-coding
    equivalences rely on this conditional independence across relays
    (with a coupled p(y_1, y_2 | x) the corner procedures genuinely
    disagree, at the 1e-4 level).
    """
    pmfs = tuple(rng.dirichlet(np.ones(2)) for _ in range(K))
    factors = [
        rng.dirichlet(np.ones(2), size=2**K).reshape((2,) * K + (2,))
        for _ in range(L)
    ]
    chan = np.ones((2,) * (K + L))
    for l, f in enumerate(factors):
        shape = (2,) * K + tuple(2 if i == l else 1 for i in range(L))
        chan = chan * f.reshape(shape)
    tcs = tuple(rng.dirichlet(np.ones(2), size=2) for _ in range(L))
    return UplinkSpec(K=K, L=L, input_pmfs=pmfs, channel=chan, test_channels=tcs)


def random_downlink_spec(rng: np.random.Generator, K: int = 2, L: int = 2) -> DownlinkSpec:
    aux = rng.dirichlet(np.ones(2 ** (K + L))).reshape((2,) * (K + L))
    chan = rng.dirichlet(np.ones(2**K), size=2**L).reshape((2,) * (L + K))
    return DownlinkSpec(K=K, L=L, aux_joint=aux, channel=chan)


def downlink_k1l1_spec() -> DownlinkSpec:
    aux = np.array([[0.4, 0.1], [0.1, 0.4]])
    return DownlinkSpec(K=1, L=1, aux_joint=aux, channel=bsc(0.1))


def prefix_sets(perm, k: int, K: int) -> tuple[set, set]:
    """(I_k, J_k): the users and relays (1-based) solved strictly before step k
    (1-based) of a solve-order row, whose entries number R_1..R_K, C_1..C_L
    as 0..K+L-1."""
    I = {c + 1 for c in perm[:k - 1] if c < K}
    J = {c - K + 1 for c in perm[:k - 1] if c >= K}
    return I, J


def subsets(items):
    """All subsets of `items` (as tuples), smallest first."""
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def pair_of_row(i: int, K: int, L: int) -> tuple[set, set]:
    """The (S, T) sets of row i of a full region, read off its coordinate
    bitmask i: user k is bit k - 1, relay l bit K + l - 1."""
    return ({k + 1 for k in range(K) if i >> k & 1},
            {l + 1 for l in range(L) if i >> (K + l) & 1})


def build_region(K: int, L: int, users, relays, bounds) -> Region:
    """Reference: the rows of `region_rows` whose pair lies within `users` and
    `relays`, picked by bitmask in row order, bounds(S, T) giving one row's
    (lb, ub), S and T as sets, one pair at a time."""
    A = region_rows(K, L)
    pairs = [pair_of_row(i, K, L) for i in range(len(A))]
    rows = [i for i, (S, T) in enumerate(pairs) if S <= set(users) and T <= set(relays)]
    lb, ub = np.array([bounds(*pairs[i]) for i in rows], dtype=float).T
    return Region(A[rows], lb, ub)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
