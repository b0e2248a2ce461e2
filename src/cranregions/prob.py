"""Finite-alphabet probability engine.

Joint laws are dense probability tensors over a tuple of named variables.
All entropies and mutual informations are in bits.  Target scale is small
(a handful of variables with alphabet sizes <= 4), so exact tensor sums
are used throughout; there is no sampling or sparsity anywhere.  Each law
keeps one entropy cache keyed by variable bitmask (bit i for `names[i]`),
which `entropies`, `mutual_infos` and `gather` read on arrays of masks and
the name-keyed `entropy` and `mutual_info` on their names' mask.

Every tolerance of the package is defined here and imported from here:

    INPUT_NORM_TOL      1e-9   sum-to-one check of user-supplied pmfs and rows
    CLAMP_TOL           1e-12  information values this close to zero clamp to >= 0
    MEMBERSHIP_TOL      1e-9   least slack a region member may have
    ACTIVE_TOL          1e-8   |slack| at which a constraint counts as tight
    PIVOT_TOL           1e-7   smallest pivot of the rank computations
    DEDUP_TOL           1e-8   infinity-norm distance below which points coincide
    NEGATIVE_RATE_TOL   1e-9   coordinates below minus this are flagged negative
    CORNER_MATCH_TOL    1e-9   agreement of the two corner procedures
    FACE_TOL            1e-8   dominant-face and sub-face predicates
    MI_ZERO_TOL         1e-10  a mutual information this small counts as zero
    MERGE_TOL           1e-12  virtual joint merged back onto the original
    TELESCOPE_TOL       1e-9   telescoping gap of a splitting-map point
    INVERT_TOL          1e-4   default residual bound of the splitting-map inversion
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

INPUT_NORM_TOL = 1e-9
CLAMP_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
ACTIVE_TOL = 1e-8
PIVOT_TOL = 1e-7
DEDUP_TOL = 1e-8
NEGATIVE_RATE_TOL = 1e-9
CORNER_MATCH_TOL = 1e-9
FACE_TOL = 1e-8
MI_ZERO_TOL = 1e-10
MERGE_TOL = 1e-12
TELESCOPE_TOL = 1e-9
INVERT_TOL = 1e-4


class LawError(ValueError):
    """Raised for invalid probability inputs (normalization, shape, names)."""


_BUILT_OVER = {"uplink": "an uplink law over X1..XK, Y1..YL, Yh1..YhL",
               "downlink": "a downlink law over U1..UK, X1..XL, Y1..YK"}


@dataclass(frozen=True)
class JointLaw:
    """Dense joint probability tensor over named finite-alphabet variables.

    `names[i]` labels axis `i` of `probs`.  Immutable after construction;
    all queries are pure functions of the tensor, so what is derived from the
    law alone (entropies by variable bitmask, regions, corners) is cached on it.
    `build_uplink_joint` and `build_downlink_joint` stamp `built` with the
    law's direction, K and L, which `dims` reads.
    """

    names: tuple[str, ...]
    probs: np.ndarray
    _entropy_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)
    built: tuple | None = field(default=None, repr=False, compare=False)  # (direction, K, L)

    def __post_init__(self):
        names = tuple(self.names)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "probs", probs)
        if len(names) != probs.ndim:
            raise LawError(
                f"{len(names)} variable names but tensor has {probs.ndim} axes"
            )
        if len(set(names)) != len(names):
            raise LawError(f"duplicate variable names in {names}")
        _check_pmf(probs, "joint law")
        probs.setflags(write=False)

    def __eq__(self, other):  # the generated one compares the arrays elementwise and raises
        if not isinstance(other, JointLaw):
            return NotImplemented
        return self.names == other.names and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.names)

    def dims(self, direction: str) -> tuple[int, int]:
        """(K, L) of a law that `build_<direction>_joint` built; LawError for
        a law of the other direction or one built by hand."""
        if self.built is None or self.built[0] != direction:
            raise LawError(f"not {_BUILT_OVER[direction]}: {self.names}")
        return self.built[1:]

    def memo(self, key, build):
        """build(), computed once per `key` for this law and kept."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def axes(self, names) -> tuple[int, ...]:
        idx = []
        for n in names:
            if n not in self.names:
                raise LawError(f"unknown variable name {n!r}; have {self.names}")
            idx.append(self.names.index(n))
        return tuple(idx)


def entropy(law: JointLaw, names) -> float:
    """Joint entropy H(names) in bits, read from the law's cache under the
    variable bitmask of `names` (see `entropies`); H of the empty set is 0."""
    return _mask_entropy(law, sum(1 << i for i in set(law.axes(names))))


def _mask_entropy(law: JointLaw, m: int) -> float:
    """H of the variable bitmask m from the law's cache; on a miss, summed from
    the full tensor over the axes that m drops, and kept."""
    cache = law._entropy_cache
    if m not in cache:
        drop = tuple(i for i in range(law.probs.ndim) if not m >> i & 1)
        cache[m] = entropy_of(law.probs.sum(axis=drop)) if m else 0.0
    return cache[m]


def entropy_of(probs: np.ndarray) -> float:
    """Entropy in bits of a probability tensor, over all its entries."""
    p = probs.ravel()
    p = p[p > 0]
    return float(-(p @ np.log2(p)))


def clamp_info(val: float) -> float:
    """An information value, clamped to >= 0 within CLAMP_TOL of zero."""
    if abs(val) <= CLAMP_TOL:
        return max(val, 0.0)
    return val


def clamp_infos(val: np.ndarray) -> np.ndarray:
    """Information values, each clamped as `clamp_info` clamps it."""
    return np.where((-CLAMP_TOL <= val) & (val < 0.0), 0.0, val)  # -0.0 stays, as in max


def mutual_info(law: JointLaw, a, b, c=()) -> float:
    """Conditional mutual information I(a; b | c) in bits.

    `a`, `b`, `c` are iterables of variable names.  `a` and `b` must be
    disjoint from each other and from `c`.  Values within CLAMP_TOL of
    zero are clamped to be nonnegative.
    """
    a, b, c = set(a), set(b), set(c)
    overlap = (a & b) | (a & c) | (b & c)
    if overlap:
        raise LawError(f"overlapping variable sets in mutual_info: {sorted(overlap)}")
    return clamp_info(
        entropy(law, a | c)
        + entropy(law, b | c)
        - entropy(law, a | b | c)
        - entropy(law, c)
    )


def entropies(law: JointLaw, masks) -> np.ndarray:
    """H of each variable bitmask of an integer array, bit i standing for
    `law.names[i]`, in an array of the masks' shape.  Each distinct mask is
    read once from the law's cache, keyed by the mask itself, which `entropy`
    shares."""
    masks = np.asarray(masks, dtype=np.int64)
    distinct, where = np.unique(masks, return_inverse=True)
    h = np.array([_mask_entropy(law, m) for m in distinct.tolist()])
    return h[where].reshape(masks.shape)


def mutual_infos(law: JointLaw, a, b, c=0) -> np.ndarray:
    """I(a; b | c) elementwise for broadcast arrays of variable bitmasks (see
    `entropies`): the terms of `mutual_info` added in its order and clamped
    as `clamp_info` does, so each value has the bits `mutual_info` gives."""
    a, b, c = np.broadcast_arrays(*(np.asarray(m, dtype=np.int64) for m in (a, b, c)))
    overlap = np.bitwise_or.reduce((a & b) | (a & c) | (b & c), axis=None)
    if overlap:
        names = [n for i, n in enumerate(law.names) if int(overlap) >> i & 1]
        raise LawError(f"overlapping variable sets in mutual_infos: {sorted(names)}")
    h = entropies(law, np.stack([a | c, b | c, a | b | c, c]))
    return clamp_infos(h[0] + h[1] - h[2] - h[3])


def gather(law: JointLaw, terms) -> list:
    """I(a; b | c) for each (a, b, c) of broadcast mask arrays, one array per
    term, from one `mutual_infos` call."""
    terms = [np.broadcast_arrays(*(np.asarray(m, dtype=np.int64) for m in t)) for t in terms]
    values = mutual_infos(law, *(np.concatenate([t[i] for t in terms]) for i in range(3)))
    return np.split(values, np.cumsum([len(t[0]) for t in terms])[:-1])


def _check_pmf(p: np.ndarray, what: str):
    if not np.all(np.isfinite(p)):
        raise LawError(f"non-finite entries in {what}")
    if np.any(p < 0):
        raise LawError(f"negative entries in {what}")
    s = p.sum()
    if abs(s - 1.0) > INPUT_NORM_TOL:
        raise LawError(f"non-normalized {what} (sum = {s!r})")


def _check_rows(t: np.ndarray, n_in: int, what: str):
    """Each row (fixed first n_in axes) of a conditional tensor must be a pmf."""
    if not np.all(np.isfinite(t)):
        raise LawError(f"non-finite entries in {what}")
    if np.any(t < 0):
        raise LawError(f"negative entries in {what}")
    sums = t.sum(axis=tuple(range(n_in, t.ndim)))
    bad = np.abs(sums - 1.0) > INPUT_NORM_TOL
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise LawError(f"non-normalized row {idx} of {what} (sum = {sums[idx]!r})")


@dataclass(frozen=True)
class UplinkSpec:
    """Channel-and-distribution description of a K-user, L-relay uplink.

    input_pmfs[k] is the pmf of X_{k+1}; `channel` has shape
    (|X_1|,...,|X_K|, |Y_1|,...,|Y_L|); test_channels[l] has shape
    (|Y_{l+1}|, |Yhat_{l+1}|).  The arrays are read-only copies of the
    inputs, so the joint law `law`, built once on first use, stays valid.
    """

    K: int
    L: int
    input_pmfs: tuple[np.ndarray, ...]
    channel: np.ndarray
    test_channels: tuple[np.ndarray, ...]

    def __post_init__(self):
        pmfs = tuple(np.array(p, dtype=float) for p in self.input_pmfs)
        channel = np.array(self.channel, dtype=float)
        tcs = tuple(np.array(t, dtype=float) for t in self.test_channels)
        for a in (*pmfs, channel, *tcs):
            a.setflags(write=False)
        object.__setattr__(self, "input_pmfs", pmfs)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "test_channels", tcs)
        if len(pmfs) != self.K:
            raise LawError(f"expected {self.K} input pmfs, got {len(pmfs)}")
        if len(tcs) != self.L:
            raise LawError(f"expected {self.L} test channels, got {len(tcs)}")
        if channel.ndim != self.K + self.L:
            raise LawError(
                f"channel tensor has {channel.ndim} axes, expected K+L = {self.K + self.L}"
            )
        for k, p in enumerate(pmfs, start=1):
            _check_pmf(p, f"input pmf for X{k}")
            if channel.shape[k - 1] != len(p):
                raise LawError(
                    f"channel axis X{k} has size {channel.shape[k - 1]}, "
                    f"input pmf has size {len(p)}"
                )
        _check_rows(channel, self.K, "channel p(y|x)")
        for l, t in enumerate(tcs, start=1):
            if t.ndim != 2:
                raise LawError(f"test channel for relay {l} must be 2-D")
            if t.shape[0] != channel.shape[self.K + l - 1]:
                raise LawError(
                    f"test channel axis Y{l} has size {t.shape[0]}, "
                    f"channel output has size {channel.shape[self.K + l - 1]}"
                )
            _check_rows(t, 1, f"test channel p(yhat{l}|y{l})")

    @property
    def quantizer_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.test_channels)

    @cached_property
    def law(self) -> JointLaw:
        return build_uplink_joint(self)


@dataclass(frozen=True)
class DownlinkSpec:
    """Description of a K-user, L-relay downlink.

    `aux_joint` has shape (|U_1|,...,|U_K|, |X_1|,...,|X_L|); `channel` has
    shape (|X_1|,...,|X_L|, |Y_1|,...,|Y_K|).  As for the uplink, the
    arrays are read-only copies and `law` is built once on first use.
    """

    K: int
    L: int
    aux_joint: np.ndarray
    channel: np.ndarray

    def __post_init__(self):
        aux = np.array(self.aux_joint, dtype=float)
        channel = np.array(self.channel, dtype=float)
        aux.setflags(write=False)
        channel.setflags(write=False)
        object.__setattr__(self, "aux_joint", aux)
        object.__setattr__(self, "channel", channel)
        if aux.ndim != self.K + self.L:
            raise LawError(
                f"aux joint has {aux.ndim} axes, expected K+L = {self.K + self.L}"
            )
        if channel.ndim != self.L + self.K:
            raise LawError(
                f"channel tensor has {channel.ndim} axes, expected L+K = {self.K + self.L}"
            )
        _check_pmf(aux, "aux joint")
        for l in range(self.L):
            if channel.shape[l] != aux.shape[self.K + l]:
                raise LawError(
                    f"channel axis X{l + 1} has size {channel.shape[l]}, "
                    f"aux joint has size {aux.shape[self.K + l]}"
                )
        _check_rows(channel, self.L, "channel p(y|x)")

    @cached_property
    def law(self) -> JointLaw:
        return build_downlink_joint(self)


def build_uplink_joint(spec: UplinkSpec) -> JointLaw:
    """Joint law over (X_1..X_K, Y_1..Y_L, Yhat_1..Yhat_L).

    Assembles prod_k p(x_k) * p(y|x) * prod_l p(yhat_l | y_l), so the
    output satisfies the Markov structure Yhat_l - Y_l - (rest) and the
    mutual independence of the X_k by construction.
    """
    K, L = spec.K, spec.L
    x_sizes = tuple(len(p) for p in spec.input_pmfs)
    y_sizes = spec.channel.shape[K:]
    yh_sizes = spec.quantizer_sizes
    n = K + 2 * L

    px = np.ones(())
    for p in spec.input_pmfs:
        px = np.multiply.outer(px, p)
    joint = px.reshape(x_sizes + (1,) * L) * spec.channel
    joint = joint.reshape(x_sizes + y_sizes + (1,) * L)
    full = np.broadcast_to(joint, x_sizes + y_sizes + yh_sizes).copy()
    for l in range(L):
        shape = [1] * n
        shape[K + l] = y_sizes[l]
        shape[K + L + l] = yh_sizes[l]
        full *= spec.test_channels[l].reshape(shape)

    names = x_names(range(1, K + 1)) + y_names(range(1, L + 1)) + yh_names(range(1, L + 1))
    return JointLaw(names, full, built=("uplink", K, L))


def build_downlink_joint(spec: DownlinkSpec) -> JointLaw:
    """Joint law over (U_1..U_K, X_1..X_L, Y_1..Y_K) = aux_joint * channel."""
    K, L = spec.K, spec.L
    u_sizes = spec.aux_joint.shape[:K]
    x_sizes = spec.aux_joint.shape[K:]
    y_sizes = spec.channel.shape[L:]
    full = spec.aux_joint.reshape(u_sizes + x_sizes + (1,) * K) * spec.channel.reshape(
        (1,) * K + x_sizes + y_sizes
    )
    names = u_names(range(1, K + 1)) + x_names(range(1, L + 1)) + y_names(range(1, K + 1))
    return JointLaw(names, full, built=("downlink", K, L))


def x_names(idx) -> list[str]:
    """X_i for each index i, in increasing order (uplink inputs, downlink relay inputs)."""
    return [f"X{i}" for i in sorted(idx)]


def y_names(idx) -> list[str]:
    """Y_i in increasing order (uplink relay outputs, downlink user outputs)."""
    return [f"Y{i}" for i in sorted(idx)]


def yh_names(idx) -> list[str]:
    """Yh_l in increasing order (uplink quantized relay outputs)."""
    return [f"Yh{l}" for l in sorted(idx)]


def u_names(idx) -> list[str]:
    """U_k in increasing order (downlink auxiliary codewords)."""
    return [f"U{k}" for k in sorted(idx)]
