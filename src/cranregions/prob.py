"""Finite-alphabet probability engine.

Joint laws are dense probability tensors over a tuple of named variables.
All entropies and mutual informations are in bits.  Target scale is small
(a handful of variables with alphabet sizes <= 4), so exact tensor sums
are used throughout; there is no sampling or sparsity anywhere.

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

import itertools
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class JointLaw:
    """Dense joint probability tensor over named finite-alphabet variables.

    `names[i]` labels axis `i` of `probs`.  Immutable after construction;
    all queries are pure functions of the tensor, so what is derived from
    the law alone (entropies, regions, corner enumerations) is cached on it.
    """

    names: tuple[str, ...]
    probs: np.ndarray
    _entropy_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

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

    def marginal(self, names) -> np.ndarray:
        """Marginal tensor over `names`, axes in this law's variable order."""
        keep = set(self.axes(names))
        drop = tuple(i for i in range(self.probs.ndim) if i not in keep)
        return self.probs.sum(axis=drop) if drop else self.probs


def entropy(law: JointLaw, names) -> float:
    """Joint entropy H(names) in bits; H of the empty set is 0."""
    key = frozenset(names)
    cached = law._entropy_cache.get(key)
    if cached is not None:
        return cached
    if not key:
        return 0.0
    p = law.marginal(key).ravel()
    p = p[p > 0]
    h = float(-(p @ np.log2(p)))
    law._entropy_cache[key] = h
    return h


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
    val = (
        entropy(law, a | c)
        + entropy(law, b | c)
        - entropy(law, a | b | c)
        - entropy(law, c)
    )
    if abs(val) <= CLAMP_TOL:
        return max(val, 0.0)
    return val


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
    (|Y_{l+1}|, |Yhat_{l+1}|).
    """

    K: int
    L: int
    input_pmfs: tuple[np.ndarray, ...]
    channel: np.ndarray
    test_channels: tuple[np.ndarray, ...]

    def __post_init__(self):
        pmfs = tuple(np.asarray(p, dtype=float) for p in self.input_pmfs)
        channel = np.asarray(self.channel, dtype=float)
        tcs = tuple(np.asarray(t, dtype=float) for t in self.test_channels)
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


@dataclass(frozen=True)
class DownlinkSpec:
    """Description of a K-user, L-relay downlink.

    `aux_joint` has shape (|U_1|,...,|U_K|, |X_1|,...,|X_L|); `channel` has
    shape (|X_1|,...,|X_L|, |Y_1|,...,|Y_K|).
    """

    K: int
    L: int
    aux_joint: np.ndarray
    channel: np.ndarray

    def __post_init__(self):
        aux = np.asarray(self.aux_joint, dtype=float)
        channel = np.asarray(self.channel, dtype=float)
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

    names = (
        tuple(f"X{k}" for k in range(1, K + 1))
        + tuple(f"Y{l}" for l in range(1, L + 1))
        + tuple(f"Yh{l}" for l in range(1, L + 1))
    )
    return JointLaw(names, full)


def build_downlink_joint(spec: DownlinkSpec) -> JointLaw:
    """Joint law over (U_1..U_K, X_1..X_L, Y_1..Y_K) = aux_joint * channel."""
    K, L = spec.K, spec.L
    u_sizes = spec.aux_joint.shape[:K]
    x_sizes = spec.aux_joint.shape[K:]
    y_sizes = spec.channel.shape[L:]
    full = spec.aux_joint.reshape(u_sizes + x_sizes + (1,) * K) * spec.channel.reshape(
        (1,) * K + x_sizes + y_sizes
    )
    names = (
        tuple(f"U{k}" for k in range(1, K + 1))
        + tuple(f"X{l}" for l in range(1, L + 1))
        + tuple(f"Y{k}" for k in range(1, K + 1))
    )
    return JointLaw(names, full)


def subsets(items):
    """All subsets of `items` (as tuples), smallest first."""
    items = tuple(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)
