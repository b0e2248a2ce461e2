"""Rate splitting and quantization splitting for the uplink.

Each channel input except the first is split into two independent binary
virtual inputs merged by max(); each quantization codeword is split into
two virtual descriptions, also merged by max().  A parameter vector
alpha in [0,1]^{K+L-1} picks one split parameter per variable and a
decoding order over the 2(K+L)-1 virtual indices, turning the original
problem into a (2K-1)-user, 2L-relay virtual network whose successive
decoding rates assemble to a point on the dominant face of the original
region.  That assembly is the map psi; its numerical inverse recovers a
parameter vector for any face point.  psi evaluates a stack of parameter
vectors, whatever their decoding orders, in one pass, each row bit for bit
as alone.

Binary alphabets only: the constructions are the explicit binary ones, whose
invariants (pushforward laws, Markov chains, endpoint degeneracies) are
exactly checkable.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .face import on_dominant_face
from .prob import FACE_TOL, INVERT_TOL, MERGE_TOL, LawError, UplinkSpec, clamp_infos
from .uplink import MAX_ENUM, RateFronthaulPoint, sd_corner

CORNER_ROWS = 1 << 16  # corner points scored per batch of cells
CELL_STEPS = 10  # damped Newton steps on one cell before the next is tried
EPS_MARGIN = 1e-9  # eps stays this far inside (0, 1), so a 12-digit alpha keeps its cell
STACK_ENTRIES = 1 << 16  # virtual-joint entries that psi builds, or sums, at once
PLANS = 64  # decoding-order plans kept by beta_rates, the least recently used dropped first


@dataclass(frozen=True)
class RateSplit:
    """Binary split of a Bern(alpha_x) input into independent U, V merged by max."""

    p_u: np.ndarray  # pmf of U over {0, 1}, on the last axis
    p_v: np.ndarray  # pmf of V over {0, 1}, on the last axis


def make_rate_split(alpha_x: float, epsilon) -> RateSplit:
    """Binary rate split: U ~ Bern(a*e), V ~ Bern(a(1-e)/(1-a*e)), merged by max.

    The pushforward of p_U p_V through max is Bern(alpha_x) for every
    epsilon; epsilon = 0 makes the merge independent of U, epsilon = 1
    makes it a function of U alone.  A vector of n epsilons gives (n, 2)
    pmfs, each row computed as for its epsilon alone.
    """
    e = np.asarray(epsilon, dtype=float)
    if not (0.0 <= alpha_x <= 1.0 and 0.0 <= e.min(initial=0.0) and e.max(initial=1.0) <= 1.0):
        raise LawError(f"alpha_x={alpha_x}, epsilon={epsilon} outside [0,1]")
    denom = 1.0 - alpha_x * e
    if denom.min(initial=1.0) <= 0.0:
        raise LawError(
            f"degenerate rate split: alpha_x*epsilon = {alpha_x * e} leaves "
            "a zero denominator"
        )
    pu1 = alpha_x * e
    pv1 = alpha_x * (1.0 - e) / denom
    return RateSplit(p_u=np.array([1.0 - pu1, pu1]).T, p_v=np.array([1.0 - pv1, pv1]).T)


@dataclass(frozen=True)
class QuantSplit:
    """Binary split of a quantizer output into descriptions (U, V) merged by max.

    Construction: with (Y, Yh) drawn from the source law and an
    independent latent T ~ Bern(epsilon), set (U, V) = (0, Yh) when
    T = 0 and (Yh, 0) when T = 1.  Then Y - Yh - (U, V) is Markov and
    max(U, V) = Yh exactly.
    """

    p_uv_given_yhat: np.ndarray  # shape (2, 2, 2) + epsilon's: [yhat, u, v, ..]
    p_uv_given_y: np.ndarray  # shape epsilon's + (|Y|, 2, 2): [.., y, u, v]


def make_quant_split(test_channel, epsilon) -> QuantSplit:
    """The split conditionals of test channel w.  Each entry of p(u, v | y) has one nonzero
    term, w[y, yh] p(u, v | yh) at yh = max(u, v), so it is that product, exactly."""
    w = np.asarray(test_channel, dtype=float)
    if w.shape != (2, 2):
        raise LawError("quantization split requires binary source and quantizer alphabets")
    e = np.asarray(epsilon, dtype=float)
    if not (0.0 <= e.min(initial=0.0) and e.max(initial=1.0) <= 1.0):
        raise LawError(f"epsilon={epsilon} outside [0,1]")
    p_uv_yh = np.zeros((2, 2, 2) + e.shape)  # T = 0: (U, V) = (0, Yh); T = 1: (U, V) = (Yh, 0)
    p_uv_yh[0, 0, 0], p_uv_yh[1, 0, 1], p_uv_yh[1, 1, 0] = (1.0 - e) + e, 1.0 - e, e
    p_uv_y = np.zeros(e.shape + (2, 2, 2))
    for u, v in ((0, 0), (0, 1), (1, 0)):
        p_uv_y[..., u, v] = w[:, u | v] * p_uv_yh[u | v, u, v][..., None]
    return QuantSplit(p_uv_given_yhat=p_uv_yh, p_uv_given_y=p_uv_y)


def generalized_order(n: int):
    """Recursively interleaved label sequence of length 2^n - 1.

    Labels are (row, column) pairs; the sequence for n interleaves row
    n's columns (odd positions) with the sequence for n-1 (even positions).
    So element (i, c) sits at 0-based position (2c - 1) 2^(n-i) - 1: row i
    holds the odd multiples of 2^(n-i) in the in-order walk of a complete
    binary tree of depth n (`_position`).
    """
    if not 1 <= n <= MAX_ENUM:
        raise ValueError(f"generalized order supports 1 <= n <= {MAX_ENUM}, got {n}")
    labels = [(i, c) for i in range(1, n + 1) for c in range(1, 2 ** (i - 1) + 1)]
    return tuple(sorted(labels, key=lambda e: _position(n, *e)))


def _position(n: int, i, c):
    """Position of element (i, c) in generalized_order(n), for ints or arrays."""
    return (2 * c - 1) * 2 ** (n - i) - 1


def alpha_to_indices(alpha_i, i):
    """Active subinterval index j_i and split parameter epsilon_i for row i,
    or arrays of them for arrays of alpha_i and i that broadcast.

    The interval [0, m_i] with m_i = 2^{i-1} - 1 is cut into m_i unit
    subintervals; j_i is the subinterval containing alpha_i * m_i and
    epsilon_i its normalized position inside it.
    """
    i, a = np.asarray(i), np.asarray(alpha_i, dtype=float)
    if i.min(initial=2) < 2:
        raise ValueError("row 1 is never split; alpha indices start at 2")
    bad = ~((0.0 <= a) & (a <= 1.0))
    if bad.any():
        raise ValueError(f"alpha={float(a[bad][0])} outside [0,1]")
    m = (1 << (i - 1)) - 1
    j = np.where(a == 1.0, m, np.floor(a * m).astype(np.int64) + 1)
    eps = a * m - j + 1
    return (int(j), float(eps)) if j.ndim == 0 else (j, eps)


def _split_params(K: int, L: int, alphas):
    """(j, eps) of an (n, K+L-1) stack of parameter vectors, rows 2..K+L on the columns."""
    a = np.asarray(alphas, dtype=float)
    if a.shape[-1] != K + L - 1:
        raise ValueError(f"alpha must have length K+L-1 = {K + L - 1}, got {a.shape[-1]}")
    j, eps = alpha_to_indices(a, np.arange(2, K + L + 1))
    if K + L > MAX_ENUM:
        raise ValueError(f"generalized order supports 1 <= n <= {MAX_ENUM}, got {K + L}")
    return j, eps


@dataclass(frozen=True)
class SplitConfig:
    """Derived split parameters and virtual decoding order for one alpha."""

    K: int
    L: int
    j: dict  # row i (2..K+L) -> active subinterval index
    epsilon: dict  # row i (2..K+L) -> split parameter
    order: tuple[str, ...]  # permutation of P = {1, 2a, 2b, .., 1c, 1d, ..}


def decode_order_from_alpha(K: int, L: int, alpha) -> SplitConfig:
    """Decoding order over the virtual index set from the parameter vector.

    Row 1 of the generalized order is the un-split first user; rows
    2..K are the split users, rows K+1..K+L the split relays.  In each
    split row the two active elements are (i, j_i) and (i, j_i + 1); the
    first, earlier in the generalized order, becomes the "a"/"c" half, the
    second the "b"/"d" half, which keeps the order well-formed (coarse half
    decoded first).  The order is that of the active elements' positions.
    """
    j, eps = _split_params(K, L, np.reshape(alpha, (1, -1)))
    labels = ["1"] + [f"{i}{h}" for i in range(2, K + 1) for h in "ab"]
    labels += [f"{l}{h}" for l in range(1, L + 1) for h in "cd"]
    rows = range(2, K + L + 1)
    return SplitConfig(K, L, dict(zip(rows, j[0].tolist())), dict(zip(rows, eps[0].tolist())),
                       tuple(labels[v] for v in _order_plan(K, L, j.tobytes()).col[0]))


@dataclass(frozen=True)
class VirtualCran:
    """Joint laws of the (2K-1)-user, 2L-relay virtual network, one per row
    of a stack.

    Variables: X1, X2a, X2b, .., XKa, XKb, Y1..YL, Yh1c, Yh1d, ..,
    YhLc, YhLd, all binary, on axes 1.. of `probs`; axis 0 is the stack.
    Merging the virtual pairs with max() recovers the original uplink
    joint entrywise.
    """

    K: int
    L: int
    names: tuple[str, ...]
    probs: np.ndarray  # (rows,) + (2,) * len(names)

    def merged_joint(self) -> np.ndarray:
        """Pushforward through the merge maps, axes (row, X_1..X_K, Y, Yh_1..Yh_L).

        Each virtual pair sits on adjacent axes (a, a + 1) and merges by max:
        out[0] = p[0, 0] and out[1] = p[0, 1] + p[1, 0] + p[1, 1], one pair at
        a time from the last.
        """
        p = self.probs
        for a in reversed([i + 1 for i, name in enumerate(self.names) if name[-1] in "ac"]):
            q = p.reshape(math.prod(p.shape[:a]), 4, -1)  # the pair as one axis: 00, 01, 10, 11
            merged = np.concatenate([q[:, :1], q[:, 1:2] + q[:, 2:3] + q[:, 3:]], axis=1)
            p = merged.reshape(p.shape[:a] + (2,) + p.shape[a + 2:])
        return p


def _virtual_parts(spec: UplinkSpec):
    """The alpha-free parts of the virtual joint: the names, the channel at the
    merged inputs (over the virtual axes) and the shape of each relay's
    description factor."""
    K, L = spec.K, spec.L
    n_in, n = 2 * K - 1, 2 * K - 1 + 3 * L
    axis = [np.arange(2).reshape((2,) + (1,) * (n - 1 - a)) for a in range(n)]  # broadcast
    merged = [axis[0]] + [np.maximum(axis[2 * i - 3], axis[2 * i - 2]) for i in range(2, K + 1)]
    shapes = []
    for l in range(L):  # the stack, then Y_l and relay l's two descriptions among the virtual axes
        shape = [-1] + [1] * n
        shape[1 + n_in + l] = shape[1 + n_in + L + 2 * l] = shape[2 + n_in + L + 2 * l] = 2
        shapes.append(tuple(shape))
    names = (
        ("X1",) + tuple(f"X{i}{h}" for i in range(2, K + 1) for h in "ab")
        + tuple(f"Y{l}" for l in range(1, L + 1))
        + tuple(f"Yh{l}{h}" for l in range(1, L + 1) for h in "cd")
    )
    return names, spec.channel[tuple(merged + axis[n_in:n_in + L])], shapes


def build_virtual_cran(spec: UplinkSpec, eps) -> VirtualCran:
    """Assemble the virtual joints from the per-variable splits, one row of
    the stack per row of the (n, K+L-1) array `eps` of split parameters.

    The channel only sees the merged inputs; each relay's two virtual
    descriptions are generated jointly from its output through the
    quantization-split conditional, whose entries are single products
    (`make_quant_split`).  The alpha-free parts are built once per law; a
    stack multiplies its factors in the order that one row alone would, so
    each row is bit for bit the joint of its eps.
    """
    K, L = spec.K, spec.L
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 2 or eps.shape[1] != K + L - 1:
        raise ValueError("split config dimensions do not match spec")
    if any(len(p) != 2 for p in spec.input_pmfs) or any(
        t.shape != (2, 2) for t in spec.test_channels
    ):
        raise LawError("virtual C-RAN construction requires binary alphabets")

    names, vchan, shapes = spec.law.memo("virtual parts", lambda: _virtual_parts(spec))
    factors = [np.asarray(spec.input_pmfs[0], dtype=float)]
    for i in range(2, K + 1):
        rs = make_rate_split(float(spec.input_pmfs[i - 1][1]), eps[:, i - 2])
        factors += [rs.p_u, rs.p_v]
    px = np.ones(len(eps))
    for p in factors:  # the outer product of the input pmfs, per row
        px = px[..., None] * p.reshape(p.shape[:-1] + (1,) * (px.ndim - 1) + (2,))

    full = px.reshape(px.shape + (1,) * (3 * L)) * vchan
    for l in range(L):
        qs = make_quant_split(spec.test_channels[l], eps[:, K - 1 + l])
        full = full * qs.p_uv_given_y.reshape(shapes[l])
    vc = VirtualCran(K=K, L=L, names=names, probs=full)
    # written so that a NaN fails it
    if not np.abs(vc.merged_joint() - spec.law.probs).max(initial=0.0) <= MERGE_TOL:
        raise LawError("virtual joint does not merge back to the original joint")
    return vc


def _with_each_relay_output(probs, L, out):
    """Each (inputs, Y_l, descriptions) marginal of a stack of virtual joints,
    axes (l, rows by inputs, Y_l, descriptions), in `out` unless L = 1.  The
    other relay outputs are summed in the virtual layout, STACK_ENTRIES joint
    entries at a time, from Y_L down; Y_1..Y_l share the sums that leave them."""
    B = 1 << 2 * L
    q = probs.reshape((-1,) + (2,) * L + (B,))
    if L == 1:
        return q[None]
    each = out.reshape(L, len(q), 2, B)
    rb = max(1, STACK_ENTRIES >> 3 * L)
    bb = max(1, min(B, STACK_ENTRIES >> L))
    for r, s in itertools.product(range(0, len(q), rb), range(0, B, bb)):
        p = q[r:r + rb, ..., s:s + bb]
        part = each[:, r:r + rb, ..., s:s + bb]
        for l in range(L, 1, -1):  # p holds Y_1..Y_l; summing Y_1..Y_l-1 leaves Y_l
            d = p
            for step in range(l - 1):
                d = np.add.reduce(d, axis=1, out=part[l - 1] if step == l - 2 else None)
            p = np.add.reduce(p, axis=l, out=part[0] if l == 2 else None)
    return each


OrderPlan = collections.namedtuple("OrderPlan", "inp y_at tops is_x sizes read starts col groups")


@functools.lru_cache(maxsize=PLANS)
def _order_plan(K: int, L: int, j: bytes) -> OrderPlan:
    """The index arrays of `beta_rates` for the int64 (rows, K+L-1) j matrix with these bytes:
    what depends on the decoding orders alone, O((L+1) rows m) entries.  `y_at` and `col` are
    flat indices into ent and b; `groups` holds the rows of each order and its transpose."""
    n = K + L
    n_in = 2 * K - 1
    m = n_in + 2 * L
    j = np.frombuffer(j, dtype=np.int64).reshape(-1, n - 1)
    rows = len(j)
    # row i decodes its halves at (2 j_i -+ 1) 2^(n-i) of the generalized order, X1 at 2^(n-1);
    # the first half is X_ia, virtual variable 2i - 3, or Yh_lc, 2i - 3 + L
    shift = n - np.arange(2, n + 1)
    key = (2 * j - 1) << shift
    keys = np.concatenate([np.full((rows, 1), 1 << (n - 1)), key, key + (2 << shift)], axis=1)
    first = [2 * i - 3 + L * (i > K) for i in range(2, n + 1)]
    var = np.array([0] + first + [v + 1 for v in first])[np.argsort(keys)]  # decoded k-th
    inp = var < n_in
    is_x = tuple(inp.any(axis=0).tolist())
    chain = np.array([0] * (n_in + L) + [1 + (v >> 1) for v in range(2 * L)])[var]  # relay, or 0
    tops = var[:, -1] == n_in + L + 1 + 2 * np.arange(L)[:, None]  # Yh_ld decoded last, by l

    # the buffer: for each chain (no Y, Y_1, .., Y_L) and row, the levels j = m..1 of width 2^j,
    # decoded[:j] or (decoded[:j-1], Y_l); the halves of each input alone, the latest decoded
    # input first; the (decoded, Y_l) of `tops`
    widths = [1 << j for j in range(m, 0, -1)]
    sizes = np.array(widths * ((L + 1) * rows) + [2] * (rows * sum(is_x))
                     + [2 << m] * np.count_nonzero(tops))
    # the segments a beta reads: every prefix alone, each input alone, each of `tops`, and each
    # (decoded[:k], Y_l) just before and just after a description of relay l
    read = np.ones(len(sizes), dtype=bool)
    with_y = read[:(L + 1) * rows * m].reshape(L + 1, rows, m)  # [.., m - j]: level j
    with_y[1:] = False
    r = np.arange(rows)[:, None]
    k = np.arange(m)
    with_y[chain, r, m - 1 - k] = with_y[chain, r, m - 2 - k] = True  # k = m - 1 also reads level 1
    groups = {}
    for row, a in enumerate((var - (L - 1) * ~inp)[:, ::-1].tolist()):  # the decoded's axes in nat
        groups.setdefault((0, 1, *(v + 2 for v in a), n_in + 2), []).append(row)
    plan = OrderPlan(
        inp, np.ravel_multi_index((chain, r, k + 1), (L + 1, rows, m + 2)), tops, is_x, sizes,
        read, (np.cumsum(sizes) - sizes)[read], r * m + var - L * ~inp,
        tuple((slice(g[0], g[-1] + 1) if g[-1] - g[0] < len(g) else np.array(g), axes)
              for axes, g in groups.items()))
    for a in plan:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False  # one plan serves every caller
    return plan


def beta_rates(vc: VirtualCran, j):
    """Per-index successive rates and the assembled rate-fronthaul points of
    the rows of a stack, whose subinterval indices are the (n, K+L-1) array
    `j`: an (n, 2(K+L)-1) array of betas in decoding order and an (n, K+L)
    array of points.

    The k-th decoded virtual input gets beta = I(X_k; decoded-so-far);
    the k-th decoded virtual description of relay l gets
    beta = I(Y_l; Yh_k | decoded-so-far).  User and relay rates are the
    sums of their two halves.

    What depends on the orders alone is the cached `OrderPlan` of (K, L, j).
    Each marginal is a chain of sums over one binary axis, one addition an
    entry, so a row has the same bits in any stack.  The (decoded, Y_l) of
    `_with_each_relay_output` are copied into decoding order, the latest
    decoded first and Y_l last, one transpose per order.  From there each
    step sums the first variable of all marginals of the stack at once, down
    to each prefix, alone and with each Y_l, and to each input alone from its
    shortest prefix.  Each entropy a beta reads is -x log2 x over the positive
    entries of its segment of one buffer, added as np.add.reduceat adds; the
    other segments are skipped.  The betas, from the table of the variable
    each row decodes k-th, are clamped by `clamp_infos`.
    """
    K, L = vc.K, vc.L
    p = _order_plan(K, L, np.ascontiguousarray(j, dtype=np.int64).tobytes())
    rows, m = p.inp.shape
    widths = [1 << j for j in range(m, 0, -1)]
    at = dict(zip(range(m, 0, -1), itertools.accumulate([0] + widths)))  # level j's column
    n_lev = (L + 1) * rows * sum(widths)
    n_x = 2 * rows * sum(p.is_x)
    buf = np.empty(p.sizes.sum())
    lev = buf[:n_lev].reshape((L + 1) * rows, -1)

    nat = _with_each_relay_output(vc.probs, L, buf[:L * rows << (m + 1)])  # in the levels' room
    nat = nat.reshape((L, rows) + (2,) * (m + 1))
    top = np.empty(nat.shape)  # each (decoded, Y_l) in decoding order
    for sel, axes in p.groups:
        top[:, sel] = nat[:, sel].transpose(axes)
    top = top.reshape(L, rows, 2 << m)
    buf[n_lev + n_x:] = top[p.tops].ravel()
    np.add(top[0, :, 0::2], top[0, :, 1::2], out=lev[:rows, :1 << m])
    np.add(top[..., :1 << m], top[..., 1 << m:], out=lev[rows:, :1 << m].reshape(L, rows, -1))
    del top
    xs = np.empty((0, 1))  # by each input decoded so far, the halves of its prefix
    for j in range(m, 0, -1):  # level j with its first variable summed is level j - 1
        half = 1 << (j - 1)
        block = lev[:, at[j]:at[j] + 2 * half]  # its two halves: the first variable 0, then 1
        if p.is_x[j - 1]:
            xs = np.concatenate([xs.reshape(-1, half), block[:rows].reshape(-1, half)])
        if j > 1:
            np.add(block[:, :half], block[:, half:], out=lev[:, at[j - 1]:at[j - 1] + half])
        if j > 1 and len(xs):
            xs = xs[:, :half >> 1] + xs[:, half >> 1:]
    buf[n_lev:n_lev + n_x] = xs.ravel()

    pos = np.flatnonzero(np.repeat(p.read, p.sizes) & (buf > 0))  # the entries read
    x = buf[pos]
    h = np.zeros(len(p.read))
    h[p.read] = -np.add.reduceat(x * np.log2(x), np.searchsorted(pos, p.starts))
    n_seg = (L + 1) * rows * m
    ent = np.zeros((L + 1, rows, m + 2))  # by chain and row, level j at [.., j]
    ent[..., m:0:-1] = h[:n_seg].reshape(L + 1, rows, m)
    ent[1:, :, m + 1][p.tops] = h[n_seg + n_x // 2:]
    hp = ent[0]  # H(decoded[:k]) at [r, k]; H(decoded[:k], Y_l) is at [l, r, k + 1]
    hx = np.zeros((rows, m))  # H(decoded[k]) of each input
    hx[:, np.flatnonzero(p.is_x)[::-1]] = h[n_seg:n_seg + n_x // 2].reshape(-1, rows).T

    e = ent.reshape(-1)
    val = clamp_infos(np.where(p.inp, hx + hp[:, :m] - hp[:, 1:m + 1],
                               e[p.y_at] + hp[:, 1:m + 1] - e[p.y_at + 1] - hp[:, :m]))
    b = np.empty((rows, m))
    b.reshape(-1)[p.col] = val  # by decoded variable: X1, X2a, X2b, .., Yh1c, Yh1d, ..
    return val, np.add.reduceat(b, [0, *range(1, m, 2)], axis=1)  # each variable's halves


def psi(spec: UplinkSpec, alphas):
    """Map a parameter vector to a dominant-face point via splitting, or an
    (n, K+L-1) stack of them to an (n, K+L) array of points.

    A stack becomes arrays of indices j and split parameters eps, with no
    per-row object, and `beta_rates` builds the plan of each order stack
    once.  The virtual joints are built together, STACK_ENTRIES entries at a
    time (one row at a time once a row alone is larger).  Each row is bit for bit the point of
    its alpha alone: `invert_psi` takes a different path on last-digit
    changes of psi, so psi must not move by an ulp.
    """
    K, L = spec.K, spec.L
    if np.ndim(alphas) < 2:
        (point,) = psi(spec, np.reshape(alphas, (1, -1)))
        return RateFronthaulPoint(point[:K], point[K:])
    j, eps = _split_params(K, L, alphas)
    rows = max(1, STACK_ENTRIES >> (2 * K + 3 * L - 1))  # 2^vars entries a row
    return np.concatenate([np.empty((0, K + L))] + [
        beta_rates(build_virtual_cran(spec, eps[i:i + rows]), j[i:i + rows])[1]
        for i in range(0, len(j), rows)])


def psi_detail(spec: UplinkSpec, alpha):
    """(SplitConfig, per-index rates, RateFronthaulPoint) for one parameter
    vector, computed as a stack of one."""
    config = decode_order_from_alpha(spec.K, spec.L, alpha)
    j, eps = _split_params(spec.K, spec.L, np.reshape(alpha, (1, -1)))
    (betas,), (point,) = beta_rates(build_virtual_cran(spec, eps), j)
    return (config, dict(zip(config.order, betas.tolist())),
            RateFronthaulPoint(point[:spec.K], point[spec.K:]))


class NotOnDominantFaceError(ValueError):
    """Raised when an inversion target is not on the dominant face."""


@dataclass(frozen=True)
class InversionResult:
    alpha: tuple[float, ...]
    residual: float
    n_evals: int
    converged: bool


def _corner_points(spec: UplinkSpec, cells: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """psi at each eps-corner of each cell, (cells, 2^d, K+L), with no psi call.  At corner e
    of cell j, row i's variable is decoded whole at column j_i + 1 - e_i (eps_i = 1 leaves only
    the earlier half), so psi there is sd_corner of the order those columns induce."""
    n = spec.K + spec.L
    cols = _position(n, np.arange(2, n + 1), cells[:, None, :] + 1 - corners)
    keys = np.concatenate([np.full(cols.shape[:2] + (1,), _position(n, 1, 1)), cols], axis=2)
    code = (np.argsort(keys, axis=2) @ n ** np.arange(n)).ravel()
    # the distinct codes, ascending, and each corner's place among them, from one sort of
    # code * rows + row, which fits an int64: codes are below n^n <= 8^8 = 2^24
    code, row = np.divmod(np.sort(code * len(code) + np.arange(len(code))), len(code))
    first = np.diff(code, prepend=-1) != 0
    inv = np.empty(len(code), np.intp)
    inv[row] = np.cumsum(first) - 1
    orders = code[first, None] // n ** np.arange(n) % n  # the base-n digits of each code
    return sd_corner(spec.law, orders)[inv].reshape(cols.shape[:2] + (n,))


def _multilinear(G: np.ndarray, corners: np.ndarray, x: np.ndarray):
    """Multilinear interpolant of corner values G at x in (0, 1)^d, and its Jacobian in x."""
    f = np.where(corners == 1, x[:, None, :], 1.0 - x[:, None, :])
    w = f.prod(axis=2)
    return (w[:, None, :] @ G)[:, 0], G.transpose(0, 2, 1) @ (w[..., None] / f * (2 * corners - 1))


def _live_cells(n: int, i: int, js: tuple, centres: tuple, need: dict):
    """Cells j = (j_2, .., j_n) with no still row, rows n..i+1 fixed in js.  A row is still when
    no other active element lies between its two, and psi then ignores its eps.  In the binary
    tree walked in order by generalized_order(n), row i's elements are the (2 j_i -+ 1) w-th,
    w = 2^(n-i); between them lie the element at c = 2 j_i w (the root, or an end of the row r
    it belongs to, which `need` then binds) and the ends of deeper rows centred within w of c."""
    if i == 1:
        yield js[::-1]
        return
    w = 1 << (n - i)
    for j in sorted(need.get(i, range(1, 2 ** (i - 1)))):
        c, bound = 2 * j * w, need
        if c != 1 << (n - 1) and all(abs(c - ck) > w for ck in centres):
            r, odd = n + 1 - (c & -c).bit_length(), c // (c & -c)
            bound = {**need, r: {(odd - 1) // 2, (odd + 1) // 2} & set(
                need.get(r, range(1, 2 ** (r - 1))))}
        yield from _live_cells(n, i - 1, js + (j,), centres + (c,), bound)


def _rank_cells(spec: UplinkSpec, tvec: np.ndarray, max_iters: int):
    """Live cells, best first, with the eps where their corner interpolant comes nearest the
    target.  At most one batch is read per psi call of the budget and the `max_iters` best
    cells are kept (a solve costs a call).  An interpolant lies in its corners' hull, so a cell
    whose corner box misses the target by more than the worst kept cell is dropped unfitted."""
    n = spec.K + spec.L
    corners = np.array(list(itertools.product((0, 1), repeat=n - 1)))
    cells, batch = _live_cells(n, n, (), (), {}), max(1, CORNER_ROWS >> (n - 1))
    js, xs, miss = np.empty((0, n - 1), dtype=int), np.empty((0, n - 1)), np.empty(0)
    for _, chunk in zip(range(max_iters), iter(lambda: list(itertools.islice(cells, batch)), [])):
        G = _corner_points(spec, np.array(chunk), corners)
        gap = np.max(np.maximum(G.min(axis=1) - tvec, tvec - G.max(axis=1)), axis=1)
        fit = gap <= (miss[-1] if len(miss) == max_iters else np.inf)
        chunk, G, x = np.array(chunk)[fit], G[fit], np.full((fit.sum(), n - 1), 0.5)
        for _ in range(4):  # Gauss-Newton steps on the interpolant, inside the margin
            val, jac = _multilinear(G, corners, x)
            step = np.linalg.solve(jac.transpose(0, 2, 1) @ jac + 1e-9 * np.eye(n - 1),
                                   jac.transpose(0, 2, 1) @ (val - tvec)[..., None])[..., 0]
            x = np.clip(x - step, EPS_MARGIN, 1.0 - EPS_MARGIN)
        m = np.max(np.abs(_multilinear(G, corners, x)[0] - tvec), axis=1)
        js, xs, miss = (np.concatenate(p) for p in ((js, chunk), (xs, x), (miss, m)))
        top = np.argsort(miss, kind="stable")[:max_iters]
        js, xs, miss = js[top], xs[top], miss[top]
    return js, xs


def minimize(residual, x, tol: float, budget: int):
    """Damped Newton (Levenberg-Marquardt) on residual(x), x in [EPS_MARGIN, 1 - EPS_MARGIN]^d,
    with forward-difference Jacobians.  `residual` maps an (n, d) stack of x to its (n, m)
    residuals, and the d columns of a Jacobian are one stack; J is kept C-contiguous, since
    its layout sets the rounding of J.T @ J and the path turns on ulps.  Stops within `tol`,
    after CELL_STEPS steps, when no damping reduces the residual, or at `budget` residual
    evaluations (rows).  Returns (x, r(x), evaluations)."""
    x = np.clip(x, EPS_MARGIN, 1.0 - EPS_MARGIN)
    r, calls, lam, d = residual(x[None])[0], 1, 1e-3, len(x)
    for _ in range(CELL_STEPS):
        if np.max(np.abs(r)) <= tol or calls + d + 1 > budget or lam > 1e8:
            break
        h = np.where(x < 0.5, 1e-7, -1e-7)  # forward differences, stepping inward
        J = np.ascontiguousarray(((residual(x + h * np.eye(d)) - r) / h[:, None]).T)
        calls += d
        A, g = J.T @ J, J.T @ r
        while lam <= 1e8 and calls < budget:
            step = np.linalg.solve(A + lam * np.diag(np.diag(A) + 1e-12), g)
            y = np.clip(x - step, EPS_MARGIN, 1.0 - EPS_MARGIN)
            ry, calls = residual(y[None])[0], calls + 1
            if ry @ ry < r @ r:
                x, r, lam = y, ry, max(lam / 10, 1e-9)
                break
            lam *= 10
    return x, r, calls


def invert_psi(spec: UplinkSpec, target, tol: float = INVERT_TOL,
               max_iters: int = 5000) -> InversionResult:
    """Numerically invert psi: find alpha with psi(alpha) near the (K+L,)
    vector `target`.

    psi is smooth inside a cell of alpha (one fixed j, eps free) and jumps
    between cells, so the live cells are ranked from their corners
    (`_rank_cells`) and solved by `minimize` in that order, within a total
    budget of `max_iters` psi evaluations, each alpha of a stack counting
    as one.  Never returns a silent wrong answer: non-convergence is
    reported in the result.  The path turns on last-digit changes of psi
    and of J.T @ J (one target printed to 9 digits converged after 6 or
    after 17 evaluations, at different alphas), so the stacked Jacobian
    keeps the bits of one psi call per column.
    """
    tvec = np.asarray(target, dtype=float)
    if tvec.shape != (spec.K + spec.L,):
        raise ValueError(f"target needs K+L = {spec.K + spec.L} coordinates "
                         f"(R1..R{spec.K}, C1..C{spec.L}), got shape {tvec.shape}")
    if not on_dominant_face(spec.law, tvec[None], tol=FACE_TOL)[0]:
        raise NotOnDominantFaceError(f"target {tvec.tolist()} is not on the dominant face")
    m = 2.0 ** np.arange(1, spec.K + spec.L) - 1  # subintervals of rows 2..K+L
    count, best_alpha, best_res = 0, None, math.inf
    for j, x in zip(*_rank_cells(spec, tvec, max_iters)):
        if count >= max_iters or best_res <= tol:
            break
        x, r, calls = minimize(lambda e: psi(spec, (j - 1 + e) / m) - tvec,
                               x, tol, max_iters - count)
        count += calls
        if np.max(np.abs(r)) < best_res:
            best_alpha, best_res = tuple((j - 1 + x) / m), float(np.max(np.abs(r)))
    return InversionResult(best_alpha, best_res, count, best_res <= tol)
