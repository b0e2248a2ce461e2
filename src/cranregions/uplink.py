"""Uplink rate-fronthaul regions: joint decoding, successive decoding,
corner-point procedures and the joint/successive equivalence check.

The joint-decoding region is cut out by one inequality per pair of a user
subset S and a relay subset T,

    C(T) - R(S) >= I(Y_T; Yh_T | X_[K]) - I(X_S; Yh_{T^c} | X_{S^c}),

and has (K+L)! corner points, one per permutation of the coordinates.
Each corner can be computed either by the iterative procedure or by a
one-shot closed form; the two must agree to 1e-9, which the tests verify.
The iterative procedure is the greedy solution of the region's own
slack (Edmonds' greedy algorithm on polymatroids): each step of a solve
order sets one constraint to equality and solves it for one coordinate.

The corner equivalences assume each relay observes its own channel
output: p(y_1..y_L | x) must factor as a product over relays (each
factor may depend on all inputs).  With cross-relay noise correlation
the two procedures genuinely disagree.

The downlink joint-encoding region has the same form with another
right-hand side, so the direction-free core lives here and serves both:
a `Region` (0/+-1 normals A of the (S, T) pairs, bounds lb <= A x <= ub)
is built once per law from one table of the signed terms of every pair's
bound (`pair_terms`), gathered on the pairs' variable bitmasks at once,
which the greedy corners and the scalar slack read too, `check_corner`
reads corner-hood off its tight rows (or off the chain of a point's solve
order, when it comes with one), `greedy_corner` solves the slack for the
corners of solve orders, and `enumerate_orders` applies a corner
procedure to every solve order.  Row i of a full region, and of its
table, is the pair whose coordinate bitmask is i (R_1..R_K, C_1..C_L
numbered 0..K+L-1), so a set of coordinates is its own row index.

A solve order is a row of coordinate indices, R_1..R_K, C_1..C_L numbered
0..K+L-1, and every corner function takes an (n, K+L) stack of such rows
(`solve_perms` lists all of them).  The closed form of a coordinate
depends only on the set of coordinates solved before it, so
`closed_form_table` holds all (K+L) 2^(K+L-1) values once per law and
`read_corners` gathers the corners of any stack of rows from it.  Points
are rows too: membership, `check_corner` and `dedup_points` take an
(n, K+L) stack of points and work on it at once; a single point is a
stack of one.  `RateFronthaulPoint` is only the result of `psi` at one
alpha.  The law's direction, K and L come from `JointLaw.dims`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .prob import (
    ACTIVE_TOL,
    DEDUP_TOL,
    MEMBERSHIP_TOL,
    NEGATIVE_RATE_TOL,
    PIVOT_TOL,
    JointLaw,
    gather,
)

MAX_ENUM = 8  # guard: (K+L)! enumeration only up to K+L = 8
STACK_CHUNK = 4096  # points per product of Region.contains: bounds its (points, rows) slacks
RANK_CHUNK = 1 << 18  # int64 entries per elimination stack of check_corner
ROUNDS_WORK = 1 << 24  # distinct rows x largest window up to which dedup_index settles in rounds


@dataclass(frozen=True)
class RateFronthaulPoint:
    """One point (R_1..R_K, C_1..C_L) in bits per channel use: the result of
    `psi` at one alpha."""

    R: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        C = np.asarray(self.C, dtype=float)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "C", C)
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(C))):
            raise ValueError("non-finite rate-fronthaul coordinates")
        R.setflags(write=False)
        C.setflags(write=False)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.R, self.C])


def add_terms(total, terms):
    """total + terms[0] + terms[1] + .., strictly left to right (the built-in sum
    compensates from Python 3.12 on), for numbers or elementwise for arrays."""
    for t in terms:
        total = total + t
    return total


def capacity_minus_rate(x, K: int, S, T) -> float:
    """C(T) - R(S) of one (K+L,) vector x = (R_1..R_K, C_1..C_L), each sum
    added in index order in Python floats, which, unlike numpy scalars,
    overflow to +-inf without a warning."""
    return (add_terms(0.0, (float(x[K + l - 1]) for l in sorted(T)))
            - add_terms(0.0, (float(x[i - 1]) for i in sorted(S))))


def coord_labels(K: int, L: int) -> list[str]:
    """Labels R1..RK, C1..CL of the coordinates."""
    return [f"R{i}" for i in range(1, K + 1)] + [f"C{j}" for j in range(1, L + 1)]


def solve_perms(K: int, L: int) -> np.ndarray:
    """All (K+L)! solve orders as rows of coordinate indices, in lexicographic
    order, refused above the MAX_ENUM guard."""
    if K + L > MAX_ENUM:
        raise ValueError(f"K+L = {K + L} exceeds enumeration guard {MAX_ENUM}")
    return np.array(list(itertools.permutations(range(K + L))), dtype=np.intp)


def _jd_terms(law: JointLaw, K: int, L: int, S, T) -> np.ndarray:
    """-f(S, T) of the joint-decoding constraint for arrays of user and relay
    bitmasks S and T, as the columns -I(Y_T; Yh_T | X_[K]) and
    I(X_S; Yh_{T^c} | X_{S^c}), from one gather."""
    users, relays = (1 << K) - 1, (1 << L) - 1
    y, yh = K, K + L  # the shifts of Y and Yh
    cap, cross = gather(law, [(T << y, T << yh, users), (S, (relays & ~T) << yh, users & ~S)])
    return np.column_stack([-cap, cross])


def jd_slack(law: JointLaw, x, S, T) -> float:
    """Slack of the joint-decoding constraint for user set S, relay set T, at
    one (K+L,) vector x: nonnegative for every pair in the region.  Its terms
    are the pair's row of the law's table (`pair_terms`), added in order;
    LawError for a law that is not an uplink law."""
    return pair_slack(law, _jd_terms, *law.dims("uplink"), x, S, T)


def pair_terms(law: JointLaw, terms, K: int, L: int) -> np.ndarray:
    """The law's table of the signed terms of -f(S, T), row i for the pair of
    bitmask i, built once per law by terms(law, K, L, S, T) on the user and
    relay bitmasks of `pair_masks`; the region bounds, the greedy corners and
    the scalar slack read it.  The table is kept under one key, so `terms`
    must be the one of the law's direction: callers pass K, L from
    `law.dims` of that direction."""
    def build():
        table = terms(law, K, L, *pair_masks(K, L))
        table.setflags(write=False)
        return table

    return law.memo("pair terms", build)


def pair_masks(K: int, L: int) -> tuple:
    """The user and relay bitmasks S and T of the pair of each of the 2^(K+L)
    rows: row i has bit k - 1 of i for user k and bit K + l - 1 for relay l."""
    i = np.arange(1 << (K + L))
    return i & ((1 << K) - 1), i >> K


def pair_slack(law: JointLaw, terms, K: int, L: int, x, S, T) -> float:
    """C(T) - R(S) at one (K+L,) vector x plus the terms of the pair's row of
    the law's table `pair_terms(law, terms, K, L)`, left to right."""
    S, T = set(S), set(T)
    if not (S <= set(range(1, K + 1)) and T <= set(range(1, L + 1))):
        raise ValueError(f"no constraint for S = {sorted(S)}, T = {sorted(T)} at K, L = {K}, {L}")
    row = _mask(S) | _mask(T) << K
    return add_terms(capacity_minus_rate(x, K, S, T), pair_terms(law, terms, K, L)[row].tolist())


@dataclass(frozen=True, eq=False)
class Region:
    """The points x = (R_1..R_K, C_1..C_L) with lb <= A x <= ub.

    Each row of A is the normal of a pair (S, T): -1 on the rates in S and
    +1 on the capacities in T, so (A x)_i = C(T) - R(S).  In a full region
    (`region_rows`) row i is the pair of coordinate bitmask i.
    """

    A: np.ndarray
    lb: np.ndarray
    ub: np.ndarray  # +inf for a one-sided region

    def slacks(self, points) -> np.ndarray:
        """min(A x - lb, ub - A x), an (n, rows) array for an (n, K+L) stack;
        a NaN slack (inf - inf) reads as -inf.  Computed in place, in two
        (points, rows) arrays: fresh large temporaries cost more than the
        arithmetic."""
        with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates overflow
            ax = (self.A @ points.T).T
            s = ax - self.lb
            np.fmin(s, np.subtract(self.ub, ax, out=ax), out=s)  # fmin skips the NaN of inf - inf
        s[np.isnan(s)] = -np.inf
        return s

    def contains(self, points, tol: float):
        """One bool per point of an (n, K+L) stack, STACK_CHUNK points at a time."""
        points = np.asarray(points)
        if len(points) > STACK_CHUNK:
            return np.concatenate([self.contains(points[i:i + STACK_CHUNK], tol)
                                   for i in range(0, len(points), STACK_CHUNK)])
        return self.slacks(points).min(axis=1) >= -tol


def _mask(items) -> int:
    """The bitmask of a set of 1-based indices."""
    return sum(1 << (i - 1) for i in items)


def region_rows(K: int, L: int) -> np.ndarray:
    """The (2^(K+L), K+L) normals of all pairs, row i that of the pair whose
    coordinate bitmask is i: -1 on its rates, +1 on its capacities."""
    on = (np.arange(1 << (K + L))[:, None] >> np.arange(K + L) & 1) == 1
    return np.where(on, np.repeat([-1.0, 1.0], [K, L]), 0.0)


def slack_region(law: JointLaw, terms, K: int, L: int) -> Region:
    """The region where C(T) - R(S) plus its row of `pair_terms(law, terms, K, L)`
    is >= 0 for every pair: lb is minus the row's terms, added left to right."""
    return Region(region_rows(K, L), -add_terms(0.0, pair_terms(law, terms, K, L).T),
                  np.full(1 << (K + L), np.inf))


def jd_region(law: JointLaw) -> Region:
    """The joint-decoding region of `law`, built once per law."""
    return law.memo("jd region", lambda: slack_region(law, _jd_terms, *law.dims("uplink")))


def in_jd_region(law: JointLaw, points, tol: float = MEMBERSHIP_TOL):
    """Membership of each point of an (n, K+L) stack."""
    return jd_region(law).contains(points, tol)


def sd_corner(law: JointLaw, orders):
    """Extreme points of the successive-decoding region for an (n, K+L) stack
    of decode orders, rows of variable indices: X_1..X_K, Yh_1..Yh_L numbered
    as the coordinates they set.  The decode order of a solve order `perm`
    is `perm[::-1]`, and its corner is the joint-decoding corner of `perm`.

    Every inequality is set to equality: a user decoded at some position
    gets R_k = I(X_k; everything decoded before it), a quantization
    codeword gets C_l = I(Y_l; Yh_l) - I(Yh_l; everything before it).
    Each value depends only on the set decoded before, so one
    `closed_form_table` per law serves every order (see `read_corners`).
    """
    return read_corners(law.memo("sd table", lambda: _sd_table(law)), orders)


def _sd_table(law: JointLaw) -> np.ndarray:
    K, L = law.dims("uplink")
    y, yh = K, K + L  # the shifts of Y and Yh; X_I, Yh_J are decoded before
    return closed_form_table(
        law, K, L,
        lambda b, I, J: [(1 << b, I | J << yh, 0)],
        lambda b, I, J: [(1 << (y + b), 1 << (yh + b), 0), (1 << (yh + b), I | J << yh, 0)])


def greedy_corner(region: Region, terms: np.ndarray, orders):
    """The (n, K+L) corners of a slack region for an (n, K+L) stack of solve
    orders; row i of `terms` holds the signed terms of -f that the slack of
    region row i, the pair of bitmask i, adds, in its order.

    Step k sets to equality the row (S, T) of the coordinates solved before
    plus perm[k], whose bitmask is its index: its slack C(T) - R(S) + terms,
    read at the point solved so far with the new coordinate still 0, is the
    new rate, or minus it the new capacity.  C(T) and R(S) are added in index order
    and the terms in the slack's order, so each coordinate is bit for bit
    the one the scalar slack gives.
    """
    perms = np.asarray(orders)
    rate, bit = (region.A < 0).any(axis=0), 1 << np.arange(perms.shape[1])
    solved = np.cumsum(1 << perms, axis=1)  # the bitmask after each step
    x = np.zeros(perms.shape)
    for k in range(perms.shape[1]):
        part = np.where(solved[:, k, None] & bit, x, 0.0).T  # S and T, in index order
        s = add_terms(add_terms(0.0, part[~rate]) - add_terms(0.0, part[rate]),
                      terms[solved[:, k]].T)
        x[np.arange(len(x)), perms[:, k]] = np.where(rate[perms[:, k]], s, -s)
    return x


def corner_iterative(law: JointLaw, orders):
    """Joint-decoding corners solved one coordinate at a time, for a stack of
    solve orders (see `greedy_corner`)."""
    return greedy_corner(jd_region(law), pair_terms(law, _jd_terms, *law.dims("uplink")), orders)


def closed_form_table(law: JointLaw, K: int, L: int, user, relay) -> np.ndarray:
    """table[c, P]: the closed form of coordinate c (R_1..R_K, C_1..C_L numbered
    0..K+L-1) solved after the coordinates in the bitmask P.  For arrays of a
    user or a relay b (numbered from 0) and of the user and relay bitmasks I
    and J of P, user(b, I, J) and relay(b, I, J) list the (a, b, c) variable
    bitmasks of the informations I(a; b | c) whose difference, the first
    minus the others, is the value.  The (K+L) 2^(K+L-1) values serve all
    (K+L)! solve orders and come from one `gather`; entries with c in P stay
    0 and are never read."""
    n = K + L
    coord, P = np.nonzero((np.arange(1 << n) >> np.arange(n)[:, None] & 1) == 0)
    I, J, u = P & ((1 << K) - 1), P >> K, coord < K
    terms = user(coord[u], I[u], J[u])
    values = gather(law, terms + relay(coord[~u] - K, I[~u], J[~u]))
    table = np.zeros((n, 1 << n))
    table[coord[u], P[u]] = reduce(np.subtract, values[:len(terms)])
    table[coord[~u], P[~u]] = reduce(np.subtract, values[len(terms):])
    table.setflags(write=False)
    return table


def read_corners(table: np.ndarray, orders):
    """The (n, K+L) corners of an (n, K+L) stack of orders, read off a
    `closed_form_table`: step k takes table[perm[k], P] for P the bitmask of
    perm[:k], an exclusive prefix sum."""
    perms = np.asarray(orders)
    bits = 1 << perms
    points = np.empty(perms.shape)
    np.put_along_axis(points, perms, table[perms, np.cumsum(bits, axis=1) - bits], axis=1)
    return points


def corner_closed(law: JointLaw, orders):
    """Closed-form corners of a stack of solve orders (see `read_corners`);
    agrees with corner_iterative to 1e-9."""
    return read_corners(law.memo("jd closed form", lambda: _jd_closed_form(law)), orders)


def _jd_closed_form(law: JointLaw) -> np.ndarray:
    """R_b = I(X_b; Yh_{J^c} | X_{I^c - b}) and
    C_b = I(Y_b; Yh_b) - I(Yh_b; X_{I^c}, Yh_{J^c - b}) for I, J solved before."""
    K, L = law.dims("uplink")
    users, relays = (1 << K) - 1, (1 << L) - 1
    y, yh = K, K + L  # the shifts of Y and Yh
    return closed_form_table(
        law, K, L,
        lambda b, I, J: [(1 << b, (relays & ~J) << yh, users & ~I & ~(1 << b))],
        lambda b, I, J: [(1 << (y + b), 1 << (yh + b), 0),
                         (1 << (yh + b), (users & ~I) | (relays & ~J & ~(1 << b)) << yh, 0)])


def _row_rank(rows) -> int:
    """Rank by Gaussian elimination with column pivoting at PIVOT_TOL."""
    if len(rows) == 0:
        return 0
    a = np.array(rows, dtype=float)
    rank = 0
    for col in range(a.shape[1]):
        if rank >= a.shape[0]:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= PIVOT_TOL:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] /= a[rank, col]
        rest = np.arange(a.shape[0]) != rank
        a[rest] -= np.outer(a[rest, col], a[rank])  # every row reads the unchanged pivot row
        rank += 1
    return rank


def _tight_ranks(normals: np.ndarray, tight: np.ndarray) -> np.ndarray:
    """Exact rank of the rows normals[tight[i]] for each row i of the bool mask.

    `normals` are 0/+-1 int64 rows.  Each point's tight rows go first in a
    compact stack of RANK_CHUNK entries at most, eliminated without
    fractions (Bareiss): every entry is then a minor of a 0/+-1 matrix with
    at most MAX_ENUM columns, at most 8**4, and every division is exact.
    """
    count = tight.sum(axis=1)
    width = int(count.max(initial=0))
    ranks = np.zeros(len(tight), dtype=int)
    if width == 0:
        return ranks
    rows = np.argsort(~tight, axis=1, kind="stable")[:, :width]
    chunk = max(1, RANK_CHUNK // (width * normals.shape[1]))
    for i in range(0, len(tight), chunk):
        free = np.arange(width) < count[i:i + chunk, None]  # tight rows not yet a pivot
        m = normals[rows[i:i + chunk]] * free[..., None]
        at = np.arange(len(m))
        prev = np.ones(len(m), dtype=np.int64)  # the previous pivot, 1 before the first
        for c in range(normals.shape[1]):
            col = m[:, :, c]
            found = free & (col != 0)
            has = found.any(axis=1)
            p = found.argmax(axis=1)
            pivot = m[at, p]
            free[at[has], p[has]] = False
            update = pivot[:, c, None, None] * m - col[..., None] * pivot[:, None, :]
            m = np.where((free & has[:, None])[..., None], update // prev[:, None, None], m)
            prev = np.where(has, pivot[:, c], prev)
            ranks[i:i + chunk] += has
    return ranks


@dataclass(frozen=True)
class CornerReport:
    """Corner-hood of a stack of points, one entry per point in each field."""

    in_region: np.ndarray
    rank: np.ndarray
    is_corner: np.ndarray
    below: np.ndarray = field(repr=False)  # (n, K+L): coordinates below -NEGATIVE_RATE_TOL
    labels: tuple = field(repr=False)  # R1..RK, C1..CL

    @cached_property
    def negative_coords(self) -> tuple:
        """Per point, the labels of its coordinates below -NEGATIVE_RATE_TOL,
        built on first read."""
        negative = [()] * len(self.below)
        for i in np.flatnonzero(self.below.any(axis=1)):
            negative[i] = tuple(self.labels[j] for j in np.flatnonzero(self.below[i]))
        return tuple(negative)


def check_corner(region: Region, points, orders=None) -> CornerReport:
    """Check corner-hood: region membership plus K+L independent tight constraints.

    A true corner needs the normals of the tight rows of A (the zero row
    of (S, T) = (empty, empty) left out) to have full rank K+L, an exact
    integer rank.  A point that comes with its solve order, row i of an
    (n, K+L) stack `orders`, is certified without elimination when its
    chain is tight: step k of the order makes the row of the coordinates
    solved so far tight, nonzero on perm[k] and zero on those solved later,
    so the K+L chain rows are triangular and have rank K+L (a greedy point
    of a polymatroid is a vertex).  The chain reads row m for the bitmask m
    of each prefix, so `orders` need a full region, one row per bitmask
    (`region_rows`), and any other is refused.  The other points get the
    exact rank of `_tight_ranks`.  Negative coordinates are flagged, not clamped.  The
    slacks come from one product per STACK_CHUNK points.
    """
    x = np.asarray(points, dtype=float)
    n, d = x.shape
    normals = region.A.astype(np.int64)
    nonzero = region.A.any(axis=1)
    chains = None
    if orders is not None:
        perms = np.asarray(orders)
        if perms.shape != x.shape:
            raise ValueError(f"orders of shape {perms.shape} for points of shape {x.shape}")
        if len(region.A) != 1 << d:
            raise ValueError(f"orders need normals of shape {(1 << d, d)}, one row per "
                             f"bitmask, not {region.A.shape}")
        chains = np.cumsum(1 << perms, axis=1)  # the row of each step is its bitmask
    in_region = np.empty(n, dtype=bool)
    rank = np.empty(n, dtype=int)
    for i in range(0, n, STACK_CHUNK):
        s = region.slacks(x[i:i + STACK_CHUNK])
        in_region[i:i + STACK_CHUNK] = s.min(axis=1) >= -MEMBERSHIP_TOL
        tight = (np.abs(s) <= ACTIVE_TOL) & nonzero
        certified = np.zeros(len(s), dtype=bool)
        if chains is not None:
            certified = np.take_along_axis(tight, chains[i:i + STACK_CHUNK], axis=1).all(axis=1)
        part = rank[i:i + STACK_CHUNK]
        part[certified] = d
        part[~certified] = _tight_ranks(normals, tight[~certified])
    is_corner = in_region & (rank >= d)
    K = int(np.count_nonzero((region.A < 0).any(axis=0)))  # the rate columns
    return CornerReport(in_region, rank, is_corner, x < -NEGATIVE_RATE_TOL,
                        tuple(coord_labels(K, d - K)))


def verify_corner(law: JointLaw, points, orders=None) -> CornerReport:
    """Corner-hood of each point of an (n, K+L) stack in the joint-decoding
    region; `orders`, the points' solve orders if given, certify the corners
    (see `check_corner`)."""
    return check_corner(jd_region(law), points, orders)


@dataclass(frozen=True, eq=False)
class CornerEnumeration:
    """The corner of every solve order, as arrays, and the rows dedup keeps.

    Row i of `perms` is a solve order, in `solve_perms` order, row i of
    `points` its corner; `kept` lists the rows of the distinct vertices in
    order, which `vertices` stacks.
    """

    K: int
    L: int
    perms: np.ndarray
    points: np.ndarray
    kept: np.ndarray

    @cached_property
    def order_labels(self) -> list:
        """Each solve order as its comma-separated labels, e.g. "R2,C1,R1,C2"; the
        permutations of the labels run in `solve_perms` order."""
        return list(map(",".join, itertools.permutations(coord_labels(self.K, self.L))))

    @cached_property
    def vertices(self) -> np.ndarray:
        """The distinct vertices, points[kept], as a read-only stack."""
        vertices = self.points[self.kept]
        vertices.setflags(write=False)
        return vertices


def dedup_index(vecs, tol: float = DEDUP_TOL) -> np.ndarray:
    """Deduplicate the rows of an (n, d) array in the infinity norm, keeping first
    occurrences: for each row, the row of the first kept point within `tol` of
    it, the row itself when it is kept.

    A row is kept when it lies farther than `tol` from every row kept before it.
    Two points within `tol` have weighted means (positive weights of sum 1)
    within `tol` of each other, up to rounding.  So the rows are sorted by mean
    and filed in cells twice that width; a row is compared only with the rows
    of its window, its own cell and the two next to it.  The sort puts repeats
    next to each other, and each is folded into its first copy, as it is near
    what that copy is near.  Distinct weights keep apart the many corners that
    share a coordinate sum.  A row with a non-finite coordinate is near no row.
    """
    vecs = np.asarray(vecs, dtype=float)
    n, d = vecs.shape
    kept_of = np.arange(n)
    weights = 1.0 / np.arange(2, d + 2)
    weights /= weights.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        means = vecs @ weights  # a mean cannot overflow
        scale = np.abs(vecs) @ weights
    finite = np.flatnonzero(np.isfinite(scale))
    if not len(finite):
        return kept_of
    top = float(scale[finite].max())  # Python floats overflow to inf without a warning
    slack = 4 * (d + 1) * (math.ulp(1.0) * (tol + top) + math.ulp(0.0))  # twice the rounding
    cell = 2 * (tol + slack)
    by_mean = finite[np.argsort(means[finite])]
    x = vecs[by_mean]
    new = np.ones(len(x), dtype=bool)
    new[1:] = (x[1:] != x[:-1]).any(axis=1)
    first = np.minimum.reduceat(by_mean, np.flatnonzero(new))  # each distinct row's first copy
    cells = np.floor(means[first] / cell)  # ascending, and below 2**53 in magnitude
    window = np.searchsorted(cells, cells + 1, side="right") - np.searchsorted(
        cells, cells - 1, side="left")
    settle = _settle_in_rounds if len(first) * window.max() <= ROUNDS_WORK else _settle_in_order
    keep = settle(vecs, first, cells, window, tol)
    kept_of[by_mean] = keep[np.cumsum(new) - 1]
    return kept_of


def _settle_in_rounds(vecs, first, cells, window, tol) -> np.ndarray:
    """The kept row of each distinct row, when windows are small: the close pairs
    come from rows at most `window` apart in mean order, one comparison of all
    rows per distance, and are settled in rounds.  A row with no close row
    before it is kept, one with a kept close row before it dropped, and one
    whose close rows before it are all dropped kept; each round settles at
    least the first open row."""
    later, earlier = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for w in range(1, int(window.max())):
        p = np.flatnonzero(cells[w:] - cells[:-w] <= 1)
        p = p[np.max(np.abs(vecs[first[p + w]] - vecs[first[p]]), axis=1) <= tol]
        swap = first[p] > first[p + w]
        later.append(np.where(swap, p, p + w))
        earlier.append(np.where(swap, p + w, p))
    later, earlier = np.concatenate(later), np.concatenate(earlier)
    state = np.ones(len(first), dtype=np.int8)  # 1 kept, -1 dropped, 0 open
    state[later] = 0
    while (state == 0).any():
        near_kept = np.zeros(len(first), dtype=bool)
        near_kept[later[state[earlier] == 1]] = True
        near_open = np.zeros(len(first), dtype=bool)
        near_open[later[state[earlier] == 0]] = True
        state[(state == 0) & near_kept] = -1
        state[(state == 0) & ~near_kept & ~near_open] = 1
    keep = first.copy()
    by_kept = state[earlier] == 1
    np.minimum.at(keep, later[by_kept], first[earlier[by_kept]])
    return keep


def _settle_in_order(vecs, first, cells, window, tol) -> np.ndarray:
    """The kept row of each distinct row, when windows are crowded: the rows that
    share a window are compared, in order of first occurrence, with the rows
    kept so far in their window, which are few as they lie `tol` apart."""
    keep = first.copy()
    kept = {}  # cell number -> first copies of the kept rows filed there
    for p in sorted(np.flatnonzero(window > 1).tolist(), key=first.__getitem__):
        c = cells[p]
        near = np.array(kept.get(c - 1, []) + kept.get(c, []) + kept.get(c + 1, []), dtype=np.intp)
        hit = near[np.max(np.abs(vecs[near] - vecs[first[p]]), axis=1, initial=0.0) <= tol]
        if len(hit):
            keep[p] = hit.min()
        else:
            kept.setdefault(c, []).append(first[p])
    return keep


def dedup_points(points, tol: float = DEDUP_TOL) -> np.ndarray:
    """The row numbers of the points that `dedup_index` keeps, in order, for an
    (n, d) stack or a list of 1-D arrays of one length."""
    if not len(points):
        return np.empty(0, dtype=np.intp)
    kept_of = dedup_index(points, tol)
    return np.flatnonzero(kept_of == np.arange(len(kept_of)))


def enumerate_orders(corner, K: int, L: int, dedup_tol: float) -> CornerEnumeration:
    """corner(perms) for the stack of every solve order, plus the rows dedup keeps.

    Each corner is one permutation applied greedily, as in Edmonds'
    greedy algorithm on polymatroids, so one routine serves both directions.
    """
    perms = solve_perms(K, L)
    points = corner(perms)
    points.setflags(write=False)
    return CornerEnumeration(K, L, perms, points, dedup_points(points, dedup_tol))


def enumerate_corners(
    law: JointLaw, dedup_tol: float = DEDUP_TOL
) -> CornerEnumeration:
    """All (K+L)! corner points, one per solve order, plus the distinct vertices,
    computed once per law and `dedup_tol`."""
    return law.memo(("jd corners", dedup_tol), lambda: enumerate_orders(
        partial(corner_closed, law), *law.dims("uplink"), dedup_tol))
