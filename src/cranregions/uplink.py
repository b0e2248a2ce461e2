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
is built once per law, `check_corner` reads corner-hood off its tight rows,
`greedy_corner` solves the slack for the corner of one solve order, and
`enumerate_orders` applies a corner procedure to every solve order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .prob import (
    ACTIVE_TOL,
    DEDUP_TOL,
    MEMBERSHIP_TOL,
    NEGATIVE_RATE_TOL,
    PIVOT_TOL,
    JointLaw,
    mutual_info,
    subsets,
)

MAX_ENUM = 8  # guard: (K+L)! enumeration only up to K+L = 8
STACK_CHUNK = 4096  # points per product of Region.contains: bounds its (points, rows) slacks


@dataclass(frozen=True)
class RateFronthaulPoint:
    """Vector (R_1..R_K, C_1..C_L) in bits per channel use."""

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

    @classmethod
    def from_vector(cls, vec, K: int, L: int) -> "RateFronthaulPoint":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (K + L,):
            raise ValueError(f"expected vector of length {K + L}, got {vec.shape}")
        return cls(vec[:K], vec[K:])

    # Python floats, unlike numpy scalars, overflow to +-inf without a warning
    def r_sum(self, S) -> float:
        return float(sum(float(self.R[i - 1]) for i in S))

    def c_sum(self, T) -> float:
        return float(sum(float(self.C[l - 1]) for l in T))


def coord_labels(K: int, L: int, rate: str = "R", front: str = "C") -> list[str]:
    """Labels R1..RK, C1..CL of the coordinates, or of the variables with
    other prefixes (X/Yh for decoding, U/X for encoding)."""
    return [f"{rate}{i}" for i in range(1, K + 1)] + [f"{front}{j}" for j in range(1, L + 1)]


def check_permutation(order, rate: str, front: str):
    """Raise ValueError unless `order.labels` is a permutation of the K+L labels."""
    expected = coord_labels(order.K, order.L, rate, front)
    if set(order.labels) != set(expected) or len(order.labels) != len(expected):
        raise ValueError(
            f"labels {order.labels} are not a permutation of {sorted(expected)}"
        )


@dataclass(frozen=True)
class SolveOrder:
    """Permutation of the coordinate labels (R_1..R_K, C_1..C_L).

    a[k] is 1 when the k-th solved coordinate is a rate, 0 when it is a
    fronthaul capacity; b[k] is its 1-based user/relay index.
    """

    labels: tuple[str, ...]
    K: int
    L: int

    def __post_init__(self):
        check_permutation(self, "R", "C")

    @classmethod
    def from_labels(cls, labels) -> "SolveOrder":
        labels = tuple(labels)
        K = sum(1 for s in labels if s.startswith("R"))
        L = len(labels) - K
        return cls(labels, K, L)

    @property
    def a(self) -> tuple[int, ...]:
        return tuple(1 if s.startswith("R") else 0 for s in self.labels)

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(int(s[1:]) for s in self.labels)

    def index_sets(self, k: int) -> tuple[set, set]:
        """(I_k, J_k): user/relay indices solved strictly before step k (1-based)."""
        I = {int(s[1:]) for s in self.labels[: k - 1] if s.startswith("R")}
        J = {int(s[1:]) for s in self.labels[: k - 1] if s.startswith("C")}
        return I, J


@dataclass(frozen=True)
class DecodeOrder:
    """Permutation of the variable labels (X_1..X_K, Yh_1..Yh_L)."""

    labels: tuple[str, ...]
    K: int
    L: int

    def __post_init__(self):
        check_permutation(self, "X", "Yh")


def solve_orders(K: int, L: int):
    """All (K+L)! solve orders, refused above the MAX_ENUM guard."""
    if K + L > MAX_ENUM:
        raise ValueError(f"K+L = {K + L} exceeds enumeration guard {MAX_ENUM}")
    for perm in itertools.permutations(coord_labels(K, L)):
        yield SolveOrder(perm, K, L)


def count_labels(names, prefix: str) -> int:
    """How many of `names` are `prefix` followed by an index, as X3 is for X."""
    return sum(1 for n in names if n.startswith(prefix) and n[len(prefix):].isdigit())


def uplink_dims(law: JointLaw) -> tuple[int, int]:
    return count_labels(law.names, "X"), count_labels(law.names, "Yh")


def _xs(idx):
    return [f"X{i}" for i in sorted(idx)]


def _ys(idx):
    return [f"Y{l}" for l in sorted(idx)]


def _yhs(idx):
    return [f"Yh{l}" for l in sorted(idx)]


def jd_slack(law: JointLaw, point: RateFronthaulPoint, S, T) -> float:
    """Slack of the joint-decoding constraint for user set S, relay set T.

    Nonnegative slack for every (S, T) pair means the point is in the
    joint-decoding region.  The terms are added left to right in the order
    the corner procedure of the paper solves them, so `greedy_corner`
    reproduces that procedure bit for bit.
    """
    K, L = len(point.R), len(point.C)
    S, T = set(S), set(T)
    Sc = set(range(1, K + 1)) - S
    Tc = set(range(1, L + 1)) - T
    return (
        point.c_sum(T)
        - point.r_sum(S)
        - mutual_info(law, _ys(T), _yhs(T), _xs(range(1, K + 1)))
        + mutual_info(law, _xs(S), _yhs(Tc), _xs(Sc))
    )


@dataclass(frozen=True, eq=False)
class Region:
    """The points x = (R_1..R_K, C_1..C_L) with lb <= A x <= ub.

    Row i of A is the normal of the pair (S, T) = pairs[i]: -1 on the rates
    in S and +1 on the capacities in T, so (A x)_i = C(T) - R(S).
    """

    pairs: tuple
    A: np.ndarray
    lb: np.ndarray
    ub: np.ndarray  # +inf for a one-sided region

    def slacks(self, points) -> np.ndarray:
        """min(A x - lb, ub - A x) per row, for one point or per point of an
        (n, K+L) stack; a NaN slack (inf - inf) reads as -inf."""
        x = points.as_vector() if isinstance(points, RateFronthaulPoint) else np.transpose(points)
        with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates overflow
            ax = (self.A @ x).T  # one product for the whole stack
            s = np.fmin(ax - self.lb, self.ub - ax)  # fmin skips the NaN of inf - inf
        return np.where(np.isnan(s), -np.inf, s)

    def contains(self, points, tol: float):
        """A bool for one point; for a stack one bool per point, STACK_CHUNK at a time."""
        if isinstance(points, RateFronthaulPoint):
            return bool(self.slacks(points).min() >= -tol)
        points = np.asarray(points)
        inside = np.empty(len(points), dtype=bool)
        for i in range(0, len(points), STACK_CHUNK):
            inside[i:i + STACK_CHUNK] = self.slacks(points[i:i + STACK_CHUNK]).min(axis=1) >= -tol
        return inside


def build_region(K: int, L: int, users, relays, bounds) -> Region:
    """Rows (S, T) for S a subset of `users` and T of `relays`, S outer and T
    inner in `subsets` order; bounds(S, T) gives one row's (lb, ub), S and T as sets."""
    pairs = tuple((S, T) for S in subsets(users) for T in subsets(relays))
    A = np.zeros((len(pairs), K + L))
    for row, (S, T) in zip(A, pairs):
        row[[i - 1 for i in S]] = -1.0
        row[[K + j - 1 for j in T]] = 1.0
    lb, ub = np.array([bounds(set(S), set(T)) for S, T in pairs], dtype=float).T
    return Region(pairs, A, lb, ub)


def slack_region(law: JointLaw, slack, K: int, L: int) -> Region:
    """The region where every slack(law, x, S, T) = C(T) - R(S) - f(S, T) is >= 0;
    lb = f is minus the slack at the origin, so each f stays written once."""
    origin = RateFronthaulPoint(np.zeros(K), np.zeros(L))
    return build_region(K, L, range(1, K + 1), range(1, L + 1),
                        lambda S, T: (-slack(law, origin, S, T), np.inf))


def jd_region(law: JointLaw) -> Region:
    """The joint-decoding region of `law`, built once per law."""
    return law.memo("jd region", lambda: slack_region(law, jd_slack, *uplink_dims(law)))


def min_jd_slack(law: JointLaw, point: RateFronthaulPoint):
    """Minimum joint-decoding slack over all (S, T) pairs and its first argmin."""
    region = jd_region(law)
    s = region.slacks(point)
    i = int(np.argmin(s))
    return float(s[i]), tuple(set(x) for x in region.pairs[i])


def in_jd_region(law: JointLaw, point, tol: float = MEMBERSHIP_TOL):
    """Membership of one point, or of each point of an (n, K+L) stack."""
    return jd_region(law).contains(point, tol)


def sd_corner(law: JointLaw, order: DecodeOrder) -> RateFronthaulPoint:
    """Extreme point of the successive-decoding region for decode order pi.

    Every inequality is set to equality: a user decoded at some position
    gets R_k = I(X_k; everything decoded before it), a quantization
    codeword gets C_l = I(Y_l; Yh_l) - I(Yh_l; everything before it).
    """
    K, L = order.K, order.L
    R = np.zeros(K)
    C = np.zeros(L)
    before: list[str] = []
    for lab in order.labels:
        if lab.startswith("Yh"):
            l = int(lab[2:])
            C[l - 1] = mutual_info(law, [f"Y{l}"], [lab]) - mutual_info(
                law, [lab], before
            )
        else:
            k = int(lab[1:])
            R[k - 1] = mutual_info(law, [lab], before)
        before.append(lab)
    return RateFronthaulPoint(R, C)


def greedy_corner(slack, order: SolveOrder) -> RateFronthaulPoint:
    """Corner of the region {slack(point, S, T) >= 0} for one solve order.

    Step k sets the constraint with S = I_k u {b_k}, T = J_k (rate step)
    or S = I_k, T = J_k u {b_k} (fronthaul step) to equality.  The slack
    is read at the point solved so far, with the new coordinate still 0:
    the rate is that slack, the capacity minus it.
    """
    K, L = order.K, order.L
    vec = np.zeros(K + L)
    for k, (a, b) in enumerate(zip(order.a, order.b), start=1):
        I, J = order.index_sets(k)
        # RateFronthaulPoint freezes its arrays, so it gets a copy, not a view
        point = RateFronthaulPoint.from_vector(vec.copy(), K, L)
        if a == 1:
            vec[b - 1] = slack(point, I | {b}, J)
        else:
            vec[K + b - 1] = -slack(point, I, J | {b})
    return RateFronthaulPoint.from_vector(vec, K, L)


def corner_iterative(law: JointLaw, order: SolveOrder) -> RateFronthaulPoint:
    """Joint-decoding corner solved one coordinate at a time, in the given order."""
    return greedy_corner(partial(jd_slack, law), order)


def corner_closed(law: JointLaw, order: SolveOrder) -> RateFronthaulPoint:
    """Closed-form corner point; agrees with corner_iterative to 1e-9."""
    K, L = order.K, order.L
    R = np.zeros(K)
    C = np.zeros(L)
    a, b = order.a, order.b
    for k in range(1, K + L + 1):
        I, J = order.index_sets(k)
        Ic = set(range(1, K + 1)) - I
        Jc = set(range(1, L + 1)) - J
        bk = b[k - 1]
        if a[k - 1] == 1:
            R[bk - 1] = mutual_info(law, [f"X{bk}"], _yhs(Jc), _xs(Ic - {bk}))
        else:
            C[bk - 1] = mutual_info(law, [f"Y{bk}"], [f"Yh{bk}"]) - mutual_info(
                law, [f"Yh{bk}"], _xs(Ic) + _yhs(Jc - {bk})
            )
    return RateFronthaulPoint(R, C)


def solve_order_to_decode_order(order: SolveOrder) -> DecodeOrder:
    """Successive-decoding order achieving the corner of a solve order.

    The solve order is reversed wholesale: the coordinate solved last is
    decoded first, with R_i mapping to X_i and C_j mapping to Yh_j.
    """
    labels = []
    for lab in reversed(order.labels):
        if lab.startswith("R"):
            labels.append("X" + lab[1:])
        else:
            labels.append("Yh" + lab[1:])
    return DecodeOrder(tuple(labels), order.K, order.L)


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
        for r in range(a.shape[0]):
            if r != rank:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


@dataclass(frozen=True)
class CornerReport:
    in_region: bool
    rank: int
    is_corner: bool
    negative_coords: tuple  # coordinate labels below -NEGATIVE_RATE_TOL

    @property
    def in_nonnegative_orthant(self) -> bool:
        return not self.negative_coords


def check_corner(region: Region, point: RateFronthaulPoint) -> CornerReport:
    """Check corner-hood: region membership plus K+L independent tight constraints.

    A true corner needs the normals of the tight rows of A (the zero row
    of (S, T) = (empty, empty) left out) to have full rank K+L.  Negative
    coordinates are flagged, not clamped.
    """
    K, L = len(point.R), len(point.C)
    s = region.slacks(point)
    tight = (np.abs(s) <= ACTIVE_TOL) & region.A.any(axis=1)
    rank = _row_rank(region.A[tight])
    in_region = bool(s.min() >= -MEMBERSHIP_TOL)
    negative = tuple(
        lab
        for lab, v in zip(coord_labels(K, L), point.as_vector())
        if v < -NEGATIVE_RATE_TOL
    )
    return CornerReport(
        in_region=in_region,
        rank=rank,
        is_corner=in_region and rank >= K + L,
        negative_coords=negative,
    )


def verify_corner(law: JointLaw, point: RateFronthaulPoint) -> CornerReport:
    """Corner-hood of `point` in the joint-decoding region."""
    return check_corner(jd_region(law), point)


@dataclass(frozen=True)
class CornerEnumeration:
    corners: tuple  # (SolveOrder, RateFronthaulPoint) per permutation
    vertices: tuple  # deduplicated RateFronthaulPoints


def dedup_points(points, tol: float = DEDUP_TOL):
    """Deduplicate in the infinity norm, keeping first occurrences.

    `points` are RateFronthaulPoints or 1-D arrays of one length; a point
    is kept when it lies farther than `tol` from every point kept before.
    """
    points = list(points)
    out = []
    if not points:
        return out
    vecs = np.array(
        [p.as_vector() if isinstance(p, RateFronthaulPoint) else p for p in points],
        dtype=float,
    )
    kept = np.empty_like(vecs)
    for p, v in zip(points, vecs):
        if not np.any(np.max(np.abs(kept[: len(out)] - v), axis=1) <= tol):
            kept[len(out)] = v
            out.append(p)
    return out


def enumerate_orders(corner, K: int, L: int, dedup_tol: float) -> CornerEnumeration:
    """corner(order) for every solve order, plus the distinct vertices.

    Each corner is one permutation applied greedily, as in Edmonds'
    greedy algorithm on polymatroids, so one loop serves both directions.
    """
    corners = tuple((order, corner(order)) for order in solve_orders(K, L))
    vertices = dedup_points([p for _, p in corners], dedup_tol)
    return CornerEnumeration(corners, tuple(vertices))


def enumerate_corners(
    law: JointLaw, dedup_tol: float = DEDUP_TOL
) -> CornerEnumeration:
    """All (K+L)! corner points, one per solve order, plus the distinct vertices,
    computed once per law and `dedup_tol`."""
    return law.memo(("jd corners", dedup_tol), lambda: enumerate_orders(
        partial(corner_closed, law), *uplink_dims(law), dedup_tol))
