"""Dominant face of the uplink joint-decoding region.

The dominant face collects the region points with
C([L]) - R([K]) = I(Y_1..Y_L; Yh_1..Yh_L | X_1..X_K); every region point
is dominated by a face point, so splitting schemes only ever target the
face.  This module provides the two equivalent face descriptions, the
faces F_{S,T} cut out by tight (S, T) constraints, their product
decomposition into sub-face factors, and the degeneracy/dimension
predicates that detect when the network factors into independent
sub-networks.

Every bound here is a signed sum of entropies of variable subsets, so the
bounds are built per law as gathers of conditional mutual informations
on variable bitmasks over the single master joint law (`prob.gather`,
which reads each subset's entropy once into the law's one cache):
`face_bounds` holds the two-sided rows of `on_dominant_face_alt`, and,
as the admissible queries (S, T) are the alt rows but the first and the
last, in order, the caps of the queries as one region of those rows held
at their upper bound and the two cross informations of
`degeneracy_condition`, the first of them the alt rows' own; all read the
entropies of the alt rows.  `_sub_face_bounds` holds the rows and bounds
of the two sub-faces of every admissible query, as flat arrays.  A query
is found by the row of its bitmask (`Region.row_of_mask`).  The marginal
channels of the two sub-problems are never materialized.  D_{S,T} and
D_{S^c,T^c | S,T} are the faces of the (S, T) sub-network and of the
(S^c, T^c) one that sees X_S, Yh_T.  Every predicate takes an (n, K+L)
stack of points and gives one bool per point, from one product per region
and STACK_CHUNK points; a single point is a stack of one.  The
face-decomposition check takes the queries of a law in groups of one face
size and one |S| + |T|, and each step is one call on a (queries, points,
K+L) stack of stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prob import (
    FACE_TOL,
    MEMBERSHIP_TOL,
    MI_ZERO_TOL,
    JointLaw,
    gather,
    subsets,
)
from .uplink import (
    STACK_CHUNK,
    Region,
    _mask,
    _row_rank,
    dedup_index,
    enumerate_corners,
    in_jd_region,
    jd_region,
    pair_masks,
)


@dataclass(frozen=True)
class FaceQuery:
    """User subset S and relay subset T selecting the face F_{S,T}."""

    S: frozenset
    T: frozenset

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(self.S))
        object.__setattr__(self, "T", frozenset(self.T))

    def validate(self, K: int, L: int):
        if not (self.S <= set(range(1, K + 1)) and self.T <= set(range(1, L + 1))):
            raise ValueError(f"face query out of range for K={K}, L={L}: {self}")
        if not (self.S | self.T):
            raise ValueError("face query needs S u T nonempty")
        if len(self.S) + len(self.T) == K + L:
            raise ValueError("face query needs S^c u T^c nonempty")

    def mask(self, K: int, L: int) -> np.ndarray:
        """Boolean mask of the R_S and C_T coordinates in a (K+L)-vector."""
        m = np.zeros(K + L, dtype=bool)
        m[[i - 1 for i in self.S]] = True
        m[[K + j - 1 for j in self.T]] = True
        return m


def admissible_queries(K: int, L: int):
    """Every (S, T) with S u T and S^c u T^c nonempty."""
    for S in subsets(range(1, K + 1)):
        for T in subsets(range(1, L + 1)):
            if 0 < len(S) + len(T) < K + L:
                yield FaceQuery(S, T)


def face_queries(law: JointLaw) -> tuple:
    """The `admissible_queries` of `law`, in their order, one tuple per law."""
    return law.memo("face queries", lambda: tuple(admissible_queries(*law.dims("uplink"))))


def _query_index(law: JointLaw, q: FaceQuery) -> int:
    """The position of q in `face_queries`, found by bitmask: the queries are the
    pairs of the joint-decoding rows but the first, (empty, empty), and the
    last, ([K], [L]), in their order, so query i is row i + 1."""
    K, L = law.dims("uplink")
    q.validate(K, L)
    return int(jd_region(law).row_of_mask[_mask(q.S) | _mask(q.T) << K]) - 1


def _face_row(law: JointLaw) -> Region:
    """The ([K], [L]) row, the last of the joint-decoding region, held at its bound."""
    jd = jd_region(law)
    return Region(jd.pairs[-1:], jd.A[-1:], jd.lb[-1:], jd.lb[-1:])


def face_gap(law: JointLaw, points) -> np.ndarray:
    """C([L]) - R([K]) minus the face level I(Y_all; Yh_all | X_all), per point
    of an (n, K+L) stack.

    That level is the joint-decoding right-hand side f([K], [L]), so the
    gap is the slack of the ([K], [L]) constraint.
    """
    row = law.memo("face", lambda: _face_row(law))
    return np.asarray(points) @ row.A[0] - row.lb[0]


def on_dominant_face(law: JointLaw, points, tol: float = MEMBERSHIP_TOL):
    """In the region with no face gap: the gap is the slack of the ([K], [L])
    row, the last row of the joint-decoding region, held at 0."""
    face = law.memo("face", lambda: _face_row(law))
    return in_jd_region(law, points, tol) & face.contains(points, tol)


def on_dominant_face_alt(law: JointLaw, points, tol: float = MEMBERSHIP_TOL):
    """Alternative description: two-sided constraint per (S, T) pair.

    For every S, T the gap C(T) - R(S) must sit between
    I(Y_T;Yh_T|X_[K]) - I(X_S;Yh_{T^c}|X_{S^c}) and I(Y_T;Yh_T|X_S).
    Agrees with `on_dominant_face` everywhere (verified numerically).
    """
    return face_bounds(law)[0].contains(points, tol)


def in_face_FST(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership in F_{S,T}: on the dominant face with C(T) - R(S) at its cap,
    the one row with lb = ub = I(Y_T; Yh_T | X_S)."""
    i, caps = _query_index(law, q), face_bounds(law)[1]
    cap = Region(caps.pairs[i:i + 1], caps.A[i:i + 1], caps.lb[i:i + 1], caps.ub[i:i + 1])
    return on_dominant_face(law, points, tol) & cap.contains(points, tol)


def in_sub_face_DST(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership of the (S, T) coordinates in the leading sub-face factor, the
    face of the (S, T) sub-network alone, a region made on demand (`_sub_face`).

    Only the R_S and C_T coordinates of `points` are read.
    """
    return _sub_face(law, q, "DST").contains(points, tol)


def in_sub_face_cond(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership of the complement coordinates in the conditional sub-face,
    a region made on demand (`_sub_face`).

    The conditional sub-problem sees (X_S, Yh_T) as decoder side
    information; only the R_{S^c} and C_{T^c} coordinates are read.
    """
    return _sub_face(law, q, "cond").contains(points, tol)


def face_bounds(law: JointLaw) -> tuple:
    """The bounds of the faces, built once per law from one gather
    (`prob.gather`): (alt, caps, cross).  `alt` is the region of
    `on_dominant_face_alt`.  Query i of `face_queries` is alt row i + 1, so
    the caps are one region of the alt rows but the first and the last, each
    held at its upper bound, and cross is the (Q, 2) array of the two cross
    informations of `degeneracy_condition`, the first of them alt's."""
    return law.memo("face bounds", lambda: _face_bounds(law))


def sub_face_bounds(law: JointLaw) -> tuple:
    """The sub-face regions of the queries (`_sub_face`), in `face_queries`
    order: a list of their D_{S,T} and a list of their conditional sub-faces."""
    return tuple([_sub_face(law, q, s) for q in face_queries(law)] for s in ("DST", "cond"))


def _sub_face(law: JointLaw, q: FaceQuery, side: str) -> Region:
    """Sub-face "DST" or "cond" of q: its segment of the arrays of `_sub_face_bounds`."""
    i, jd = _query_index(law, q), jd_region(law)
    face, row, lb, ub = law.memo("sub-face bounds", lambda: _sub_face_bounds(law))
    k = i + (side == "cond") * len(face_queries(law))  # every D_{S,T} comes first
    seg = slice(*np.searchsorted(face, [k, k + 1]))
    return Region(tuple(jd.pairs[r] for r in row[seg].tolist()), jd.A[row[seg]], lb[seg], ub[seg])


def _face_bounds(law: JointLaw) -> tuple:
    """The alt region, caps and cross informations, from one gather.

    User k and relay l are bit k - 1 of a user and of a relay mask
    (`pair_masks` of the alt rows, which are the joint-decoding rows), and
    X_k, Y_l and Yh_l are bits k - 1, K + l - 1 and K + L + l - 1 of a
    variable mask of the law.  The queries are the alt rows 1..-2."""
    K, L = law.dims("uplink")
    jd = jd_region(law)
    S, T = pair_masks(jd.A, K)
    qs, qt = S[1:-1], T[1:-1]
    users, relays = (1 << K) - 1, (1 << L) - 1
    y, yh = K, K + L  # the shifts of Y and Yh
    lb, cross, ub, cross_b = gather(law, [
        (T << y, T << yh, users), (S, (relays & ~T) << yh, users & ~S), (T << y, T << yh, S),
        (users & ~qs, qt << yh, qs),
    ])
    caps = Region(jd.pairs[1:-1], jd.A[1:-1], ub[1:-1], ub[1:-1])
    return Region(jd.pairs, jd.A, lb - cross, ub), caps, np.column_stack([cross[1:-1], cross_b])


def _sub_face_bounds(law: JointLaw) -> tuple:
    """D_{S,T} of each query, then D_{S^c,T^c | S,T} of each query: the face of
    the sub-network of `users` and `relays` whose decoder sees X_zs and Yh_zt.
    A sub-face keeps, in their order, the rows of the alt region whose pair
    lies within its users and relays.  The gather arrays: each row's sub-face
    (query i's D_{S,T} is i, its conditional one Q + i), alt row and bounds."""
    K, L = law.dims("uplink")
    S, T = pair_masks(jd_region(law).A, K)
    qs, qt = S[1:-1], T[1:-1]  # the queries are the rows but the first and the last
    y, yh = K, K + L  # the shifts of Y and Yh
    users = np.concatenate([qs, ((1 << K) - 1) & ~qs])
    relays = np.concatenate([qt, ((1 << L) - 1) & ~qt])
    zs, zt = np.concatenate([0 * qs, qs]), np.concatenate([0 * qt, qt])
    face, row = np.nonzero(((S & ~users[:, None]) == 0) & ((T & ~relays[:, None]) == 0))
    U, R, zs, zt, A, B = users[face], relays[face], zs[face], zt[face], S[row], T[row]
    side = (R & ~B | zt) << yh
    # For A in `users` and B in `relays`, C(B) - R(A) lies between
    # I(Y_B; Yh_B | X_{users+zs}, Yh_{relays-B+zt}) - I(X_A; Yh_{relays-B+zt} | X_{users-A+zs})
    # and I(Y_B; Yh_B | X_{A+zs}, Yh_zt) - I(X_A; Yh_zt | X_zs).
    lb, lb_cross, ub, ub_cross = gather(law, [
        (B << y, B << yh, U | zs | side), (A, side, U & ~A | zs),
        (B << y, B << yh, A | zs | zt << yh), (A, zt << yh, zs),
    ])
    return face, row, lb - lb_cross, ub - ub_cross


def sample_face_points(law: JointLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """An (n, K+L) stack of random dominant-face members: Dirichlet convex
    combinations of face corners."""
    mat = enumerate_corners(law).vertices
    weights = rng.dirichlet(np.ones(len(mat)), size=n)  # the draws of n calls, in order
    # one product per row: a single weights @ mat rounds most rows differently
    return np.array([w @ mat for w in weights]).reshape(n, mat.shape[1])


@dataclass(frozen=True)
class FaceDecompositionReport:
    forward_failures: int
    converse_failures: int

    @property
    def passed(self) -> bool:
        return self.forward_failures == 0 and self.converse_failures == 0


def check_face_decomposition(law: JointLaw, q: FaceQuery, samples: int = 200, seed: int = 0,
                             tol: float = FACE_TOL) -> FaceDecompositionReport:
    """Numerical check of F_{S,T} = D_{S,T} x D_{S^c,T^c | S,T}.

    Forward: every corner on F_{S,T} and random convex combinations of
    them satisfy both sub-face predicates.  Converse: recombining the
    (S,T) half of one face sample with the complement half of another
    (a generic member of the product) lands back on F_{S,T}.  This is the
    stacked pass of `face_decomposition_failures` on the one query q.
    """
    i = _query_index(law, q)
    failures = face_decomposition_failures(law, (q,), samples, seed, tol)
    return FaceDecompositionReport(*failures[:, i].tolist())


def face_decomposition_failures(law: JointLaw, queries, samples: int = 200, seed: int = 0,
                                tol: float = FACE_TOL) -> np.ndarray:
    """The forward and converse failure counts of `check_face_decomposition` for
    `queries`, a (2, Q) array over `face_queries`, in one stacked pass: per group
    of `_face_plan` a call on its D_{S,T} rows and one on its conditional rows, and
    for all the converse points one on the dominant face and one on their caps."""
    (groups, cap), wanted = law.memo(("face plan", tol), lambda: _face_plan(law, tol)), set(queries)
    picked = np.array([q in wanted for q in face_queries(law)])
    failures, drawn, done = np.zeros((2, len(picked)), int), 0, []
    for at, corners, subs, mask in groups:
        n, sel = corners.shape[1], np.flatnonzero(picked[at])
        if n != drawn and len(sel):  # forward, then converse, as each query drew them
            rng, ones, drawn = np.random.default_rng(seed), np.ones(n), n
            forward_w, converse_w = rng.dirichlet(ones, samples), rng.dirichlet(ones, (samples, 2))
        step = max(1, STACK_CHUNK // 4 // (n + samples))  # a quarter keeps the slacks in cache
        for j in (sel[i:i + step] for i in range(0, len(sel), step)):
            mat = enumerate_corners(law).vertices[corners[j]]
            points = np.concatenate([mat, forward_w @ mat], axis=1)
            forward = np.all([Region((), *(a[j] for a in sub)).contains(points, tol)
                              for sub in subs], axis=0)
            failures[0, at[j]] = np.count_nonzero(~forward, axis=1)
            points = np.where(mask[j, None], converse_w[:, 0] @ mat, converse_w[:, 1] @ mat)
            done.append((at[j], points))
    at, points = (np.concatenate(x) for x in zip(*done)) if done else (np.zeros(0, int), None)
    step = max(1, STACK_CHUNK // 4 // max(samples, 1))
    for c in (slice(i, i + step) for i in range(0, len(at), step)):
        on = on_dominant_face(law, points[c], tol)
        failures[1, at[c]] = np.count_nonzero(
            ~(on & Region((), *(a[at[c]] for a in cap)).contains(points[c], tol)), axis=1)
    return failures


def _face_plan(law: JointLaw, tol: float) -> tuple:
    """The queries with a nonempty face at `tol` in groups of one face size n and
    one m = |S| + |T|: their positions, (G, n) face corners, the normals and
    (G, 1, rows) bounds of their 2^m D_{S,T} rows and 2^(K+L-m) conditional
    rows, and their coordinate masks; and the `face_bounds` caps of all the
    queries as (Q, 1, K+L) normals and (Q, 1, 1) bounds."""
    face, row, lb, ub = law.memo("sub-face bounds", lambda: _sub_face_bounds(law))
    rows = law.memo(("face corners", tol), lambda: _face_corner_rows(law, tol))
    caps = face_bounds(law)[1]
    masks = caps.A != 0
    start, m, groups = np.searchsorted(face, np.arange(2 * len(rows))), masks.sum(axis=1), []
    size = np.array([len(r) for r in rows])
    for n, k in sorted({(n, k) for n, k in zip(size.tolist(), m.tolist()) if n}):
        at = np.flatnonzero((size == n) & (m == k))
        blocks = (at, 1 << k), (len(rows) + at, 1 << (masks.shape[1] - k))  # D_{S,T}, cond
        subs = [(jd_region(law).A[row[i]], lb[i][:, None], ub[i][:, None])
                for i in (start[f, None] + np.arange(r) for f, r in blocks)]
        groups.append((at, np.array([rows[a] for a in at]), subs, masks[at]))
    return groups, (caps.A[:, None], caps.lb[:, None, None], caps.ub[:, None, None])


def face_corners(law: JointLaw, q: FaceQuery, tol: float = FACE_TOL) -> np.ndarray:
    """The vertices of the region on F_{S,T}: those `in_face_FST` admits.

    The vertices of every admissible query are found at once, once per law
    and `tol`, from the dominant-face mask and one product over the caps of
    `face_bounds`, STACK_CHUNK vertices at a time.
    """
    i, vertices = _query_index(law, q), enumerate_corners(law).vertices
    return vertices[law.memo(("face corners", tol), lambda: _face_corner_rows(law, tol))[i]]


def _face_corner_rows(law: JointLaw, tol: float) -> list:
    """The vertex rows of the face of each query, in `face_queries` order."""
    vertices, caps = enumerate_corners(law).vertices, face_bounds(law)[1]
    on = np.flatnonzero(on_dominant_face(law, vertices, tol))
    at_cap = np.empty((len(on), len(caps.A)), dtype=bool)
    for i in range(0, len(on), STACK_CHUNK):
        at_cap[i:i + STACK_CHUNK] = caps.slacks(vertices[on[i:i + STACK_CHUNK]]) >= -tol
    return [on[rows] for rows in at_cap.T]


def degeneracy_condition(law: JointLaw, q: FaceQuery) -> bool:
    """True iff the (S, T) block decouples: both cross informations
    I(X_S; Yh_{T^c} | X_{S^c}) and I(X_{S^c}; Yh_T | X_S) vanish.  The verdicts
    of all the queries are one list of Python bools per law."""
    degenerate = law.memo("degenerate", lambda: (
        face_bounds(law)[2] <= MI_ZERO_TOL).all(axis=1).tolist())
    return degenerate[_query_index(law, q)]


def check_degenerate_factorization(law: JointLaw, q: FaceQuery) -> bool:
    """Check D = D_{S,T} x D_{S^c,T^c} via corner sets.

    Under factorization the corner set of D equals the Cartesian product
    of its coordinate projections, which are exactly the corner sets of
    the two independent sub-problems.  Each vertex reads as the pair of
    its projections' kept rows, so the set is that product when the pairs
    are distinct and as many as the product has.
    """
    K, L = law.dims("uplink")
    q.validate(K, L)
    mask = q.mask(K, L)
    if not mask[0]:
        mask = ~mask  # the complement query splits the coordinates the same way

    def factorizes():
        mat = enumerate_corners(law).vertices  # distinct at DEDUP_TOL = FACE_TOL
        n = len(mat)  # at least 1: dedup keeps the first corner
        a = dedup_index(mat[:, mask], FACE_TOL)
        n_a = np.count_nonzero(a == np.arange(n))
        if n % n_a:  # no product of n_a rows has n vertices
            return False
        b = dedup_index(mat[:, ~mask], FACE_TOL)
        n_b = np.count_nonzero(b == np.arange(n))
        return bool(n == n_a * n_b and len(np.unique(a * n + b)) == n)

    return law.memo(("factorizes", mask.tobytes()), factorizes)


def dominant_face_dimension(law: JointLaw) -> int:
    """Affine dimension of the dominant face from its enumerated corners."""
    mat = enumerate_corners(law).vertices
    if len(mat) <= 1:
        return 0
    diffs = mat[1:] - mat[0]
    return _row_rank(diffs)
