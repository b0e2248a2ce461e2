"""Dominant face of the uplink joint-decoding region.

The dominant face collects the region points with
C([L]) - R([K]) = I(Y_1..Y_L; Yh_1..Yh_L | X_1..X_K); every region point
is dominated by a face point, so splitting schemes only ever target the
face.  This module provides the two equivalent face descriptions, the
faces F_{S,T} cut out by tight (S, T) constraints, their product
decomposition into the sub-faces D_{S,T} and D_{S^c,T^c | S,T} (the faces
of the (S, T) sub-network and of the (S^c, T^c) one that sees X_S, Yh_T),
and the degeneracy/dimension predicates that detect when the network
factors into independent sub-networks.  Every bound is a signed sum of
entropies, built per law as one gather (`face_bounds`, `_sub_face_bounds`),
and every predicate takes an (n, K+L) stack of points.

The face checks are exact on the enumerated vertices, with no draws:
`lemma4` counts per query the vertices of F_{S,T} outside a sub-face and
the pairs of distinct projections of F's vertices that no vertex has, and
`lemma5` asks per split whether the whole vertex set is the product of its
two projections.  Both read one product test, `_product_counts`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prob import (
    FACE_TOL,
    MEMBERSHIP_TOL,
    MI_ZERO_TOL,
    PIVOT_TOL,
    JointLaw,
    gather,
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

PRODUCT_BUDGET = 1 << 14  # entries (rows x columns) per dedup_index call of _projection_classes


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
    """Every (S, T) with S u T and S^c u T^c nonempty: the pairs of the
    coordinate bitmasks 1..2^(K+L) - 2, in that order."""
    for m in range(1, (1 << K + L) - 1):
        yield FaceQuery({k + 1 for k in range(K) if m >> k & 1},
                        {l + 1 for l in range(L) if m >> K + l & 1})


def face_queries(law: JointLaw) -> tuple:
    """The `admissible_queries` of `law`, in their order, one tuple per law."""
    return law.memo("face queries", lambda: tuple(admissible_queries(*law.dims("uplink"))))


def _query_index(law: JointLaw, q: FaceQuery) -> int:
    """The position of q in `face_queries`: its coordinate bitmask minus 1, as
    the queries are the bitmasks but the first, (empty, empty), and the last,
    ([K], [L]); so query i is joint-decoding row i + 1."""
    K, L = law.dims("uplink")
    q.validate(K, L)
    return (_mask(q.S) | _mask(q.T) << K) - 1


def _face_row(law: JointLaw) -> Region:
    """The ([K], [L]) row, the last of the joint-decoding region, held at its bound."""
    jd = jd_region(law)
    return Region(jd.A[-1:], jd.lb[-1:], jd.lb[-1:])


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
    cap = Region(caps.A[i:i + 1], caps.lb[i:i + 1], caps.ub[i:i + 1])
    return on_dominant_face(law, points, tol) & cap.contains(points, tol)


def in_sub_face_DST(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership of the R_S and C_T coordinates in D_{S,T}, the face of the
    (S, T) sub-network alone, a region made on demand (`_sub_face`)."""
    return _sub_face(law, q, "DST").contains(points, tol)


def in_sub_face_cond(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership of the R_{S^c} and C_{T^c} coordinates in the conditional
    sub-face, whose decoder sees (X_S, Yh_T), made on demand (`_sub_face`)."""
    return _sub_face(law, q, "cond").contains(points, tol)


def face_bounds(law: JointLaw) -> tuple:
    """The bounds of the faces, built once per law from one gather
    (`prob.gather`): (alt, caps, cross).  `alt` is the region of
    `on_dominant_face_alt`.  Query i of `face_queries` is alt row i + 1, so
    the caps are one region of the alt rows but the first and the last, each
    held at its upper bound, and cross is the (Q, 2) array of the two cross
    informations of `degeneracy_condition`, the first of them alt's."""
    return law.memo("face bounds", lambda: _face_bounds(law))


def _sub_face(law: JointLaw, q: FaceQuery, side: str) -> Region:
    """Sub-face "DST" or "cond" of q: its segment of the arrays of `_sub_face_bounds`."""
    i, jd = _query_index(law, q), jd_region(law)
    face, row, lb, ub = law.memo("sub-face bounds", lambda: _sub_face_bounds(law))
    k = 2 * i + (side == "cond")
    seg = slice(*np.searchsorted(face, [k, k + 1]))
    return Region(jd.A[row[seg]], lb[seg], ub[seg])


def _face_bounds(law: JointLaw) -> tuple:
    """The alt region, caps and cross informations, from one gather.

    User k and relay l are bit k - 1 of a user and of a relay mask
    (`pair_masks`, of the alt rows, which are the joint-decoding rows), and
    X_k, Y_l and Yh_l are bits k - 1, K + l - 1 and K + L + l - 1 of a
    variable mask of the law.  The queries are the alt rows 1..-2."""
    K, L = law.dims("uplink")
    jd = jd_region(law)
    S, T = pair_masks(K, L)
    qs, qt = S[1:-1], T[1:-1]
    users, relays = (1 << K) - 1, (1 << L) - 1
    y, yh = K, K + L  # the shifts of Y and Yh
    lb, cross, ub, cross_b = gather(law, [
        (T << y, T << yh, users), (S, (relays & ~T) << yh, users & ~S), (T << y, T << yh, S),
        (users & ~qs, qt << yh, qs),
    ])
    caps = Region(jd.A[1:-1], ub[1:-1], ub[1:-1])
    return Region(jd.A, lb - cross, ub), caps, np.column_stack([cross[1:-1], cross_b])


def _sub_face_bounds(law: JointLaw) -> tuple:
    """D_{S,T} and D_{S^c,T^c | S,T} of each query: the face of the sub-network
    of `users` and `relays` whose decoder sees X_zs and Yh_zt.  A sub-face
    keeps, in bitmask order, the rows of the alt region whose pair lies within
    its users and relays (`pair_masks`).  The gather arrays: each row's
    sub-face, alt row and bounds.  Query i's D_{S,T} is sub-face 2i and its
    conditional one 2i + 1, so the rows of a query are one run, D_{S,T} first."""
    K, L = law.dims("uplink")
    S, T = pair_masks(K, L)
    qs, qt = S[1:-1], T[1:-1]  # the queries are the rows but the first and the last
    y, yh = K, K + L  # the shifts of Y and Yh
    users = np.column_stack([qs, ((1 << K) - 1) & ~qs]).ravel()
    relays = np.column_stack([qt, ((1 << L) - 1) & ~qt]).ravel()
    zs, zt = np.column_stack([0 * qs, qs]).ravel(), np.column_stack([0 * qt, qt]).ravel()
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


def check_face_decomposition(law: JointLaw, q: FaceQuery,
                             tol: float = FACE_TOL) -> FaceDecompositionReport:
    """Exact check of F_{S,T} = D_{S,T} x D_{S^c,T^c | S,T} on the vertices of F:
    the stacked pass of `face_decomposition_failures` on the one query q."""
    i = _query_index(law, q)
    return FaceDecompositionReport(*face_decomposition_failures(law, (q,), tol)[:, i].tolist())


def face_decomposition_failures(law: JointLaw, queries, tol: float = FACE_TOL) -> np.ndarray:
    """The forward and converse failure counts of `check_face_decomposition` for
    `queries`, a (2, Q) array over `face_queries`, in one stacked pass.

    Forward: the vertices of F outside D_{S,T} or the conditional sub-face,
    none exactly when the convex F lies in their product; each query reads
    the slacks of its face vertices on its run of sub-face rows, D_{S,T}'s
    and the conditional one's.  Converse: n_a * n_b - pairs of
    `_product_counts`, the pairs of distinct projections of F's vertices
    that no vertex has.  Projections within PIVOT_TOL, which the rank test
    reads as one point, are one: vertices that close can be merged, or left
    off the face, at FACE_TOL."""
    rows = law.memo(("face corners", tol), lambda: _face_corner_rows(law, tol))
    wanted, failures = set(queries), np.zeros((2, len(rows)), int)
    at = [i for i, (q, r) in enumerate(zip(face_queries(law), rows)) if q in wanted and len(r)]
    face, row, lb, ub = law.memo("sub-face bounds", lambda: _sub_face_bounds(law))
    vertices, normals = enumerate_corners(law).vertices, jd_region(law).A
    for i in at:
        run = slice(*np.searchsorted(face, [2 * i, 2 * i + 2]))
        s = vertices[rows[i]] @ normals[row[run]].T  # C(T) - R(S) of each face vertex and row
        failures[0, i] = np.count_nonzero(np.fmin(s - lb[run], ub[run] - s).min(axis=1) < -tol)
    masks = face_bounds(law)[1].A != 0  # R_S and C_T of each query
    n_a, n_b, pairs = _product_counts([(vertices[rows[i]], masks[i]) for i in at],
                                      max(tol, PIVOT_TOL))
    failures[1, at] = n_a * n_b - pairs
    return failures


def _product_counts(items, tol: float) -> tuple:
    """For (vertices, mask) items, an (n, d) stack and a (d,) bool mask each: the
    distinct counts n_a and n_b of the masked and the complement projections
    at `tol`, and the number of distinct (a, b) pairs of them among the n
    vertices, which are their product exactly when n_a * n_b - pairs is 0.
    Both projections of every item go through one `_projection_classes` call."""
    size = np.array([len(v) for v, _ in items], int)
    item = np.repeat(np.arange(len(items)), size)
    local = np.arange(len(item)) - np.repeat(np.cumsum(size) - size, size)  # row in its item
    a, b = np.split(_projection_classes(items + [(v, ~m) for v, m in items], tol), 2)
    keys = np.sort((np.arange(len(item)) - local + a) * len(item) + b)  # (a row, b class)
    pairs = keys[np.diff(keys, prepend=-1) != 0] // len(item)  # the a row of each distinct pair
    return tuple(np.bincount(item[x], minlength=len(size)) for x in (a == local, b == local, pairs))


def _projection_classes(items, tol: float) -> np.ndarray:
    """`dedup_index` of each (vertices, mask) item's projection at `tol`, counted
    from the item's first row, for all rows in order.  One call per run of
    items within PRODUCT_BUDGET entries: the coordinates off each mask are
    zeroed and the item's place is one more column, so two items' rows lie
    at least 1 apart; a lone item is its masked columns."""
    size = [len(v) * (len(m) + 1) for v, m in items]
    kept, start = [np.zeros(0, np.intp)], 0
    while start < len(items):
        stop, entries = start + 1, size[start]
        while stop < len(items) and entries + size[stop] <= PRODUCT_BUDGET:
            stop, entries = stop + 1, entries + size[stop]
        vertices, masks = zip(*items[start:stop])
        rows = np.array([len(v) for v in vertices])
        stack = vertices[0][:, masks[0]] if stop - start == 1 else np.column_stack([
            np.where(np.repeat(masks, rows, axis=0), np.concatenate(vertices), 0.0),
            np.repeat(np.arange(stop - start), rows)])
        kept.append(dedup_index(stack, tol) - np.repeat(rows.cumsum() - rows, rows))
        start = stop
    return kept[1] if len(kept) == 2 else np.concatenate(kept)  # one run: no copy


def face_corners(law: JointLaw, q: FaceQuery, tol: float = FACE_TOL) -> np.ndarray:
    """The vertices on F_{S,T}, those `in_face_FST` admits, found for every query
    at once per law and `tol` (`_face_corner_rows`)."""
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
    """Check D = D_{S,T} x D_{S^c,T^c} via corner sets: under factorization the
    corner set of D is the product of its two coordinate projections, the
    corner sets of the sub-problems.  All splits at once per law."""
    K, L = law.dims("uplink")
    q.validate(K, L)
    split = _mask(q.S) | _mask(q.T) << K
    if not split & 1:
        split ^= (1 << K + L) - 1  # the complement query splits the coordinates the same way
    return law.memo("factorizes", lambda: _factorizations(law))[split >> 1]


def _factorizations(law: JointLaw) -> list:
    """Whether the vertex set is the product of its two projections, one bool per
    split into the coordinates of the odd bitmask 2i + 1 and the rest: when
    n_a * n_b, the distinct (a, b) pairs and the n vertices are as many.
    Per run of splits within PRODUCT_BUDGET, one `_projection_classes` call
    on the first projections, then `_product_counts` on the splits whose n_a
    divides n, if any; no product of n_a rows has n vertices otherwise."""
    mat = enumerate_corners(law).vertices  # distinct at DEDUP_TOL = FACE_TOL
    n, d = mat.shape  # n >= 1: dedup keeps the first corner
    masks = (np.arange(1, (1 << d) - 1, 2)[:, None] >> np.arange(d) & 1).astype(bool)
    verdicts, step = np.zeros(len(masks), bool), max(1, PRODUCT_BUDGET // (n * (d + 1)))
    for i in range(0, len(masks), step):
        a = _projection_classes([(mat, m) for m in masks[i:i + step]], FACE_TOL).reshape(-1, n)
        even = i + np.flatnonzero(n % np.count_nonzero(a == np.arange(n), axis=1) == 0)
        if len(even):
            n_a, n_b, pairs = _product_counts([(mat, m) for m in masks[even]], FACE_TOL)
            verdicts[even] = (n_a * n_b == pairs) & (pairs == n)
    return verdicts.tolist()


def dominant_face_dimension(law: JointLaw) -> int:
    """Affine dimension of the dominant face from its enumerated corners."""
    mat = enumerate_corners(law).vertices
    if len(mat) <= 1:
        return 0
    diffs = mat[1:] - mat[0]
    return _row_rank(diffs)
