"""Dominant face of the uplink joint-decoding region.

The dominant face collects the region points with
C([L]) - R([K]) = I(Y_1..Y_L; Yh_1..Yh_L | X_1..X_K); every region point
is dominated by a face point, so splitting schemes only ever target the
face.  This module provides the two equivalent face descriptions, the
faces F_{S,T} cut out by tight (S, T) constraints, their product
decomposition into sub-face factors, and the degeneracy/dimension
predicates that detect when the network factors into independent
sub-networks.

All sub-face predicates are evaluated as conditional mutual informations
on the single master joint law; the marginal channels of the two
sub-problems are never materialized.  D_{S,T} and D_{S^c,T^c | S,T} are the
faces of the (S, T) sub-network and of the (S^c, T^c) one that sees X_S, Yh_T
(`_sub_face`).  The two-sided bounds of a predicate form one `Region`, built
once per law and query (`JointLaw.memo`).  Every predicate takes an
(n, K+L) stack of points and gives one bool per point, from one product per
region and STACK_CHUNK points; a single point is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prob import (
    FACE_TOL,
    MEMBERSHIP_TOL,
    MI_ZERO_TOL,
    JointLaw,
    mutual_info,
    x_names,
    y_names,
    yh_names,
)
from .uplink import (
    Region,
    _row_rank,
    build_region,
    dedup_index,
    enumerate_corners,
    in_jd_region,
    jd_region,
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
    K, L = law.dims("uplink")
    allx = x_names(range(1, K + 1))

    def bounds(S, T):
        Sc = set(range(1, K + 1)) - S
        Tc = set(range(1, L + 1)) - T
        lb = mutual_info(law, y_names(T), yh_names(T), allx) - mutual_info(
            law, x_names(S), yh_names(Tc), x_names(Sc)
        )
        return lb, mutual_info(law, y_names(T), yh_names(T), x_names(S))

    region = law.memo("alt", lambda: build_region(K, L, range(1, K + 1), range(1, L + 1), bounds))
    return region.contains(points, tol)


def _cap_row(law: JointLaw, q: FaceQuery) -> Region:
    """C(T) - R(S) at its cap: one row with lb = ub = I(Y_T; Yh_T | X_S)."""
    K, L = law.dims("uplink")
    q.validate(K, L)

    def build():
        normal = q.mask(K, L) * np.repeat([-1.0, 1.0], [K, L])
        cap = np.array([mutual_info(law, y_names(q.T), yh_names(q.T), x_names(q.S))])
        return Region(((q.S, q.T),), normal[None], cap, cap)

    return law.memo(("cap", q), build)


def in_face_FST(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership in F_{S,T}: on the dominant face with C(T) - R(S) at its cap."""
    cap = _cap_row(law, q)
    return on_dominant_face(law, points, tol) & cap.contains(points, tol)


def _sub_face(law: JointLaw, users, relays, zs=frozenset(), zt=frozenset()) -> Region:
    """The dominant face of the sub-network of `users` and `relays` whose decoder
    sees X_zs and Yh_zt.  For A in `users` and B in `relays`, C(B) - R(A) lies
    between I(Y_B; Yh_B | X_{users+zs}, Yh_{relays-B+zt})
    - I(X_A; Yh_{relays-B+zt} | X_{users-A+zs}) and
    I(Y_B; Yh_B | X_{A+zs}, Yh_zt) - I(X_A; Yh_zt | X_zs)."""
    K, L = law.dims("uplink")
    x_all, x_z, yh_z = x_names(users | zs), x_names(zs), yh_names(zt)

    def bounds(A, B):
        side = yh_names((relays - B) | zt)
        lb = mutual_info(law, y_names(B), yh_names(B), x_all + side) - mutual_info(
            law, x_names(A), side, x_names((users - A) | zs))
        ub = mutual_info(law, y_names(B), yh_names(B), x_names(A | zs) + yh_z)
        return lb, ub - mutual_info(law, x_names(A), yh_z, x_z)

    return build_region(K, L, users, relays, bounds)


def in_sub_face_DST(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership of the (S, T) coordinates in the leading sub-face factor, the
    face of the (S, T) sub-network alone.

    Only the R_S and C_T coordinates of `points` are read.
    """
    q.validate(*law.dims("uplink"))
    return law.memo(("DST", q), lambda: _sub_face(law, q.S, q.T)).contains(points, tol)


def in_sub_face_cond(law: JointLaw, points, q: FaceQuery, tol: float = FACE_TOL):
    """Membership of the complement coordinates in the conditional sub-face.

    The conditional sub-problem sees (X_S, Yh_T) as decoder side
    information; only the R_{S^c} and C_{T^c} coordinates are read.
    """
    K, L = law.dims("uplink")
    q.validate(K, L)
    Sc, Tc = frozenset(range(1, K + 1)) - q.S, frozenset(range(1, L + 1)) - q.T
    return law.memo(("cond", q), lambda: _sub_face(law, Sc, Tc, q.S, q.T)).contains(points, tol)


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


def check_face_decomposition(
    law: JointLaw,
    q: FaceQuery,
    samples: int = 200,
    seed: int = 0,
    tol: float = FACE_TOL,
) -> FaceDecompositionReport:
    """Numerical check of F_{S,T} = D_{S,T} x D_{S^c,T^c | S,T}.

    Forward: every corner on F_{S,T} and random convex combinations of
    them satisfy both sub-face predicates.  Converse: recombining the
    (S,T) half of one face sample with the complement half of another
    (a generic member of the product) lands back on F_{S,T}.
    """
    K, L = law.dims("uplink")
    cap = _cap_row(law, q)
    rng = np.random.default_rng(seed)
    vertices = enumerate_corners(law).vertices
    # in_face_FST on the vertices, with their face mask found once per law
    on_face = law.memo(("face vertices", tol), lambda: on_dominant_face(law, vertices, tol))
    mat = vertices[on_face & cap.contains(vertices, tol)]
    if not len(mat):
        return FaceDecompositionReport(0, 0)
    # each point set is one stack; the draws are those of one call per sample, in order
    ones = np.ones(len(mat))
    points = np.vstack([mat, rng.dirichlet(ones, size=samples) @ mat])
    forward = in_sub_face_DST(law, points, q, tol) & in_sub_face_cond(law, points, q, tol)
    w = rng.dirichlet(ones, size=(samples, 2))
    converse = in_face_FST(law, np.where(q.mask(K, L), w[:, 0] @ mat, w[:, 1] @ mat), q, tol)
    return FaceDecompositionReport(int(np.sum(~forward)), int(np.sum(~converse)))


def degeneracy_condition(law: JointLaw, q: FaceQuery) -> bool:
    """True iff the (S, T) block decouples: both cross informations vanish."""
    K, L = law.dims("uplink")
    q.validate(K, L)
    S, T = set(q.S), set(q.T)
    Sc = set(range(1, K + 1)) - S
    Tc = set(range(1, L + 1)) - T
    a = mutual_info(law, x_names(S), yh_names(Tc), x_names(Sc))
    b = mutual_info(law, x_names(Sc), yh_names(T), x_names(S))
    return a <= MI_ZERO_TOL and b <= MI_ZERO_TOL


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
        a = dedup_index(mat[:, mask], FACE_TOL)
        b = dedup_index(mat[:, ~mask], FACE_TOL)
        n = len(mat)
        n_a, n_b = np.count_nonzero(a == np.arange(n)), np.count_nonzero(b == np.arange(n))
        return bool(n == n_a * n_b and len(np.unique(a * n + b)) == n)

    return law.memo(("factorizes", mask.tobytes()), factorizes)


def dominant_face_dimension(law: JointLaw) -> int:
    """Affine dimension of the dominant face from its enumerated corners."""
    mat = enumerate_corners(law).vertices
    if len(mat) <= 1:
        return 0
    diffs = mat[1:] - mat[0]
    return _row_rank(diffs)
