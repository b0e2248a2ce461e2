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
sub-problems are never materialized.  The two-sided bounds of a predicate
form one `Region`, built once per law and query (`JointLaw.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prob import FACE_TOL, MEMBERSHIP_TOL, MI_ZERO_TOL, JointLaw, mutual_info
from .uplink import (
    RateFronthaulPoint,
    _row_rank,
    _xs,
    _yhs,
    _ys,
    build_region,
    dedup_points,
    enumerate_corners,
    in_jd_region,
    jd_slack,
    uplink_dims,
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
        Sc = set(range(1, K + 1)) - self.S
        Tc = set(range(1, L + 1)) - self.T
        if not (self.S | self.T):
            raise ValueError("face query needs S u T nonempty")
        if not (Sc | Tc):
            raise ValueError("face query needs S^c u T^c nonempty")

    def mask(self, K: int, L: int) -> np.ndarray:
        """Boolean mask of the R_S and C_T coordinates in a (K+L)-vector."""
        m = np.zeros(K + L, dtype=bool)
        m[[i - 1 for i in self.S]] = True
        m[[K + j - 1 for j in self.T]] = True
        return m


def face_gap(law: JointLaw, point: RateFronthaulPoint) -> float:
    """C([L]) - R([K]) minus the face level I(Y_all; Yh_all | X_all).

    That level is the joint-decoding right-hand side f([K], [L]), so the
    gap is the slack of the ([K], [L]) constraint.
    """
    K, L = uplink_dims(law)
    return jd_slack(law, point, range(1, K + 1), range(1, L + 1))


def on_dominant_face(
    law: JointLaw, point: RateFronthaulPoint, tol: float = MEMBERSHIP_TOL
) -> bool:
    return in_jd_region(law, point, tol) and abs(face_gap(law, point)) <= tol


def on_dominant_face_alt(
    law: JointLaw, point: RateFronthaulPoint, tol: float = MEMBERSHIP_TOL
) -> bool:
    """Alternative description: two-sided constraint per (S, T) pair.

    For every S, T the gap C(T) - R(S) must sit between
    I(Y_T;Yh_T|X_[K]) - I(X_S;Yh_{T^c}|X_{S^c}) and I(Y_T;Yh_T|X_S).
    Agrees with `on_dominant_face` everywhere (verified numerically).
    """
    K, L = uplink_dims(law)
    allx = _xs(range(1, K + 1))

    def bounds(S, T):
        Sc = set(range(1, K + 1)) - S
        Tc = set(range(1, L + 1)) - T
        lb = mutual_info(law, _ys(T), _yhs(T), allx) - mutual_info(
            law, _xs(S), _yhs(Tc), _xs(Sc)
        )
        return lb, mutual_info(law, _ys(T), _yhs(T), _xs(S))

    region = law.memo("alt", lambda: build_region(K, L, range(1, K + 1), range(1, L + 1), bounds))
    return region.contains(point, tol)


def in_face_FST(
    law: JointLaw,
    point: RateFronthaulPoint,
    q: FaceQuery,
    tol: float = FACE_TOL,
) -> bool:
    """Membership in F_{S,T}: on the dominant face with C(T) - R(S) at its cap."""
    K, L = uplink_dims(law)
    q.validate(K, L)
    if not on_dominant_face(law, point, tol):
        return False
    cap = mutual_info(law, _ys(q.T), _yhs(q.T), _xs(q.S))
    return abs(point.c_sum(q.T) - point.r_sum(q.S) - cap) <= tol


def in_sub_face_DST(
    law: JointLaw,
    point: RateFronthaulPoint,
    q: FaceQuery,
    tol: float = FACE_TOL,
) -> bool:
    """Membership of the (S, T) coordinates in the leading sub-face factor.

    Only the R_S and C_T coordinates of `point` are read.
    """
    K, L = uplink_dims(law)
    q.validate(K, L)
    S, T = q.S, q.T

    def bounds(A, B):
        lb = mutual_info(law, _ys(B), _yhs(B), _xs(S) + _yhs(T - B)) - mutual_info(
            law, _xs(A), _yhs(T - B), _xs(S - A)
        )
        return lb, mutual_info(law, _ys(B), _yhs(B), _xs(A))

    return law.memo(("DST", q), lambda: build_region(K, L, S, T, bounds)).contains(point, tol)


def in_sub_face_cond(
    law: JointLaw,
    point: RateFronthaulPoint,
    q: FaceQuery,
    tol: float = FACE_TOL,
) -> bool:
    """Membership of the complement coordinates in the conditional sub-face.

    The conditional sub-problem sees (X_S, Yh_T) as decoder side
    information; only the R_{S^c} and C_{T^c} coordinates are read.
    """
    K, L = uplink_dims(law)
    q.validate(K, L)
    S, T = set(q.S), set(q.T)
    Sc = set(range(1, K + 1)) - S
    Tc = set(range(1, L + 1)) - T

    def bounds(A, B):
        lb = mutual_info(
            law,
            _ys(B),
            _yhs(B),
            _xs(range(1, K + 1)) + _yhs((Tc - B) | T),
        ) - mutual_info(law, _xs(A), _yhs((Tc - B) | T), _xs((Sc - A) | S))
        ub = mutual_info(
            law, _ys(B), _yhs(B), _xs(A | S) + _yhs(T)
        ) - mutual_info(law, _xs(A), _yhs(T), _xs(S))
        return lb, ub

    return law.memo(("cond", q), lambda: build_region(K, L, Sc, Tc, bounds)).contains(point, tol)


def sample_face_points(law: JointLaw, n: int, rng: np.random.Generator):
    """Random dominant-face members: Dirichlet convex combinations of face corners."""
    vertices = enumerate_corners(law).vertices
    K, L = uplink_dims(law)
    mat = np.array([v.as_vector() for v in vertices])
    out = []
    for _ in range(n):
        w = rng.dirichlet(np.ones(len(vertices)))
        out.append(RateFronthaulPoint.from_vector(w @ mat, K, L))
    return out


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
    K, L = uplink_dims(law)
    q.validate(K, L)
    rng = np.random.default_rng(seed)
    face_corners = [
        v for v in enumerate_corners(law).vertices if in_face_FST(law, v, q, tol)
    ]
    if not face_corners:
        return FaceDecompositionReport(0, 0)
    mat = np.array([v.as_vector() for v in face_corners])
    points = list(face_corners)
    for _ in range(samples):
        w = rng.dirichlet(np.ones(len(face_corners)))
        points.append(RateFronthaulPoint.from_vector(w @ mat, K, L))

    forward_failures = 0
    for p in points:
        if not (in_sub_face_DST(law, p, q, tol) and in_sub_face_cond(law, p, q, tol)):
            forward_failures += 1

    mask = q.mask(K, L)
    converse_failures = 0
    for _ in range(samples):
        w1 = rng.dirichlet(np.ones(len(face_corners)))
        w2 = rng.dirichlet(np.ones(len(face_corners)))
        vec = np.where(mask, w1 @ mat, w2 @ mat)
        if not in_face_FST(law, RateFronthaulPoint.from_vector(vec, K, L), q, tol):
            converse_failures += 1
    return FaceDecompositionReport(forward_failures, converse_failures)


def degeneracy_condition(law: JointLaw, q: FaceQuery) -> bool:
    """True iff the (S, T) block decouples: both cross informations vanish."""
    K, L = uplink_dims(law)
    q.validate(K, L)
    S, T = set(q.S), set(q.T)
    Sc = set(range(1, K + 1)) - S
    Tc = set(range(1, L + 1)) - T
    a = mutual_info(law, _xs(S), _yhs(Tc), _xs(Sc))
    b = mutual_info(law, _xs(Sc), _yhs(T), _xs(S))
    return a <= MI_ZERO_TOL and b <= MI_ZERO_TOL


def check_degenerate_factorization(law: JointLaw, q: FaceQuery) -> bool:
    """Check D = D_{S,T} x D_{S^c,T^c} via corner sets.

    Under factorization the corner set of D equals the Cartesian product
    of its coordinate projections, which are exactly the corner sets of
    the two independent sub-problems.
    """
    K, L = uplink_dims(law)
    q.validate(K, L)
    vertices = enumerate_corners(law).vertices
    mat = np.array([v.as_vector() for v in vertices])  # distinct at DEDUP_TOL = FACE_TOL
    mask = q.mask(K, L)
    proj_a = dedup_points(mat[:, mask], FACE_TOL)
    proj_b = dedup_points(mat[:, ~mask], FACE_TOL)
    if len(mat) != len(proj_a) * len(proj_b):
        return False
    for ra in proj_a:
        for rb in proj_b:
            vec = np.empty(K + L)
            vec[mask] = ra
            vec[~mask] = rb
            if not np.any(np.max(np.abs(mat - vec), axis=1) <= FACE_TOL):
                return False
    return True


def dominant_face_dimension(law: JointLaw) -> int:
    """Affine dimension of the dominant face from its enumerated corners."""
    mat = np.array([v.as_vector() for v in enumerate_corners(law).vertices])
    if len(mat) <= 1:
        return 0
    diffs = mat[1:] - mat[0]
    return _row_rank(list(diffs))
