"""Downlink rate-fronthaul regions: joint encoding, successive encoding,
corner procedures and their equivalence.

The joint-encoding region is cut out by

    C(T) - R(S) >= I(U_S; X_T) - sum_{k in S} I(U_k; Y_k)
                   + Istar(U_S) + Istar(X_T)

where Istar is the multivariate correlation sum_j H(.) - H(joint).  The
iterative corner procedure is the uplink's greedy solution
(`uplink.greedy_corner`) applied to this region's slack `je_slack`; the
closed form is this direction's own.  Unlike the uplink, the encoding
order achieving a corner is the solve order itself (no reversal).

Computed rates R_k = I(U_k;Y_k) - I(U_k; prior) can be negative for
poorly matched auxiliary joints; they are reported raw and flagged, not
clamped, so the iterative/closed-form equality stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .prob import (
    CLAMP_TOL,
    DEDUP_TOL,
    MEMBERSHIP_TOL,
    JointLaw,
    LawError,
    entropy,
    mutual_info,
)
from .uplink import (
    CornerEnumeration,
    CornerReport,
    RateFronthaulPoint,
    Region,
    SolveOrder,
    check_corner,
    check_permutation,
    count_labels,
    enumerate_orders,
    greedy_corner,
    slack_region,
)


@dataclass(frozen=True)
class EncodeOrder:
    """Permutation of the variable labels (U_1..U_K, X_1..X_L)."""

    labels: tuple[str, ...]
    K: int
    L: int

    def __post_init__(self):
        check_permutation(self, "U", "X")


def downlink_dims(law: JointLaw) -> tuple[int, int]:
    return count_labels(law.names, "U"), count_labels(law.names, "X")


def _us(idx):
    return [f"U{i}" for i in sorted(idx)]


def _xs(idx):
    return [f"X{l}" for l in sorted(idx)]


def istar(law: JointLaw, names) -> float:
    """Multivariate correlation sum_j H(component_j) - H(joint), in bits.

    Only within-group sets are meaningful here: all U's or all X's.
    """
    names = list(names)
    groups = {n[0] for n in names}
    if len(groups) > 1:
        raise LawError(f"istar over mixed variable groups: {sorted(names)}")
    if not names:
        return 0.0
    val = sum(entropy(law, [n]) for n in names) - entropy(law, names)
    if abs(val) <= CLAMP_TOL:
        return max(val, 0.0)
    return val


def je_slack(law: JointLaw, point: RateFronthaulPoint, S, T) -> float:
    """Slack of the joint-encoding constraint for user set S, relay set T.

    The terms are added left to right in the order the corner procedure
    of the paper solves them, as in `uplink.jd_slack`.
    """
    S, T = set(S), set(T)
    return (
        point.c_sum(T)
        - point.r_sum(S)
        + sum(mutual_info(law, [f"U{k}"], [f"Y{k}"]) for k in S)
        - istar(law, _us(S))
        - istar(law, _xs(T))
        - mutual_info(law, _us(S), _xs(T))
    )


def je_region(law: JointLaw) -> Region:
    """The joint-encoding region of `law`, built once per law."""
    return law.memo("je region", lambda: slack_region(law, je_slack, *downlink_dims(law)))


def in_je_region(law: JointLaw, point: RateFronthaulPoint, tol: float = MEMBERSHIP_TOL) -> bool:
    return je_region(law).contains(point, tol)


def se_corner(law: JointLaw, order: EncodeOrder) -> RateFronthaulPoint:
    """Extreme point of the successive-encoding region for encode order pi."""
    K, L = order.K, order.L
    R = np.zeros(K)
    C = np.zeros(L)
    before: list[str] = []
    for lab in order.labels:
        if lab.startswith("U"):
            k = int(lab[1:])
            R[k - 1] = mutual_info(law, [lab], [f"Y{k}"]) - mutual_info(
                law, [lab], before
            )
        else:
            l = int(lab[1:])
            C[l - 1] = mutual_info(law, [lab], before)
        before.append(lab)
    return RateFronthaulPoint(R, C)


def downlink_corner_iterative(law: JointLaw, order: SolveOrder) -> RateFronthaulPoint:
    """Joint-encoding corner solved one coordinate at a time, in the given order."""
    return greedy_corner(partial(je_slack, law), order)


def downlink_corner_closed(law: JointLaw, order: SolveOrder) -> RateFronthaulPoint:
    """Closed-form corner; agrees with the iterative procedure to 1e-9."""
    K, L = order.K, order.L
    R = np.zeros(K)
    C = np.zeros(L)
    a, b = order.a, order.b
    for k in range(1, K + L + 1):
        I, J = order.index_sets(k)
        bk = b[k - 1]
        if a[k - 1] == 1:
            R[bk - 1] = mutual_info(law, [f"U{bk}"], [f"Y{bk}"]) - mutual_info(
                law, [f"U{bk}"], _us(I) + _xs(J)
            )
        else:
            C[bk - 1] = mutual_info(law, [f"X{bk}"], _us(I) + _xs(J))
    return RateFronthaulPoint(R, C)


def solve_order_to_encode_order(order: SolveOrder) -> EncodeOrder:
    """Encoding order achieving the corner: elementwise map, no reversal."""
    labels = []
    for lab in order.labels:
        if lab.startswith("R"):
            labels.append("U" + lab[1:])
        else:
            labels.append("X" + lab[1:])
    return EncodeOrder(tuple(labels), order.K, order.L)


def verify_downlink_corner(law: JointLaw, point: RateFronthaulPoint) -> CornerReport:
    """Corner-hood of `point` in the joint-encoding region."""
    return check_corner(je_region(law), point)


def downlink_enumerate_corners(
    law: JointLaw, dedup_tol: float = DEDUP_TOL
) -> CornerEnumeration:
    """All (K+L)! downlink corner points, one per solve order, plus the distinct
    vertices, computed once per law and `dedup_tol`."""
    return law.memo(("je corners", dedup_tol), lambda: enumerate_orders(
        partial(downlink_corner_closed, law), *downlink_dims(law), dedup_tol))
