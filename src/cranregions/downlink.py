"""Downlink rate-fronthaul regions: joint encoding, successive encoding,
corner procedures and their equivalence.

The joint-encoding region is cut out by

    C(T) - R(S) >= I(U_S; X_T) - sum_{k in S} I(U_k; Y_k)
                   + Istar(U_S) + Istar(X_T)

where Istar is the multivariate correlation sum_j H(.) - H(joint).  The
iterative corner procedure is the uplink's greedy solution
(`uplink.greedy_corner`) applied to this region's slack `je_slack`; the
closed form and the successive-encoding corners are this direction's own.
Unlike the uplink, the encoding order achieving a corner is the solve
order itself (no reversal).

Computed rates R_k = I(U_k;Y_k) - I(U_k; prior) can be negative for
poorly matched auxiliary joints; they are reported raw and flagged, not
clamped, so the iterative/closed-form equality stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .prob import (
    DEDUP_TOL,
    MEMBERSHIP_TOL,
    JointLaw,
    LawError,
    clamp_info,
    entropy,
    mutual_info,
)
from .uplink import (
    CornerEnumeration,
    CornerReport,
    Order,
    RateFronthaulPoint,
    Region,
    SolveOrder,
    add_terms,
    check_corner,
    closed_form_table,
    count_labels,
    enumerate_orders,
    greedy_corner,
    read_corners,
    slack_region,
)


@dataclass(frozen=True)
class EncodeOrder(Order):
    """Permutation of the variable labels (U_1..U_K, X_1..X_L)."""

    prefixes: ClassVar[tuple] = ("U", "X")


def downlink_dims(law: JointLaw) -> tuple[int, int]:
    """(K, L) of a law over exactly U1..UK, X1..XL, Y1..YK; LawError otherwise."""

    def dims():
        K, L = count_labels(law.names, "U"), count_labels(law.names, "X")
        if law.names != tuple(_us(range(1, K + 1)) + _xs(range(1, L + 1))
                              + [f"Y{k}" for k in range(1, K + 1)]):
            raise LawError(f"not a downlink law over U1..UK, X1..XL, Y1..YK: {law.names}")
        return K, L

    return law.memo("downlink dims", dims)


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
    return clamp_info(sum(entropy(law, [n]) for n in names) - entropy(law, names))


def je_terms(law: JointLaw, K: int, L: int, S, T) -> tuple:
    """-f(S, T) of the joint-encoding constraint as the signed terms that
    `je_slack` adds to C(T) - R(S), in its order."""
    return (
        add_terms(0.0, (mutual_info(law, [f"U{k}"], [f"Y{k}"]) for k in sorted(S))),
        -istar(law, _us(S)),
        -istar(law, _xs(T)),
        -mutual_info(law, _us(S), _xs(T)),
    )


def je_slack(law: JointLaw, point: RateFronthaulPoint, S, T) -> float:
    """Slack of the joint-encoding constraint for user set S, relay set T.

    The terms are added left to right in the order the corner procedure
    of the paper solves them, as in `uplink.jd_slack`.
    """
    return add_terms(point.c_sum(T) - point.r_sum(S),
                     je_terms(law, len(point.R), len(point.C), S, T))


def je_region(law: JointLaw) -> Region:
    """The joint-encoding region of `law`, built once per law."""
    return law.memo("je region", lambda: slack_region(law, je_slack, *downlink_dims(law)))


def in_je_region(law: JointLaw, point, tol: float = MEMBERSHIP_TOL):
    """Membership of one point, or of each point of an (n, K+L) stack."""
    return je_region(law).contains(point, tol)


def se_corner(law: JointLaw, orders):
    """Extreme point of the successive-encoding region for one EncodeOrder, or
    the corners of an (n, K+L) stack of `EncodeOrder.perm` rows: a user
    encoded after the set `before` gets R_k = I(U_k; Y_k) - I(U_k; before), a
    relay input C_l = I(X_l; before).  One `closed_form_table` per law serves
    every order (see `uplink.read_corners`)."""
    return read_corners(law.memo("se table", lambda: _se_table(law)), orders)


def _se_table(law: JointLaw) -> np.ndarray:
    K, L = downlink_dims(law)

    def value(c, I, J):
        before = _us(I) + _xs(J)
        if c < K:
            return mutual_info(law, [f"U{c + 1}"], [f"Y{c + 1}"]) - mutual_info(
                law, [f"U{c + 1}"], before)
        return mutual_info(law, [f"X{c - K + 1}"], before)

    return closed_form_table(K, L, value)


def downlink_corner_iterative(law: JointLaw, orders):
    """Joint-encoding corner solved one coordinate at a time, for one solve order
    or a stack of them (see `uplink.greedy_corner`)."""
    region, (K, L) = je_region(law), downlink_dims(law)
    terms = law.memo("je terms", lambda: np.array([je_terms(law, K, L, *r) for r in region.pairs]))
    return greedy_corner(region, terms, orders)


def downlink_corner_closed(law: JointLaw, orders):
    """Closed-form corner of one solve order, or the corners of a stack of
    permutations (see `uplink.read_corners`); agrees with the iterative
    procedure to 1e-9."""
    return read_corners(law.memo("je closed form", lambda: _je_closed_form(law)), orders)


def _je_closed_form(law: JointLaw):
    """R_b = I(U_b; Y_b) - I(U_b; U_I, X_J) and C_b = I(X_b; U_I, X_J) for I, J
    solved before."""
    K, L = downlink_dims(law)

    def value(c, I, J):
        if c < K:
            b = c + 1
            return mutual_info(law, [f"U{b}"], [f"Y{b}"]) - mutual_info(
                law, [f"U{b}"], _us(I) + _xs(J)
            )
        return mutual_info(law, [f"X{c - K + 1}"], _us(I) + _xs(J))

    return closed_form_table(K, L, value)


def solve_order_to_encode_order(order: SolveOrder) -> EncodeOrder:
    """Encoding order achieving the corner: elementwise map, no reversal."""
    labels = []
    for lab in order.labels:
        if lab.startswith("R"):
            labels.append("U" + lab[1:])
        else:
            labels.append("X" + lab[1:])
    return EncodeOrder(tuple(labels), order.K, order.L)


def verify_downlink_corner(law: JointLaw, points) -> CornerReport:
    """Corner-hood of one point, or of each point of a stack, in the joint-encoding region."""
    return check_corner(je_region(law), points)


def downlink_enumerate_corners(
    law: JointLaw, dedup_tol: float = DEDUP_TOL
) -> CornerEnumeration:
    """All (K+L)! downlink corner points, one per solve order, plus the distinct
    vertices, computed once per law and `dedup_tol`."""
    return law.memo(("je corners", dedup_tol), lambda: enumerate_orders(
        partial(downlink_corner_closed, law), *downlink_dims(law), dedup_tol))
