"""Downlink rate-fronthaul regions: joint encoding, successive encoding,
corner procedures and their equivalence.

The joint-encoding region is cut out by

    C(T) - R(S) >= I(U_S; X_T) - sum_{k in S} I(U_k; Y_k)
                   + Istar(U_S) + Istar(X_T)

where Istar is the multivariate correlation sum_j H(.) - H(joint).  The
iterative corner procedure is the uplink's greedy solution
(`uplink.greedy_corner`) applied to this region's slack `je_slack`.  The
closed-form corner of a solve order is its successive-encoding corner, read
off one table per law (`se_corner`).  Orders are rows of coordinate
indices, as in the uplink.  Unlike the uplink, the encoding order achieving
a corner is the solve order itself (no reversal).

Computed rates R_k = I(U_k;Y_k) - I(U_k; prior) can be negative for
poorly matched auxiliary joints; they are reported raw and flagged, not
clamped, so the iterative/closed-form equality stays exact.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .prob import (
    DEDUP_TOL,
    MEMBERSHIP_TOL,
    JointLaw,
    LawError,
    clamp_info,
    entropy,
    mutual_info,
    u_names,
    x_names,
    y_names,
)
from .uplink import (
    CornerEnumeration,
    CornerReport,
    Region,
    add_terms,
    capacity_minus_rate,
    check_corner,
    closed_form_table,
    enumerate_orders,
    greedy_corner,
    pair_terms,
    read_corners,
    slack_region,
)


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
    return clamp_info(add_terms(0.0, (entropy(law, [n]) for n in names)) - entropy(law, names))


def je_terms(law: JointLaw, K: int, L: int, S, T) -> tuple:
    """-f(S, T) of the joint-encoding constraint as the signed terms that
    `je_slack` adds to C(T) - R(S), in its order."""
    return (
        add_terms(0.0, (mutual_info(law, u_names([k]), y_names([k])) for k in sorted(S))),
        -istar(law, u_names(S)),
        -istar(law, x_names(T)),
        -mutual_info(law, u_names(S), x_names(T)),
    )


def je_slack(law: JointLaw, x, S, T) -> float:
    """Slack of the joint-encoding constraint for user set S, relay set T,
    at one (K+L,) vector x.

    The terms are added left to right in the order the corner procedure
    of the paper solves them, and read off the law's one table, as in
    `uplink.jd_slack`.
    """
    K, L = law.dims("downlink")
    return add_terms(capacity_minus_rate(x, K, S, T), pair_terms(law, je_terms, K, L, S, T))


def je_region(law: JointLaw) -> Region:
    """The joint-encoding region of `law`, built once per law."""
    return law.memo("je region", lambda: slack_region(law, je_slack, *law.dims("downlink")))


def in_je_region(law: JointLaw, points, tol: float = MEMBERSHIP_TOL):
    """Membership of each point of an (n, K+L) stack."""
    return je_region(law).contains(points, tol)


def se_corner(law: JointLaw, orders):
    """Extreme points of the successive-encoding region for an (n, K+L) stack
    of encode orders, rows of variable indices: U_1..U_K, X_1..X_L numbered as
    the coordinates they set.  The encode order of a solve order `perm` is
    `perm` itself, and its corner is the joint-encoding corner of `perm`.

    A user encoded after the set `before` gets R_k = I(U_k; Y_k) - I(U_k; before),
    a relay input C_l = I(X_l; before).  One `closed_form_table` per law
    serves every order (see `uplink.read_corners`)."""
    return read_corners(law.memo("se table", lambda: _se_table(law)), orders)


def _se_table(law: JointLaw) -> np.ndarray:
    K, L = law.dims("downlink")
    x, y = K, K + L  # the shifts of X and Y; U_I, X_J are encoded before
    return closed_form_table(
        law, K, L,
        lambda b, I, J: [(1 << b, 1 << (y + b), 0), (1 << b, I | J << x, 0)],
        lambda b, I, J: [(1 << (x + b), I | J << x, 0)])


def downlink_corner_iterative(law: JointLaw, orders):
    """Joint-encoding corners solved one coordinate at a time, for a stack of
    solve orders (see `uplink.greedy_corner`)."""
    region, (K, L) = je_region(law), law.dims("downlink")
    terms = np.array([pair_terms(law, je_terms, K, L, *r) for r in region.pairs])
    return greedy_corner(region, terms, orders)


def downlink_corner_closed(law: JointLaw, orders):
    """Closed-form corners of a stack of solve orders: the successive-encoding
    corners of the same orders; agrees with the iterative procedure to 1e-9."""
    return se_corner(law, orders)


def verify_downlink_corner(law: JointLaw, points, orders=None) -> CornerReport:
    """Corner-hood of each point of an (n, K+L) stack in the joint-encoding
    region; `orders`, the points' solve orders if given, certify the corners
    (see `uplink.check_corner`)."""
    return check_corner(je_region(law), points, orders)


def downlink_enumerate_corners(
    law: JointLaw, dedup_tol: float = DEDUP_TOL
) -> CornerEnumeration:
    """All (K+L)! downlink corner points, one per solve order, plus the distinct
    vertices, computed once per law and `dedup_tol`."""
    return law.memo(("je corners", dedup_tol), lambda: enumerate_orders(
        partial(downlink_corner_closed, law), *law.dims("downlink"), dedup_tol))
