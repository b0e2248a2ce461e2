"""Downlink rate-fronthaul regions: joint encoding, successive encoding,
corner procedures and their equivalence.

The joint-encoding region is cut out by

    C(T) - R(S) >= I(U_S; X_T) - sum_{k in S} I(U_k; Y_k)
                   + Istar(U_S) + Istar(X_T)

where Istar is the multivariate correlation sum_j H(.) - H(joint).  The
terms of every pair come from one table per law (`uplink.pair_terms`): the
informations from one gather on variable bitmasks, Istar from the singleton
and joint entropies of the law's entropy vector.  The iterative corner
procedure is the uplink's greedy solution (`uplink.greedy_corner`) on that
table.  The closed-form corner of a solve order is its successive-encoding
corner, read off one table per law (`se_corner`).  Orders are rows of coordinate
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
    clamp_infos,
    entropies,
    entropy,
    gather,
)
from .uplink import (
    CornerEnumeration,
    CornerReport,
    Region,
    add_terms,
    check_corner,
    closed_form_table,
    enumerate_orders,
    greedy_corner,
    pair_slack,
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


def _member_sums(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per row of a (rows, n) bool array, the sum of its members' `values` added
    left to right, each non-member adding 0.0: the bits of a loop over members."""
    return add_terms(0.0, np.where(members, values, 0.0).T)


def _je_terms(law: JointLaw, K: int, L: int, S, T) -> np.ndarray:
    """-f(S, T) of the joint-encoding constraint for arrays of user and relay
    bitmasks S and T, as the columns sum_{k in S} I(U_k; Y_k), -I*(U_S),
    -I*(X_T) and -I(U_S; X_T): the informations from one gather, the
    multivariate correlations from the singleton and joint entropies."""
    x, y = K, K + L  # the shifts of X and Y
    users, relays = (S[:, None] >> np.arange(K) & 1) == 1, (T[:, None] >> np.arange(L) & 1) == 1
    own, cross = gather(law, [(1 << np.arange(K), 1 << (y + np.arange(K)), 0), (S, T << x, 0)])
    single = entropies(law, 1 << np.arange(K + L))
    joint_u, joint_x = entropies(law, np.stack([S, T << x]))
    return np.column_stack([
        _member_sums(own, users),
        -clamp_infos(_member_sums(single[:K], users) - joint_u),
        -clamp_infos(_member_sums(single[K:], relays) - joint_x),
        -cross,
    ])


def je_slack(law: JointLaw, x, S, T) -> float:
    """Slack of the joint-encoding constraint for user set S, relay set T, at
    one (K+L,) vector x, read off the law's table as `uplink.jd_slack` is."""
    return pair_slack(law, _je_terms, x, S, T)


def je_region(law: JointLaw) -> Region:
    """The joint-encoding region of `law`, built once per law."""
    return law.memo("je region", lambda: slack_region(law, _je_terms, *law.dims("downlink")))


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
    return greedy_corner(je_region(law), pair_terms(law, _je_terms, *law.dims("downlink")), orders)


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
