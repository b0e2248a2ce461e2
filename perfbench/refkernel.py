"""Fixed reference kernel used to express op times in host-independent units.

The kernel mixes the two kinds of work the program does: pure-Python
dict/frozenset bookkeeping and small dense-array numpy arithmetic.  One
pass takes about 3 ms on a 2-core x86 host; `time_kernel` takes the
median of three, about 10 ms in all.  Dividing an op's wall time by the
kernel time measured just before it cancels most of the host's speed
drift.

This file must stay byte-stable and import nothing from `cranregions`;
`tests/test_refkernel.py` pins both.  Changing it changes the unit of
every `*_ref` metric.
"""

import itertools
import time

import numpy as np

_N_VARS = 6
_PROBS = np.arange(1.0, 2.0 ** _N_VARS + 1.0).reshape((2,) * _N_VARS)
_PROBS = _PROBS / _PROBS.sum()
_SUBSETS = [
    frozenset(c)
    for r in range(_N_VARS + 1)
    for c in itertools.combinations(range(_N_VARS), r)
]


def kernel() -> float:
    """One pass: a subset-entropy table, then pairwise lookups against it."""
    table = {}
    for key in _SUBSETS:
        drop = tuple(i for i in range(_N_VARS) if i not in key)
        p = _PROBS.sum(axis=drop).ravel() if drop else _PROBS.ravel()
        p = p[p > 0]
        table[key] = float(-(p @ np.log2(p)))
    acc = 0.0
    for _ in range(3):
        for a in _SUBSETS:
            for b in _SUBSETS[::5]:
                acc += table[a | b] - table[a] - table[b - a]
    return acc


def time_kernel(repeats: int = 3) -> float:
    """Median wall time in seconds of `repeats` kernel passes."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
