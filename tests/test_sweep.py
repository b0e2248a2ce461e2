"""The seeded verify sweep: `run_suites(spec, ["all"], samples=20)` on 780
random specs, 30 seeds of 13 shapes in both directions.

The verdicts are pinned, failures included.  The uplink failures below are
the known tolerance-band defect: `lemma5`/`lemma6` read the cross
informations at `MI_ZERO_TOL` but the vertex set at the dedup and rank
scales, and these specs fall between them.  They are recorded here, not
hidden, so that any moved verdict, a new failure or a fix, fails this test
and has to be declared.
"""

import numpy as np
import pytest

from cranregions.suites import run_suites

from conftest import random_downlink_spec, random_uplink_spec

SEEDS = range(1000, 1030)
SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1), (2, 3), (3, 2),
          (1, 5), (2, 4), (3, 3)]
MAKE = {"uplink": random_uplink_spec, "downlink": random_downlink_spec}

# (direction, K, L, seed) -> the suites that fail; every other spec passes all
KNOWN_FAILURES = {
    ("uplink", 2, 2, 1001): ["lemma6"],
    ("uplink", 3, 3, 1003): ["lemma6"],
    ("uplink", 1, 1, 1004): ["lemma6"],
    ("uplink", 1, 3, 1013): ["lemma5", "lemma6"],
    ("uplink", 4, 1, 1015): ["lemma5", "lemma6"],
    ("uplink", 2, 4, 1015): ["lemma6"],
    ("uplink", 1, 2, 1018): ["lemma6"],
    ("uplink", 1, 3, 1018): ["lemma5", "lemma6"],
    ("uplink", 1, 5, 1018): ["lemma5", "lemma6"],
    ("uplink", 1, 5, 1022): ["lemma6"],
}


@pytest.mark.parametrize("direction", list(MAKE))
@pytest.mark.parametrize("K, L", SHAPES, ids=[f"k{K}l{L}" for K, L in SHAPES])
def test_sweep_verdicts_are_pinned(direction, K, L):
    failing = {}
    for seed in SEEDS:
        ok, results = run_suites(MAKE[direction](np.random.default_rng(seed), K, L), ["all"],
                                 samples=20)
        bad = sorted(name for name, r in results.items() if not r["passed"])
        assert ok == (not bad)
        if bad:
            failing[(direction, K, L, seed)] = bad
    want = {key: v for key, v in KNOWN_FAILURES.items() if key[:3] == (direction, K, L)}
    assert failing == want
