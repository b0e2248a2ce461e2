"""Traced run: wrappers around each module's public functions.

The wrappers live in the benchmark, not in the program.  Modules import
each other's functions by name (`from .prob import mutual_info`), so each
wrapper is installed in every `cranregions` module namespace that holds
the function, and in the `suites.SUITES` dispatch table.

Every wrapped call adds to per-(op, function) totals: calls, inclusive
time, and self time (inclusive minus the inclusive time of traced
children).  Only the op itself and the coarse functions (`span=True`,
called a handful of times per op) also leave a span record with a parent
and an op id; hot inner functions such as `prob.entropy`, called about
400k times per `slice-dl-k3l3` op, are only aggregated.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

C, V, S, I = "corners-k5", "verify-up-k2l2", "slice-dl-k3l3", "invert-up-k2l2"
ALL = (C, V, S, I)

CS = ("calls", "self_s")
CI = ("calls", "incl_s")
CSI = ("calls", "self_s", "incl_s")


@dataclass(frozen=True)
class Layer:
    module: str
    function: str
    stats: tuple  # per-layer metrics reported as <module>.<function>.<stat>
    used_by: tuple  # workloads predicted to call it (calls > 0)
    span: bool = False  # keep a span per call, not only the aggregate

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


def _suite(name):
    return Layer("suites", f"suite_{name}", ("incl_s",), (V,), span=True)


LAYERS = (
    Layer("prob", "entropy", ("calls", "self_s", "distinct", "hit_ratio"), ALL),
    Layer("prob", "mutual_info", CS, ALL),
    Layer("prob", "build_uplink_joint", CS, (C, V, I)),
    Layer("prob", "build_downlink_joint", CS, (C, S)),
    Layer("uplink", "corner_closed", CI, (C, V)),
    Layer("uplink", "corner_iterative", CI, (V,)),
    Layer("uplink", "sd_corner", CI, (V,)),
    Layer("uplink", "in_jd_region", CI, (V, I)),
    Layer("uplink", "enumerate_corners", CI, (C, V), span=True),
    Layer("uplink", "verify_corner", CSI, (C, V)),
    Layer("uplink", "jd_slack", CS, (C, V, I)),
    Layer("uplink", "dedup_points", ("calls", "self_s", "kept_ratio"), (C, V), span=True),
    Layer("downlink", "downlink_corner_closed", CI, (C,)),
    Layer("downlink", "in_je_region", CI, (S,)),
    Layer("downlink", "downlink_enumerate_corners", CI, (C,), span=True),
    Layer("downlink", "verify_downlink_corner", CSI, (C,)),
    Layer("downlink", "je_slack", CS, (C, S)),
    Layer("downlink", "istar", CS, (C, S)),
    Layer("face", "check_face_decomposition", CSI, (V,), span=True),
    Layer("face", "on_dominant_face", CI, (V, I)),
    Layer("face", "on_dominant_face_alt", CI, (V,)),
    Layer("face", "in_face_FST", CI, (V,)),
    Layer("face", "in_sub_face_DST", CI, (V,)),
    Layer("face", "in_sub_face_cond", CI, (V,)),
    Layer("face", "sample_face_points", CI, (V,), span=True),
    Layer("face", "check_degenerate_factorization", CI, (V,), span=True),
    Layer("face", "dominant_face_dimension", CI, (V,), span=True),
    Layer("splitting", "psi", CI, (V, I)),
    Layer("splitting", "build_virtual_cran", CS, (V, I)),
    Layer("splitting", "beta_rates", CS, (V, I)),
    Layer("splitting", "invert_psi",
          ("calls", "self_s", "incl_s", "evals", "restarts", "converged_ratio"), (I,), span=True),
    *(_suite(n) for n in ("lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6",
                          "thm1", "telescope")),
    Layer("specio", "load_spec", ("self_s",), ALL, span=True),
    Layer("cli", "cmd_corners", ("self_s",), (C,), span=True),
    Layer("cli", "cmd_verify", ("self_s",), (V,), span=True),
    Layer("cli", "cmd_slice", ("self_s",), (S,), span=True),
    Layer("cli", "cmd_psi", ("self_s",), (I,), span=True),
)

OVERHEAD_METRIC = "bench.trace_overhead"

_UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "distinct": "count",
          "hit_ratio": "ratio", "kept_ratio": "ratio", "evals": "count",
          "restarts": "count", "converged_ratio": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in table order."""
    units = {f"{layer.name}.{stat}": _UNITS[stat] for layer in LAYERS for stat in layer.stats}
    units[OVERHEAD_METRIC] = "ratio"
    return units


def resolve(layer: Layer):
    """The live function a layer names; raises if the name is gone."""
    fn = getattr(importlib.import_module(f"cranregions.{layer.module}"), layer.function)
    if not callable(fn):
        raise TypeError(f"{layer.name} is not a function")
    return fn


class Tracer:
    """Installs the wrappers, and holds the per-op totals and spans."""

    def __init__(self):
        self._stack = [0.0]  # traced time of the children of each open frame
        self._spans = [0]  # open span ids; 0 stands for "no op open"
        self._next_span = 1
        self._op = None
        self._totals = None
        self._totals_extra = None
        self._distinct = None
        self._laws = None
        self._patched = []  # (namespace, key, original)
        self.spans = []
        self.ops = []

    # --- op boundaries ---

    def begin_op(self, op_id: int, key: str):
        self._op = op_id
        self._totals = defaultdict(lambda: [0, 0.0, 0.0])
        self._totals_extra = defaultdict(float)
        self._distinct = set()
        self._laws = {}  # pins laws so their ids stay unique within the op
        self._op_span = self._open_span()
        self._op_key = key
        self._op_t0 = time.perf_counter()

    def end_op(self):
        t1 = time.perf_counter()
        self._close_span(self._op_span, "op", self._op_t0, t1, key=self._op_key)
        extra = dict(self._totals_extra)
        extra["prob.entropy.distinct"] = len(self._distinct)
        self.ops.append({
            "op": self._op,
            "key": self._op_key,
            "functions": {n: {"calls": c, "incl_s": inc, "self_s": slf}
                          for n, (c, inc, slf) in self._totals.items()},
            "extra": extra,
        })
        self._op = self._totals = self._totals_extra = self._distinct = self._laws = None

    def _open_span(self):
        sid = self._next_span
        self._next_span += 1
        self._spans.append(sid)
        return sid

    def _close_span(self, sid, name, t0, t1, **extra):
        self._spans.pop()
        self.spans.append({"op": self._op, "span": sid, "parent": self._spans[-1] or None,
                           "name": name, "start": t0, "end": t1, **extra})

    # --- wrappers ---

    def _wrap(self, name, fn, span, before=None, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            sid = self._open_span() if span else None
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                tot = self._totals[name]
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - child
                if span:
                    self._close_span(sid, name, t0, t1)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _entropy_before(self, args):
        law, names = args
        key = frozenset(names)
        cache = getattr(law, "_entropy_cache", None)
        if not key or (cache is not None and key in cache):
            self._totals_extra["prob.entropy.hits"] += 1
        self._distinct.add((id(law), key))
        self._laws[id(law)] = law
        return law, key

    def _dedup_before(self, args):
        points = list(args[0])
        self._totals_extra["uplink.dedup_points.points_in"] += len(points)
        return (points,) + tuple(args[1:])

    def _dedup_after(self, args, result):
        self._totals_extra["uplink.dedup_points.points_out"] += len(result)

    def _invert_after(self, args, result):
        self._totals_extra["splitting.invert_psi.evals"] += result.n_evals
        self._totals_extra["splitting.invert_psi.converged"] += bool(result.converged)

    def _count_restart(self, fn):
        def minimize(*args, **kwargs):
            self._totals_extra["splitting.invert_psi.restarts"] += 1
            return fn(*args, **kwargs)
        return minimize

    def install(self):
        hooks = {
            "prob.entropy": (self._entropy_before, None),
            "uplink.dedup_points": (self._dedup_before, self._dedup_after),
            "splitting.invert_psi": (None, self._invert_after),
        }
        wrapper = {}  # id of each live original -> its wrapper
        for layer in LAYERS:
            fn = resolve(layer)
            before, after = hooks.get(layer.name, (None, None))
            wrapper[id(fn)] = self._wrap(layer.name, fn, layer.span, before, after)
        splitting = importlib.import_module("cranregions.splitting")
        self._patch(vars(splitting), "minimize", self._count_restart(splitting.minimize))
        modules = [m for n, m in sys.modules.items()
                   if n == "cranregions" or n.startswith("cranregions.")]
        for module in modules:
            ns = vars(module)
            for attr, value in list(ns.items()):
                if id(value) in wrapper:
                    self._patch(ns, attr, wrapper[id(value)])
        suites = importlib.import_module("cranregions.suites").SUITES
        for name, (fn, direction) in list(suites.items()):
            if id(fn) in wrapper:
                self._patch(suites, name, (wrapper[id(fn)], direction))

    def _patch(self, ns, key, value):
        self._patched.append((ns, key, ns[key]))
        ns[key] = value

    def uninstall(self):
        while self._patched:
            ns, key, original = self._patched.pop()
            ns[key] = original

    # --- results ---

    def metrics(self) -> dict:
        """Per-op means of every per-layer metric (overhead excluded)."""
        n = max(len(self.ops), 1)
        fn_tot = defaultdict(lambda: [0, 0.0, 0.0])
        extra = defaultdict(float)
        for rec in self.ops:
            for name, t in rec["functions"].items():
                acc = fn_tot[name]
                acc[0] += t["calls"]
                acc[1] += t["incl_s"]
                acc[2] += t["self_s"]
            for k, v in rec["extra"].items():
                extra[k] += v

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for layer in LAYERS:
            calls, incl, self_s = fn_tot[layer.name]
            derived = {
                "calls": calls / n,
                "incl_s": incl / n,
                "self_s": self_s / n,
                "distinct": extra["prob.entropy.distinct"] / n,
                "hit_ratio": ratio(extra["prob.entropy.hits"], calls),
                "kept_ratio": ratio(extra["uplink.dedup_points.points_out"],
                                    extra["uplink.dedup_points.points_in"]),
                "evals": extra["splitting.invert_psi.evals"] / n,
                "restarts": extra["splitting.invert_psi.restarts"] / n,
                "converged_ratio": ratio(extra["splitting.invert_psi.converged"], calls),
            }
            for stat in layer.stats:
                out[f"{layer.name}.{stat}"] = derived[stat]
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "ops": self.ops}, f)
