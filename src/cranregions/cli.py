"""Command-line front end.

Subcommands:
    corners   enumerate and verify the corner points of a spec's region
    verify    run named verification suites (lemma1..lemma6, thm1,
              telescope for uplink; lemma7, lemma8, thm3 for downlink)
    psi       evaluate the splitting map at a parameter vector, or invert
              it for a target dominant-face point
    face      dominant-face and face-membership predicates at one point
    slice     CSV plot data for a 2-D slice of the region

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 non-convergence.  A reader that closes stdout early (`| head -1`) cuts
the output short, with no traceback, and the exit code stays the
command's own.  Reports are JSON with sorted keys; identical
(spec, command, seed) inputs give byte-identical output apart from the
wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from functools import cache, partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import downlink as dl
from . import face as df
from . import splitting as sp
from . import uplink as ul
from .prob import (
    CORNER_MATCH_TOL,
    DEDUP_TOL,
    FACE_TOL,
    INVERT_TOL,
    MEMBERSHIP_TOL,
    MERGE_TOL,
    MI_ZERO_TOL,
    TELESCOPE_TOL,
    LawError,
    UplinkSpec,
)
from .specio import SpecFileError, load_spec
from .suites import SUITES, run_suites

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGE = 3


class UsageError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _report(command: str, args: dict, results, passed: bool, t0: float, seed=None,
            tolerances=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "args": args,
        "seed": seed,
        "tolerances": tolerances or {},
        "results": results,
        "passed": passed,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }


def _emit(report: dict):
    _write(_dumps(report) + "\n")


def _write(text: str):
    """Write `text` to stdout and flush it.  A reader that has closed the pipe
    ends the output, not the command: stdout then points at os.devnull, so
    that the flush at exit cannot raise again, and the command returns its
    own exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


class _FloatTexts(dict):
    """The text of each float looked up, written by `write` on its first lookup.

    0.0 and -0.0 are one dict key, so a zero is written at every lookup, as
    its repr, which is also its JSON text.
    """

    def __init__(self, write=float.__repr__):
        super().__init__()
        self.write = write

    def __missing__(self, x):
        if not x:
            return float.__repr__(x)
        self[x] = text = self.write(x)
        return text


_SCALARS = {  # each plain type but float as the standard encoder writes it
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(o) -> str:
    """json.dumps(o, sort_keys=True, indent=2), byte for byte.

    The standard encoder runs in pure Python when it indents, one generator
    per level.  Here plain values are written by the writer of their exact
    type, in `scalars`, whose float writer formats each distinct float once
    per report, and a list is written as one column (`_texts`).  Anything
    else, such as a dict keyed by other than strings, goes to json.dumps
    whole.
    """
    floats = _FloatTexts(lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x))
    return _text(o, "", {**_SCALARS, float: floats.__getitem__})


def _text(o, indent: str, scalars: dict) -> str:
    """One value as json.dumps(o, sort_keys=True, indent=2) writes it at `indent`."""
    kind = type(o)
    if kind in scalars:
        return scalars[kind](o)
    inner = indent + "  "
    if kind is dict and o and set(map(type, o)) == {str}:
        items = [f"{inner}{encode_basestring_ascii(k)}: {_text(v, inner, scalars)}"
                 for k, v in sorted(o.items())]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if kind in (list, tuple) and o:
        return f"[\n{inner}" + f",\n{inner}".join(_texts(list(o), inner, scalars)) + \
            f"\n{indent}]"
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _texts(values: list, indent: str, scalars: dict) -> list:
    """Each of a column of values as `_text` writes it, the column at a time.

    Values of one plain type are written by one map.  Dicts of one string
    key set are filled into one template, each key's column written in
    turn; lists of one length are written as the one column of all their
    items and joined back, a row per list.  Any other column is written one
    value at a time.
    """
    first = values[0]
    kind = type(first)
    if set(map(type, values)) == {kind}:
        inner = indent + "  "
        if kind in scalars:
            return list(map(scalars[kind], values))
        if kind is dict and first and set(map(type, first)) == {str} and all(
                map(first.keys().__eq__, map(dict.keys, values))):
            keys = sorted(first)
            columns = [_texts(list(map(itemgetter(k), values)), inner, scalars) for k in keys]
            glue = [f"{sep}{inner}{encode_basestring_ascii(k)}: " for sep, k in
                    zip(["{\n"] + [",\n"] * (len(keys) - 1), keys)] + [f"\n{indent}}}"]
            parts = [repeat(glue[0])]  # record i: glue[0] + columns[0][i] + glue[1] + ...
            for column, text in zip(columns, glue[1:]):
                parts += [column, repeat(text)]
            return list(map("".join, zip(*parts)))
        if kind in (list, tuple) and first and set(map(len, values)) == {len(first)}:
            items = iter(_texts(list(chain.from_iterable(values)), inner, scalars))
            rows = map(f",\n{inner}".join, zip(*[items] * len(first)))  # row i: next n items
            return [f"[\n{inner}{row}\n{indent}]" for row in rows]
    return [_text(v, indent, scalars) for v in values]


def _parse_float(text: str, what: str) -> float:
    try:
        val = float(text)
    except ValueError as e:
        raise UsageError(f"cannot parse {what} {text!r}: {e}") from e
    if not math.isfinite(val):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return val


def _parse_floats(text: str, what: str):
    return [_parse_float(x, what) for x in text.split(",") if x.strip() != ""]


def _parse_int_set(text: str, what: str):
    if not text.strip():
        return set()
    try:
        return {int(x) for x in text.split(",")}
    except ValueError as e:
        raise UsageError(f"cannot parse {what} {text!r}: {e}") from e


def _point_from_arg(text: str, K: int, L: int) -> np.ndarray:
    """The (K+L,) vector R1..RK, C1..CL that `text` lists."""
    vals = _parse_floats(text, "point")
    if len(vals) != K + L:
        raise UsageError(
            f"point needs {K + L} coordinates (R1..R{K},C1..C{L}), got {len(vals)}"
        )
    return np.array(vals)


def _region(spec):
    """The direction's (enumerate, verify, member) functions, bound to its joint law."""
    if isinstance(spec, UplinkSpec):
        fns = (ul.enumerate_corners, ul.verify_corner, ul.in_jd_region)
    else:
        fns = (dl.downlink_enumerate_corners, dl.verify_downlink_corner, dl.in_je_region)
    return tuple(partial(fn, spec.law) for fn in fns)


def cmd_corners(args) -> int:
    t0 = time.monotonic()
    if not (math.isfinite(args.dedup_tol) and args.dedup_tol >= 0):
        raise UsageError(f"--dedup-tol must be finite and >= 0, got {args.dedup_tol!r}")
    spec = load_spec(args.spec)
    enumerate_corners, verify, _ = _region(spec)
    try:
        enum = enumerate_corners(dedup_tol=args.dedup_tol)
    except ValueError as e:
        raise UsageError(str(e)) from e
    is_corner = verify(enum.points, enum.perms).is_corner.tolist()  # certified by their orders
    all_ok = all(is_corner)
    perms = enum.order_labels
    points = np.round(enum.points, 12).tolist()
    if args.format == "csv":
        # csv.writer's bytes: floats as their repr, the permutation quoted for
        # its commas, CRLF line ends
        floats = _FloatTexts()
        lines = [",".join(["permutation", *ul.coord_labels(spec.K, spec.L), "is_corner"])]
        lines += [f'"{perms[i]}",{",".join(map(floats.__getitem__, points[i]))},{is_corner[i]}'
                  for i in (enum.kept.tolist() if args.dedup else range(len(perms)))]
        _write("\r\n".join(lines) + "\r\n")
    else:
        results = {
            "corners": [{"permutation": p, "point": x, "is_corner": c}
                        for p, x, c in zip(perms, points, is_corner)],
            "n_vertices": len(enum.kept),
            "vertices": [points[i] for i in enum.kept.tolist()],
        }
        _emit(
            _report(
                "corners",
                {"spec": args.spec, "dedup_tol": args.dedup_tol, "format": args.format},
                results,
                all_ok,
                t0,
                tolerances={"dedup": args.dedup_tol},
            )
        )
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    if args.samples is not None and args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    spec = load_spec(args.spec)
    names = args.suite.split(",") if args.suite != "all" else ["all"]
    try:
        passed, results = run_suites(spec, names, seed=args.seed, samples=args.samples)
    except ValueError as e:
        raise UsageError(str(e)) from e
    _emit(
        _report(
            "verify",
            {"spec": args.spec, "suite": args.suite, "samples": args.samples},
            results,
            passed,
            t0,
            seed=args.seed,
            tolerances={
                "corner_match": CORNER_MATCH_TOL,
                "membership": MEMBERSHIP_TOL,
                "face": FACE_TOL,
            },
        )
    )
    return EXIT_OK if passed else EXIT_FAIL


def cmd_psi(args) -> int:
    t0 = time.monotonic()
    spec = load_spec(args.spec)
    if not isinstance(spec, UplinkSpec):
        raise UsageError("psi requires an uplink spec")
    if spec.K + spec.L > ul.MAX_ENUM:
        raise UsageError(f"K+L = {spec.K + spec.L} exceeds enumeration guard {ul.MAX_ENUM}")
    if (args.alpha is None) == (args.invert is None):
        raise UsageError("psi needs exactly one of --alpha or --invert")
    if args.alpha is not None:
        alpha = _parse_floats(args.alpha, "--alpha")
        if len(alpha) != spec.K + spec.L - 1:
            raise UsageError(
                f"--alpha needs {spec.K + spec.L - 1} entries, got {len(alpha)}"
            )
        if not all(0.0 <= a <= 1.0 for a in alpha):
            raise UsageError("--alpha entries must lie in [0, 1]")
        config, betas, point = sp.psi_detail(spec, alpha)
        results = {
            "alpha": alpha,
            "order": list(config.order),
            "betas": {k: round(v, 12) for k, v in betas.items()},
            "point": [round(v, 12) for v in point.as_vector()],
        }
        _emit(
            _report(
                "psi",
                {"spec": args.spec, "alpha": args.alpha},
                results,
                True,
                t0,
                tolerances={"merge": MERGE_TOL, "telescope": TELESCOPE_TOL},
            )
        )
        return EXIT_OK
    if args.max_iters < 1:
        raise UsageError(f"--max-iters must be >= 1, got {args.max_iters}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol!r}")
    target = _point_from_arg(args.invert, spec.K, spec.L)
    try:
        res = sp.invert_psi(spec, target, tol=args.tol, max_iters=args.max_iters)
    except sp.NotOnDominantFaceError as e:
        raise UsageError(str(e)) from e
    results = {
        "target": target.tolist(),
        "alpha": [round(float(a), 12) for a in res.alpha],
        "residual": res.residual,
        "n_evals": res.n_evals,
        "converged": res.converged,
    }
    _emit(
        _report(
            "psi",
            {
                "spec": args.spec,
                "invert": args.invert,
                "tol": args.tol,
                "max_iters": args.max_iters,
            },
            results,
            res.converged,
            t0,
            tolerances={"residual": args.tol, "face": FACE_TOL},
        )
    )
    return EXIT_OK if res.converged else EXIT_NO_CONVERGE


def cmd_face(args) -> int:
    t0 = time.monotonic()
    spec = load_spec(args.spec)
    if not isinstance(spec, UplinkSpec):
        raise UsageError("face requires an uplink spec")
    law = spec.law
    point = _point_from_arg(args.point, spec.K, spec.L)[None]  # a stack of one
    results = {
        "point": point[0].tolist(),
        "in_region": bool(ul.in_jd_region(law, point)[0]),
        "on_dominant_face": bool(df.on_dominant_face(law, point)[0]),
        "on_dominant_face_alt": bool(df.on_dominant_face_alt(law, point)[0]),
    }
    if args.S is not None or args.T is not None:
        S = _parse_int_set(args.S or "", "--S")
        T = _parse_int_set(args.T or "", "--T")
        for option, text, got, n in (("--S", args.S, S, spec.K), ("--T", args.T, T, spec.L)):
            if not got <= set(range(1, n + 1)):
                raise UsageError(f"{option} must list indices in 1..{n}, got {text!r}")
        if not (S or T):
            raise UsageError("--S and --T are both empty: the face query needs S u T nonempty")
        results["S"] = sorted(S)
        results["T"] = sorted(T)
        if S == set(range(1, spec.K + 1)) and T == set(range(1, spec.L + 1)):
            # the full pair selects the whole dominant face, not a sub-face
            results["in_face"] = results["on_dominant_face"]
            results["degenerate"] = False
        else:
            q = df.FaceQuery(frozenset(S), frozenset(T))
            results["in_face"] = bool(df.in_face_FST(law, point, q)[0])
            results["degenerate"] = df.degeneracy_condition(law, q)
    _emit(
        _report(
            "face",
            {"spec": args.spec, "point": args.point, "S": args.S, "T": args.T},
            results,
            results["on_dominant_face"],
            t0,
            tolerances={
                "membership": MEMBERSHIP_TOL,
                "face": FACE_TOL,
                "mi_zero": MI_ZERO_TOL,
            },
        )
    )
    return EXIT_OK if results["on_dominant_face"] else EXIT_FAIL


def cmd_slice(args) -> int:
    """CSV plot data: region membership on a grid over two free coordinates."""
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    if not math.isfinite(args.max - args.min):
        # also catches a finite pair whose span overflows, which would put inf in the grid
        raise UsageError(f"--min, --max and their span must be finite, got {args.min}, {args.max}")
    spec = load_spec(args.spec)
    K, L = spec.K, spec.L
    labels = ul.coord_labels(K, L)
    vary = [s.strip() for s in args.vary.split(",")]
    if len(vary) != 2 or any(v not in labels for v in vary) or vary[0] == vary[1]:
        raise UsageError(
            f"--vary needs two distinct coordinates from {labels}, got {args.vary!r}"
        )
    fixed = {}
    if args.fixed:
        for part in args.fixed.split(","):
            if "=" not in part:
                raise UsageError(f"--fixed entries look like R2=0.3, got {part!r}")
            name, val = part.split("=", 1)
            name = name.strip()
            if name not in labels or name in vary:
                raise UsageError(f"--fixed names a bad coordinate {name!r}")
            if name in fixed:
                raise UsageError(f"--fixed names coordinate {name!r} twice")
            fixed[name] = _parse_float(val, f"--fixed {name}")
    missing = [n for n in labels if n not in vary and n not in fixed]
    if missing:
        raise UsageError(f"coordinates {missing} need --fixed values")
    _, _, member = _region(spec)

    grid = np.linspace(args.min, args.max, args.steps)
    base = np.zeros(K + L)
    for name, val in fixed.items():
        base[labels.index(name)] = val
    i0, i1 = labels.index(vary[0]), labels.index(vary[1])
    n = len(grid)
    # csv.writer's bytes: each axis value as the repr of the float, CRLF line ends
    texts = [repr(round(v, 12)) for v in grid.tolist()]
    parts = [f"{vary[0]},{vary[1]},in_region\r\n"]
    for start in range(0, n * n, ul.STACK_CHUNK):  # one stack, one product, one join per chunk
        xi, yi = np.divmod(np.arange(start, min(start + ul.STACK_CHUNK, n * n)), n)  # x outer
        points = np.tile(base, (len(xi), 1))
        points[:, i0], points[:, i1] = grid[xi], grid[yi]
        parts.append("".join([f"{texts[x]},{texts[y]},{inside:d}\r\n" for x, y, inside
                              in zip(xi.tolist(), yi.tolist(), member(points).tolist())]))
    _write("".join(parts))
    return EXIT_OK


_NUMBER = r"\s*[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf|infinity|nan)\s*"


class _Parser(argparse.ArgumentParser):
    """An argparse parser that takes a negative number, or a comma list of
    numbers, after an option as that option's value.  argparse's own test
    (its `_negative_number_matcher`, read for every argument that starts
    with '-') admits only plain forms like -1 and -0.5, so it refuses
    `--min -1e-3` and `--point -0.001,1`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"^-(?:{_NUMBER})?(?:,(?:{_NUMBER})?)*$", re.IGNORECASE)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `main` looks up `cmd_<subcommand>`
    when it runs, so a replaced command function is the one called."""
    parser = _Parser(
        prog="cranregions",
        description="Rate-fronthaul region computations for finite-alphabet relay networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("corners", help="enumerate and verify corner points")
    p.add_argument("spec")
    p.add_argument("--dedup-tol", type=float, default=DEDUP_TOL)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dedup", action="store_true",
                   help="in csv mode, drop duplicate points")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("spec")
    p.add_argument("--suite", default="all",
                   help="comma-separated suite names, or 'all' (choices: %s)"
                        % ",".join(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None,
                   help="random draws of the sampled suites, lemma3 and telescope")

    p = sub.add_parser("psi", help="evaluate or invert the splitting map")
    p.add_argument("spec")
    p.add_argument("--alpha", help="comma-separated parameter vector in [0,1]^(K+L-1)")
    p.add_argument("--invert", help="comma-separated target point R1,..,CL")
    p.add_argument("--tol", type=float, default=INVERT_TOL)
    p.add_argument("--max-iters", type=int, default=5000)

    p = sub.add_parser("face", help="dominant-face membership at one point")
    p.add_argument("spec")
    p.add_argument("--point", required=True, help="comma-separated R1,..,CL")
    p.add_argument("--S", help="comma-separated user subset")
    p.add_argument("--T", help="comma-separated relay subset")

    p = sub.add_parser("slice", help="CSV membership grid over two coordinates")
    p.add_argument("spec")
    p.add_argument("--vary", required=True, help="two coordinates, e.g. R1,C1")
    p.add_argument("--fixed", help="values for the rest, e.g. R2=0.3,C2=0.5")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=41)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; keep its code.
        return int(e.code or 0)
    try:
        return globals()[f"cmd_{args.subcommand}"](args)
    except (UsageError, SpecFileError, LawError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
