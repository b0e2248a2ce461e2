"""Property test of the command-line boundary.

Arguments are drawn from pools of valid and invalid tokens, and the spec
is a shipped K+L = 2 document, possibly with one entry replaced or
removed.  Whatever the input, the CLI must end with an exit code in
{0, 1, 2, 3} and no traceback, every JSON report must be strict JSON,
and a passing report or CSV table must hold only finite numbers.  The
arguments that set the amount of work (--max-iters, --steps, --samples)
are always given and kept small, so each example runs in milliseconds.
"""

import contextlib
import csv
import io
import json
import math
import pathlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cranregions.cli import main

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
DOCS = {
    name: json.loads((SPECS / f"{name}.json").read_text())
    for name in ("identity_k1l1", "downlink_k1l1")
}


def _mostly(valid, invalid):
    """Valid tokens three times as likely as invalid ones, so that most
    examples get past argument parsing and run a computation."""
    return st.sampled_from(valid * 3 + invalid)


FLOATS = _mostly(["0", "1", "0.5", "2", "-1", "1e-300", "1e308", "-1e308"],
                 ["nan", "inf", "-inf", "abc", ""])
SEEDS = _mostly(["0", "3", "99999999999999999999"], ["-1", "nan", "abc"])
MALFORMED = [",", "1,,1", "1;1", "[1, 1]", " ", "nan,1", "1,inf", "1e308,-1e308", "1,1,1"]
POINTS = st.one_of(
    _mostly(["1,1", "0.5,0.5", "0,0", "0.5,1"], MALFORMED),
    st.lists(FLOATS, max_size=3).map(",".join),
)
ALPHAS = st.one_of(
    _mostly(["0", "0.5", "1"], MALFORMED + ["2", "-1"]),
    st.lists(FLOATS, max_size=3).map(",".join),
)
SUBSETS = _mostly(["1", ""], ["2", "1,2", "0", "-1", "a", "1,1", ","])
SUITES = _mostly(["all", "telescope", "lemma1,lemma3", "lemma7", "thm3"], ["nope", "", ","])


def _argv(pairs):
    return [f"--{f}" if v is True else f"--{f}={v}" for f, v in filter(None, pairs)]


def _concat(parts):
    return [token for part in parts for token in part]


def _flags(required=(), **optional):
    """`--flag=value` tokens (`--flag` alone for True): `required` always,
    each optional pool maybe."""
    entries = [st.tuples(st.just(f), pool) for f, pool in required]
    entries += [st.none() | st.tuples(st.just(f), pool) for f, pool in optional.items()]
    return st.tuples(*entries).map(_argv)


def _leaves(node, path=()):
    """Every key path of a JSON document, interior nodes included."""
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))


MUTANTS = [math.nan, math.inf, -math.inf, -1, 0, 2, 0.5, 1e308, "abc", None, [], {},
           [0.5, 0.5], True, "delete"]
MUTATED_DOCS = st.one_of(*(
    st.tuples(st.just(name), st.sampled_from(list(_leaves(doc))[1:]), st.sampled_from(MUTANTS))
    for name, doc in DOCS.items()
))
# (--min, --max) pairs; the last two are finite but span more than a float holds
SPANS = _mostly([("0", "1"), ("-1", "2"), ("0.5", "0.5"), ("1", "0"), ("0", "1e308")],
                [("nan", "1"), ("0", "inf"), ("-inf", "1"), ("abc", "1"),
                 ("-1e308", "1e308"), ("1e308", "-1e308")]).map(
    lambda span: [f"--min={span[0]}", f"--max={span[1]}"])

COMMANDS = st.one_of(
    st.tuples(st.just("corners"), _flags(**{
        "dedup-tol": FLOATS,
        "format": _mostly(["json", "csv"], ["xml"]),
        "dedup": st.just(True),
    })),
    st.tuples(st.just("verify"), _flags(
        required=[("samples", _mostly(["1", "5"], ["-1", "0", "abc"]))],
        suite=SUITES, seed=SEEDS,
    )),
    st.tuples(st.just("psi"), st.tuples(
        # psi takes exactly one of --alpha and --invert
        st.one_of(_flags(required=[("alpha", ALPHAS)]), _flags(required=[("invert", POINTS)]),
                  _flags(alpha=ALPHAS, invert=POINTS)),
        _flags(required=[("max-iters", _mostly(["1", "50"], ["-1", "0", "abc"]))],
               tol=FLOATS),
    ).map(_concat)),
    st.tuples(st.just("face"), _flags(
        required=[("point", POINTS)], S=SUBSETS, T=SUBSETS,
    )),
    st.tuples(st.just("slice"), st.tuples(_flags(
        required=[("steps", _mostly(["1", "5"], ["-1", "0", "abc", "inf"])),
                  ("vary", _mostly(["R1,C1", "C1,R1"], ["R1,R1", "R1", "X1,C1", ""]))],
        fixed=st.sampled_from(["R1=0.5", "C1=nan", "R1=abc", "junk", ""]),
    ), SPANS).map(_concat)),
)


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value == "delete":
        del parent[last]
    else:
        parent[last] = value
    return doc


def _strict(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _finite(node) -> bool:
    if isinstance(node, float):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    return True


def _csv_finite(text) -> bool:
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


def _run_and_check(path, name, flags):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([name, str(path), *flags])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if out.lstrip().startswith("{"):
        report = _strict(out)
        if report["passed"]:
            assert _finite(report)
    elif code == 0:
        assert _csv_finite(out)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(spec=st.sampled_from(sorted(DOCS)), command=COMMANDS)
def test_cli_arguments(spec, command):
    _run_and_check(SPECS / f"{spec}.json", *command)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutation=MUTATED_DOCS, command=COMMANDS)
# a number where a list belongs, which once gave a message naming no field
@example(mutation=("identity_k1l1", ("alphabets", "X"), 2), command=("corners", []))
@example(mutation=("identity_k1l1", ("input_pmfs",), 0.5), command=("corners", []))
def test_mutated_spec_documents(mutation, command, tmp_path_factory):
    doc_name, key_path, value = mutation
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(_mutated(DOCS[doc_name], key_path, value)))
    _run_and_check(path, *command)
