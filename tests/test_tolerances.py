"""Every tolerance is defined once, in `prob.py`, and the reports echo it."""

import ast
import json
import pathlib

import pytest

import cranregions
from cranregions import prob
from cranregions.cli import main

PACKAGE = pathlib.Path(cranregions.__file__).resolve().parent
SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
IDENT = str(SPECS / "identity_k1l1.json")


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "prob.py")
)
def test_no_module_but_prob_assigns_a_tolerance(module):
    tree = ast.parse((PACKAGE / module).read_text())
    assigned = sorted(
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id.endswith("_TOL")
    )
    assert not assigned, f"{module} assigns {assigned}; define them in prob.py"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["verify", IDENT, "--suite", "lemma1"],
            {"corner_match": prob.CORNER_MATCH_TOL, "membership": prob.MEMBERSHIP_TOL,
             "face": prob.FACE_TOL},
        ),
        (
            ["face", IDENT, "--point", "1,1"],
            {"membership": prob.MEMBERSHIP_TOL, "face": prob.FACE_TOL,
             "mi_zero": prob.MI_ZERO_TOL},
        ),
        (
            ["psi", IDENT, "--alpha", "0.5"],
            {"merge": prob.MERGE_TOL, "telescope": prob.TELESCOPE_TOL},
        ),
    ],
    ids=["verify", "face", "psi-alpha"],
)
def test_reported_tolerances_are_the_prob_constants(capsys, argv, expected):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"] == expected
