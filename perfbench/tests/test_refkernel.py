"""Guards on the reference kernel: every `*_ref` metric is in its units."""

import ast
import hashlib
import math
import pathlib

import refkernel

SOURCE = pathlib.Path(refkernel.__file__)
# Changing refkernel.py changes the unit of every *_ref metric, so results
# before and after the change are not comparable.  Update this pin only
# together with a new baseline.
PINNED_SHA256 = "36e78b5f9ca2c8094d3e20f37e3d8ebe09cc0f46f9c7389c302cf48d39ae3d03"


def test_imports_nothing_from_the_program():
    imported = set()
    for node in ast.walk(ast.parse(SOURCE.read_text())):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"itertools", "time", "numpy"}, imported


def test_source_is_byte_stable():
    assert hashlib.sha256(SOURCE.read_bytes()).hexdigest() == PINNED_SHA256


def test_kernel_is_deterministic():
    a, b = refkernel.kernel(), refkernel.kernel()
    assert a == b and math.isfinite(a)
    assert refkernel.time_kernel() > 0
