"""The closure verdict is computed only in recordize.

Every other module reads a design's ``closure`` property, which calls
``partition_check`` once per design, so a command never checks the same
design twice and a change to the closure rule touches one file.
"""

import ast
from pathlib import Path

import recordkit

PACKAGE = Path(recordkit.__file__).parent


def test_no_partition_check_call_outside_recordize():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "recordize.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name == "partition_check":
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
