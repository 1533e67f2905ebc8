"""Evaluation plans are built only in netlist.

Every other module reaches the evaluator through ``Netlist.evaluator``
(the one cached plan per netlist) or through sim, so a change to how a
netlist is evaluated touches one file.
"""

import ast
from pathlib import Path

import recordkit

PACKAGE = Path(recordkit.__file__).parent


def test_no_evaluator_construction_outside_netlist():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "netlist.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name == "Evaluator":
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
