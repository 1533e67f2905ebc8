"""The closure rule runs in exactly one place: PartitionedDesign
construction.

``partition_check`` is called once, at the end of
``PartitionedDesign.__post_init__``, so every design object, however it is
built, has passed it exactly once, and no module keeps or reads a verdict
of its own.
"""

import ast
from pathlib import Path

import recordkit

PACKAGE = Path(recordkit.__file__).parent


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_partition_check_call_outside_recordize():
    trees = _package_trees()
    found = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name == "partition_check":
                found.append((fname, node.lineno))
    cls = next(n for n in trees["recordize.py"].body
               if getattr(n, "name", None) == "PartitionedDesign")
    init = next(n for n in cls.body
                if getattr(n, "name", None) == "__post_init__")
    assert len(found) == 1, found
    fname, line = found[0]
    assert fname == "recordize.py" and init.lineno <= line <= init.end_lineno


def test_no_module_reads_a_closure_attribute():
    found = ["%s:%d" % (fname, n.lineno)
             for fname, tree in _package_trees().items()
             for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "closure"]
    assert not found, found
