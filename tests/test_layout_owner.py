"""Wire roles are read in one place: the layout builder.

``recordize.Layout`` reads every gate's zone and replica index once, when a
``PartitionedDesign`` is constructed, and the checks, ``tap``,
``leak_report``, the trigger and the CLI read the layout it built. A loop
or comprehension over a netlist's ``gates`` that reads a gate's ``zone`` or
``replica`` derives the copies, the cut or the harness again. netlist.py
defines, parses, validates and writes the two attributes and knows no
roles, so it is not scanned. The one exemption is ``cost.area``'s zone
filter, which works on any plain ``Netlist``.
"""

import ast
from pathlib import Path

import recordkit

PACKAGE = Path(recordkit.__file__).parent
OWNERS = {("recordize.py", "Layout"), ("cost.py", "area")}
ROLES = ("zone", "replica")


def _scans(node):
    """(loop variable, iterable, scope) of each loop or generator."""
    if isinstance(node, ast.For):
        return [(node.target, node.iter, node)]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return [(gen.target, gen.iter, node) for gen in node.generators]
    return []


def _derives_roles(target, iterable, scope) -> bool:
    if not (isinstance(iterable, ast.Attribute) and iterable.attr == "gates"
            and isinstance(target, ast.Name)):
        return False
    return any(isinstance(n, ast.Attribute) and n.attr in ROLES
               and isinstance(n.value, ast.Name) and n.value.id == target.id
               for n in ast.walk(scope))


def _nodes(node, names=()):
    """Each node below node, with the names of the defs around it."""
    for child in ast.iter_child_nodes(node):
        inner = names
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = names + (child.name,)
        yield child, inner
        yield from _nodes(child, inner)


def _role_scans():
    """(file, enclosing defs, line) of each role-deriving scan."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "netlist.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, names in _nodes(tree):
            if any(_derives_roles(*scan) for scan in _scans(node)):
                found.append((path.name, names or ("",), node.lineno))
    return found


def test_role_scans_live_only_in_the_layout_builder():
    found = _role_scans()
    assert [f for f in found if (f[0], f[1][0]) not in OWNERS] == []
    # the detector sees the builder's own pass and cost.area's filter
    assert {(f[0], f[1][0]) for f in found} == OWNERS
