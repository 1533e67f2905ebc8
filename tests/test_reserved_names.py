"""Reserved ("__"-prefixed) wire names are spelled only in recordize.

Every other module must build and parse them through recordize's
constants and name functions, so a naming change touches one file.
"""

import ast
import re
from pathlib import Path

import recordkit

PACKAGE = Path(recordkit.__file__).parent


def test_no_reserved_name_literal_outside_recordize():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "recordize.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("__")
                    and node.value != "__main__"):
                found.append("%s:%d %r" % (path.name, node.lineno,
                                           node.value))
    assert not found, found


def test_every_reserved_name_constant_is_read():
    """A *_PREFIX or *_WIRE constant of recordize that no code of the
    package reads (an import is not a read) names wires that nothing
    builds or parses any more: a leftover of a construction that is gone."""
    tree = ast.parse((PACKAGE / "recordize.py").read_text(encoding="utf-8"))
    defined = [t.id for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)
               and re.search(r"_(PREFIX|PREFIXES|WIRE)$", t.id)]
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert "MISCOMPARE_WIRE" in defined
    assert [c for c in defined if c not in read] == []
