"""recordkit depends on the Python standard library alone.

Every import in the package is relative or names a standard-library
module, so an accidental import of an installed third-party package fails
here instead of on a machine that lacks it. Every imported name is also
used, so an import left behind by a rewrite fails here too.
"""

import ast
import sys
from pathlib import Path

import recordkit

PACKAGE = Path(recordkit.__file__).parent


def test_every_import_is_relative_or_stdlib():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not found, found


def test_every_import_is_used():
    """A module uses each name it imports, or lists it in __all__.
    __init__.py is skipped: its imports are the package's re-exports."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found.extend("%s:%d %s" % (path.name, node.lineno, name)
                         for name in names if name not in used)
    assert not found, found
