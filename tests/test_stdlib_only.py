"""recordkit depends on the Python standard library alone.

Every import in the package is relative or names a standard-library
module, so an accidental import of an installed third-party package fails
here instead of on a machine that lacks it.
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
