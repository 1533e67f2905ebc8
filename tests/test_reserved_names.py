"""Reserved ("__"-prefixed) wire names are spelled only in recordize.

Every other module must build and parse them through recordize's
constants and name functions, so a naming change touches one file.
"""

import ast
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
