"""Source-level guards on the library package."""

import ast
from pathlib import Path

import sp2forms

PACKAGE = Path(sp2forms.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # invariants must raise real exceptions, which python -O does not strip
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "jordan.py" in sources  # the scan sees the package, so it cannot pass vacuously
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
