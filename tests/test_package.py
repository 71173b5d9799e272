"""Package hygiene: every export resolves, and the runtime needs only the
standard library (``dependencies = []`` in pyproject.toml)."""

import ast
import sys
from pathlib import Path

import hkbound


def test_exports_resolve_and_imports_are_stdlib():
    for name in hkbound.__all__:
        assert hasattr(hkbound, name), name

    foreign = []
    for path in sorted(Path(hkbound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [(path.name, r) for r in roots if r not in sys.stdlib_module_names]
    assert foreign == []
