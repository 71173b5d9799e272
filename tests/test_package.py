"""Package hygiene: every export resolves, and the runtime needs only the
standard library (``dependencies = []`` in pyproject.toml)."""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import hkbound

# The only dataclasses, each for a use of the dataclass API.  Every other
# class avoids the methods a dataclass writes out and compiles at import.
DATACLASSES = {
    "hkbound.protocol.ProtocolConfig": "cli, harness and the tests derive configs with dataclasses.replace",
    "hkbound.protocol.Transcript": "the tests expect dataclasses.FrozenInstanceError on assignment",
}


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


def test_only_the_listed_classes_are_dataclasses():
    found = set()
    for path in sorted(Path(hkbound.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"hkbound.{path.stem}" if path.stem != "__init__" else "hkbound")
        found |= {f"{cls.__module__}.{cls.__qualname__}" for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)}
    assert found == set(DATACLASSES), (
        f"dataclasses {sorted(found)}; only these may be, each for its reason: {DATACLASSES}")
