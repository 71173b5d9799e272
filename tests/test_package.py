"""Package hygiene: every export resolves, the runtime needs only the
standard library (``dependencies = []`` in pyproject.toml), the exact
engine keeps no state across calls beyond its row-bit tables, and every
Python the package supports prints the same."""

import ast
import dataclasses
import importlib
import inspect
import os
import random
import shutil
import subprocess
import sys
from collections.abc import Sized
from fractions import Fraction
from pathlib import Path

import pytest

import hkbound
from hkbound import exprs, oracle
from hkbound.exprs import BoxPlus, Hash, Lit, Var

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


def test_the_oracle_keeps_only_row_tables_across_calls():
    # memos keyed by node id live in one pass; across calls only the row-bit
    # tables of each small width stay, so an id reused later finds nothing
    def snapshot():  # every module attribute, by identity and length
        return {f"{m.__name__}.{name}": (value, len(value) if isinstance(value, Sized) else None)
                for m in (oracle, exprs) for name, value in vars(m).items() if not name.startswith("__")}

    before = snapshot()
    powers = oracle._POWERS  # 2**-n for n < 64, built at import
    assert powers == tuple(Fraction(1, 2**n) for n in range(64))
    rng = random.Random(0)
    x, h, u, v, w = Var("x"), Var("h"), Var("u"), Var("v"), Var("w")
    for _ in range(50):
        token = Lit(format(rng.getrandbits(8), "08b"))
        oracle.chance({"x": 4}, [token], [BoxPlus(x, token)])
        xl, zl = (Lit(format(rng.getrandbits(6), "06b")) for _ in range(2))
        oracle.chance({"h": 12}, [xl, zl, BoxPlus(zl, h)], [BoxPlus(xl, h)])
        # plain queries read off their masks on a tabulated pass, one of them
        # past the powers table
        xh, zh = BoxPlus(x, h), BoxPlus(zl, h)
        chance_of = oracle.chances({"x": 6, "h": 12, "w": 80}, [x, xl, zl, w, xh, zh])
        chance_of([zl, zh], [xh]), chance_of([xl, zl], [zh, w])
        oracle.check_subbayes(*oracle.random_subbayes_case(rng))
    oracle.chance({"x": 4, "h": 8}, [], [BoxPlus(x, h)])  # four 3-bit components
    oracle.chance({"u": 7, "v": 7}, [], [Hash(u, 1), Hash(v, 1)])  # one 16-bit component
    oracle.check_prob_guard(oracle.builtin_guard_spec("attack-run"))
    after = snapshot()
    assert list(after) == list(before)
    changed = [name for name, (value, size) in after.items() if value is not before[name][0] or size != before[name][1]]
    assert set(changed) <= {"hkbound.oracle._row_tables"}
    assert oracle._POWERS is powers and len(powers) == 64
    kept = {f"{m.__name__}.{name}": value for m in (oracle, exprs) for name, value in vars(m).items()
            if not name.startswith("__") and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))}
    assert list(kept) == ["hkbound.oracle._row_tables"]
    tables = oracle._row_tables
    assert 0 < len(tables) <= oracle.ROW_TABLES_MAX == 12
    for k, row_bits in tables.items():
        assert type(k) is int and 1 <= k <= 12
        assert row_bits == tuple(oracle._pattern(j, k) for j in range(k))


# README commands, one per engine: the simulator (hashing), the exact oracle, the term algebra
README_COMMANDS = (
    ["simulate", "--strategy", "prequery-stick", "--ell", "8", "--trials", "2000", "--seed", "7"],
    ["enumerate", "--claim", "monty", "--ell", "4"],
    ["guard-check", "--builtin", "dh", "--algebraic"],
)


def test_commands_print_the_same_on_every_python_found():
    # requires-python = ">=3.10", and on 3.12+ the hashlib fallback must print the same
    env = {**os.environ, "PYTHONPATH": str(Path(hkbound.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}

    def run(python: str) -> list[tuple[int, str]]:
        return [(done.returncode, done.stdout) for done in (
            subprocess.run([python, "-m", "hkbound.cli", *argv], capture_output=True, text=True, env=env,
                           timeout=300) for argv in README_COMMANDS)]

    here, others = os.path.realpath(sys.executable), []
    for name in ("python3.10", "python3.11", "python3.12", "python3.13"):
        if (path := shutil.which(name)) is None:
            continue
        probe = subprocess.run([path, "-c", "import sys; print(sys.executable)"], capture_output=True,
                               text=True, env=env, timeout=60)
        if probe.returncode == 0 and os.path.realpath(probe.stdout.strip()) != here:
            others.append(path)
    if not others:
        pytest.skip("no Python 3.10-3.13 other than this one starts from PATH")
    want = run(sys.executable)
    assert all(code == 0 and out for code, out in want)
    for python in others:
        assert run(python) == want, python
