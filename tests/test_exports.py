"""Every name a module exports must exist, so a deleted function cannot
leave a stale ``__all__`` entry behind, and every exported function, and
every public method and property of an exported class, must have a
caller in the package, its scripts or its benchmark, or be listed below
with the reason it stays."""

import ast
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path

import pytest

import fibercover

MODULES = ["fibercover"] + [
    f"fibercover.{info.name}" for info in pkgutil.iter_modules(fibercover.__path__)
]

ROOT = Path(__file__).parent.parent

# Exported functions that nothing in src/fibercover, scripts or bench
# calls, each kept on purpose.
UNCALLED = {
    "canonical_form": "the reference the Nielsen orbit table is tested against",
    "character_entanglement": "library API, to be rewritten over class representatives",
    "multipliers": "library API, to give way to the Branch Cycle Lemma's routine",
}

# Public methods and properties of exported classes that nothing in
# src/fibercover, scripts or bench reads, each kept on purpose.
UNREAD = {
    "CoverPair.ramification_profile": "the Riemann–Hurwitz sheet count tests read",
    "RamPoint.ram_index_over_y": "the Riemann–Hurwitz sheet count tests read",
    "Component.restricted_cycles": "what _orbit_index_sums is checked against",
    "NielsenClassSpec.equivalence_conjugators": (
        "canonical_form's conjugators; bench/tracing.py wraps it by name"
    ),
}

_MEMBERS = (property, cached_property, staticmethod, classmethod)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _used_names() -> set[str]:
    """Every ``Name`` and ``Attribute`` read in the package, its scripts
    and its benchmark harness; imports and ``__all__`` strings are not
    reads."""
    used = set()
    for directory in ("src/fibercover", "scripts", "bench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_exported_functions_have_callers():
    used = _used_names()
    uncalled = set()
    for module in MODULES:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            if inspect.isfunction(getattr(mod, name)) and name not in used:
                uncalled.add(name)
    assert uncalled == set(UNCALLED)


def test_exported_class_members_have_readers():
    used = _used_names()
    unread = set()
    for module in MODULES:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            cls = getattr(mod, name)
            if not inspect.isclass(cls):
                continue
            for attr, value in vars(cls).items():
                member = inspect.isfunction(value) or isinstance(value, _MEMBERS)
                if member and not attr.startswith("_") and attr not in used:
                    unread.add(f"{cls.__name__}.{attr}")
    assert unread == set(UNREAD)
