"""The package names that the benchmark reads still resolve.

``perfbench/worker.py`` wraps every ``(module, attribute)`` of its
``TRACED`` tuple and reads ``hookbound.partitions._count.cache_info()``;
the runner, the workloads and the worker also import or read other
``hookbound`` names.  A renamed or deleted function would break the
benchmark runs, and a stale export would break ``from hookbound import *``.
The benchmark files are read with ``ast``, not imported.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import hookbound
import hookbound.partitions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER = PERFBENCH / "worker.py"


def _traced() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {WORKER}")


def _read_names() -> list[str]:
    """Every dotted ``hookbound`` name a benchmark file imports, reads as an
    attribute chain off the package, or names as a module string."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hookbound":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.split(".")[0] == "hookbound")
            elif isinstance(node, ast.Attribute):
                attrs = []
                while isinstance(node, ast.Attribute):
                    attrs.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id == "hookbound":
                    names.add(".".join(["hookbound", *reversed(attrs)]))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"hookbound(\.\w+)+", node.value):
                    names.add(node.value)
    return sorted(names)


def _resolve(dotted: str):
    """The object a dotted name reaches, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, attr in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


@pytest.mark.parametrize("module_name, attr", _traced())
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module("hookbound." + module_name)
    if "." in attr:
        # a method is patched in its class's own __dict__
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_read_names_cover_the_known_readers():
    assert {
        "hookbound.Partition",
        "hookbound.count_syt_bruteforce",
        "hookbound.degree",
        "hookbound.families.balanced",
        "hookbound.families.staircase",
        "hookbound.cli.main",
        "hookbound.bounds.theorem_classify",
        "hookbound.bounds.general_bound",
        "hookbound.certificates.MODE_LOG",
        "hookbound.certificates.exact_bit_budget",
    } <= set(_read_names())


@pytest.mark.parametrize("dotted", _read_names())
def test_read_name_resolves(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("name", hookbound.__all__)
def test_exported_name_resolves(name):
    assert hasattr(hookbound, name)


def test_count_table_reports_its_size():
    assert hookbound.partitions._count.cache_info().currsize >= 0
