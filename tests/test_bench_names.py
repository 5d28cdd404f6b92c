"""The names that the benchmark's tracer patches still resolve in the package.

``perfbench/worker.py`` wraps every ``(module, attribute)`` of its
``TRACED`` tuple and reads ``hookbound.partitions._count.cache_info()``;
a renamed or deleted function would break the traced benchmark runs.  The
worker is read with ``ast``, not imported.
"""
import ast
import importlib
from pathlib import Path

import pytest

import hookbound.partitions

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def _traced() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(WORKER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {WORKER}")


@pytest.mark.parametrize("module_name, attr", _traced())
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module("hookbound." + module_name)
    if "." in attr:
        # a method is patched in its class's own __dict__
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_count_table_reports_its_size():
    assert hookbound.partitions._count.cache_info().currsize >= 0
