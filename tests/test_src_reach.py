"""Every top-level function and class of ``src/hookbound`` is reached.

A definition is reached when another top-level statement of the package
loads its name, when ``hookbound.__all__`` exports it, or when the
benchmark reads it: ``perfbench/worker.py`` traces it, or a benchmark file
names it as ``hookbound.<module>.<name>`` (``test_bench_names``).  Code that
only the tests read belongs in the tests.  The sources are read with
``ast``, not imported.
"""
import ast
from pathlib import Path

import hookbound

from test_bench_names import _read_names, _traced

SRC = Path(__file__).resolve().parent.parent / "src" / "hookbound"


def _definitions() -> list[tuple[str, str, bool]]:
    """``(module, name, loaded)`` for each top-level function and class, where
    ``loaded`` says whether another top-level statement of the package loads its name."""
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            loads = {
                sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
            }
            statements.append((path.stem, node, loads))
    return [
        (module, node.name,
         any(node.name in loads for _, other, loads in statements if other is not node))
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _benchmark_reads() -> set[tuple[str, str]]:
    """``(module, name)`` for each definition the benchmark traces or names."""
    traced = {(module, attr.split(".")[0]) for module, attr in _traced()}
    named = {tuple(d.split(".")[1:3]) for d in _read_names() if d.count(".") >= 2}
    return traced | named


def test_every_definition_is_reached():
    bench = _benchmark_reads()
    unreached = [
        f"{module}.{name}"
        for module, name, loaded in _definitions()
        if not loaded and name not in hookbound.__all__ and (module, name) not in bench
    ]
    assert not unreached, "read only by the tests: " + ", ".join(unreached)


def test_the_benchmark_alone_reaches_hook_product():
    # the one definition kept for the benchmark's tracer only; retiring that
    # metric is a benchmark change, after which hook_product goes too
    assert {
        f"{module}.{name}"
        for module, name, loaded in _definitions()
        if not loaded and name not in hookbound.__all__
    } == {"degrees.hook_product"}
