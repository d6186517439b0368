"""No module of the package imports a name it never uses.

The one exception is a name that ``perfbench/tracer.py`` wraps in the
importing module: the tracer replaces that module's attribute, so the
import is what it wraps even where the module itself never calls it.
When the tracer stops wrapping such a name, this test names the import to
delete.
"""

import ast
import sys
from pathlib import Path

import bnrefit

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
PACKAGE = Path(bnrefit.__file__).resolve().parent


def traced_names() -> set[tuple[str, str]]:
    """``(module, name)`` for each module attribute the tracer wraps."""
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return {(owner.__name__.rpartition(".")[2], attr)
            for owner, attr, _, _ in tracer.TARGETS
            if owner.__name__.startswith("bnrefit.")}


def unused_relative_imports(source: str) -> list[str]:
    """Names bound by a relative import that nothing in ``source`` loads."""
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)}
    return [alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if (alias.asname or alias.name) not in loaded]


def test_no_unused_relative_import():
    traced = traced_names()
    unused = [f"{path.stem}.{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in unused_relative_imports(path.read_text())
              if (path.stem, name) not in traced]
    assert not unused, f"imported but never used: {unused}"
