"""The package surface: the README's library example runs as written, and
the names ``descon`` re-exports match the ``__all__`` of their modules."""

import ast
import importlib
import re
from pathlib import Path

import descon

_ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_reexports_match_module_all():
    tree = ast.parse(Path(descon.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"descon.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"descon.{node.module}.{alias.name}"
    for path in sorted(Path(descon.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"descon.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"
