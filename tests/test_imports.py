"""``src/`` imports only the standard library, numpy and itself.

``pyproject.toml`` declares numpy as the one runtime dependency, so any
other third-party import in the package would fail on a clean install.
"""

import ast
import sys
from pathlib import Path

import repro

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def _top_level_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_declared_dependencies():
    root = Path(repro.__file__).parent
    stray = [
        f"{path.relative_to(root.parent)}:{line}: {module}"
        for path in sorted(root.rglob("*.py"))
        for line, module in _top_level_imports(path)
        if module not in ALLOWED
    ]
    assert stray == []
