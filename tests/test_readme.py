"""Every package name that README's Python examples use resolves.

The examples are not run (one steps a 40-site chain), so a renamed or
deleted name would leave them stale without this check.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_readme_names_resolve():
    used = []
    for block in readme_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qubitchain":
                used += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "qc":
                used.append(("qubitchain", node.attr))
    assert used, "no package names found in README's Python blocks"
    missing = [entry for entry in used if not hasattr(importlib.import_module(entry[0]), entry[1])]
    assert not missing, missing
