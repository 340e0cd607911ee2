"""Every package name that README's Python examples use resolves, and every
option its `qubitchain` command lines give is one the CLI accepts.

The examples are not run (one steps a 40-site chain), so a renamed or
deleted name would leave them stale without this check.
"""

import argparse
import ast
import importlib
import re
from pathlib import Path

from qubitchain.cli import build_parser

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


def readme_commands() -> list[str]:
    """The `qubitchain` command lines of README's shell blocks, continuation lines joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("qubitchain "):
                commands.append(line)
    return commands


def test_readme_cli_flags_are_accepted():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = readme_commands()
    assert commands, "no qubitchain command lines found in README"
    unknown = []
    for line in commands:
        name = line.split()[1]
        accepted = subcommands.choices[name]._option_string_actions
        unknown += [(name, flag) for flag in re.findall(r"--[\w-]+", line) if flag not in accepted]
    assert not unknown, unknown
