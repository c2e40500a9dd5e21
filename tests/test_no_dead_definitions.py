"""Every definition under ``src/repro`` is named somewhere else.

A ``def`` or ``class`` whose name occurs, as a whole word, only at its
own definition across the project's Python files is code nothing calls,
imports or tests: it is deleted, not kept beside the code that replaced
it. Dunder methods are exempt (the interpreter calls them).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "tools", "examples")
WORD = re.compile(r"\w+")


def _definitions(path: Path, tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield name, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_definition_is_named_elsewhere():
    words: Counter[str] = Counter()
    definitions: list[tuple[str, str]] = []
    package = ROOT / "src" / "repro"
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            words.update(WORD.findall(text))
            if package in path.parents:
                definitions.extend(_definitions(path, ast.parse(text)))
    assert definitions, "no definitions found under src/repro"
    dead = [f"{where} {name}" for name, where in definitions
            if words[name] == 1]
    assert not dead, "defined but never named elsewhere:\n" + "\n".join(dead)
