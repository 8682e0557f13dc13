"""Every public top-level function or class in the package has a caller in it.

A name counts as referenced when it is read (a bare name or an attribute)
in some module of `src/limsup_lab` other than `__init__`, outside its own
definition.  Re-exports in `__init__` do not count: they give a name a
public address, not a caller.
"""

import ast
from collections import Counter
from pathlib import Path

import limsup_lab

PACKAGE = Path(limsup_lab.__file__).parent

# Public names kept without a caller in the package, each with its reason.
ALLOWED = {
    ("criteria", "cover_cost"): "the paper's cover cost t_Q, the reference "
    "the cost-exponent tests hold the scan to",
}


def _names_read(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _public_definitions_and_references():
    definitions = []
    references = Counter()  # name -> top-level statements that read it
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                definitions.append((path.stem, node.name, node))
            if path.stem != "__init__":
                references.update(_names_read(node))
    return definitions, references


def test_every_public_definition_has_a_caller():
    definitions, references = _public_definitions_and_references()
    assert definitions
    uncalled = []
    for module, name, node in definitions:
        own = int(module != "__init__" and name in _names_read(node))
        if references[name] - own == 0:
            uncalled.append((module, name))
    assert sorted(uncalled) == sorted(ALLOWED)
