"""Every public function, class, method and property in the package has a caller in it.

A name counts as referenced when it is read (a bare name or an attribute)
in some module of `src/limsup_lab` other than `__init__`, outside its own
definition.  Re-exports in `__init__` do not count: they give a name a
public address, not a caller.

Methods and properties of public classes are checked the same way, by
attribute name: `x.name` anywhere outside the method's own body counts,
whatever `x` is.  So names that several classes share (such as `describe`
or `m`) make the check permissive: a reader of one class's method keeps
every method of that name alive.
"""

import ast
from collections import Counter
from pathlib import Path

import limsup_lab

PACKAGE = Path(limsup_lab.__file__).parent

# Public names kept without a caller in the package, each with its reason.
ALLOWED = {
    ("criteria", "cover_cost"): "the paper's cover cost t_Q, the reference "
    "the cost-exponent and series-sum tests hold the fast paths to",
}


def _names_read(node: ast.AST) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _public(node: ast.AST, kinds) -> bool:
    return isinstance(node, kinds) and not node.name.startswith("_")


def _public_definitions_and_references():
    """([(module, qualified name, name, node)], reads of each name outside __init__)."""
    definitions = []
    references = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        for node in tree.body:
            if _public(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, node.name, node))
            if _public(node, ast.ClassDef):
                for member in node.body:
                    if _public(member, ast.FunctionDef):
                        qualified = f"{node.name}.{member.name}"
                        definitions.append((module, qualified, member.name, member))
        if module != "__init__":
            references.update(_names_read(tree))
    return definitions, references


def test_every_public_definition_has_a_caller():
    definitions, references = _public_definitions_and_references()
    assert any("." in qualified for _, qualified, _, _ in definitions)
    uncalled = []
    for module, qualified, name, node in definitions:
        own = _names_read(node)[name] if module != "__init__" else 0
        if references[name] - own == 0:
            uncalled.append((module, qualified))
    assert sorted(uncalled) == sorted(ALLOWED)
