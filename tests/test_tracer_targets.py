"""The benchmark's tracer can still find every function it wraps.

`perfbench/tracing.py` replaces the layer functions named in its `_TARGETS`
table by (module, attribute, class).  A rename in the package would make
`install` fail with an AttributeError, and with it the traced benchmark runs
and `perfbench/selftest.py`.  Its work counters read the wrapped call's
arguments by position (and by keyword, through `_arg`), so a parameter
moved to another position would make a counter read the wrong argument
without failing.  The table is read here from the source file, executed in
a fresh namespace or parsed, so nothing under `perfbench/` is written.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves_in_the_package():
    targets = _tracing_module()._TARGETS
    assert targets
    missing = []
    for name, module, attr, cls, *_ in targets:
        owner = importlib.import_module(f"limsup_lab.{module}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert missing == []


def _target_functions():
    """{span name: the function the tracer wraps, looked up as `install` does}."""
    functions = {}
    for name, module, attr, cls, *_ in _tracing_module()._TARGETS:
        owner = importlib.import_module(f"limsup_lab.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        functions[name] = getattr(owner, attr)
    return functions


def _argument_reads():
    """(span name, position, keyword or None) of each argument a counter reads.

    From the source of `_TARGETS`: every `_arg(a, k, pos, "name", ...)` and
    every `a[pos]` in a target's count lambda, and in the `before` function
    the target names, where `args` plays the part of `a`.
    """
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_TARGETS" for t in node.targets)
    )
    reads = []
    for entry in table.elts:
        name = ast.literal_eval(entry.elts[0])
        count, before = entry.elts[4], entry.elts[5]
        bodies = [(count, "a")]
        if isinstance(before, ast.Name):
            bodies.append((functions[before.id], "args"))
        for body, positional in bodies:
            for node in ast.walk(body):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_arg"):
                    reads.append((name, ast.literal_eval(node.args[2]),
                                  ast.literal_eval(node.args[3])))
                elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                        and node.value.id == positional
                        and isinstance(node.slice, ast.Constant)):
                    reads.append((name, node.slice.value, None))
    return reads


def _parameter_at(function, pos: int):
    """The parameter that receives positional argument `pos`, or None."""
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for index, param in enumerate(inspect.signature(function).parameters.values()):
        if param.kind == inspect.Parameter.VAR_POSITIONAL:
            return param  # *args takes this position and every later one
        if param.kind not in positional:
            return None
        if index == pos:
            return param
    return None


def test_every_counter_argument_is_at_its_position():
    # a counter that reads argument `pos` by position, or by the keyword it
    # names, must find that parameter there: a signature change that moves
    # it would otherwise make the counter read another argument silently
    functions = _target_functions()
    reads = _argument_reads()
    assert {name for name, _, _ in reads} >= {
        "criteria.series_sum", "funcspace.eval_norm_array", "rng.monte_carlo_fraction",
        "intervals.swept_union_measure",
    }
    wrong = []
    for name, pos, keyword in reads:
        param = _parameter_at(functions[name], pos)
        if param is None or (keyword is not None and param.name != keyword):
            wrong.append((name, pos, keyword, param and param.name))
    assert wrong == []
