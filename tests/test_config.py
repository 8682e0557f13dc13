"""Config validation: the exact message of every schema error, and the run-field merge."""

import copy
import json

import pytest

from limsup_lab.config import ConfigError, load_config, parse_config

BASE = {
    "schema_version": 1,
    "instance": {
        "n": 1,
        "m": 2,
        "mode": "weighted",
        "psi": [{"kind": "power", "tau": 1.0}, {"kind": "power", "tau": 3.0}],
        "f": {"kind": "power", "s": 1.1},
    },
    "run": {"Kmax": 14, "samples": 1000000, "seed": 0},
}

_DELETE = object()


def edited(path: str, value):
    """BASE with the field at slash-separated `path` set to `value` (or deleted)."""
    doc = copy.deepcopy(BASE)
    *parents, last = path.split("/")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        node[int(last)] = value
    elif value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


PSI0 = "config.instance.psi[0]"
F = "config.instance.f"

# (edit path, value, message): each edit of BASE alone is one error
MESSAGES = [
    ("extra", 1, "config: unknown field(s) ['extra']"),
    ("schema_version", _DELETE, "config: missing required field 'schema_version'"),
    ("schema_version", 99, "config.schema_version: expected 1, got 99"),
    ("instance", _DELETE, "config: missing required field 'instance'"),
    ("instance", [], "config.instance: expected an object, got list"),
    ("instance/extra", 1, "config.instance: unknown field(s) ['extra']"),
    ("instance/n", _DELETE, "config.instance: missing required field 'n'"),
    ("instance/n", 1.5, "config.instance.n: expected an integer, got 1.5"),
    ("instance/n", True, "config.instance.n: expected an integer, got True"),
    ("instance/m", 0, "config.instance.m: must be >= 1, got 0"),
    ("instance/mode", "diagonal", "config.instance.mode: expected one of "
     "('nonweighted', 'weighted', 'multiplicative'), got 'diagonal'"),
    ("instance/psi", [], "config.instance.psi: expected a non-empty list of descriptors"),
    ("instance/psi", {}, "config.instance.psi: expected a non-empty list of descriptors"),
    ("instance/psi/0", "power", f"{PSI0}: expected an object, got str"),
    ("instance/psi/0", {"tau": 1.0}, f"{PSI0}: missing required field 'kind'"),
    ("instance/psi/0", {"kind": "exp", "tau": 1.0},
     f"{PSI0}.kind: unknown approximating-function kind 'exp'"),
    ("instance/psi/0", {"kind": [1], "tau": 1.0},
     f"{PSI0}.kind: unknown approximating-function kind [1]"),
    ("instance/psi/0", {"kind": "power", "tau": 1.0, "s": 1}, f"{PSI0}: unknown field(s) ['s']"),
    ("instance/psi/0", {"kind": "power_log", "coeff": 1.0}, f"{PSI0}: missing required field 'tau'"),
    ("instance/psi/0", {"kind": "power_log", "tau": 1.0}, f"{PSI0}: missing required field 'p'"),
    ("instance/psi/0", {"kind": "power", "tau": True}, f"{PSI0}.tau: expected a number, got True"),
    ("instance/psi/0", {"kind": "power", "tau": 1.0, "coeff": "1"},
     f"{PSI0}.coeff: expected a number, got '1'"),
    ("instance/psi/0", {"kind": "power", "tau": 1.0, "coeff": 0},
     f"{PSI0}: coefficient must be positive"),
    ("instance/psi/0", {"kind": "constant"}, f"{PSI0}: missing required field 'value'"),
    ("instance/psi/0", {"kind": "constant", "value": -1},
     f"{PSI0}: constant value must be non-negative"),
    ("instance/psi/0", {"kind": "table", "values": 3}, f"{PSI0}.values: expected a list"),
    ("instance/psi/0", {"kind": "table", "values": [0.1, "a"]},
     f"{PSI0}.values[1]: expected a number, got 'a'"),
    ("instance/psi/0", {"kind": "table", "values": []},
     f"{PSI0}: table values must be non-negative and non-empty"),
    ("instance/f", "power", f"{F}: expected an object, got str"),
    ("instance/f", {"kind": "constant", "value": 1},
     f"{F}.kind: unknown dimension-function kind 'constant'"),
    ("instance/f", {"kind": "power", "s": 1.0, "tau": 1}, f"{F}: unknown field(s) ['tau']"),
    ("instance/f", {"kind": "power"}, f"{F}: missing required field 's'"),
    ("instance/f", {"kind": "power", "s": 1.0, "domain_cap": "x"},
     f"{F}.domain_cap: expected a number, got 'x'"),
    ("instance/f", {"kind": "power", "s": 0}, f"{F}: power exponent must be positive, got 0.0"),
    ("instance/f", {"kind": "power_log", "s": 1.0}, f"{F}: missing required field 'p'"),
    ("instance/f", {"kind": "table", "breakpoints": 1},
     f"{F}.breakpoints: expected a list of [r, value] pairs"),
    ("instance/f", {"kind": "table", "breakpoints": [[0.1, 0.2, 0.3]]},
     f"{F}.breakpoints: expected a list of [r, value] pairs"),
    ("instance/f", {"kind": "table", "breakpoints": [[0.1, 0.2]]},
     f"{F}: table needs at least two breakpoints"),
    ("instance/psi", [{"kind": "power", "tau": 1.0}],
     "config.instance.psi: weighted instances need m=2 descriptors, got 1"),
    ("instance/mode", "nonweighted",
     "config.instance.psi: nonweighted instances take exactly one descriptor, got 2"),
    ("run", [], "config.run: expected an object, got list"),
    ("run/tolerance", 0.1, "config.run: unknown field(s) ['tolerance']"),
    ("run/Kmax", 2.5, "config.run.Kmax: expected an integer, got 2.5"),
    ("run/Kmax", 1, "config.run.Kmax: must be >= 2, got 1"),
    ("run/samples", 0, "config.run.samples: must be >= 1, got 0"),
    ("run/seed", -1, "config.run.seed: must be >= 0, got -1"),
    ("run/Qmax", 0, "config.run.Qmax: must be >= 1, got 0"),
    ("run/Qlo", 2000, "config.run: Qlo (2000) exceeds Qhi (1024)"),
    ("run/delta", "0.1", "config.run.delta: expected a number, got '0.1'"),
    ("run/delta", 1.0, "config.run.delta: must lie in (0, 1), got 1.0"),
    ("run/q", [], "config.run.q: expected a non-empty list of integers"),
    ("run/q", [1.5], "config.run.q[0]: expected an integer, got 1.5"),
    ("run/q", [0], "config.run.q: must not be the zero vector"),
    ("run/q", [3, 4], "config.run.q: expected instance.n = 1 coordinates, got 2"),
    # every number in a breakpoint list goes through the same check as any other
    ("instance/f", {"kind": "table", "breakpoints": [[0.1, 0.5], [True, 0.9]]},
     f"{F}.breakpoints[1][0]: expected a number, got True"),
    ("instance/f", {"kind": "table", "breakpoints": [[0.1, "0.01"], [0.5, 0.9]]},
     f"{F}.breakpoints[0][1]: expected a number, got '0.01'"),
]


@pytest.mark.parametrize("path, value, message", MESSAGES)
def test_each_schema_error_has_its_message(path, value, message):
    with pytest.raises(ConfigError) as info:
        parse_config(edited(path, value))
    assert str(info.value) == message


def test_a_document_that_is_not_an_object_is_rejected():
    with pytest.raises(ConfigError, match=r"^config: expected an object, got list$"):
        parse_config([])


def test_the_base_document_and_its_optional_forms_parse():
    assert parse_config(BASE).run.Kmax == 14
    assert parse_config(edited("run", None)).run.Kmax == 14
    # an optional descriptor field set to null is absent
    null_coeff = edited("instance/psi/0", {"kind": "power", "tau": 1.0, "coeff": None})
    assert parse_config(null_coeff).instance.weights.components[0].coeff == 1.0
    table = edited("instance/f", {"kind": "table", "breakpoints": [[0.1, 0.5], [1, 2]]})
    assert parse_config(table).instance.f is not None
    assert parse_config(edited("run/Kmax", 2)).run.Kmax == 2
    two_d = edited("instance/n", 2)
    two_d["run"]["q"] = [3, 4]
    assert parse_config(two_d).run.q == (3, 4)


def test_run_fields_are_written_into_the_document(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    parsed = load_config(str(path), {"Kmax": 9, "seed": 3})
    assert (parsed.run.Kmax, parsed.run.seed, parsed.run.samples) == (9, 3, 1000000)
    assert parsed.raw["run"] == {"Kmax": 9, "samples": 1000000, "seed": 3}
    assert load_config(str(path)).raw == BASE

    path.write_text(json.dumps(edited("run", _DELETE)))
    assert load_config(str(path), {"samples": 5}).raw["run"] == {"samples": 5}
    # a run section that is not an object is reported, not replaced
    path.write_text(json.dumps(edited("run", [])))
    with pytest.raises(ConfigError, match=r"^config.run: expected an object, got list$"):
        load_config(str(path), {"samples": 5})
