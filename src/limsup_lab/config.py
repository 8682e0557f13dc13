"""Instance-config parsing and validation for the CLI.

A config is a JSON document with three top-level sections::

    {
      "schema_version": 1,
      "instance": {
        "n": 1, "m": 2, "mode": "weighted",
        "psi": [{"kind": "power", "tau": 1.0, "coeff": 1.0},
                {"kind": "power", "tau": 3.0, "coeff": 1.0}],
        "f": {"kind": "power", "s": 1.5}
      },
      "run": {"Kmax": 14, "samples": 1000000, "seed": 42}
    }

`psi` holds one descriptor per block for weighted instances and exactly one
descriptor otherwise.  Approximating-function descriptors:

    {"kind": "power",     "tau": float, "coeff"?: float}
    {"kind": "power_log", "tau": float, "p": float, "coeff"?: float}
    {"kind": "constant",  "value": float}
    {"kind": "table",     "values": [float, ...]}

Dimension-function descriptors (`f`, optional):

    {"kind": "power",     "s": float, "domain_cap"?: float}
    {"kind": "power_log", "s": float, "p": float, "domain_cap"?: float}
    {"kind": "table",     "breakpoints": [[r, value], ...]}

An optional descriptor field set to null counts as absent.

The `run` section is optional and so is every field in it; its fields and
their defaults are those of `RunSettings`.  Beyond the core trio (Kmax >= 2,
samples >= 1, seed >= 0) it accepts the knobs individual subcommands
consume: Qmax (measure tables), Qlo/Qhi (coverage windows), delta
(decompositions and measure checks) and q (the lattice vector of
decompose, with instance.n coordinates).  The CLI's --seed, --samples and
--Kmax flags are written into this section before validation
(`load_config`), so they meet the same checks and the report echoes them.

Validation is strict: unknown fields anywhere are rejected, as are type
or range violations, with a path-qualified message.  All of these raise
ConfigError, which the CLI maps to exit code 2.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from .formulas import MODES, ProblemInstance
from .funcspace import ApproximatingFunction, DimensionFunction, WeightSystem


class ConfigError(ValueError):
    """Invalid instance config (schema, type, or range violation)."""


SCHEMA_VERSION = 1

@dataclass(frozen=True)
class RunSettings:
    Kmax: int = 14
    samples: int = 1_000_000
    seed: int = 0
    Qmax: int = 16
    Qlo: int = 1
    Qhi: int = 1024
    delta: float | None = None
    q: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ParsedConfig:
    instance: ProblemInstance
    run: RunSettings
    raw: dict = field(repr=False)


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{path}: unknown field(s) {sorted(extra)}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}: missing required field {key!r}")
    return obj[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _number_list(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _pair_list(value, path: str) -> list[tuple[float, float]]:
    if not isinstance(value, list) or any(not isinstance(p, list) or len(p) != 2 for p in value):
        raise ConfigError(f"{path}: expected a list of [r, value] pairs")
    return [tuple(_number_list(p, f"{path}[{i}]")) for i, p in enumerate(value)]


# Descriptor kinds: kind -> (constructor, required fields, optional fields).
# The constructor takes the fields positionally, in the order listed; a field
# is a number unless _LIST_FIELDS names its parser.
_PSI_KINDS = {
    "power": (ApproximatingFunction.power, ("tau",), ("coeff",)),
    "power_log": (ApproximatingFunction.power_log, ("tau", "p"), ("coeff",)),
    "constant": (ApproximatingFunction.constant, ("value",), ()),
    "table": (ApproximatingFunction.table, ("values",), ()),
}
_F_KINDS = {
    "power": (DimensionFunction.power, ("s",), ("domain_cap",)),
    "power_log": (DimensionFunction.power_log, ("s", "p"), ("domain_cap",)),
    "table": (DimensionFunction.table, ("breakpoints",), ()),
}
_LIST_FIELDS = {"values": _number_list, "breakpoints": _pair_list}


def _parse_descriptor(obj, path: str, kinds: dict, label: str):
    """Build the function a descriptor names; an optional field set to null is absent."""
    obj = _expect_mapping(obj, path)
    kind = _require(obj, "kind", path)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: unknown {label} kind {kind!r}")
    make, required, optional = kinds[kind]
    _reject_unknown(obj, {"kind", *required, *optional}, path)

    def parse(key, value):
        return _LIST_FIELDS.get(key, _as_number)(value, f"{path}.{key}")

    args = [parse(key, _require(obj, key, path)) for key in required]
    args += [parse(key, obj[key]) for key in optional if obj.get(key) is not None]
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_instance(obj, path: str) -> ProblemInstance:
    obj = _expect_mapping(obj, path)
    _reject_unknown(obj, {"n", "m", "mode", "psi", "f"}, path)
    n = _as_int(_require(obj, "n", path), f"{path}.n", minimum=1)
    m = _as_int(_require(obj, "m", path), f"{path}.m", minimum=1)
    mode = _require(obj, "mode", path)
    if mode not in MODES:
        raise ConfigError(f"{path}.mode: expected one of {MODES}, got {mode!r}")
    psi_raw = _require(obj, "psi", path)
    if not isinstance(psi_raw, list) or not psi_raw:
        raise ConfigError(f"{path}.psi: expected a non-empty list of descriptors")
    psi_fns = [
        _parse_descriptor(d, f"{path}.psi[{i}]", _PSI_KINDS, "approximating-function")
        for i, d in enumerate(psi_raw)
    ]
    f = None
    if "f" in obj and obj["f"] is not None:
        f = _parse_descriptor(obj["f"], f"{path}.f", _F_KINDS, "dimension-function")
    try:
        if mode == "weighted":
            if len(psi_fns) != m:
                raise ConfigError(
                    f"{path}.psi: weighted instances need m={m} descriptors, got {len(psi_fns)}"
                )
            return ProblemInstance(
                n=n, m=m, mode=mode, weights=WeightSystem(tuple(psi_fns)), f=f
            )
        if len(psi_fns) != 1:
            raise ConfigError(
                f"{path}.psi: {mode} instances take exactly one descriptor, got {len(psi_fns)}"
            )
        return ProblemInstance(n=n, m=m, mode=mode, psi=psi_fns[0], f=f)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def parse_run(obj) -> RunSettings:
    """Validate a run section; None, like a missing section, means every default."""
    path = "config.run"
    if obj is None:
        return RunSettings()
    obj = _expect_mapping(obj, path)
    _reject_unknown(obj, {f.name for f in fields(RunSettings)}, path)
    kw = {}
    for key in ("Kmax", "samples", "seed", "Qmax", "Qlo", "Qhi"):
        if key in obj:
            minimum = {"Kmax": 2, "seed": 0}.get(key, 1)
            kw[key] = _as_int(obj[key], f"{path}.{key}", minimum=minimum)
    if "delta" in obj and obj["delta"] is not None:
        delta = _as_number(obj["delta"], f"{path}.delta")
        if not 0 < delta < 1:
            raise ConfigError(f"{path}.delta: must lie in (0, 1), got {delta}")
        kw["delta"] = delta
    if "q" in obj and obj["q"] is not None:
        qv = obj["q"]
        if not isinstance(qv, list) or not qv:
            raise ConfigError(f"{path}.q: expected a non-empty list of integers")
        kw["q"] = tuple(_as_int(c, f"{path}.q[{i}]") for i, c in enumerate(qv))
        if all(c == 0 for c in kw["q"]):
            raise ConfigError(f"{path}.q: must not be the zero vector")
    settings = RunSettings(**kw)
    if settings.Qlo > settings.Qhi:
        raise ConfigError(f"{path}: Qlo ({settings.Qlo}) exceeds Qhi ({settings.Qhi})")
    return settings


def parse_config(data) -> ParsedConfig:
    """Validate a decoded JSON document and build the instance it describes."""
    data = _expect_mapping(data, "config")
    _reject_unknown(data, {"schema_version", "instance", "run"}, "config")
    version = _require(data, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    instance = _parse_instance(_require(data, "instance", "config"), "config.instance")
    run = parse_run(data.get("run"))
    if run.q is not None and len(run.q) != instance.n:
        raise ConfigError(
            f"config.run.q: expected instance.n = {instance.n} coordinates, got {len(run.q)}"
        )
    return ParsedConfig(instance=instance, run=run, raw=data)


def load_config(path: str, run_fields: dict | None = None) -> ParsedConfig:
    """Read a config file, write `run_fields` into its run section, and validate it.

    The fields (the CLI's --seed/--samples/--Kmax) become part of the
    document before validation, so they meet the schema's own checks and
    appear in the echoed config.  I/O and JSON errors become ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if run_fields and isinstance(data, dict):
        run = data.get("run")
        if run is None or isinstance(run, dict):
            data["run"] = {**(run or {}), **run_fields}
    return parse_config(data)


def config_sha256(data: dict) -> str:
    """Content hash of the canonical (sorted-key, compact) JSON encoding."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
