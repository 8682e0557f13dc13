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

The `run` section is optional and so is every field in it; its fields and
their defaults are those of `RunSettings`.  Beyond the core trio (Kmax,
samples, seed) it accepts the knobs individual subcommands consume: Qmax
(measure tables), Qlo/Qhi (coverage windows), delta (decompositions and
measure checks) and q (the lattice vector of decompose).

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


def parse_psi_descriptor(obj, path: str) -> ApproximatingFunction:
    obj = _expect_mapping(obj, path)
    kind = _require(obj, "kind", path)
    try:
        if kind == "power":
            _reject_unknown(obj, {"kind", "tau", "coeff"}, path)
            tau = _as_number(_require(obj, "tau", path), f"{path}.tau")
            coeff = _as_number(obj.get("coeff", 1.0), f"{path}.coeff")
            return ApproximatingFunction.power(tau, coeff)
        if kind == "power_log":
            _reject_unknown(obj, {"kind", "tau", "p", "coeff"}, path)
            tau = _as_number(_require(obj, "tau", path), f"{path}.tau")
            p = _as_number(_require(obj, "p", path), f"{path}.p")
            coeff = _as_number(obj.get("coeff", 1.0), f"{path}.coeff")
            return ApproximatingFunction.power_log(tau, p, coeff)
        if kind == "constant":
            _reject_unknown(obj, {"kind", "value"}, path)
            return ApproximatingFunction.constant(
                _as_number(_require(obj, "value", path), f"{path}.value")
            )
        if kind == "table":
            _reject_unknown(obj, {"kind", "values"}, path)
            values = _require(obj, "values", path)
            if not isinstance(values, list):
                raise ConfigError(f"{path}.values: expected a list")
            return ApproximatingFunction.table(
                [_as_number(v, f"{path}.values[{i}]") for i, v in enumerate(values)]
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown approximating-function kind {kind!r}")


def parse_f_descriptor(obj, path: str) -> DimensionFunction:
    obj = _expect_mapping(obj, path)
    kind = _require(obj, "kind", path)
    try:
        if kind == "power":
            _reject_unknown(obj, {"kind", "s", "domain_cap"}, path)
            s = _as_number(_require(obj, "s", path), f"{path}.s")
            cap = obj.get("domain_cap")
            return DimensionFunction.power(
                s, None if cap is None else _as_number(cap, f"{path}.domain_cap")
            )
        if kind == "power_log":
            _reject_unknown(obj, {"kind", "s", "p", "domain_cap"}, path)
            s = _as_number(_require(obj, "s", path), f"{path}.s")
            p = _as_number(_require(obj, "p", path), f"{path}.p")
            cap = obj.get("domain_cap")
            return DimensionFunction.power_log(
                s, p, None if cap is None else _as_number(cap, f"{path}.domain_cap")
            )
        if kind == "table":
            _reject_unknown(obj, {"kind", "breakpoints"}, path)
            pts = _require(obj, "breakpoints", path)
            if not isinstance(pts, list) or any(
                not isinstance(p_, list) or len(p_) != 2 for p_ in pts
            ):
                raise ConfigError(f"{path}.breakpoints: expected a list of [r, value] pairs")
            return DimensionFunction.table([(float(r), float(v)) for r, v in pts])
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown dimension-function kind {kind!r}")


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
        parse_psi_descriptor(d, f"{path}.psi[{i}]") for i, d in enumerate(psi_raw)
    ]
    f = None
    if "f" in obj and obj["f"] is not None:
        f = parse_f_descriptor(obj["f"], f"{path}.f")
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


def _parse_run(obj, path: str) -> RunSettings:
    if obj is None:
        return RunSettings()
    obj = _expect_mapping(obj, path)
    _reject_unknown(obj, {f.name for f in fields(RunSettings)}, path)
    kw = {}
    for key in ("Kmax", "samples", "seed", "Qmax", "Qlo", "Qhi"):
        if key in obj:
            kw[key] = _as_int(obj[key], f"{path}.{key}", minimum=0 if key == "seed" else 1)
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
    run = _parse_run(data.get("run"), "config.run")
    return ParsedConfig(instance=instance, run=run, raw=data)


def load_config(path: str) -> ParsedConfig:
    """Read and validate a config file; I/O and JSON errors become ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(data)


def config_sha256(data: dict) -> str:
    """Content hash of the canonical (sorted-key, compact) JSON encoding."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
