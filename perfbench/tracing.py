"""Layer spans and work counters, recorded from outside the program.

`install(tracer)` replaces the public functions of each layer with wrappers
that record a span (name, parent, start, end) and the work counters computed
from the call's arguments and return value.  The package binds names with
`from .x import f`, so a wrapper replaces every binding of the original in
every loaded `limsup_lab` module, not only the defining one; the two
`funcspace` eval methods are replaced on their classes.  Recursive functions
record only their outermost call.

Spans are kept in memory; `layer_metrics` folds them into the per-layer
metrics and `Tracer.dump` writes them when the run ends.  Spans made inside
`_rng.parallel_map`'s worker processes never reach the parent, so a traced
run uses one worker.

Span names are `<module>.<function>` so that instrumentation inside the
program can later reuse them; `_rng` is written `rng`, because metric names
start with a letter.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np
from limsup_lab._rng import CHUNK


class Tracer:
    """In-memory span store: each span is [name, parent, start, end, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: dict[str, int] = {}

    def wrap(self, name, fn, count=None, before=None, outermost=False):
        spans, stack, open_names, clock = self.spans, self.stack, self.open_names, time.perf_counter

        def traced(*args, **kwargs):
            if outermost and open_names.get(name):
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            open_names[name] = open_names.get(name, 0) + 1
            try:
                if before is not None:
                    args, kwargs = before(rec, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                open_names[name] -= 1
            if count is not None:
                counters = count(result, args, kwargs)
                rec[4] = counters if rec[4] is None else {**rec[4], **counters}
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        return self.wrap(name, fn)(*args, **kwargs)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, counters in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start,
                                     "end": end, "counters": counters}) + "\n")


def _arg(args, kwargs, pos, key, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _rows(points) -> int:
    shape = np.shape(points)
    return int(shape[0]) if len(shape) == 2 else 1


def _chunks(n_samples: int) -> int:
    return math.ceil(n_samples / CHUNK)


def _sweep_generator(rec, args, kwargs):
    """Wrap swept_union_measure's generator to count intervals per window."""
    gen = _arg(args, kwargs, 0, "interval_generator", None)
    rec[4] = {"intervals": 0, "peak_window_intervals": 0}

    def counted(w0, w1):
        starts, ends = gen(w0, w1)
        c = rec[4]
        c["intervals"] += int(starts.size)
        c["peak_window_intervals"] = max(c["peak_window_intervals"], int(starts.size))
        return starts, ends

    return (counted,) + tuple(args[1:]), {k: v for k, v in kwargs.items()
                                          if k != "interval_generator"}


# (span name, module, attribute, class or None, count, before, outermost)
_TARGETS = (
    ("criteria.series_sum", "criteria", "series_sum", None,
     lambda r, a, k: {"norms": 2 ** _arg(a, k, 1, "Kmax", 14) - 1}, None, False),
    ("criteria.lattice_sum", "criteria", "lattice_sum", None, None, None, False),
    ("estimators.hausdorff_cost_exponent", "estimators", "hausdorff_cost_exponent", None,
     None, None, False),
    ("estimators.coverage_fraction", "estimators", "coverage_fraction", None,
     lambda r, a, k: {"mc": int(r.method == "monte_carlo"),
                      "chunks": _chunks(_arg(a, k, 1, "samples", 1_000_000))}, None, False),
    ("funcspace.eval_norm_array", "funcspace", "eval_norm_array", "ApproximatingFunction",
     lambda r, a, k: {"values": int(np.size(a[1]))}, None, False),
    ("funcspace.eval_array", "funcspace", "eval_array", "DimensionFunction",
     lambda r, a, k: {"values": int(np.size(a[1]))}, None, False),
    ("funcspace.compare", "funcspace", "compare", None, None, None, False),
    ("funcspace.near_monotone_constant", "funcspace", "near_monotone_constant", None,
     None, None, False),
    ("intervals.swept_union_measure", "intervals", "swept_union_measure", None,
     None, _sweep_generator, False),
    ("intervals.box_union_measure", "intervals", "box_union_measure", None,
     lambda r, a, k: {"boxes": len(a[0])}, None, True),
    ("intervals.resonant_interval_set", "intervals", "resonant_interval_set", None,
     None, None, False),
    ("intervals.resonant_measure_rational", "intervals", "resonant_measure_rational", None,
     lambda r, a, k: {"intervals": abs(int(a[0])) + 1}, None, False),
    ("resonant.membership", "resonant", "membership", None,
     lambda r, a, k: {"points": _rows(a[1])}, None, False),
    ("resonant.enumerate_shell", "resonant", "enumerate_shell", None,
     lambda r, a, k: {"points": len(r)}, None, False),
    ("resonant.pairwise_intersection_1d", "resonant", "pairwise_intersection_1d", None,
     None, None, False),
    ("resonant.quasi_independence_report", "resonant", "quasi_independence_report", None,
     lambda r, a, k: {"pairs": r.pairs}, None, False),
    ("resonant.sandwich_check", "resonant", "sandwich_check", None,
     lambda r, a, k: {"points": r.points}, None, False),
    ("resonant.measure_monte_carlo", "resonant", "measure_monte_carlo", None,
     None, None, False),
    ("rng.monte_carlo_fraction", "_rng", "monte_carlo_fraction", None,
     lambda r, a, k: {"samples": _arg(a, k, 2, "n_samples", 0),
                      "chunks": _chunks(_arg(a, k, 2, "n_samples", 0))}, None, False),
    ("rng.parallel_map", "_rng", "parallel_map", None,
     lambda r, a, k: {"items": len(a[1])}, None, False),
    ("content.mdp_check", "content", "mdp_check", None,
     lambda r, a, k: {"atoms": len(a[0])}, None, False),
    ("content.greedy_cover_oracle", "content", "greedy_cover_oracle", None, None, None, False),
    ("content.lattice_atoms", "content", "lattice_atoms", None, None, None, False),
    ("content.rect_content_formula", "content", "rect_content_formula", None,
     None, None, False),
    ("formulas.lebesgue_verdict", "formulas", "lebesgue_verdict", None, None, None, False),
    ("formulas.hausdorff_verdict", "formulas", "hausdorff_verdict", None, None, None, False),
    ("formulas.fourier_dim", "formulas", "fourier_dim", None, None, None, False),
    ("config.load_config", "config", "load_config", None, None, None, False),
    ("cli.build_report", "cli", "build_report", None, None, None, False),
    ("cli.emit_report", "cli", "emit_report", None, None, None, False),
)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "limsup_lab" or name.startswith("limsup_lab."))]


def install(tracer: Tracer) -> None:
    """Wrap every layer function in every loaded limsup_lab module binding."""
    import limsup_lab.verify  # noqa: F401  (loads every layer module)

    modules = _package_modules()
    for name, module, attr, cls, count, before, outermost in _TARGETS:
        owner = sys.modules[f"limsup_lab.{module}"]
        if cls is not None:
            klass = getattr(owner, cls)
            setattr(klass, attr, tracer.wrap(name, getattr(klass, attr), count, before,
                                             outermost))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, count, before, outermost)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def install_criteria(tracer: Tracer) -> None:
    """Record one span per verify criterion, named verify.c<N>."""
    import limsup_lab.verify as verify

    verify._CRITERIA = tuple(
        (number, cname, tracer.wrap(f"verify.c{number}", fn))
        for number, cname, fn in verify._CRITERIA
    )
    verify._criterion_13 = tracer.wrap("verify.c13", verify._criterion_13)


# ---------------------------------------------------------------------------
# folding spans into metrics
# ---------------------------------------------------------------------------


def _self_times(spans) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [s[3] - s[2] - child_time[i] for i, s in enumerate(spans)]


def fold(spans):
    """Per-name totals: calls, total_s, self_s and summed counters."""
    self_s = _self_times(spans)
    out: dict[str, dict] = {}
    for i, (name, parent, start, end, counters) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += self_s[i]
        for key, value in (counters or {}).items():
            if key.startswith("peak_"):
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return out


def _under(spans, i: int, ancestor: str) -> int:
    """Index of the nearest ancestor of span i named `ancestor`, or -1."""
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == ancestor:
            return p
        p = spans[p][1]
    return -1


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in s, work as counts)."""
    agg = fold(spans)

    def g(name, key):
        return agg.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in ("criteria.series_sum", "intervals.resonant_interval_set", "config.load_config"):
        out[f"{name}.calls"] = g(name, "calls")
    for name in (
        "criteria.series_sum", "criteria.lattice_sum", "funcspace.eval_norm_array",
        "funcspace.eval_array", "funcspace.compare", "funcspace.near_monotone_constant",
        "intervals.swept_union_measure", "intervals.box_union_measure",
        "intervals.resonant_interval_set", "intervals.resonant_measure_rational",
        "resonant.membership", "resonant.enumerate_shell", "resonant.pairwise_intersection_1d",
        "rng.monte_carlo_fraction", "content.mdp_check", "content.greedy_cover_oracle",
        "content.lattice_atoms", "content.rect_content_formula", "formulas.lebesgue_verdict",
        "formulas.hausdorff_verdict", "formulas.fourier_dim", "config.load_config",
    ):
        out[f"{name}.self_s"] = g(name, "self_s")
    for name in ("estimators.hausdorff_cost_exponent", "resonant.sandwich_check",
                 "resonant.measure_monte_carlo", "rng.parallel_map"):
        out[f"{name}.total_s"] = g(name, "total_s")
    for name, key in (
        ("criteria.series_sum", "norms"), ("funcspace.eval_norm_array", "values"),
        ("funcspace.eval_array", "values"), ("intervals.swept_union_measure", "intervals"),
        ("intervals.swept_union_measure", "peak_window_intervals"),
        ("intervals.box_union_measure", "boxes"),
        ("intervals.resonant_measure_rational", "intervals"),
        ("resonant.membership", "points"), ("resonant.enumerate_shell", "points"),
        ("resonant.quasi_independence_report", "pairs"), ("resonant.sandwich_check", "points"),
        ("rng.monte_carlo_fraction", "samples"), ("rng.monte_carlo_fraction", "chunks"),
        ("rng.parallel_map", "items"), ("content.mdp_check", "atoms"),
    ):
        out[f"{name}.{key}"] = g(name, key)

    sweep_s = g("intervals.swept_union_measure", "total_s")
    member_s = g("resonant.membership", "total_s")
    out["intervals.swept_union_measure.intervals_per_s"] = (
        out["intervals.swept_union_measure.intervals"] / sweep_s if sweep_s else 0.0)
    out["resonant.membership.points_per_s"] = (
        out["resonant.membership.points"] / member_s if member_s else 0.0)
    out["cli.report_s"] = g("cli.build_report", "total_s") + g("cli.emit_report", "total_s")

    # series_sum calls made by the cost-exponent scan, and the coverage split
    hce_calls = 0
    cov = {"sweep_s": 0.0, "mc_s": 0.0}
    cov_index = {}
    for i, (name, parent, start, end, counters) in enumerate(spans):
        if name == "criteria.series_sum":
            hce_calls += _under(spans, i, "estimators.hausdorff_cost_exponent") >= 0
        elif name == "estimators.coverage_fraction":
            cov["mc_s" if counters["mc"] else "sweep_s"] += end - start
            if counters["mc"]:
                cov_index[i] = {"membership": 0, "shell": 0, "chunks": counters["chunks"]}
        elif name in ("resonant.membership", "resonant.enumerate_shell") and cov_index:
            owner = _under(spans, i, "estimators.coverage_fraction")
            if owner in cov_index:
                if name == "resonant.membership":
                    cov_index[owner]["membership"] += 1
                else:
                    cov_index[owner]["shell"] += counters["points"]
    worst_case = sum(c["shell"] * c["chunks"] for c in cov_index.values())
    useful = sum(c["membership"] for c in cov_index.values())
    out["estimators.hausdorff_cost_exponent.series_sum_calls"] = hce_calls
    out["estimators.coverage_fraction.sweep_s"] = cov["sweep_s"]
    out["estimators.coverage_fraction.mc_s"] = cov["mc_s"]
    out["estimators.coverage_fraction.membership_work_ratio"] = (
        useful / worst_case if worst_case else 0.0)
    return out


def attribution(spans, prefix: str = "verify.c", top: int = 3) -> dict:
    """For each span named prefix*, its total time and top self-time descendants.

    Descendants are labelled by their span path below the root, e.g.
    `estimators.hausdorff_cost_exponent > criteria.series_sum`.
    """
    self_s = _self_times(spans)
    owner = [-1] * len(spans)
    rows: dict[str, dict] = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        if name.startswith(prefix):
            owner[i] = i
            row = rows.setdefault(name, {"total_s": 0.0, "self": {}})
            row["total_s"] += end - start
            continue
        owner[i] = owner[parent] if parent >= 0 else -1
        if owner[i] >= 0:
            label = _path_label(spans, i, owner[i])
            own = rows[spans[owner[i]][0]]["self"]
            own[label] = own.get(label, 0.0) + self_s[i]
    return {
        name: {"total_s": row["total_s"],
               "top_self": sorted(row["self"].items(), key=lambda kv: -kv[1])[:top]}
        for name, row in rows.items()
    }


def _path_label(spans, i: int, stop: int) -> str:
    """`outer > ... > name` from just below span `stop` down to span i."""
    names = []
    while i >= 0 and i != stop:
        names.append(spans[i][0])
        i = spans[i][1]
    return " > ".join(reversed(names))
