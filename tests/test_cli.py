"""End-to-end CLI runs: exit codes, report shape, and byte determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import limsup_lab.resonant
import limsup_lab.verify
from limsup_lab import cli
from limsup_lab.config import config_sha256, load_config
from limsup_lab.criteria import SeriesDescriptor, series_sum
from limsup_lab.formulas import tau_exponent
from limsup_lab.verify import CriterionResult


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scalar_config(**run):
    return {
        "schema_version": 1,
        "instance": {
            "n": 1,
            "m": 1,
            "mode": "nonweighted",
            "psi": [{"kind": "power", "tau": 2.0, "coeff": 0.25}],
        },
        "run": {"Qmax": 6, "Qhi": 64, "samples": 20_000, **run},
    }


def weighted_config():
    return {
        "schema_version": 1,
        "instance": {
            "n": 1,
            "m": 2,
            "mode": "weighted",
            "psi": [
                {"kind": "power", "tau": 1.0},
                {"kind": "power", "tau": 3.0},
            ],
            "f": {"kind": "power", "s": 1.1},
        },
        "run": {"Kmax": 8},
    }


def mult_config(**run):
    return {
        "schema_version": 1,
        "instance": {
            "n": 1,
            "m": 2,
            "mode": "multiplicative",
            "psi": [{"kind": "power", "tau": 2.0}],
        },
        "run": run,
    }


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])


def test_missing_config_exits_2(capsys):
    assert cli.main(["measure"]) == 2
    assert "--config is required" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    bad_m = scalar_config()
    bad_m["instance"]["m"] = 0
    assert cli.main(["measure", "--config", write_config(tmp_path, bad_m, "m.json")]) == 2

    unknown = scalar_config()
    unknown["instance"]["extra"] = 1
    assert (
        cli.main(["measure", "--config", write_config(tmp_path, unknown, "u.json")]) == 2
    )

    no_tolerance = write_config(tmp_path, scalar_config(tolerance=0.1), "t.json")
    assert cli.main(["measure", "--config", no_tolerance]) == 2
    assert "config.run: unknown field(s) ['tolerance']" in capsys.readouterr().err

    wrong_version = scalar_config()
    wrong_version["schema_version"] = 99
    assert (
        cli.main(["measure", "--config", write_config(tmp_path, wrong_version, "v.json")])
        == 2
    )

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["measure", "--config", str(garbled)]) == 2
    assert cli.main(["measure", "--config", str(tmp_path / "absent.json")]) == 2

    ok = write_config(tmp_path, scalar_config(), "ok.json")
    assert cli.main(["measure", "--config", ok, "--samples", "0"]) == 2
    capsys.readouterr()


def test_measure_report_shape(tmp_path):
    cfg_path = write_config(tmp_path, scalar_config())
    out = tmp_path / "report.json"
    assert cli.main(["measure", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {
        "command",
        "config",
        "config_sha256",
        "results",
        "seed",
        "version",
    }
    assert report["command"] == "measure"
    assert report["seed"] == 0
    raw = json.loads(open(cfg_path).read())
    assert report["config"] == raw
    assert report["config_sha256"] == config_sha256(raw)
    rows = report["results"]["table"]["rows"]
    assert len(rows) == 6
    # psi(2) = 0.25/4: the set has measure 2 * delta exactly
    assert report["results"]["table"]["columns"] == ["q", "delta", "measure"]
    assert rows[1] == [2, 0.0625, 0.125]


def test_seed_override_echoed(tmp_path):
    cfg_path = write_config(tmp_path, scalar_config())
    out = tmp_path / "r.json"
    assert cli.main(["measure", "--config", cfg_path, "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 7
    assert report["config"]["run"]["seed"] == 7
    assert report["config_sha256"] == config_sha256(report["config"])


def test_kmax_flag_is_part_of_the_echoed_config(tmp_path):
    cfg_path = write_config(tmp_path, weighted_config())
    reports = {}
    for kmax in ("8", "10"):
        out = tmp_path / f"k{kmax}.json"
        assert cli.main(["criteria", "--config", cfg_path, "--Kmax", kmax, "--out", str(out)]) == 0
        reports[kmax] = json.loads(out.read_text())
    assert reports["8"]["config"]["run"]["Kmax"] == 8
    assert reports["10"]["config"]["run"]["Kmax"] == 10
    assert reports["8"]["config_sha256"] != reports["10"]["config_sha256"]
    assert len(reports["10"]["results"]["table"]["rows"]) == 2 * 10


def test_a_flag_does_not_outlive_its_call(tmp_path):
    # the parser is built once per process; a flag given to one call must not
    # reach the next, and each report must be the one a fresh process writes
    cfg_path = write_config(tmp_path, weighted_config())
    runs = (("--Kmax", "5"), ())
    in_process, fresh = [], []
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for i, flags in enumerate(runs):
        out = tmp_path / f"in{i}.json"
        assert cli.main(["criteria", "--config", cfg_path, *flags, "--out", str(out)]) == 0
        in_process.append(out.read_bytes())
    for i, flags in enumerate(runs):
        out = tmp_path / f"fresh{i}.json"
        subprocess.run(
            [sys.executable, "-m", "limsup_lab.cli", "criteria", "--config", cfg_path, *flags,
             "--out", str(out)],
            env=env, check=True, stderr=subprocess.DEVNULL,
        )
        fresh.append(out.read_bytes())
    assert json.loads(in_process[0])["config"]["run"]["Kmax"] == 5
    assert json.loads(in_process[1])["config"]["run"]["Kmax"] == 8
    assert in_process == fresh


def test_criteria_saturates_a_series_whose_blocks_overflow(tmp_path):
    # psi = 1e305 at every norm: from block 10 on the block sums, and so the
    # partial sum, overflow even with every term saturated at 1e308
    doc = scalar_config(Kmax=14)
    doc["instance"]["psi"] = [{"kind": "table", "values": [1e305]}]
    out = tmp_path / "r.json"
    assert cli.main(["criteria", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    kg = json.loads(out.read_text())["results"]["series"]["kg"]
    assert kg["overflow"] is True
    assert kg["partial_sum"] == 1e308
    assert [b for _, b in kg["block_sums"][10:]] == [1e308] * 4


@pytest.mark.parametrize(
    "psi, skipped, classification",
    [
        # r = psi(q)/q = q^0.5 grows past f's domain: every norm is skipped,
        # and the symbolic class follows the numeric sum instead of raising
        ({"kind": "power", "tau": -1.5}, 2**8 - 1, "Unknown"),
        # r = 0.01 at every norm, inside the domain: f(r) is a constant
        ({"kind": "power", "tau": -1.0, "coeff": 0.01}, 0, "DivergesSymbolic"),
    ],
    ids=["r_grows", "r_constant"],
)
def test_criteria_power_log_f_of_an_r_that_does_not_decay(tmp_path, psi, skipped, classification):
    doc = _instance_doc(1, 1, "nonweighted", [psi])
    doc["instance"]["f"] = {"kind": "power_log", "s": 0.5, "p": 1}
    doc["run"] = {"Kmax": 8}
    code, results = _run_json("criteria", doc, tmp_path)
    assert code == 0
    jarnik = results["series"]["jarnik"]
    assert (jarnik["skipped"], jarnik["classification"]) == (skipped, classification)


def test_measure_reads_a_star_outside_the_dyadic_range_from_its_closed_form(tmp_path):
    # a zero budget is an empty star and a delta above 2^-m the whole cube
    # up to a null set: set_measures gives 0 and 1, not a null row
    doc = mult_config(Qmax=4)
    doc["instance"].update(n=2, m=1, psi=[{"kind": "table", "values": [0.1, 0, 0.05, 0.7]}])
    code, results = _run_json("measure", doc, tmp_path)
    assert code == 0
    rows = results["table"]["rows"]
    assert [(q, mu) for q, _, mu in rows if q in (2, 4)] == [(2, 0.0), (4, 1.0)]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("Kmax", 1, "config.run.Kmax: must be >= 2, got 1"),
        ("seed", -1, "config.run.seed: must be >= 0, got -1"),
        ("samples", 0, "config.run.samples: must be >= 1, got 0"),
    ],
)
def test_run_field_errors_read_the_same_from_file_and_flag(tmp_path, capsys, field, value, message):
    in_file = write_config(tmp_path, scalar_config(**{field: value}), "file.json")
    assert cli.main(["criteria", "--config", in_file]) == 2
    from_file = capsys.readouterr().err
    flagged = write_config(tmp_path, scalar_config(), "flag.json")
    assert cli.main(["criteria", "--config", flagged, f"--{field}", str(value)]) == 2
    from_flag = capsys.readouterr().err
    assert from_file == from_flag == f"config error: {message}\n"


def test_verify_seed_is_checked_like_run_seed(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: config.run.seed: must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--Kmax", "3"], ["--samples", "10"], ["--config", "c.json"]])
def test_verify_takes_no_run_or_config_flags(flag, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--suite", "dyadic", *flag])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_q_length_must_match_n(tmp_path, capsys):
    cfg_path = write_config(tmp_path, mult_config(delta=2.0**-6, samples=2_000, q=[3, 4]))
    assert cli.main(["decompose", "--config", cfg_path]) == 2
    assert "config.run.q: expected instance.n = 1 coordinates, got 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["measure"], ["verify", "--suite", "dyadic"]])
def test_unwritable_out_path_exits_2(tmp_path, capsys, argv):
    if argv[0] == "measure":
        argv = [*argv, "--config", write_config(tmp_path, scalar_config())]
    out = tmp_path / "missing-dir" / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write report {str(out)!r}: " in err
    assert "Traceback" not in err
    # the path is refused before the run: no criterion ran or printed
    assert "criterion" not in err
    assert f"{argv[0]}: " not in err  # nor the command's timing line
    assert not out.parent.exists()


def test_out_path_that_is_a_directory_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(limsup_lab.verify, "run_suite", lambda **kw: ran.append(kw) or [])
    assert cli.main(["verify", "--suite", "dyadic", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write report {str(tmp_path)!r}: it is a directory" in err
    assert ran == []


def test_csv_matches_json_table(tmp_path):
    cfg_path = write_config(tmp_path, scalar_config())
    jout, cout = tmp_path / "r.json", tmp_path / "r.csv"
    assert cli.main(["measure", "--config", cfg_path, "--out", str(jout)]) == 0
    assert (
        cli.main(["measure", "--config", cfg_path, "--format", "csv", "--out", str(cout)])
        == 0
    )
    report = json.loads(jout.read_text())
    lines = cout.read_text().splitlines()
    assert lines[0].split(",") == report["results"]["table"]["columns"]
    for line, row in zip(lines[1:], report["results"]["table"]["rows"]):
        cells = line.split(",")
        assert len(cells) == len(row) == 3
        assert int(cells[0]) == row[0]
        assert float(cells[1]) == row[1]
        assert float(cells[2]) == row[2]


def test_criteria_command_weighted(tmp_path):
    cfg_path = write_config(tmp_path, weighted_config())
    out = tmp_path / "criteria.json"
    assert cli.main(["criteria", "--config", cfg_path, "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["verdicts"]["lebesgue"]["outcome"] == "Zero"
    assert res["verdicts"]["hausdorff"]["outcome"] == "Full"
    assert set(res["series"]) == {"weighted", "weighted_hausdorff"}
    ce = res["cost_exponent"]
    assert ce["status"] == "ok"
    assert ce["window"] == [1, 2]
    assert abs(ce["value"] - 1.25) < 5e-3
    # table interleaves both series, Kmax blocks each
    assert len(res["table"]["rows"]) == 2 * 8


def test_dims_and_fourier_commands(tmp_path):
    cfg_path = write_config(tmp_path, weighted_config())
    out = tmp_path / "dims.json"
    assert cli.main(["dims", "--config", cfg_path, "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["rynne_dickinson"]["value"] == pytest.approx(1.25)
    assert res["critical_exponents"]["s_Psi"] == pytest.approx(0.25)
    assert res["fourier_dim"]["value"] == pytest.approx(0.5)

    out2 = tmp_path / "fourier.json"
    assert cli.main(["fourier", "--config", cfg_path, "--out", str(out2)]) == 0
    res2 = json.loads(out2.read_text())["results"]
    assert res2["value"] == pytest.approx(0.5)
    assert res2["applicable"] is True


def _instance_doc(n, m, mode, psi):
    return {"schema_version": 1, "instance": {"n": n, "m": m, "mode": mode, "psi": psi}}


def _run_json(command, doc, directory):
    path = Path(directory) / f"{command}.json"
    out = Path(directory) / f"{command}-out.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    return code, json.loads(out.read_text())["results"] if code == 0 else None


def test_dims_gives_an_eventually_empty_set_dimension_zero(tmp_path):
    # the table budget is 0 from norm 3 on, so tau is inf and no point of
    # the set is approximated infinitely often
    doc = _instance_doc(1, 2, "weighted", [
        {"kind": "power", "tau": 1.5}, {"kind": "table", "values": [0.5, 0.2, 0.0]}
    ])
    code, results = _run_json("dims", doc, tmp_path)
    assert code == 0
    assert results["tau"] == [1.5, "inf"]
    assert results["rynne_dickinson"]["value"] == results["fourier_dim"]["value"] == 0.0
    assert "wang_wu" not in results
    names = [row[0] for row in results["table"]["rows"]]
    assert names == ["rynne_dickinson", "s_Psi", "fourier_dim"]


@pytest.mark.parametrize(
    "command, doc",
    [
        # Rynne-Dickinson takes exponents >= 0 (or +inf)
        ("dims", _instance_doc(1, 2, "weighted", [{"kind": "power", "tau": t} for t in (-0.2, 2)])),
        # 1 + tau = 0: no critical exponent, and a divergent series
        ("dims", _instance_doc(1, 1, "nonweighted", [{"kind": "power", "tau": -1}])),
        ("fourier", _instance_doc(1, 1, "nonweighted", [{"kind": "power", "tau": -1}])),
    ],
)
def test_negative_decay_exponents_report_null_values_with_reasons(tmp_path, command, doc):
    code, results = _run_json(command, doc, tmp_path)
    assert code == 0
    if command == "fourier":
        assert results["applicable"] is False and results["value"] == "nan"
        return
    if doc["instance"]["mode"] == "weighted":
        assert results["rynne_dickinson"]["reason"] == "decay exponents must be >= 0 (or +inf)"
        assert results["fourier_dim"]["value"] == pytest.approx(2 / 3)
    else:
        assert results["critical_exponents"] == {"s_Psi": None, "s_psi": None}
        assert set(results["critical_exponent_reasons"]) == {"s_Psi", "s_psi"}
    assert results["rynne_dickinson"]["value"] is None


taus_wide = st.floats(-1.5, 4.0)
coeffs = st.floats(0.05, 2.0)
budgets = st.one_of(
    st.builds(lambda t, c: {"kind": "power", "tau": t, "coeff": c}, taus_wide, coeffs),
    st.builds(
        lambda t, p, c: {"kind": "power_log", "tau": t, "p": p, "coeff": c},
        taus_wide, st.floats(-2.0, 2.0), coeffs,
    ),
    st.builds(lambda c: {"kind": "constant", "value": c}, st.sampled_from([0.0, 0.3, 1.0])),
    st.builds(
        lambda v: {"kind": "table", "values": v},
        st.lists(st.sampled_from([0.0, 0.01, 0.2, 0.5]), min_size=1, max_size=4),
    ),
)


@st.composite
def fourier_instances(draw):
    mode = draw(st.sampled_from(["nonweighted", "weighted", "multiplicative"]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    psi = draw(st.lists(budgets, min_size=m, max_size=m)) if mode == "weighted" else [draw(budgets)]
    return _instance_doc(n, m, mode, psi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=fourier_instances())
# the benchmark's seed-6 instance: 2n/(1 + tau) is 1.0723 > nm = 1 at tau 0.8651
@example(doc=_instance_doc(1, 1, "nonweighted", [
    {"kind": "power_log", "tau": 0.8651, "p": 0.7126, "coeff": 0.3341}
]))
def test_an_applicable_fourier_dimension_is_a_null_set_value_at_most_nm(doc):
    with tempfile.TemporaryDirectory() as directory:
        code, results = _run_json("fourier", doc, directory)
        assert code == 0
        assert _run_json("dims", doc, directory)[0] == 0
        inst = load_config(str(Path(directory) / "fourier.json")).instance
    if not results["applicable"]:
        return
    assert results["value"] <= inst.ambient_dim
    empty = any(tau_exponent(c) == math.inf for c in inst.weights.components)
    series = series_sum(SeriesDescriptor(inst), Kmax=2)
    assert empty or series.classification == "ConvergesSymbolic"


dimension_functions = st.one_of(
    st.none(),
    st.builds(lambda s: {"kind": "power", "s": s}, st.floats(0.1, 9.0)),
    st.builds(
        lambda s, p: {"kind": "power_log", "s": s, "p": p}, st.floats(0.1, 9.0), st.floats(-2.0, 2.0)
    ),
    st.builds(
        lambda rs, steps: {
            "kind": "table",
            "breakpoints": [[r, sum(steps[: i + 1])] for i, r in enumerate(sorted(rs))],
        },
        st.lists(
            st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.5, 1.0]), min_size=2, max_size=2, unique=True
        ),
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
    ),
)


@st.composite
def valid_configs(draw):
    """A valid config for every instance command; `q` only for `decompose`, where it may be zero."""
    doc = draw(fourier_instances())
    n, m = doc["instance"]["n"], doc["instance"]["m"]
    doc["instance"]["f"] = draw(dimension_functions)
    Qlo = draw(st.integers(1, 6))
    doc["run"] = {
        "Kmax": draw(st.integers(3, 10)),
        "samples": draw(st.integers(1, 2000)),
        "seed": draw(st.integers(0, 99)),
        "Qmax": draw(st.integers(1, 32)),
        "Qlo": Qlo,
        "Qhi": Qlo + draw(st.integers(0, 6)),
        "delta": draw(st.none() | st.floats(1e-4, 2.0**-m)),
    }
    q = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return doc, q


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(drawn=valid_configs())
# log(1/psi) ~ tau log q at tau = 2.7e-261: the multiplicative series' leading
# term squares that coefficient, which as a float underflows to 0.0
@example(drawn=(
    {**_instance_doc(1, 3, "multiplicative", [{"kind": "power", "tau": 2.7e-261, "coeff": 1.0}]),
     "run": {"Kmax": 3, "samples": 1, "seed": 0, "Qmax": 1, "Qlo": 1, "Qhi": 1, "delta": None}},
    [0],
))
# psi/q = 1e-300 q^-2 raised to 1 - nm = -2 overflows in the multiplicative
# Hausdorff summand, and 1e300^3 in the nonweighted Lebesgue one; both
# saturate in the block sums.  The first sets the star delta: `quasi` would
# otherwise take psi(1) = 1e-300, whose dyadic surrogate at scale ~1000 has
# ~5e5 boxes, and refuse it with exit 2
@example(drawn=(
    {"schema_version": 1,
     "instance": {"n": 1, "m": 3, "mode": "multiplicative",
                  "psi": [{"kind": "power", "tau": 1.0, "coeff": 1e-300}],
                  "f": {"kind": "power", "s": 0.5}},
     "run": {"Kmax": 3, "samples": 1, "seed": 0, "Qmax": 1, "Qlo": 1, "Qhi": 1, "delta": 0.01}},
    [0],
))
@example(drawn=(
    {**_instance_doc(
        1, 3, "nonweighted", [{"kind": "power_log", "tau": 1e-300, "p": 1e-300, "coeff": 1e300}]
    ),
     "run": {"Kmax": 3, "samples": 1, "seed": 0, "Qmax": 1, "Qlo": 1, "Qhi": 1, "delta": None}},
    [0],
))
def test_valid_configs_never_exit_3(drawn):
    doc, q = drawn
    with tempfile.TemporaryDirectory() as directory:
        for command in cli._COMMANDS:
            run = {**doc["run"], "q": q} if command == "decompose" else doc["run"]
            code, _ = _run_json(command, {**doc, "run": run}, directory)
            expected = 2 if command == "decompose" and not any(q) else 0
            assert code == expected, command


def test_decompose_command_and_bad_delta(tmp_path):
    ok_path = write_config(tmp_path, mult_config(delta=2.0**-6, samples=20_000))
    out = tmp_path / "dec.json"
    assert cli.main(["decompose", "--config", ok_path, "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["scale_N"] == 6
    assert res["cardinality"] == math.comb(5, 1)
    assert all(sum(ix) == 4 for ix in res["indices"])
    assert res["sandwich"]["ok"] is True
    # delta passes global config validation but not the decomposition's range
    bad_path = write_config(tmp_path, mult_config(delta=0.6), "bad.json")
    assert cli.main(["decompose", "--config", bad_path]) == 2


def test_quasi_refuses_a_star_delta_above_two_to_the_minus_m(tmp_path, capsys):
    # 0.3 lies inside the schema's (0, 1) but above 2^-2, where the star has
    # no dyadic decomposition; decompose refuses the same value the same way
    path = write_config(tmp_path, mult_config(Qlo=2, Qhi=4, delta=0.3))
    for command in ("quasi", "decompose"):
        assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.delta: ") and "(0, 2^-2]" in err



@pytest.mark.parametrize(
    "m, coeff, Qlo, Qhi, delta",
    [(3, 1e-300, 1, 1, None), (2, 1e-300, 1, 2, None), (3, 1.0, 20000, 20001, 0.0035)],
    ids=["one_star_at_scale_996", "a_pair_at_scale_996", "a_pair_at_q_20000"],
)
def test_quasi_refuses_box_tables_over_the_cap_before_building_a_box(
    tmp_path, capsys, monkeypatch, m, coeff, Qlo, Qhi, delta
):
    # the star delta psi(1) = 1e-300 has C(N - 1, m - 1) boxes at scale
    # N = 996: one m = 3 star asks for a 3.66 GiB box-union table.  The
    # bound on the table, boxes times cuts, is read from (q, delta, m)
    # alone, over one star and over each pair of stars
    def no_boxes(*args):
        raise AssertionError("a box was built")

    monkeypatch.setattr(limsup_lab.resonant, "resonant_interval_set", no_boxes)
    doc = mult_config(Qlo=Qlo, Qhi=Qhi, delta=delta)
    doc["instance"].update(m=m, psi=[{"kind": "power", "tau": 1.0, "coeff": coeff}])
    assert cli.main(["quasi", "--config", write_config(tmp_path, doc)]) == 2
    assert "over 2^24" in capsys.readouterr().err

def test_cover_scalar_exact(tmp_path):
    cfg_path = write_config(tmp_path, scalar_config())
    out = tmp_path / "cover.json"
    assert cli.main(["cover", "--config", cfg_path, "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["coverage"]["method"] == "interval_sweep"
    assert res["coverage"]["half_width"] is None
    rows = res["table"]["rows"]
    assert rows[-1][4] == pytest.approx(res["first_moment"], rel=1e-9)
    assert res["coverage"]["value"] <= res["first_moment"] + 1e-12


def test_cover_budget_violation_exits_2(tmp_path, capsys):
    # the budget depends on the samples and the norm range together, both
    # chosen by the user, so it is a config error, not an invariant violation
    cfg_path = write_config(tmp_path, mult_config(Qlo=1, Qhi=1024))
    assert cli.main(["cover", "--config", cfg_path, "--samples", "3000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Monte-Carlo budget exceeded: 3000000 samples x 2048 ")
    assert "of norm 1..1024" in err


def _oversized(command, doc, message, index):
    # a fixed id: each case keeps its name when other cases join or leave the list
    return pytest.param(command, doc, message, id=f"{command}-doc{index}-{message}")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # the series and the scan would hold 2 x (2^45 - 1) floats
        _oversized(
            "criteria", scalar_config(Kmax=45), "run.Kmax = 45 needs 2 x (2^45 - 1) floats", 0
        ),
        # about 5e23 intervals; the moments would build arrays over 10^12 norms
        _oversized(
            "cover", scalar_config(Qhi=10**12), "interval sweep too large: norms 1..1000000000000", 3
        ),
        # one sample, but a million shells walked one by one
        _oversized(
            "cover", mult_config(Qlo=1, Qhi=10**6, samples=1), "Monte-Carlo budget exceeded", 4
        ),
        _oversized(
            "measure", scalar_config(Qmax=10**9), "run.Qmax = 1000000000 asks for more than", 5
        ),
    ],
)
def test_oversized_ranges_exit_2_before_any_work(tmp_path, capsys, command, doc, message):
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("command", ["dims", "fourier"])
def test_dims_and_fourier_read_no_series_at_any_Kmax(tmp_path, command):
    # the Fourier gate reads the Lebesgue series' symbolic class and sums
    # nothing, so Kmax 45 allocates nothing and changes no result
    results = []
    for Kmax in (14, 45):
        out = tmp_path / f"{command}-{Kmax}.json"
        doc = {**weighted_config(), "run": {"Kmax": Kmax}}
        path = write_config(tmp_path, doc, f"{Kmax}.json")
        assert cli.main([command, "--config", path, "--out", str(out)]) == 0
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1]
    fourier = results[0]["fourier_dim"] if command == "dims" else results[0]
    assert fourier["applicable"] is True and fourier["value"] == pytest.approx(0.5)


def test_the_largest_benchmark_sizes_pass_the_guards(tmp_path):
    # Kmax 19 at m = 4 fills the scan's 5 x (2^19 - 1) table; the sweep
    # to Qhi 3500 and the Qmax 64 table run
    cli._check_Kmax(19, 4 + 1)
    path = write_config(tmp_path, scalar_config(Qhi=3500, Qmax=64))
    for command in ("cover", "measure"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "r.json")]) == 0


def test_cover_shell_budget_counts_the_shell_not_the_cube(tmp_path):
    # the n = 3 shell of norm 200 has 960002 points, inside the shell
    # budget, in a cube of 401^3 = 64481201 candidates, outside it
    doc = scalar_config(Qlo=200, Qhi=200, samples=10)
    doc["instance"]["n"] = 3
    out = tmp_path / "cover.json"
    assert cli.main(["cover", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    coverage = json.loads(out.read_text())["results"]["coverage"]
    assert coverage["method"] == "monte_carlo"
    assert coverage["samples"] == 10


def test_cover_multiplicative_zero_budget_is_an_empty_star(tmp_path):
    # a table zero is schema-valid; at ambient dimension 2 the star of that
    # norm holds no point, as the 1-d sweep drops such norms
    doc = mult_config(Qlo=1, Qhi=3, samples=20_000)
    doc["instance"]["psi"] = [{"kind": "table", "values": [0.1, 0, 0.05]}]
    out = tmp_path / "cover.json"
    assert cli.main(["cover", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    coverage = json.loads(out.read_text())["results"]["coverage"]
    assert coverage["method"] == "monte_carlo"
    assert coverage["value"] == 0.89955


@pytest.mark.parametrize("n, method", [(1, "exact-sweep"), (2, "monte-carlo")])
def test_quasi_multiplicative_zero_budget_skips_the_null_star(tmp_path, n, method):
    # the star of norm 2 has budget 0, a null set: its two pairs are skipped
    # as null, and the one pair of norms 1 and 3 is measured
    doc = mult_config(Qlo=1, Qhi=3, samples=20_000)
    doc["instance"]["n"] = n
    doc["instance"]["psi"] = [{"kind": "table", "values": [0.1, 0, 0.05]}]
    out = tmp_path / "quasi.json"
    assert cli.main(["quasi", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert results["method"] == method
    assert (results["pairs"], results["skipped_null"]) == (1, 2)


def test_quasi_keeps_thin_sets_that_no_sample_hits(tmp_path):
    # at psi = 1e-6 each set has measure 2e-6, so 200000 samples expect
    # 0.4 hits; the closed-form measures are positive, and every pair counts
    doc = _instance_doc(2, 1, "nonweighted", [{"kind": "constant", "value": 1e-6}])
    doc["run"] = {"Qlo": 1, "Qhi": 4, "samples": 200_000}
    code, results = _run_json("quasi", doc, tmp_path)
    assert code == 0
    assert results["method"] == "monte-carlo"
    assert (results["pairs"], results["skipped_null"]) == (6, 0)


def test_quasi_divides_by_each_measure_so_tiny_stars_do_not_underflow(tmp_path):
    # the two stars measure about 1e-197 each, so their product is 0.0 in
    # floats; the pair's intersection divided by one and then the other is not
    doc = mult_config(Qlo=1, Qhi=2)
    doc["instance"]["psi"] = [{"kind": "power", "tau": 1.0, "coeff": 1e-200}]
    code, results = _run_json("quasi", doc, tmp_path)
    assert code == 0
    assert (results["method"], results["pairs"]) == ("exact-sweep", 1)
    assert results["C"] == pytest.approx(3.97535349467e196, rel=1e-11)


def test_a_run_out_of_memory_exits_3_without_a_report(tmp_path, monkeypatch, capsys):
    def exhausted(parsed):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "quasi", exhausted)
    out = tmp_path / "quasi.json"
    cfg_path = write_config(tmp_path, mult_config())
    assert cli.main(["quasi", "--config", cfg_path, "--out", str(out)]) == 3
    assert "out of memory" in capsys.readouterr().err
    assert not out.exists()


def test_quasi_byte_identical_across_workers(tmp_path, monkeypatch):
    doc = {
        "schema_version": 1,
        "instance": {
            "n": 2,
            "m": 1,
            "mode": "nonweighted",
            "psi": [{"kind": "power", "tau": 2.0}],
        },
        "run": {"samples": 20_000, "Qlo": 1, "Qhi": 12},
    }
    cfg_path = write_config(tmp_path, doc)
    # cover samples more than one 2^17 chunk, so its chunks run on the thread pool
    commands = (("quasi",), ("cover", "--samples", "140000"))
    reports = {}
    for workers in ("1", "4"):
        monkeypatch.setenv("LIMSUP_LAB_WORKERS", workers)
        for argv in commands:
            out = tmp_path / f"{argv[0]}-w{workers}.json"
            assert cli.main([*argv, "--config", cfg_path, "--out", str(out)]) == 0
            reports.setdefault(argv[0], []).append(out.read_bytes())
    for outs in reports.values():
        assert outs[0] == outs[1]
    res = json.loads(reports["quasi"][0])["results"]
    assert res["C"] >= 1.0
    assert res["lamperti_lower"] == pytest.approx(1.0 / res["C"], rel=1e-9)
    cov = json.loads(reports["cover"][0])["results"]["coverage"]
    assert cov["method"] == "monte_carlo" and cov["samples"] == 140_000


@pytest.mark.parametrize("workers", ["abc", "0"])
def test_invalid_worker_count_exits_2(tmp_path, monkeypatch, capsys, workers):
    # criteria never samples, so only the check at CLI entry can catch this
    monkeypatch.setenv("LIMSUP_LAB_WORKERS", workers)
    cfg_path = write_config(tmp_path, scalar_config())
    assert cli.main(["criteria", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert f"LIMSUP_LAB_WORKERS must be a positive integer, got '{workers}'" in err


def test_verify_suite_selector(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--suite", "dyadic", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"] == {"suite": "dyadic", "seed": 0}
    crits = report["results"]["criteria"]
    assert len(crits) == 1
    assert crits[0]["number"] == 3
    assert crits[0]["name"] == "dyadic-decomposition"
    assert crits[0]["passed"] is True
    assert report["results"]["all_passed"] is True


def test_verify_unknown_suite_exits_2(tmp_path, capsys):
    # a typo, and the names of the retired criteria 6 and 9: none may pass
    # by running nothing
    for suite in ("typo", "inflation", "surface"):
        out = tmp_path / f"{suite}.json"
        assert cli.main(["verify", "--suite", suite, "--out", str(out)]) == 2, suite
        assert "matches no criterion" in capsys.readouterr().err, suite
        assert not out.exists(), suite


def test_verify_failure_exits_1(tmp_path, monkeypatch, capsys):
    def stub(selector=None, seed=0):
        return [
            CriterionResult(
                number=1,
                name="stub",
                passed=False,
                measured="0",
                expected="1",
                tolerance="0",
                seconds=0.0,
            )
        ]

    monkeypatch.setattr(limsup_lab.verify, "run_suite", stub)
    out = tmp_path / "fail.json"
    assert cli.main(["verify", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["results"]["all_passed"] is False
    capsys.readouterr()
