"""End-to-end CLI runs: exit codes, report shape, and byte determinism."""

import json
import math

import pytest

import limsup_lab.verify
from limsup_lab import cli
from limsup_lab.config import config_sha256
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
    assert rows[1] == [2, 0.0625, 0.125, ""]


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
        assert int(cells[0]) == row[0]
        assert float(cells[1]) == row[1]
        assert float(cells[2]) == row[2]
        assert cells[3] == row[3]


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
    assert res["wang_wu"]["value"] == pytest.approx(1.25)
    assert res["critical_exponents"]["s_Psi"] == pytest.approx(0.25)
    assert res["fourier_dim"]["value"] == pytest.approx(0.5)

    out2 = tmp_path / "fourier.json"
    assert cli.main(["fourier", "--config", cfg_path, "--out", str(out2)]) == 0
    res2 = json.loads(out2.read_text())["results"]
    assert res2["value"] == pytest.approx(0.5)
    assert res2["applicable"] is True


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
    out = tmp_path / "typo.json"
    assert cli.main(["verify", "--suite", "typo", "--out", str(out)]) == 2
    assert "matches no criterion" in capsys.readouterr().err
    assert not out.exists()


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
