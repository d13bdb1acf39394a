"""Command-line front end: argument handling, exit codes, report files."""
import ast
import importlib.util
import json
from pathlib import Path

import pytest

from nklab import cli, report, suites
from nklab.chart import ConfigError


class TestToleranceArgs:
    def test_equals_form(self):
        rest, tols = cli.split_tolerance_args(["--tol.gray-1=1e-4", "--quiet"])
        assert rest == ["--quiet"]
        assert tols == {"gray-1": 1e-4}

    def test_space_form(self):
        rest, tols = cli.split_tolerance_args(["--tol.scal-30", "1e-3", "-m", "s6"])
        assert rest == ["-m", "s6"]
        assert tols == {"scal-30": 1e-3}

    def test_missing_value(self):
        with pytest.raises(ValueError):
            cli.split_tolerance_args(["--tol.gray-1"])

    def test_bad_value(self):
        with pytest.raises(ValueError):
            cli.split_tolerance_args(["--tol.gray-1=banana"])

    def test_empty_name(self):
        with pytest.raises(ValueError):
            cli.split_tolerance_args(["--tol.=1e-4"])

    @pytest.mark.parametrize("val", ["inf", "-inf", "nan", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, val, capsys):
        # inf would pass any finite residual; nan, 0 and -1 would fail every row
        with pytest.raises(ConfigError, match="finite and positive"):
            suites.run(models=["s3s3"], suites=["gray"], samples=4,
                       tol_overrides={"gray-5": float(val)})
        argv = ["--suite", "gray", "--model", "s3s3", "--samples", "4", "--tol.gray-5", val]
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_unknown_suite(self, capsys):
        assert cli.main(["--suite", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_usage_error_unknown_model(self, capsys):
        assert cli.main(["--model", "s7"]) == 2

    def test_usage_error_unknown_check_override(self, capsys):
        assert cli.main(["--tol.no-such-check=1e-4"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_usage_error_names_every_unknown_name(self, capsys):
        assert cli.main(["--suite", "grey,nonsense", "--model", "s7"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(name in err for name in ("grey", "nonsense", "s7"))

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--samples", "0"],
                                      ["--samples", "-5"], ["--samples", "1"]])
    def test_usage_error_out_of_range_number(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "at least" in capsys.readouterr().err

    def test_usage_error_empty_selection(self, capsys):
        # base suite runs only on s2s2; forcing another model selects nothing
        assert cli.main(["--suite", "base", "--model", "s6"]) == 2

    def test_pass_run(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code = cli.main(["--suite", "gray", "--model", "s6",
                         "--samples", "6", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text.replace("XFAIL", "")

    def test_forced_failure(self, tmp_path):
        code = cli.main(["--suite", "gray", "--model", "s6", "--samples", "6",
                         "--tol.gray-1=1e-30", "--out", str(tmp_path / "r.jsonl"),
                         "--quiet"])
        assert code == 1

    def test_expected_failures_still_pass_run(self, tmp_path, capsys):
        # reduction suite on s6 contains the two expected failures
        code = cli.main(["--suite", "reduction", "--model", "s6",
                         "--samples", "6", "--out", str(tmp_path / "r.jsonl")])
        assert code == 0
        assert "XFAIL" in capsys.readouterr().out

    def test_fd_backend_run(self, tmp_path):
        out = tmp_path / "r.jsonl"
        code = cli.main(["--deriv-mode", "fd", "--suite", "gray,nk-core",
                         "--samples", "4", "--quiet", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 54

    def test_internal_error(self, monkeypatch, capsys):
        def boom(**kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(suites, "run", boom)
        assert cli.main(["--suite", "gray", "--samples", "6", "--quiet"]) == 3
        assert "RuntimeError: boom" in capsys.readouterr().err


class TestListing:
    def test_list_checks(self, capsys):
        assert cli.main(["--list-checks"]) == 0
        text = capsys.readouterr().out
        for check in ("gray-1", "constant-type", "sekigawa-identity",
                      "ansatz-gauge-search", "lie-omega-cartan-route"):
            assert check in text
        assert str(len(suites.CHECKS)) in text


class TestReports:
    def test_jsonl_schema(self, tmp_path):
        out = tmp_path / "r.jsonl"
        cli.main(["--suite", "gray", "--model", "s6", "--samples", "6",
                  "--out", str(out), "--quiet"])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 13
        for line in lines:
            rec = json.loads(line)
            assert rec["schema"] == report.SCHEMA_VERSION
            assert rec["model"] == "s6"
            assert rec["status"] in {"pass", "fail", "xfail", "xpass", "error"}
            assert rec["residual"] <= rec["tolerance"]
            assert list(rec) == sorted(rec)

    def test_determinism(self, tmp_path):
        def run(name):
            p = tmp_path / name
            cli.main(["--suite", "gray", "--model", "s6", "--samples", "6",
                      "--seed", "5", "--out", str(p), "--quiet"])
            return [{k: v for k, v in json.loads(l).items() if k != "seconds"}
                    for l in p.read_text().strip().splitlines()]

        assert run("a.jsonl") == run("b.jsonl")

    def test_default_report_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(report.REPORT_DIR_ENV, str(tmp_path))
        code = cli.main(["--suite", "base", "--samples", "6", "--quiet"])
        assert code == 0
        files = list(tmp_path.glob("*.jsonl"))
        assert len(files) == 1

    def test_quiet_suppresses_lines(self, tmp_path, capsys):
        cli.main(["--suite", "base", "--samples", "6",
                  "--out", str(tmp_path / "r.jsonl"), "--quiet"])
        text = capsys.readouterr().out
        assert "PASS" not in text   # per-check lines suppressed
        assert "6 checks" in text or "passed" in text


class TestDiff:
    def _report(self, tmp_path, name, argv):
        path = tmp_path / name
        cli.main([*argv, "--out", str(path), "--quiet"])
        return path

    def test_same_run_has_no_changes(self, tmp_path, capsys):
        argv = ["--suite", "gray", "--model", "s6", "--samples", "6"]
        a = self._report(tmp_path, "a.jsonl", argv)
        b = self._report(tmp_path, "b.jsonl", argv)
        capsys.readouterr()
        assert cli.main(["--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "STATUS" not in out
        assert "largest residual drift 0.00e+00" in out
        assert "13 rows in both runs, 0 status changes" in out

    def test_status_change_and_drift(self, tmp_path, capsys):
        argv = ["--suite", "gray", "--model", "s6", "--samples", "6"]
        a = self._report(tmp_path, "a.jsonl", argv)
        b = self._report(tmp_path, "b.jsonl", [*argv, "--tol.gray-1=1e-300"])
        rows = [json.loads(line) for line in b.read_text().splitlines()]
        rows[1]["residual"] *= 4.0      # gray-2 drifts, keeping its status
        b.write_text("".join(json.dumps(r) + "\n" for r in rows[:-1]))
        old = {r.check: r for r in report.read_jsonl(a)}
        capsys.readouterr()
        assert cli.main(["--diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "STATUS  gray/gray-1 on s6: pass -> fail" in out
        last = old[rows[-1]["check"]]
        assert f"STATUS  gray/{last.check} on s6: {last.status} -> absent" in out
        assert (f"largest residual drift {3.0 * old['gray-2'].residual:.2e}: "
                "gray/gray-2 on s6") in out
        assert "12 rows in both runs, 2 status changes" in out

    def test_nan_residuals_agree(self):
        row = report.CheckResult("c", "s", "m", "error", float("nan"), 1e-8)
        d = report.diff_reports([row], [row])
        assert d["changes"] == [] and d["drift"] == (0.0, ("s", "c", "m"))
        other = report.CheckResult("c", "s", "m", "error", 1.0, 1e-8)
        assert report.diff_reports([row], [other])["drift"][0] == float("inf")

    def test_value_drift_and_quantile_changes(self, capsys):
        def row(check, value=None, quantiles=None):
            return report.CheckResult(check, "s", "m", "pass", 1e-9, 1e-8,
                                      value=value, quantiles=quantiles)

        old = [row("a", 2.0), row("b", None, {"q50": 1e-12, "pairs": 8}), row("c")]
        new = [row("a", 2.0 + 2**-51), row("b", None, {"q50": 2e-12, "pairs": 8}), row("c")]
        d = report.diff_reports(old, new)
        assert d["value_drift"] == (2**-51, ("s", "a", "m"))
        assert d["quantile_changes"] == [("s", "b", "m")]
        assert report.diff_reports(old, old)["value_drift"] == (0.0, ("s", "a", "m"))
        assert report.diff_reports(old, old)["quantile_changes"] == []
        text = report.format_diff(d)
        assert "largest value drift 4.44e-16: s/a on m (2.0 -> 2.0000000000000004)" in text
        assert "QUANTILES  s/b on m" in text
        # a value in one run only is an infinite drift
        gone = report.diff_reports(old, [row("a"), *new[1:]])
        assert gone["value_drift"] == (float("inf"), ("s", "a", "m"))

    def test_unreadable_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"check": "x"}\n')
        assert cli.main(["--diff", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
        assert cli.main(["--diff", str(tmp_path / "none.jsonl"), str(bad)]) == 2

    def test_empty_reports_are_refused(self, tmp_path, capsys):
        # two empty reports agree on nothing: no rows is no evidence
        for name in ("e1.jsonl", "e2.jsonl"):
            (tmp_path / name).write_text("")
        assert cli.main(["--diff", str(tmp_path / "e1.jsonl"),
                         str(tmp_path / "e2.jsonl")]) == 2
        assert "no rows" in capsys.readouterr().err


def _rows_tool():
    return _tool("rows")


def _tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _perfbench_workloads():
    """``perfbench/run.py``'s ``WORKLOADS``, read as a literal: importing the
    script would set its BLAS thread variables."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["WORKLOADS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no WORKLOADS")


def test_rows_runs_the_benchmark_workloads():
    # tools/rows.py copies the benchmark's workloads as nklab arguments
    bench = _perfbench_workloads()
    rows = _rows_tool()
    assert set(rows.WORKLOADS) == set(bench)
    for name, argv in rows.WORKLOADS.items():
        args = cli.build_parser().parse_args(argv)
        got = (None if args.model is None else tuple(args.model.split(",")),
               None if args.suite == "all" else tuple(args.suite.split(",")),
               args.samples, args.deriv_mode)
        w = bench[name]
        assert got == (w["models"], w["suites"], w["samples"], w["mode"]), name


def test_rows_compare_refuses_directories_without_reports(tmp_path, capsys):
    rows = _rows_tool()
    full = tmp_path / "full"
    full.mkdir()
    row = report.CheckResult("c", "s", "m", "pass", 1e-9, 1e-8)
    report.write_jsonl([row], str(full / "lab-seed0.jsonl"))
    assert rows.compare(full, full) == 0
    assert rows.compare(tmp_path / "no-such-a", tmp_path / "no-such-b") == 1
    assert rows.compare(full, tmp_path / "no-such") == 1
    assert rows.compare(tmp_path / "no-such", full) == 1
    assert "no *.jsonl report" in capsys.readouterr().out


def test_rows_compare_prints_the_worst_passing_margin(tmp_path, capsys):
    # the passing row nearest its tolerance, old -> new; failing rows and
    # expected failures are not margins
    rows = _rows_tool()

    def row(check, status, residual):
        return report.CheckResult(check, "s", "m", status, residual, 1e-8)

    old, new = tmp_path / "old", tmp_path / "new"
    for side, near in ((old, 2e-9), (new, 5e-9)):
        side.mkdir()
        report.write_jsonl([row("a", "pass", 1e-9), row("b", "pass", near),
                            row("c", "fail", 1.0), row("d", "xfail", 2.0)],
                           str(side / "lab-seed0.jsonl"))
    assert rows.compare(old, new) == 0
    out = capsys.readouterr().out
    assert "worst passing residual/tolerance 0.2 (s/b on m) -> 0.5 (s/b on m)" in out
    assert "\n4 shared rows not bit-identical\n" in out


def test_rows_compare_names_the_rows_on_one_side(tmp_path, capsys):
    # a removed row reads as a removal, and the shared rows as bit-identical
    rows = _rows_tool()

    def row(check):
        return report.CheckResult(check, "s", "m", "pass", 1e-9, 1e-8)

    old, new = tmp_path / "old", tmp_path / "new"
    for side, checks in ((old, "abc"), (new, "abd")):
        side.mkdir()
        report.write_jsonl([row(c) for c in checks], str(side / "lab-seed0.jsonl"))
    assert rows.compare(old, new) == 1
    out = capsys.readouterr().out
    assert ("\n1 row only in OLD (s/c on m), 1 row only in NEW (s/d on m), "
            "2 shared rows bit-identical\n") in out
    assert "== lab-seed0.jsonl: differs" in out


def test_pairs_summary_on_synthetic_runs():
    pairs = _tool("pairs")
    better = pairs.end_to_end()
    assert better == {"lab_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower",
                      "pass_frac": "higher", "residual_digits": "higher"}
    old = [{"lab_s": t, "digits": 14.0} for t in (0.10, 0.12, 0.14, 0.16, 0.18)]
    new = [{"lab_s": t, "digits": d} for t, d in ((0.08, 14.0), (0.09, 14.2), (0.15, 14.1),
                                                  (0.10, 14.3), (0.11, 13.9))]
    rows = {r["metric"]: r for r in pairs.summary(old, new, {"lab_s": "lower", "digits": "higher"},
                                                  {"lab_s": 0.25, "digits": 0.05})}
    t = rows["lab_s"]
    assert (t["old_median"], t["new_median"]) == (0.14, 0.10)
    assert (t["old_q1"], t["old_q3"]) == pytest.approx((0.12, 0.16))
    assert (t["wins"], t["pairs"]) == (4, 5)  # 0.15 against 0.14 is a loss
    assert t["gain"] == pytest.approx(0.04)
    assert not t["clears_iqr"]  # a gain of 0.04 inside the old IQR of 0.04
    d = rows["digits"]
    assert d["gain"] == pytest.approx(0.1) and d["clears_iqr"]  # IQR 0: any gain clears
    assert d["wins"] == 3  # higher is better; 14.0 against 14.0 is a tie, not a win
    text = pairs.format_rows(list(rows.values()))
    assert "lab_s" in text and "wins 4/5" in text and "inside the old IQR" in text
    assert "clears the old IQR" in text


def test_pairs_verdict_on_synthetic_runs():
    pairs = _tool("pairs")
    assert pairs.bounds() == {"lab_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1,
                              "pass_frac": 0.05, "residual_digits": 0.05}
    old = [{"t": t, "d": 14.0} for t in (0.10, 0.11, 0.12, 0.13, 0.14)]

    def verdicts(new_t, new_d, bound=0.25):
        new = [{"t": t, "d": d} for t, d in zip(new_t, new_d)]
        rows = pairs.summary(old, new, {"t": "lower", "d": "higher"}, {"t": bound, "d": 0.05})
        return [r["verdict"] for r in rows]

    # median 0.12 -> 0.16 is 33% worse, beyond 25%; 14.0 -> 13.2 is 5.7% worse
    assert verdicts((0.15, 0.16, 0.16, 0.17, 0.15), (13.2,) * 5) == ["worse beyond bound"] * 2
    # 0.12 -> 0.13 is 8% worse, and OLD's IQR of 0.02 is inside the 0.03 margin
    assert verdicts((0.12, 0.13, 0.14, 0.13, 0.12), (13.5,) * 5) == ["within bound"] * 2
    # at a bound of 0.1 the margin is 0.012: OLD's IQR cannot tell 0.13 from 0.12
    assert verdicts((0.12, 0.13, 0.14, 0.13, 0.12), (14.0,) * 5, bound=0.1)[0] == "unresolved"
    # every NEW run beats every OLD run: resolved whatever OLD's spread
    assert verdicts((0.05, 0.06, 0.07, 0.08, 0.09), (14.0,) * 5, bound=0.1)[0] == "within bound"
    assert "within bound" in pairs.format_rows(pairs.summary(old, old, {"t": "lower"}, {"t": 0.25}))


def test_pairs_failures_on_synthetic_runs():
    # the acceptance gate also refuses a change that fails a larger share of
    # its operations; a share, so more runs with the same rate are no rise
    pairs = _tool("pairs")

    def runs(*counts):
        return [{"lab_s": 0.1, "failed": f, "attempted": a} for f, a in counts]

    clean = runs((0, 420), (0, 420))
    assert pairs.failures(clean, clean) == "failed operations  old 0/840  new 0/840"
    assert pairs.failures(clean, runs((0, 420), (2, 420))).endswith(
        "new 2/840  more operations failed")
    assert "more" not in pairs.failures(runs((2, 420), (2, 420)), runs((1, 420), (3, 420)))
    assert "more" not in pairs.failures(runs((1, 100)), runs((2, 200), (1, 200)))
    assert "more" not in pairs.failures(runs((1, 420)), clean)


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path, capsys):
    pairs = _tool("pairs")
    order = []

    def run(checkout, workload, seconds, seed):
        order.append(checkout.name)
        return {**{name: 1.0 for name in pairs.end_to_end()}, "failed": 0, "attempted": 6}

    monkeypatch.setattr(pairs, "run", run)
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
    assert pairs.main([str(tmp_path / "old"), str(tmp_path / "new"), "--workload",
                       "lab-wide", "--pairs", "3", "--seconds", "1"]) == 0
    assert order == ["old", "new", "new", "old", "old", "new"]
    out = capsys.readouterr().out
    assert "lab_s" in out and "failed operations  old 0/18  new 0/18\n" in out


@pytest.mark.parametrize("new_lab_s, new_pass, new_failed, verdict, code", [
    pytest.param((0.1, 0.2, 0.3, 0.3), 1.0, 0, "within bound", 0, id="faster"),
    pytest.param((1.4, 1.5, 1.4, 1.5), 1.0, 0, "worse beyond bound", 1, id="slower"),
    pytest.param((0.1, 0.2, 0.3, 0.3), 0.9, 0, "within bound", 1, id="pass_frac-worse"),
    pytest.param((0.1, 0.2, 0.3, 0.3), 1.0, 1, "within bound", 1, id="more-failed"),
    # 1.0 -> 1.2 is inside the 25% bound, but OLD's IQR of 0.6 exceeds it
    pytest.param((1.2, 1.2, 1.2, 1.2), 1.0, 0, "unresolved", 0, id="unresolved"),
])
def test_pairs_exit_code_gates_on_the_verdicts(monkeypatch, tmp_path, capsys, new_lab_s,
                                               new_pass, new_failed, verdict, code):
    # exit 1 on "worse beyond bound" or a larger share of failed operations,
    # 0 otherwise; "unresolved" is printed and exits 0
    pairs = _tool("pairs")
    lab_s = {"old": iter((0.4, 0.8, 1.2, 1.6)), "new": iter(new_lab_s)}

    def run(checkout, workload, seconds, seed):
        new = checkout.name == "new"
        return {**{name: 1.0 for name in pairs.end_to_end()},
                "lab_s": next(lab_s[checkout.name]), "pass_frac": new_pass if new else 1.0,
                "failed": new_failed if new else 0, "attempted": 6}

    monkeypatch.setattr(pairs, "run", run)
    argv = [str(tmp_path / "old"), str(tmp_path / "new"), "--workload", "lab-wide",
            "--pairs", "4", "--seconds", "1"]
    assert pairs.main(argv) == code
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines() if "is better" in line}
    assert set(rows) == set(pairs.end_to_end())
    assert rows["lab_s"].endswith(verdict)
    assert rows["pass_frac"].endswith("worse beyond bound" if new_pass < 1.0 else "within bound")
    assert out.rstrip().endswith("more operations failed") == bool(new_failed)
