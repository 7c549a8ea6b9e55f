import argparse
import csv
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectral_edge import finitemodel, limitlaws, transition
from spectral_edge.cli import _finite, build_parser, main
from spectral_edge.equilibrium import density_psi, solve_support
from spectral_edge.limitlaws import f0
from spectral_edge.potential import GUE, load_potential
from conftest import two_shelf_potential


def run(args):
    return main(args)


class TestEquilibriumCommand:
    def test_gue_edge_in_json(self, tmp_path, capsys):
        out = tmp_path / "eq"
        assert run(["equilibrium", "--potential", "gue", "--out", str(out)]) == 0
        data = json.loads((out / "equilibrium.json").read_text())
        assert abs(data["a1"] - 2.0) < 1e-9
        assert (out / "density.csv").exists()
        assert (out / "manifest.json").exists()

    def test_density_table(self, tmp_path):
        out = tmp_path / "eq"
        assert run(["equilibrium", "--potential", "quartic", "--out", str(out)]) == 0
        rows = list(csv.reader((out / "density.csv").open()))
        assert rows[0] == ["x", "psi"] and len(rows) == 401
        eq = solve_support(load_potential("quartic"))
        for x_str, psi_str in rows[1:]:
            assert float(psi_str) == density_psi(eq, float(x_str))

    def test_quartic_symmetric_endpoints(self, tmp_path):
        out = tmp_path / "eq"
        assert run(["equilibrium", "--potential", "quartic", "--out", str(out)]) == 0
        data = json.loads((out / "equilibrium.json").read_text())
        assert abs(data["a1"] + data["b0"]) < 1e-9

    def test_malformed_potential_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"coefficients": "nope"}')
        code = run(["equilibrium", "--potential", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "potential" in capsys.readouterr().err

    def test_missing_potential_exit_code(self, tmp_path):
        code = run(["equilibrium", "--potential", "no-such", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("command", [["equilibrium"], ["law", "--a", "0.5"]])
    @pytest.mark.parametrize("value", ["NaN", "1e400"])
    def test_non_finite_coefficient_is_input_error(self, tmp_path, capsys, command, value):
        # 1e400 parses as inf
        pot = tmp_path / "bad.json"
        pot.write_text(f'{{"coefficients": [0, {value}, 1]}}')
        out = tmp_path / "x"
        assert run([*command, "--potential", str(pot), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: potential:") and "finite" in err
        assert not out.exists()

    def test_two_cut_numeric_failure_exit_code(self, tmp_path):
        pot = tmp_path / "dw.json"
        pot.write_text(json.dumps({"label": "dw", "coefficients": [0, 0, -2.0, 0, 0.25]}))
        code = run(["equilibrium", "--potential", str(pot), "--out", str(tmp_path / "x")])
        assert code == 3
        assert not (tmp_path / "x").exists()


class TestCriticalCommand:
    def test_gue_report(self, tmp_path):
        out = tmp_path / "crit"
        assert run(["critical", "--potential", "gue", "--out", str(out)]) == 0
        data = json.loads((out / "critical.json").read_text())
        assert abs(data["a_c"] - 1.0) < 1e-5
        assert data["secondary"] == []
        assert not data["a_c_below_half_Vprime_e"]
        # the default tilts: below, at and above a_c
        tilts = [0.6 * data["a_c"], data["a_c"], min(2.0 * data["a_c"], 1.5 * data["half_Vprime_e"])]
        rows = list(csv.reader((out / "comparison.csv").open()))
        assert rows[0] == ["x"] + [f"{f}(a={a:g})" for a in tilts for f in "GH"]
        assert len(rows) == 401 and float(rows[1][0]) == 2.0

    def test_eynard_flag(self, tmp_path):
        out = tmp_path / "crit"
        assert run(["critical", "--potential", "eynard(3,0.02)", "--out", str(out),
                    "--a-max", "0.8"]) == 0
        data = json.loads((out / "critical.json").read_text())
        assert data["a_c_below_half_Vprime_e"]
        assert data["a_c"] < data["half_Vprime_e"]


    def test_quartic_report(self, tmp_path):
        # the range starts at a_c + 1e-4, where the maximizer sits ~1e-9
        # right of the edge
        out = tmp_path / "crit"
        assert run(["critical", "--potential", "quartic", "--out", str(out)]) == 0
        data = json.loads((out / "critical.json").read_text())
        assert data["secondary"] == []
        assert not data["a_c_below_half_Vprime_e"]


    def test_degenerate_eynard_is_input_error(self, tmp_path, capsys):
        # eps = 0: the effective potential touches zero at e_bar, so the
        # potential is not regular; the message names the margin and its x
        out = tmp_path / "crit"
        assert run(["critical", "--potential", "eynard(3,0)", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: potential is not regular")
        assert "margin" in err and "x = 3" in err
        assert "Traceback" not in err
        assert not (out / "critical.json").exists()

    def test_small_eps_eynard_answers(self, tmp_path):
        out = tmp_path / "crit"
        assert run(["critical", "--potential", "eynard(3,0.001)", "--out", str(out)]) == 0
        data = json.loads((out / "critical.json").read_text())
        assert data["a_c_below_half_Vprime_e"]


class TestLawCommand:
    def test_supercritical_descriptor(self, tmp_path):
        out = tmp_path / "law"
        assert run(["law", "--potential", "gue", "--a", "2", "--n", "100",
                    "--out", str(out)]) == 0
        data = json.loads((out / "law.json").read_text())
        assert data["kind"] == "Gauss"
        assert abs(data["center"] - 2.5) < 1e-6

    def test_critical_table_tail(self, tmp_path):
        out = tmp_path / "law"
        assert run(["law", "--potential", "gue", "--a-critical", "--alpha", "0",
                    "--n", "100", "--T-min", "8", "--T-max", "10", "--T-steps", "3",
                    "--out", str(out)]) == 0
        data = json.loads((out / "law.json").read_text())
        assert data["kind"] == "F1"
        rows = list(csv.reader((out / "law.csv").open()))[1:]
        last = float(rows[-1][1])
        assert abs(last - 1.0) < 1e-6

    def test_f0_table_byte_identical_to_library(self, tmp_path):
        out = tmp_path / "law"
        assert run(["law", "--potential", "gue", "--a", "0.5", "--n", "100",
                    "--T-min", "-4", "--T-max", "2", "--T-steps", "7",
                    "--out", str(out)]) == 0
        rows = list(csv.reader((out / "law.csv").open()))[1:]
        for t_str, v_str in rows:
            expect = f"{f0(float(t_str)):.17g}"
            assert v_str == expect

    def test_far_right_f1_table_is_finite(self, tmp_path):
        # F1's profile used to overflow there, writing nan with exit 0
        out = tmp_path / "law"
        assert run(["law", "--potential", "gue", "--n", "100", "--a-critical", "--alpha", "1",
                    "--T-max", "700", "--out", str(out)]) == 0
        cdf = [float(r[1]) for r in list(csv.reader((out / "law.csv").open()))[1:]]
        assert len(cdf) == 41 and all(np.isfinite(cdf))
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= -1e-9)

    def test_a_critical_bisects_once(self, tmp_path, monkeypatch):
        calls = []
        real = transition.critical_a

        def counted(eq, *args, **kwargs):
            calls.append(eq.V.label)
            return real(eq, *args, **kwargs)

        monkeypatch.setattr(transition, "critical_a", counted)
        monkeypatch.setattr(limitlaws, "critical_a", counted)
        assert run(["law", "--potential", "eynard(3,0.02)", "--a-critical", "--alpha", "2",
                    "--n", "100", "--T-steps", "3", "--out", str(tmp_path / "law")]) == 0
        assert len(calls) == 1

    def test_flat_maximizer_is_numeric_failure(self, tmp_path):
        # one float below the top of the second rising run of W, G has a
        # maximizer where W' vanishes but W'' does not
        V = two_shelf_potential(d2=0.7104335)
        pot = tmp_path / "cusp.json"
        pot.write_text(json.dumps(V.to_json()))
        a = math.nextafter(transition._rising_runs(solve_support(V))[1][3], 0.0)
        proc = _cli_process(tmp_path, "law", "--potential", str(pot), "--a", repr(a),
                            "--n", "128", "--out", "law")
        assert proc.returncode == 3
        assert proc.stderr.startswith("numeric failure: law:")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "law").exists()

    def test_law_requires_spike(self, tmp_path):
        assert run(["law", "--potential", "gue", "--out", str(tmp_path / "x")]) == 2

    def test_deterministic_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["law", "--potential", "gue", "--a", "0.5", "--n", "64",
                        "--T-min", "-2", "--T-max", "2", "--T-steps", "5",
                        "--out", str(out)]) == 0
        assert (out1 / "law.csv").read_bytes() == (out2 / "law.csv").read_bytes()


class TestGapCommand:
    def test_tail_saturates(self, tmp_path):
        out = tmp_path / "gap"
        assert run(["gap", "--potential", "gue", "--a", "0", "--n", "16",
                    "--T-min", "4", "--T-max", "6", "--T-steps", "3",
                    "--out", str(out)]) == 0
        rows = json.loads((out / "gap.json").read_text())["rows"]
        assert rows[-1][2] > 0.999

    def test_healthy_run_reports_no_clamp(self, tmp_path, capsys):
        out = tmp_path / "gap"
        assert run(["gap", "--potential", "gue", "--a", "1.5", "--n", "16",
                    "--T-steps", "5", "--out", str(out)]) == 0
        report = json.loads((out / "gap.json").read_text())
        assert report["clamped"] == 0
        probs = [row[2] for row in report["rows"]]
        assert report["raw_range"] == [min(probs), max(probs)]
        assert capsys.readouterr().err == ""

    def test_out_of_range_raw_value_is_counted(self, tmp_path, capsys, monkeypatch):
        real = finitemodel.gap_probability_raw
        calls = []

        def one_out_of_range(sk, intervals, *args, **kwargs):
            calls.append(intervals)
            raw = real(sk, intervals, *args, **kwargs)
            return 1.25 if len(calls) == 2 else raw

        monkeypatch.setattr(finitemodel, "gap_probability_raw", one_out_of_range)
        out = tmp_path / "gap"
        assert run(["gap", "--potential", "gue", "--a", "1.5", "--n", "16",
                    "--T-steps", "5", "--out", str(out)]) == 0
        assert len(calls) == 5
        report = json.loads((out / "gap.json").read_text())
        assert report["clamped"] == 1
        assert report["raw_range"][1] == 1.25
        assert report["rows"][1][2] == 1.0
        err = capsys.readouterr().err
        assert "1 of 5" in err and "clamped" in err and "1.25" in err

    def test_build_diagnostics_recorded(self, tmp_path):
        # the string-equation residual that sized the grid, and the grid's size
        out = tmp_path / "gap"
        assert run(["gap", "--potential", "gue", "--a", "0.5", "--n", "20", "--T-steps", "3",
                    "--out", str(out)]) == 0
        report = json.loads((out / "gap.json").read_text())
        assert 0.0 <= report["string_residual"] <= 1e-12
        ortho = finitemodel.build_ortho(GUE, 20, 21, a_hint=0.5)
        assert report["grid_nodes"] == ortho.grid.nodes.size
        assert report["grid_nodes"] % finitemodel._PANEL == 0

    def test_size_cap_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "gap"
        assert run(["gap", "--potential", "gue", "--n", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "gap" in err and "128" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def compare_inputs(tmp_path_factory):
    """The directories compare reads, as the CLI writes them: gue laws at
    n = 20 and 100, gap tables of gue and quartic at n = 20, and gue draws
    at n = 20."""
    root = tmp_path_factory.mktemp("inputs")
    for out, argv in [
        ("law", ["law", "--potential", "gue", "--a", "0.5", "--n", "20", "--T-steps", "3"]),
        ("law100", ["law", "--potential", "gue", "--a", "0.5", "--n", "100", "--T-steps", "3"]),
        ("gap", ["gap", "--potential", "gue", "--a", "0.5", "--n", "20", "--T-steps", "3"]),
        ("qgap", ["gap", "--potential", "quartic", "--a", "0.5", "--n", "20", "--T-steps", "3"]),
        ("mc", ["montecarlo", "--potential", "gue", "--a", "0.5", "--n", "20", "--reps", "50"]),
    ]:
        assert run([*argv, "--out", str(root / out)]) == 0, argv
    return root


_GAUSS_LAW = {"kind": "Gauss", "center": 2.0, "scale_const": 1.0, "scale_exponent": 0.5}
_GAP_ARGV = ["--law-dir", "law", "--gap-dir", "gap"]


class TestMonteCarloAndCompare:
    def test_direct_sampling_and_ks(self, tmp_path):
        mc = tmp_path / "mc"
        law = tmp_path / "law"
        assert run(["montecarlo", "--potential", "gue", "--a", "2", "--n", "100",
                    "--reps", "1500", "--seed", "5", "--out", str(mc)]) == 0
        meta = json.loads((mc / "samples.json").read_text())
        assert meta["rng"] == "philox"
        assert meta["reps"] == 1500
        assert run(["law", "--potential", "gue", "--a", "2", "--n", "100",
                    "--out", str(law)]) == 0
        cmp_dir = tmp_path / "cmp"
        assert run(["compare", "--law-dir", str(law), "--mc-dir", str(mc),
                    "--ks-tol", "0.1", "--out", str(cmp_dir)]) == 0
        report = json.loads((cmp_dir / "compare.json").read_text())
        assert report["ks_distance"] < 0.1
        assert report["ks_pass"]

    def test_compare_gap_against_law(self, tmp_path):
        gap = tmp_path / "gap"
        law = tmp_path / "law"
        assert run(["gap", "--potential", "gue", "--a", "0.5", "--n", "80",
                    "--T-min", "-4", "--T-max", "2", "--T-steps", "7",
                    "--out", str(gap)]) == 0
        assert run(["law", "--potential", "gue", "--a", "0.5", "--n", "80",
                    "--out", str(law)]) == 0
        cmp_dir = tmp_path / "cmp"
        assert run(["compare", "--law-dir", str(law), "--gap-dir", str(gap),
                    "--gap-tol", "0.1", "--out", str(cmp_dir)]) == 0
        report = json.loads((cmp_dir / "compare.json").read_text())
        # the leading-edge centering leaves an O(n^{-1/3}) shift; at n = 80
        # the worst deviation over the sweep is 0.085 (at T = -2)
        assert report["max_gap_law_gap"] < 0.1
        assert report["gap_pass"]

    def test_compare_gap_against_gauss_law(self, tmp_path):
        # a Gauss law is evaluated at the table's thresholds, not at its
        # edge-scaled T, which read 0.9986 here
        gap, law, cmp_dir = tmp_path / "gap", tmp_path / "law", tmp_path / "cmp"
        assert run(["gap", "--potential", "gue", "--a", "2", "--n", "100",
                    "--out", str(gap)]) == 0
        assert run(["law", "--potential", "gue", "--a", "2", "--n", "100",
                    "--out", str(law)]) == 0
        assert run(["compare", "--law-dir", str(law), "--gap-dir", str(gap),
                    "--out", str(cmp_dir)]) == 0
        report = json.loads((cmp_dir / "compare.json").read_text())
        assert report["max_gap_law_gap"] < 1e-4
        assert report["gap_pass"]

    @pytest.mark.parametrize("kind, law_argv", [
        ("F0", ["--a", "0.3"]),
        ("F1", ["--a-critical", "--alpha", "0.5"]),
    ], ids=["F0", "F1"])
    def test_edge_law_gap_matches_standard_variable(self, tmp_path, kind, law_argv):
        # an edge law at the table's thresholds is the law at the table's T
        gap, law, cmp_dir = tmp_path / "gap", tmp_path / "law", tmp_path / "cmp"
        assert run(["gap", "--potential", "gue", "--a", "0.5", "--T-steps", "7",
                    "--out", str(gap)]) == 0
        assert run(["law", "--potential", "gue", *law_argv, "--n", "20", "--T-steps", "3",
                    "--out", str(law)]) == 0
        assert run(["compare", "--law-dir", str(law), "--gap-dir", str(gap),
                    "--out", str(cmp_dir)]) == 0
        t, _, p = np.array(json.loads((gap / "gap.json").read_text())["rows"]).T
        descriptor = limitlaws.LimitLaw.from_json(json.loads((law / "law.json").read_text()))
        assert descriptor.kind == kind
        expect = np.max(np.abs(p - descriptor.cdf_standard(t)))
        report = json.loads((cmp_dir / "compare.json").read_text())
        assert abs(report["max_gap_law_gap"] - expect) <= 1e-12

    def test_inconsistent_inputs_rejected(self, tmp_path):
        mc = tmp_path / "mc"
        law = tmp_path / "law"
        assert run(["montecarlo", "--potential", "gue", "--a", "2", "--n", "64",
                    "--reps", "200", "--seed", "5", "--out", str(mc)]) == 0
        assert run(["law", "--potential", "gue", "--a", "2", "--n", "100",
                    "--out", str(law)]) == 0
        code = run(["compare", "--law-dir", str(law), "--mc-dir", str(mc),
                    "--out", str(tmp_path / "cmp")])
        assert code == 2

    @pytest.mark.parametrize("law, named", [
        ({"kind": "Bogus"}, "unknown law kind 'Bogus'"),
        ({"kind": "F1", "alpha": 7}, "|alpha| <= 4"),
    ], ids=["unknown-kind", "f1-alpha-out-of-range"])
    def test_unusable_law_is_input_error(self, tmp_path, compare_inputs, law, named):
        law_dir = tmp_path / "law"
        law_dir.mkdir()
        (law_dir / "law.json").write_text(json.dumps(
            {"center": 2.0, "scale_const": 1.0, "scale_exponent": 0.0, **law}))
        proc = _cli_process(tmp_path, "compare", "--law-dir", "law",
                            "--gap-dir", str(compare_inputs / "gap"), "--out", "cmp")
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error: compare:")
        assert "law.json" in proc.stderr and named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "cmp").exists()

    def test_nothing_to_compare_is_input_error(self, tmp_path, compare_inputs, capsys):
        out = tmp_path / "cmp"
        assert run(["compare", "--law-dir", str(compare_inputs / "law"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: compare:") and "--mc-dir" in err and "--gap-dir" in err
        assert not out.exists()

    # (file to rewrite, its new content or a function of its old content,
    #  compare's input flags, the file and the words the message names)
    @pytest.mark.parametrize("target, content, argv, named", [
        ("law/law.json", [], _GAP_ARGV, ("law.json", "not a JSON object")),
        ("law/law.json", {**_GAUSS_LAW, "kind": "GenGauss", "order": 0}, _GAP_ARGV,
         ("law.json", "order 0")),
        ("law/law.json", {**_GAUSS_LAW, "center": math.nan}, _GAP_ARGV, ("law.json", "finite")),
        ("gap/gap.json", [], _GAP_ARGV, ("gap.json", "not a JSON object")),
        ("gap/gap.json", lambda t: {**t, "rows": [r[:2] for r in t["rows"]]}, _GAP_ARGV,
         ("gap.json", "each row")),
        ("gap/gap.json", lambda t: {**t, "rows": [[math.nan] * 3 for _ in t["rows"]]}, _GAP_ARGV,
         ("gap.json", "finite")),
        ("mc/samples.json", lambda m: {k: v for k, v in m.items() if k != "a"},
         ["--law-dir", "law", "--mc-dir", "mc"],
         ("samples.csv", "'a'")),
        (None, None, ["--law-dir", "law100", "--gap-dir", "gap"],
         ("manifest.json", "disagree on n")),
        (None, None, ["--law-dir", "law", "--gap-dir", "qgap"],
         ("manifest.json", "disagree on potential")),
    ], ids=["law-array", "law-gengauss-order-0", "law-nan-center", "gap-array", "gap-short-rows",
            "gap-nan-rows", "samples-without-a", "gap-n-differs", "gap-potential-differs"])
    def test_malformed_compare_input_is_input_error(self, tmp_path, compare_inputs,
                                                    target, content, argv, named):
        shutil.copytree(compare_inputs, tmp_path, dirs_exist_ok=True)
        if target is not None:
            path = tmp_path / target
            if callable(content):
                content = content(json.loads(path.read_text()))
            path.write_text(json.dumps(content))
        proc = _cli_process(tmp_path, "compare", *argv, "--out", "cmp")
        assert proc.returncode == 2
        assert proc.stderr.startswith("input error:")
        assert all(word in proc.stderr for word in named), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "cmp").exists()

    def test_mcmc_method(self, tmp_path):
        mc = tmp_path / "mcmc"
        assert run(["montecarlo", "--potential", "gue", "--a", "0.5", "--n", "8",
                    "--reps", "300", "--method", "mcmc", "--seed", "9",
                    "--out", str(mc)]) == 0
        meta = json.loads((mc / "samples.json").read_text())
        assert meta["method"] == "mcmc"
        assert 0.1 <= meta["acceptance"] <= 0.9


    def test_mcmc_size_cap_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "mcmc"
        assert run(["montecarlo", "--potential", "gue", "--n", "80", "--method", "mcmc",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "montecarlo" in err and "64" in err
        assert not out.exists()


class TestOutPath:
    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_file_in_the_way_is_input_error(self, tmp_path, capsys, monkeypatch, out):
        # the path is checked before any work: the equilibrium solver never runs
        afile = tmp_path / "afile"
        afile.write_text("kept")

        def no_work(*args, **kwargs):
            raise AssertionError("solve_support ran before the --out check")

        monkeypatch.setattr("spectral_edge.equilibrium.solve_support", no_work)
        assert run(["equilibrium", "--potential", "gue", "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: equilibrium: --out") and str(afile) in err
        assert afile.read_text() == "kept"


class TestManifest:
    def test_round_trip_resolved_values(self, tmp_path):
        out = tmp_path / "law"
        argv = ["law", "--potential", "gue", "--a", "2", "--n", "100", "--out", str(out)]
        assert run(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "law"
        assert manifest["potential"] == "gue"
        assert manifest["a"] == 2.0
        assert manifest["n"] == 100
        assert manifest["j"] == 1


class TestSpikeValidation:
    @pytest.mark.parametrize("argv, named", [
        (["gap", "--n", "20", "--j", "30"], "j = 30"),
        (["gap", "--j", "0"], "j = 0"),
        (["montecarlo", "--n", "0"], "n = 0"),
        (["law", "--a", "-0.5"], "a = -0.5"),
        (["law", "--a", "0.5", "--n", "3"], "n = 3"),
        (["law", "--a", "1.7", "--a-critical", "--alpha", "0.5"], "exactly one of --a and --a-critical"),
        (["law", "--a", "0.5", "--alpha", "0.7"], "--alpha offsets the spike from a_c"),
    ], ids=["gap-j30", "gap-j0", "montecarlo-n0", "law-negative-a", "law-n3",
            "law-a-and-a-critical", "law-alpha-without-a-critical"])
    def test_bad_spike_is_input_error(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x"
        assert run([*argv, "--potential", "gue", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert argv[0] in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["montecarlo", "--seed", "-1"], "seed = -1"),
        (["montecarlo", "--method", "mcmc", "--n", "8", "--seed", "-1"], "seed = -1"),
        # three chains of 500 draws use the keys seed, seed + 1 and seed + 2
        (["montecarlo", "--method", "mcmc", "--n", "8", "--reps", "1200",
          "--seed", str(2 ** 128 - 2)], f"seed = {2 ** 128 - 2}"),
        (["montecarlo", "--seed", str(2 ** 128)], f"seed = {2 ** 128}"),
        (["montecarlo", "--n", "2001"], "n = 2001"),
        (["montecarlo", "--n", "2000", "--reps", "4001"], "reps * n = 8002000"),
        (["critical", "--a-max", "0"], "a-max = 0.0"),
        (["critical", "--a-max", "-1"], "a-max = -1.0"),
        (["critical", "--a", "-0.5"], "a = -0.5"),
    ], ids=["direct-negative-seed", "mcmc-negative-seed", "mcmc-last-chain-key",
            "direct-key-overflow", "direct-n-cap", "direct-volume-cap", "critical-a-max-zero",
            "critical-a-max-negative", "critical-negative-a"])
    def test_bad_run_input_is_input_error(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x"
        assert run([*argv, "--potential", "gue", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {argv[0]}: ") and named in err
        assert not out.exists()

    def test_largest_seed_samples(self, tmp_path):
        out = tmp_path / "mc"
        assert run(["montecarlo", "--potential", "gue", "--n", "4", "--reps", "10",
                    "--seed", str(2 ** 128 - 1), "--out", str(out)]) == 0
        assert json.loads((out / "samples.json").read_text())["seed"] == 2 ** 128 - 1

    @pytest.mark.parametrize("reps", ["0", "-5"])
    def test_empty_sample_request_is_input_error(self, tmp_path, capsys, reps):
        out = tmp_path / "mc"
        assert run(["montecarlo", "--potential", "gue", "--a", "1", "--n", "10",
                    "--reps", reps, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "montecarlo" in err and f"reps = {reps}" in err
        assert not out.exists()

    def test_empty_sample_file_is_input_error(self, tmp_path, capsys):
        mc, law = tmp_path / "mc", tmp_path / "law"
        assert run(["montecarlo", "--potential", "gue", "--a", "2", "--n", "10",
                    "--reps", "5", "--out", str(mc)]) == 0
        (mc / "samples.csv").write_text("lambda_max\n")
        assert run(["law", "--potential", "gue", "--a", "2", "--n", "10",
                    "--out", str(law)]) == 0
        capsys.readouterr()
        assert run(["compare", "--law-dir", str(law), "--mc-dir", str(mc),
                    "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert "samples.csv" in err and "at least one draw" in err

    @pytest.mark.parametrize("argv, steps", [
        (["law", "--a", "2"], "-2"),
        (["law", "--a-critical"], "0"),
        (["gap", "--a", "2"], "0"),
    ], ids=["law-negative", "law-zero", "gap-zero"])
    def test_empty_t_grid_is_input_error(self, tmp_path, capsys, argv, steps):
        out = tmp_path / "x"
        assert run([*argv, "--potential", "gue", "--n", "10", "--T-steps", steps,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert argv[0] in err and f"T-steps = {steps}" in err
        assert not out.exists()

    def test_empty_gap_table_is_input_error(self, tmp_path, capsys):
        # an empty table would compare vacuously: max gap 0.0, a pass
        gap, law = tmp_path / "gap", tmp_path / "law"
        assert run(["gap", "--potential", "gue", "--a", "2", "--n", "10", "--T-steps", "1",
                    "--out", str(gap)]) == 0
        table = json.loads((gap / "gap.json").read_text())
        (gap / "gap.json").write_text(json.dumps({**table, "rows": []}))
        assert run(["law", "--potential", "gue", "--a", "2", "--n", "10",
                    "--out", str(law)]) == 0
        capsys.readouterr()
        assert run(["compare", "--law-dir", str(law), "--gap-dir", str(gap),
                    "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert "gap.json" in err and "at least one row" in err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--j", "2"],
        ["equilibrium", "--seed", "3"],
        ["law", "--a", "1", "--format", "json"],
    ], ids=["montecarlo-j", "equilibrium-seed", "law-format"])
    def test_flag_the_command_ignores_is_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--potential", "gue", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _subcommand_options() -> list:
    """(subcommand, action) of every option of every subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(cmd, action) for cmd, sp in sub.choices.items() for action in sp._actions]


class TestRealValuedFlags:
    def test_every_real_flag_is_checked_finite(self):
        assert [(cmd, a.dest) for cmd, a in _subcommand_options() if a.type is float] == []
        flags = {a.option_strings[0] for _, a in _subcommand_options() if a.type is _finite}
        assert flags == {"--a", "--a-max", "--alpha", "--T-min", "--T-max", "--ks-tol",
                         "--gap-tol"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "x"])
    def test_non_finite_value_exits_2(self, capsys, value):
        for cmd, action in _subcommand_options():
            if action.type is not _finite:
                continue
            flag = action.option_strings[0]
            with pytest.raises(SystemExit) as exc:
                run([cmd, f"{flag}={value}"])
            assert exc.value.code == 2, (cmd, flag)
            err = capsys.readouterr().err
            assert f"argument {flag}: '{value}' is not a finite number" in err, err


# Runs ``python -m spectral_edge.cli`` with the arguments in argv[1] (JSON),
# then prints its exit code and the scipy modules the process loaded.
_PROBE = """
import json, runpy, sys
sys.argv = ["spectral-edge", *json.loads(sys.argv[1])]
code = 0
try:
    runpy.run_module("spectral_edge.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_block() -> list:
    """The argv of each command in the fenced block of the README's CLI section."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("spectral-edge ")]


class TestReadmeCliBlock:
    def test_every_command_exits_zero(self, tmp_path, monkeypatch):
        # the block's --out paths are relative, so they land under tmp_path;
        # 400 draws keep the sampling short
        commands = readme_cli_block()
        assert "compare" in [argv[0] for argv in commands]
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            if "--reps" in argv:
                argv[argv.index("--reps") + 1] = "400"
            assert run(argv) == 0, argv


def _python(args: list, cwd) -> subprocess.CompletedProcess:
    """A fresh Python process on this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _cli_process(cwd, *argv) -> subprocess.CompletedProcess:
    """The CLI run as ``python -m spectral_edge.cli`` in a fresh process."""
    return _python(["-m", "spectral_edge.cli", *argv], cwd)


def _fresh_process(code: str, *args, cwd) -> list:
    proc = _python(["-c", code, *args], cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# One command per case, run in a fresh process; every one needs numpy alone.
_NO_SCIPY_COMMANDS = {
    "equilibrium": ["equilibrium", "--potential", "gue", "--out", "eq"],
    "critical": ["critical", "--potential", "gue", "--out", "crit"],
    "law-F0": ["law", "--potential", "gue", "--a", "0", "--n", "20", "--T-steps", "3",
               "--out", "law"],
    "law-F1": ["law", "--potential", "gue", "--a-critical", "--alpha", "0.5", "--n", "20",
               "--T-steps", "3", "--out", "law"],
    "law-Gauss": ["law", "--potential", "gue", "--a", "2", "--n", "10", "--T-steps", "3",
                  "--out", "law"],
    "law-eynard": ["law", "--potential", "eynard(3,0.02)", "--a", "0.3", "--n", "20",
                   "--T-steps", "3", "--out", "law"],
    "gap": ["gap", "--potential", "gue", "--a", "0", "--n", "20", "--T-steps", "3",
            "--out", "gap"],
    "montecarlo-direct": ["montecarlo", "--potential", "gue", "--a", "0.5", "--n", "100",
                          "--reps", "10", "--out", "mc"],
    "montecarlo-mcmc": ["montecarlo", "--potential", "gue", "--method", "mcmc", "--a", "0.5",
                        "--n", "4", "--reps", "10", "--out", "mc"],
    "montecarlo-eynard-mcmc": ["montecarlo", "--potential", "eynard(3,0.02)", "--method",
                               "mcmc", "--a", "0.3", "--n", "4", "--reps", "10", "--out", "mc"],
}


class TestImportBudget:
    """No command loads scipy: the Airy values come from a numpy Taylor
    table, the normal CDF from ``math.erfc`` and the quadrature rules from
    numpy's ``leggauss``.  ``compare`` is checked in the pipelines that
    write its inputs.  The one exception is a GenGauss law, whose CDF
    imports ``scipy.special`` when it is evaluated."""

    def _cli(self, tmp_path, *argv):
        return _fresh_process(_PROBE, json.dumps(argv), cwd=tmp_path)

    def test_potential_module_loads_no_scipy(self, tmp_path):
        probe = ("import json, sys, spectral_edge.potential; "
                 "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        assert _fresh_process(probe, cwd=tmp_path) == []

    def test_eynard_potential_loads_no_scipy(self, tmp_path):
        probe = ("import json, sys; from spectral_edge.potential import load_potential; "
                 "load_potential('eynard(3,0.02)'); "
                 "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
        assert _fresh_process(probe, cwd=tmp_path) == []

    @pytest.mark.parametrize("argv", _NO_SCIPY_COMMANDS.values(), ids=_NO_SCIPY_COMMANDS.keys())
    def test_command_loads_no_scipy(self, tmp_path, argv):
        assert self._cli(tmp_path, *argv) == [0, []]

    def test_gen_gauss_law_loads_scipy_special_when_read(self, tmp_path):
        probe = ("import json, sys; from spectral_edge.limitlaws import LimitLaw; "
                 "law = LimitLaw('GenGauss', order=2); "
                 "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
                 "before = loaded(); law.cdf_standard(0.5); "
                 "print(json.dumps([before, 'scipy.special' in loaded()]))")
        assert _fresh_process(probe, cwd=tmp_path) == [[], True]

    def test_pipeline_loads_no_optimizer(self, tmp_path):
        commands = [
            ["montecarlo", "--potential", "gue", "--a", "0.5", "--n", "10", "--reps", "20",
             "--out", "mc"],
            ["law", "--potential", "gue", "--a", "0.5", "--n", "10", "--T-steps", "3",
             "--out", "law"],
            ["compare", "--law-dir", "law", "--mc-dir", "mc", "--ks-tol", "1", "--out", "cmp"],
        ]
        for argv in commands:
            assert self._cli(tmp_path, *argv) == [0, []], argv
        assert json.loads((tmp_path / "cmp" / "compare.json").read_text())["ks_pass"]

    def test_gauss_compare_loads_no_linalg(self, tmp_path):
        for argv in (["law", "--potential", "gue", "--a", "2", "--n", "10", "--T-steps", "3",
                      "--out", "law"],
                     ["montecarlo", "--potential", "gue", "--a", "2", "--n", "10", "--reps", "20",
                      "--out", "mc"]):
            assert self._cli(tmp_path, *argv)[0] == 0, argv
        assert self._cli(tmp_path, "compare", "--law-dir", "law", "--mc-dir", "mc",
                         "--ks-tol", "1", "--out", "cmp") == [0, []]

    def test_f0_law_gap_and_compare_load_no_linalg(self, tmp_path):
        for argv in (["law", "--potential", "gue", "--a", "0", "--n", "20", "--T-steps", "3",
                      "--out", "law"],
                     ["gap", "--potential", "gue", "--a", "0", "--n", "20", "--T-steps", "3",
                      "--out", "gap"],
                     ["compare", "--law-dir", "law", "--gap-dir", "gap", "--gap-tol", "1",
                      "--out", "cmp"]):
            assert self._cli(tmp_path, *argv) == [0, []], argv
        assert json.loads((tmp_path / "law" / "law.json").read_text())["kind"] == "F0"

    def test_exit_codes_in_a_fresh_process(self, tmp_path):
        # not regular: input error; no one-cut measure: numeric failure
        pot = tmp_path / "dw.json"
        pot.write_text(json.dumps({"label": "dw", "coefficients": [0, 0, -2.0, 0, 0.25]}))
        assert self._cli(tmp_path, "critical", "--potential", "eynard(3,0)",
                         "--out", "crit")[0] == 2
        assert self._cli(tmp_path, "equilibrium", "--potential", str(pot), "--out", "eq")[0] == 3
