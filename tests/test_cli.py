import csv
import json
from pathlib import Path

import numpy as np
import pytest

from spectral_edge import finitemodel, limitlaws, transition
from spectral_edge.cli import main
from spectral_edge.limitlaws import f0


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

    def test_two_cut_numeric_failure_exit_code(self, tmp_path):
        pot = tmp_path / "dw.json"
        pot.write_text(json.dumps({"label": "dw", "coefficients": [0, 0, -2.0, 0, 0.25]}))
        code = run(["equilibrium", "--potential", str(pot), "--out", str(tmp_path / "x")])
        assert code == 3


class TestCriticalCommand:
    def test_gue_report(self, tmp_path):
        out = tmp_path / "crit"
        assert run(["critical", "--potential", "gue", "--out", str(out)]) == 0
        data = json.loads((out / "critical.json").read_text())
        assert abs(data["a_c"] - 1.0) < 1e-5
        assert data["secondary"] == []
        assert not data["a_c_below_half_Vprime_e"]
        assert (out / "comparison.csv").exists()

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

    def test_size_cap_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "gap"
        assert run(["gap", "--potential", "gue", "--n", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "gap" in err and "128" in err
        assert not out.exists()


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
        (["law", "--a", "1.7", "--a-critical", "--alpha", "0.5"], "exactly one of --a and --a-critical"),
        (["law", "--a", "0.5", "--alpha", "0.7"], "--alpha offsets the spike from a_c"),
    ], ids=["gap-j30", "gap-j0", "montecarlo-n0", "law-negative-a", "law-a-and-a-critical",
            "law-alpha-without-a-critical"])
    def test_bad_spike_is_input_error(self, tmp_path, capsys, argv, named):
        out = tmp_path / "x"
        assert run([*argv, "--potential", "gue", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert argv[0] in err and named in err
        assert not out.exists()

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
