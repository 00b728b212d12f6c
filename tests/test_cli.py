import json

import numpy as np
import pytest

from carnot_extremals import InputError, classify_k3, parse_config
from carnot_extremals.cli import main

BALL3_CFG = {
    "k": 3,
    "body": {"type": "ellipsoid", "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "M": {"1,2": 1.0},
    "h0": [1.0, 0.0, 0.0],
    "t1": 6.283185307179586,
    "samples": 100,
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, command, doc, name="cfg.json"):
    cfg = write_cfg(tmp_path, doc, name)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    return code, out


class TestConfigParsing:
    def test_minimal_config_parses(self):
        config = parse_config(BALL3_CFG)
        assert config.k == 3
        assert config.skew.matrix[0, 1] == 1.0
        np.testing.assert_array_equal(config.h0, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(nope=1), "nope"),
        (lambda d: d.update(k="three"), "k"),
        (lambda d: d.update(M={"2,1": 1.0}), "M"),
        (lambda d: d.update(M={"1,5": 1.0}), "M"),
        (lambda d: d.update(M={"diag": 1.0}), "M"),
        (lambda d: d.update(h0=[1.0, 0.0]), "h0"),
        (lambda d: d.update(t1=-2.0), "t1"),
        (lambda d: d.update(samples=0), "samples"),
        (lambda d: d.update(tolerances={"rtol": -1.0}), "rtol"),
        (lambda d: d.update(tolerances={"unknown_tol": 1.0}), "tolerances"),
        pytest.param(lambda d: d.update(tolerances={"kernel_rel_tol": 1e-10}),
                     r"unknown keys \['kernel_rel_tol'\]", id="retired_kernel_rel_tol"),
        pytest.param(lambda d: d.update(tolerances={"t_max": 100.0}),
                     r"unknown keys \['t_max'\]", id="retired_t_max"),
        (lambda d: d.update(body={"type": "lp_ball", "p": 1.0}), "body"),
        (lambda d: d.update(body={"type": "cube"}), "body"),
        (lambda d: d.pop("h0"), "h0"),
        pytest.param(lambda d: d.update(tolerances={"rtol": 1e-16}),
                     "rtol.*100 eps", id="rtol_below_floor"),
        (lambda d: d.update(tolerances={"g_tol": -1e-12}), "g_tol"),
        # float() of a JSON integer beyond the double range raises OverflowError
        pytest.param(lambda d: d.update(t1=10**400), "'t1'", id="t1_beyond_double"),
        pytest.param(lambda d: d.update(tolerances={"rtol": 10**400}), "tolerances.rtol",
                     id="rtol_beyond_double"),
        pytest.param(lambda d: d.update(body={"type": "lp_ball", "p": 10**400}), "body.p",
                     id="p_beyond_double"),
        # a second key for a pair must not silently replace the first
        pytest.param(lambda d: d.update(M={"1,2": 1.0, " 1,2": 5.0}),
                     "'M'.*'1,2' and ' 1,2'", id="repeated_pair"),
        pytest.param(lambda d: d.update(M={"01,3": 1.0, "1,3": 5.0}),
                     "'M'.*'01,3' and '1,3'", id="repeated_pair_zero_padded"),
    ])
    def test_bad_fields_are_named(self, mutate, needle):
        doc = json.loads(json.dumps(BALL3_CFG))
        mutate(doc)
        with pytest.raises(InputError, match=needle):
            parse_config(doc)

    def test_body_dimension_cross_check(self):
        doc = dict(BALL3_CFG, body={"type": "ellipsoid", "A": [[1, 0], [0, 1]]})
        with pytest.raises(InputError):
            parse_config(doc)


class TestExitCodes:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        code, _ = run(tmp_path, "analyze", dict(BALL3_CFG, k="x"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unreadable_file_is_exit_2(self, tmp_path):
        code = main(["analyze", "--config", str(tmp_path / "missing.json")])
        assert code == 2

    def test_invalid_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", "--config", str(bad)]) == 2

    def test_retired_project_level_key_is_exit_2(self, tmp_path, capsys):
        for doc, key in ((dict(BALL3_CFG, project_level=False), "project_level"),
                         (dict(BALL3_CFG, tolerances={"project_level": 1.0}), "project_level"),
                         (dict(BALL3_CFG, tolerances={"method": "RK45"}), "method"),
                         *((dict(BALL3_CFG, tolerances={key: 1e-3}), key)
                           for key in ("parallel_tol", "parallel_warn_band", "capture_radius",
                                       "return_residual_tol", "kernel_rel_tol", "t_max"))):
            code, _ = run(tmp_path, "integrate", doc)
            assert code == 2
            err = capsys.readouterr().err
            assert "config" in err and key in err

    def test_p_whose_conjugate_rounds_to_one_is_exit_2(self, tmp_path, capsys):
        # q = p / (p - 1) rounds to 1 at p = 1e17: every command rejects the
        # body as a config error instead of dividing by q - 1 or running on it.
        doc = dict(BALL3_CFG, body={"type": "lp_ball", "p": 1e17}, gradcheck={"points": 20})
        for command in ("analyze", "integrate", "classify", "gradcheck"):
            code, out = run(tmp_path, command, doc)
            assert code == 2, command
            err = capsys.readouterr().err
            assert "config" in err and "body" in err, command
            assert not out.exists(), command

    def test_classify_rejects_other_ranks_with_exit_2(self, tmp_path, capsys):
        doc = {
            "k": 4,
            "body": {"type": "lp_ball", "p": 2.0},
            "M": {"1,2": 1.0, "3,4": 1.0},
            "h0": [1.0, 0.0, 0.0, 0.0],
        }
        # a sweep is rejected before its batched search starts
        for cfg in (doc, dict(doc, sweep=[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])):
            code, _ = run(tmp_path, "classify", cfg)
            assert code == 2
            assert "k = 3" in capsys.readouterr().err

    def test_drift_abort_is_exit_3_with_wellformed_csv(self, tmp_path):
        doc = dict(BALL3_CFG,
                   body={"type": "lp_ball", "p": 4.0},
                   t1=20.0,
                   tolerances={"rtol": 1e-6, "atol": 1e-9, "max_drift": 1e-12})
        code, out = run(tmp_path, "integrate", doc)
        assert code == 3
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted"] is True
        assert summary["abort_time"] is not None
        assert summary["rows_written"] == len(lines) - 1


    @pytest.mark.parametrize("scale", [1e150, 1e300])
    @pytest.mark.parametrize("body", [
        {"type": "ellipsoid", "A": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]},
        {"type": "translated_ellipsoid", "A": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
         "c": [0.1, 0.2, 0.0]}], ids=["ellipsoid", "translated"])
    def test_huge_matrix_is_a_numerical_failure(self, tmp_path, capsys, scale, body):
        # The error norm of -M grad H overflows, so the initial step is zero.
        doc = dict(BALL3_CFG, body=body, M={"1,2": scale}, h0=[1.0, 0.2, -0.4])
        code, out = run(tmp_path, "integrate", doc)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestAnalyze:
    def test_zero_matrix_leaf(self, tmp_path):
        doc = dict(BALL3_CFG, M={}, h0=[1.0, 2.0, 3.0])
        code, out = run(tmp_path, "analyze", doc)
        assert code == 0
        report = json.loads((out / "analyze.json").read_text())
        assert report["leaf"] == "zero_dim"
        assert report["kernel_dim"] == 3
        assert report["point"] == [1.0, 2.0, 3.0]

    def test_single_generator_leaf(self, tmp_path):
        # the kernel report agrees with the leaf at every scale of M
        for scale in (1.0, 1e-15, 1e-200):
            code, out = run(tmp_path, "analyze", dict(BALL3_CFG, M={"1,2": scale}))
            assert code == 0
            report = json.loads((out / "analyze.json").read_text())
            assert report["leaf"] == "two_dim"
            assert report["casimir"] == [0.0, 0.0, 1.0]
            assert report["kernel_dim"] == 1
            assert report["dim_l"] == 6
            assert report["warnings"] == []

    def test_two_frequency_k4(self, tmp_path):
        doc = {
            "k": 4,
            "body": {"type": "ellipsoid",
                     "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
            "M": {"1,2": 1.0, "3,4": 1.4142135623730951},
            "h0": [0.5, 0.5, 0.5, 0.5],
        }
        code, out = run(tmp_path, "analyze", doc)
        assert code == 0
        report = json.loads((out / "analyze.json").read_text())
        assert report["kernel_dim"] == 0
        assert report["leaf"] == "unclassified"
        # equal blocks are far from singular, however small they are
        code, out = run(tmp_path, "analyze", dict(doc, M={"1,2": 1e-7, "3,4": 1e-7}))
        assert code == 0
        report = json.loads((out / "analyze.json").read_text())
        assert report["kernel_dim"] == 0
        assert report["warnings"] == []


class TestIntegrateCommand:
    def test_heisenberg_loop(self, tmp_path):
        doc = {
            "k": 2,
            "body": {"type": "ellipsoid", "A": [[1, 0], [0, 1]]},
            "M": {"1,2": 1.0},
            "h0": [1.0, 0.0],
            "t1": 6.283185307179586,
            "samples": 1000,
        }
        code, out = run(tmp_path, "integrate", doc)
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,h_1,h_2,u_1,u_2,x_1,x_2,x_12,H_drift"
        assert len(lines) == 1002  # header + samples + 1 nodes
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_level_drift"] <= 1e-8
        assert abs(summary["endpoint"]["y"][0] - np.pi) <= 1e-8

    def test_zero_matrix_controls_constant(self, tmp_path):
        doc = dict(BALL3_CFG, M={}, samples=20)
        code, out = run(tmp_path, "integrate", doc)
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        u_cols = table[:, 4:7]
        assert (u_cols == u_cols[0]).all()

    def test_casimir_drift_columns(self, tmp_path):
        code, out = run(tmp_path, "integrate", BALL3_CFG)
        assert code == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
        assert header[-1] == "I1_drift"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_casimir_drift"][0] <= 1e-8

    def test_scaled_matrix_only_rescales_time(self, tmp_path):
        # M -> lambda M with t1 -> t1 / lambda samples the same orbit at the
        # same nodes, and only the one Casimir of rank-2 M is monitored.
        def h_columns(scale):
            doc = {
                "k": 3,
                "body": {"type": "lp_ball", "p": 3.0},
                "M": {"1,2": scale, "2,3": 0.5 * scale},
                "h0": [1.0, 0.2, -0.4],
                "t1": 10.0 / scale,
                "samples": 200,
            }
            code, out = run(tmp_path, "integrate", doc)
            assert code == 0, scale
            lines = (out / "trajectory.csv").read_text().splitlines()
            header = lines[0].split(",")
            assert [name for name in header if name.endswith("_drift")] == ["H_drift", "I1_drift"]
            table = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
            return table[:, 1:4]

        reference = h_columns(1.0)
        for scale in (1e-15, 1e-8, 1e15):
            np.testing.assert_allclose(h_columns(scale), reference, rtol=0, atol=1e-9)


    def test_summary_reports_the_period_and_the_lift_residual(self, tmp_path):
        # The tiled k = 3 run and the k = 4 run over the whole horizon both
        # keep the lift's momentum identities.
        code, out = run(tmp_path, "integrate", dict(BALL3_CFG, t1=20.0))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["period"] == pytest.approx(2.0 * np.pi, rel=1e-13)
        assert 0.0 < summary["max_lift_residual"] <= 1e-10
        doc = {"k": 4, "body": {"type": "lp_ball", "p": 3.0},
               "M": {"1,2": 1.0, "3,4": 0.7, "1,3": 0.2}, "h0": [1.0, 0.2, -0.4, 0.3],
               "t1": 10.0, "samples": 200}
        code, out = run(tmp_path, "integrate", doc)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["period"] is None
        assert 0.0 < summary["max_lift_residual"] <= 1e-9

    def test_loose_rtol_rank_two_run_is_not_tiled(self, tmp_path, monkeypatch):
        # At rtol 1e-4 the first return misses h0 by far more than 1e-8, so
        # the run is solved again without the return event: it aborts where
        # a solve without the event does.
        from carnot_extremals import dop853, lift

        doc = dict(BALL3_CFG, body={"type": "lp_ball", "p": 2.5},
                   M={"1,2": 0.8, "1,3": -0.3, "2,3": 0.5}, h0=[1.0, 0.2, -0.4], t1=10.0,
                   samples=500, tolerances={"rtol": 1e-4})
        events = []

        def spy(*args, **kwargs):
            events.append(kwargs.get("events") is not None)
            return dop853._solve(*args, **kwargs)

        monkeypatch.setattr(lift, "_solve", spy)
        code, out = run(tmp_path, "integrate", doc)
        assert code == 3 and events == [True, False]
        tiled = json.loads((out / "summary.json").read_text())
        assert tiled["period"] is None and tiled["aborted"] is True
        monkeypatch.setattr(lift, "_solve",
                            lambda *args, events=None, dense=False: dop853._solve(*args))
        code, out = run(tmp_path, "integrate", doc)
        assert code == 3
        assert json.loads((out / "summary.json").read_text())["abort_time"] == tiled["abort_time"]

    def test_solve_steps_do_not_grow_with_the_periods(self, tmp_path):
        # One period is solved whether t1 spans 10 or 1000 of them.
        import os
        import subprocess
        import sys

        accepted = []
        for periods in (10, 1000):
            cfg = write_cfg(tmp_path, dict(BALL3_CFG, t1=periods * 2.0 * np.pi, samples=500))
            proc = subprocess.run(
                [sys.executable, "-m", "carnot_extremals", "integrate",
                 "--config", cfg, "--out", str(tmp_path / "out")],
                capture_output=True, text=True, env=dict(os.environ, CARNOT_LOG="debug"),
            )
            assert proc.returncode == 0
            assert json.loads(proc.stdout)["period"] is not None
            lines = [json.loads(line[line.index("{"):]) for line in proc.stderr.splitlines()
                     if '"event": "solve"' in line]
            assert [line["status"] for line in lines] == [1]
            accepted.append(lines[0]["accepted"])
        assert accepted[0] == accepted[1]


class TestClassifyCommand:
    def test_constant_branch(self, tmp_path):
        doc = dict(BALL3_CFG, h0=[0.0, 0.0, 1.0])
        code, out = run(tmp_path, "classify", doc)
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["class"] == "constant"
        assert report["period"] is None

    def test_periodic_branch(self, tmp_path):
        code, out = run(tmp_path, "classify", BALL3_CFG)
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["class"] == "periodic"
        assert abs(report["period"] - 2.0 * np.pi) <= 1e-9
        assert report["return_residual"] <= 1e-8
        assert report["parallel_test_residual"] > 0.1

    def test_lp_body_generic_start(self, tmp_path):
        doc = dict(BALL3_CFG, body={"type": "lp_ball", "p": 4.0}, h0=[0.8, -0.3, 0.5])
        code, out = run(tmp_path, "classify", doc)
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["class"] == "periodic"
        assert report["return_residual"] <= 1e-8

    def test_sweep_preserves_input_order(self, tmp_path):
        sweep = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.3, -0.5]]
        doc = dict(BALL3_CFG, body={"type": "lp_ball", "p": 4.0}, sweep=sweep)
        code, out = run(tmp_path, "classify", doc)
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        kinds = [r["class"] for r in report["results"]]
        assert kinds == ["constant", "periodic", "periodic", "periodic"]
        np.testing.assert_array_equal(report["results"][0]["h0"], [0.0, 0.0, 1.0])
        # A sweep steps through one batched search and a single h0 through
        # detect_period, so each entry matches its single-h0 run up to rounding.
        for n, (h0, result) in enumerate(zip(sweep, report["results"])):
            single_doc = dict(doc, h0=h0)
            del single_doc["sweep"]
            code, single_out = run(tmp_path, "classify", single_doc, name=f"single{n}.json")
            assert code == 0
            single = json.loads((single_out / "classify.json").read_text())
            assert result["warnings"] == single["warnings"]
            assert result.get("reason") == single.get("reason")
            assert result["parallel_test_residual"] == single["parallel_test_residual"]
            if single["period"] is None:
                assert result["period"] is None
                continue
            assert abs(result["period"] - single["period"]) <= 1e-10 * single["period"]
            assert result["return_residual"] <= 1e-8


# p = 1.0005 (q = 2001): off the level set the lp field must stay finite.
NEAR_ONE_CFG = dict(BALL3_CFG, body={"type": "lp_ball", "p": 1.0005, "r": 1.9},
                    M={"1,2": 1.0, "2,3": 0.4}, h0=[1.0, 0.3, -0.2])


class TestLpNearOne:
    def test_single_classify(self, tmp_path):
        code, out = run(tmp_path, "classify", NEAR_ONE_CFG)
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["class"] == "periodic" and report["return_residual"] <= 1e-8

    def test_sweep_classify(self, tmp_path):
        sweep = [[1.0, 0.3, -0.2], [0.2, 1.0, 0.5]]
        code, out = run(tmp_path, "classify", dict(NEAR_ONE_CFG, sweep=sweep))
        assert code == 0
        results = json.loads((out / "classify.json").read_text())["results"]
        assert [r["class"] for r in results] == ["periodic", "periodic"]
        config = parse_config(NEAR_ONE_CFG)
        single = classify_k3(sweep[0], config.skew, config.body)
        assert abs(results[0]["period"] - single.period) <= 1e-10 * single.period
        assert max(r["return_residual"] for r in results) <= 1e-8

    def test_integrate(self, tmp_path):
        code, out = run(tmp_path, "integrate", NEAR_ONE_CFG)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rows_written"] == NEAR_ONE_CFG["samples"] + 1
        assert summary["max_level_drift"] <= 1e-8


class TestGradcheckCommand:
    def test_ball_body_passes_tightly(self, tmp_path):
        doc = dict(BALL3_CFG, gradcheck={"points": 200})
        code, out = run(tmp_path, "gradcheck", doc)
        assert code == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["pass"] is True
        # roundoff floor of the central-difference oracle at step 1e-6 with
        # norms down to 0.1; the analytic gradient itself is exact
        assert report["max_rel_error"] <= 2e-9

    def test_lp_body_passes(self, tmp_path):
        doc = dict(BALL3_CFG, body={"type": "lp_ball", "p": 1.5}, gradcheck={"points": 200})
        code, out = run(tmp_path, "gradcheck", doc)
        assert code == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["pass"] is True
        assert report["max_rel_error"] <= 1e-6

    def test_invalid_body_surfaces_validation(self, tmp_path, capsys):
        doc = dict(BALL3_CFG, body={"type": "lp_ball", "p": 1.0})
        code, _ = run(tmp_path, "gradcheck", doc)
        assert code == 2
        err = capsys.readouterr().err
        assert "body" in err and "p" in err


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        for command, name in [("analyze", "analyze.json"), ("classify", "classify.json"),
                              ("gradcheck", "gradcheck.json")]:
            doc = dict(BALL3_CFG, gradcheck={"points": 50})
            _, out1 = run(tmp_path, command, doc, name="a.json")
            first = (out1 / name).read_bytes()
            _, out2 = run(tmp_path, command, doc, name="b.json")
            assert first == (out2 / name).read_bytes()

    def test_integrate_deterministic_modulo_wall_time(self, tmp_path):
        def strip(path):
            return [line for line in path.read_text().splitlines()
                    if "wall_time_s" not in line]

        _, out = run(tmp_path, "integrate", BALL3_CFG)
        first_summary = strip(out / "summary.json")
        first_csv = (out / "trajectory.csv").read_bytes()
        (out / "summary.json").unlink()
        code = main(["integrate", "--config", write_cfg(tmp_path, BALL3_CFG),
                     "--out", str(out)])
        assert code == 0
        assert strip(out / "summary.json") == first_summary
        assert (out / "trajectory.csv").read_bytes() == first_csv

    def test_seed_is_echoed(self, tmp_path):
        doc = dict(BALL3_CFG, seed=7, gradcheck={"points": 20})
        _, out = run(tmp_path, "gradcheck", doc)
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["seed"] == 7


def classify_debug_record(tmp_path, doc) -> dict:
    """The one JSON debug line of `classify` on doc, run as a module under CARNOT_LOG=debug."""
    import os
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "carnot_extremals", "classify",
         "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, CARNOT_LOG="debug"),
    )
    assert proc.returncode == 0
    lines = [line for line in proc.stderr.splitlines() if "{" in line]
    assert len(lines) == 1
    return json.loads(lines[0][lines[0].index("{"):])


class TestEntryPoints:
    def test_log_env_levels_do_not_change_outcomes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARNOT_LOG", "debug")
        code, out = run(tmp_path, "analyze", BALL3_CFG)
        assert code == 0
        monkeypatch.setenv("CARNOT_LOG", "info")
        assert main(["analyze", "--config", write_cfg(tmp_path, BALL3_CFG),
                     "--out", str(out)]) == 0

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        cfg = write_cfg(tmp_path, BALL3_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "carnot_extremals", "analyze",
             "--config", cfg, "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["leaf"] == "two_dim"

    def test_debug_log_has_one_json_line_per_batched_sweep(self, tmp_path):
        # An lp ball: ellipsoidal sweeps are in closed form (below).
        record = classify_debug_record(tmp_path, dict(
            BALL3_CFG, body={"type": "lp_ball", "p": 2.0, "r": 1.0},
            sweep=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.5]]))
        assert record["covectors"] == 2 and record["returns"] == 2
        assert record["arcs"] > record["one_arc"] == 0
        assert min(record["chord_newton"], record["ray_newton"], record["root_newton"]) >= 1
        # 12 right-hand sides per step try, 5 per arc for its initial step
        # and the dense output of its crossing step
        tries = record["accepted_steps"] + record["rejected_steps"]
        assert record["rhs_rows"] == 12 * tries + 5 * record["arcs"]

    def test_debug_log_has_one_json_line_per_closed_form_sweep(self, tmp_path):
        record = classify_debug_record(
            tmp_path, dict(BALL3_CFG, sweep=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.5]]))
        assert set(record) == {"event", "covectors", "omega", "period", "returns"}
        assert record["event"] == "closed_form_return"
        assert record["covectors"] == record["returns"] == 2
        assert record["omega"] == 1.0 and record["period"] == 2.0 * np.pi

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        from carnot_extremals import cli

        assert run(tmp_path, "analyze", BALL3_CFG)[0] == 0
        parser = cli._build_parser()
        with pytest.raises(SystemExit):
            main(["analyze"])  # usage error: --config is missing
        assert "--config" in capsys.readouterr().err
        assert run(tmp_path, "gradcheck", dict(BALL3_CFG, gradcheck={"points": 5}))[0] == 0
        assert cli._build_parser() is parser
