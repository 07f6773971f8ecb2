"""Tests for the command-line interface."""
import errno
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracctrl import _csv, cli, invest
from fracctrl.cli import main


class TestNoiseCheck:
    def test_identity_report_and_outputs(self, tmp_path, capsys):
        code = main(["noise-check", "--H", "0.5", "--N", "32", "--out", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "noise_report.json").read_text())
        assert report["passed"] is True
        # H = 1/2 has independent increments: every prediction weight is zero.
        assert report["max_prediction_weight"] == 0.0
        assert report["max_factorization_error"] <= 1e-10
        assert (tmp_path / "loadings.csv").exists()

    @pytest.mark.parametrize("hurst", ["0.25", "0.9"])
    def test_rough_and_smooth_cases_pass(self, hurst):
        assert main(["noise-check", "--H", hurst, "--N", "64"]) == 0

    def test_bad_hurst_exits_2(self, capsys):
        assert main(["noise-check", "--H", "1.5", "--N", "8"]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestBsdeConverge:
    def test_constant_model_decays(self, tmp_path, capsys):
        code = main(["bsde-converge", "--N-list", "4,8,16,32", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "convergence.json").read_text())
        norms = [row["norm_y"] for row in data["rows"]]
        assert all(b < a for a, b in zip(norms, norms[1:])), f"norms not decreasing: {norms}"
        assert data["passed"] is True
        table = capsys.readouterr().out
        assert "N_low" in table and "PASS" in table

    def test_invest_adjoint_model(self, tmp_path):
        code = main(
            [
                "bsde-converge", "--model", "invest-adjoint",
                "--lambda", "0.2", "--gamma-exp", "1.2",
                "--N-list", "20,40,80", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        data = json.loads((tmp_path / "convergence.json").read_text())
        assert data["rows"][-1]["norm_y"] < data["rows"][0]["norm_y"]

    def test_invest_adjoint_overflow_names_the_step(self, capsys):
        argv = ["bsde-converge", "--model", "invest-adjoint", "--lambda", "1.0", "--N-list", "10,2000"]
        assert main(argv) == 1
        assert "adjoint chain k overflows at step 1752" in capsys.readouterr().err

    def test_invest_adjoint_defaults_pass(self, tmp_path, capsys):
        # Levels 4 and 8 lie below the first consumption date, 10: both
        # truncations solve to exactly zero, and that leading row is no growth.
        assert main(["bsde-converge", "--model", "invest-adjoint", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "convergence.json").read_text())
        assert data["rows"][0]["norm_y"] == 0.0 and data["passed"] is True
        assert "PASS (differences shrink)" in capsys.readouterr().out

    def test_zero_rows_between_levels_are_skipped(self, tmp_path, capsys):
        # Levels 12, 14 and 16 see the same consumption dates (10 only), so
        # their rows are exactly zero; they are no growth after the 8 -> 12 row.
        argv = ["bsde-converge", "--model", "invest-adjoint", "--N-list", "4,8,12,14,16,40"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "convergence.json").read_text())["rows"]
        assert [row["norm_y"] == 0.0 for row in rows] == [True, False, True, True, False]
        assert "PASS (differences shrink)" in capsys.readouterr().out

    def test_growth_across_zero_rows_fails(self, capsys):
        # Under a weak discount the nonzero rows grow (8 -> 12 about 11.9,
        # 16 -> 40 about 77); the zero rows between them do not hide that.
        argv = ["bsde-converge", "--model", "invest-adjoint", "--lambda", "0.01",
                "--gamma-exp", "1.01", "--N-list", "4,8,12,14,16,40"]
        assert main(argv) == 1
        assert "FAIL (differences do not shrink)" in capsys.readouterr().out

    def test_all_zero_table_passes(self):
        argv = ["bsde-converge", "--model", "invest-adjoint", "--N-list", "2,4,8"]
        assert main(argv) == 0

    def test_growing_differences_fail(self, capsys):
        assert main(["bsde-converge", "--lambda", "0.01", "--gamma-exp", "1.01"]) == 1
        assert "FAIL (differences do not shrink)" in capsys.readouterr().out

    @pytest.mark.parametrize("theta", ["nan", "inf", "0.5"])
    def test_bad_theta_exits_2(self, theta, capsys):
        assert main(["bsde-converge", "--theta", theta, "--N-list", "4,8"]) == 2
        assert "theta" in capsys.readouterr().err

    def test_theta_ladder_accepted(self):
        assert main(["bsde-converge", "--theta", "2.0", "--N-list", "4,8,16"]) == 0

    @pytest.mark.parametrize("n_list", ["x", "2.5,4", "4,"])
    def test_malformed_levels_exit_2(self, n_list, capsys):
        assert main(["bsde-converge", "--N-list", n_list]) == 2
        assert "--N-list must be comma-separated integers" in capsys.readouterr().err

    def test_single_level_exits_2(self, capsys):
        assert main(["bsde-converge", "--N-list", "8"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_repeated_level_exits_2(self, capsys):
        assert main(["bsde-converge", "--N-list", "4,4,8"]) == 2
        captured = capsys.readouterr()
        assert "distinct" in captured.err
        assert "FAIL" not in captured.out


class TestSmpCheck:
    def test_report_passes_and_is_written(self, tmp_path):
        code = main(
            [
                "smp-check", "--N", "12", "--paths", "64", "--seed", "3",
                "--trials", "10", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "smp_report.json").read_text())
        assert report["passed"] is True
        assert report["max_q"] == 0.0
        assert report["k_error"] < 1e-12
        assert report["check"]["n_violations"] == 0
        assert report["config"]["horizon"] == 12

    def test_same_seed_gives_same_report(self, tmp_path):
        argv = ["smp-check", "--N", "8", "--paths", "32", "--trials", "8", "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b")]) == 0
        a = json.loads((tmp_path / "a" / "smp_report.json").read_text())
        b = json.loads((tmp_path / "b" / "smp_report.json").read_text())
        assert a == b
        assert a["check"]["min_bracket_product"] <= a["check"]["min_trial_product"]

    def test_summary_reports_the_certificate(self, capsys):
        assert main(["smp-check", "--N", "8", "--paths", "16"]) == 0
        out = capsys.readouterr().out
        assert "box certificate         = 0 violations, min product = " in out
        assert "trial witness" not in out, "trials are off by default"

    def test_trials_add_the_witness_line(self, capsys):
        assert main(["smp-check", "--N", "8", "--paths", "16", "--trials", "3"]) == 0
        assert "trial witness           = 3 trials, min product = " in capsys.readouterr().out


class TestInvest:
    def test_runs_are_byte_identical(self, tmp_path):
        argv = ["invest", "--N", "10", "--paths", "16", "--seed", "5", "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b")]) == 0
        for name in ("wealth.csv", "adjoint.csv", "config.resolved.json", "plot_wealth.py"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_trials_is_not_an_invest_flag(self, capsys):
        """invest reports no witness, so it takes no --trials."""
        assert _exit_code(["invest", "--N", "4", "--paths", "4", "--trials", "1"]) == 2
        assert "unrecognized arguments: --trials 1" in capsys.readouterr().err

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"horizon": 8, "paths": 16, "consumption_period": 3}))
        out = tmp_path / "run"
        code = main(
            ["invest", "--config", str(cfg_file), "--paths", "32", "--out", str(out)]
        )
        assert code == 0
        snap = json.loads((out / "config.resolved.json").read_text())
        assert snap["horizon"] == 8, "file value must survive"
        assert snap["paths"] == 32, "flag must override the file"
        assert snap["consumption_times_resolved"] == [3, 6]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"drift": 0.1}))
        assert main(["invest", "--config", str(cfg_file)]) == 2
        assert "unknown config keys: drift" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text("{not json")
        assert main(["invest", "--config", str(cfg_file)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["invest", "--config", str(tmp_path / "absent.json")]) == 2

    def test_negative_seed_exits_2(self, capsys):
        assert main(["invest", "--seed", "-1", "--paths", "4", "--N", "4"]) == 2
        assert "configuration error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_an_internal_value_error_is_not_a_configuration_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(ValueError, match="could not be broadcast"):
            main(["invest", "--paths", "4", "--N", "4"])
        assert "configuration error" not in capsys.readouterr().err

    def test_invalid_parameter_exits_2(self, capsys):
        assert main(["invest", "--H", "1.5", "--paths", "4", "--N", "4"]) == 2
        assert "hurst" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, needle",
        [
            ({"horizon": 2.5}, "horizon must be an integer"),
            ({"consumption_times": 5}, "consumption_times must be a sequence"),
            ({"consumption_times": [2, 4.5]}, "consumption time must be an integer"),
            ({"sigma": "high"}, "sigma must be a finite number"),
        ],
    )
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, config, needle):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        assert main(["invest", "--config", str(cfg_file)]) == 2
        assert needle in capsys.readouterr().err

    def test_non_finite_flag_exits_2(self, capsys):
        assert main(["invest", "--lambda", "nan", "--paths", "4", "--N", "4"]) == 2
        assert "lam must be a finite number" in capsys.readouterr().err

    def test_summary_lines(self, capsys):
        code = main(["invest", "--N", "8", "--paths", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminal wealth mean" in out
        assert "first-order check       = PASS" in out

    @pytest.mark.parametrize(
        "name, good_writes, left",
        [
            ("wealth.csv", 2, []),  # its header and first chunk
            ("plot_wealth.py", 0, ["adjoint.csv", "config.resolved.json", "wealth.csv"]),
        ],
        ids=["wealth.csv", "plot_wealth.py"],
    )
    def test_a_full_disk_while_writing_exits_2(
        self, name, good_writes, left, tmp_path, capsys, monkeypatch
    ):
        class FullDisk:
            """A new file whose writes fail as on a full disk once the file
            ``name`` has had ``good_writes`` writes."""

            def __init__(self, path, mode):
                self.file = open(path, mode)
                self.failing = os.path.basename(path).startswith(f".{name}.")
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.failing and self.writes > good_writes:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.file.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

        monkeypatch.setattr(_csv, "open", FullDisk, raising=False)
        monkeypatch.setattr(_csv, "CHUNK_ROWS", 8)  # wealth.csv: 30 rows, four chunks
        assert main(["invest", "--N", "4", "--paths", "6", "--out", str(tmp_path)]) == 2
        assert f"file error: [Errno {errno.ENOSPC}]" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == left


# Bad values for the flags of invest and smp-check, as the shell passes them.
NOT_A_FLOAT = st.sampled_from(["", "nan", "NaN", "inf", "-inf", "1e400", "-1e400", "x", "0.5.1"])
NEGATIVE_FLOAT = st.floats(max_value=-5e-324, allow_infinity=True).map(repr)
NOT_AN_INT = st.one_of(NOT_A_FLOAT, st.floats().map(repr), st.sampled_from(["1e3", "2.5", "0x10"]))
NEGATIVE_INT = st.integers(max_value=-1).map(str)
BAD_FLAGS = {
    "--H": st.one_of(NOT_A_FLOAT, NEGATIVE_FLOAT, st.floats(min_value=1.0).map(repr)),
    "--lambda": st.one_of(NOT_A_FLOAT, NEGATIVE_FLOAT),
    "--gamma-exp": st.one_of(NOT_A_FLOAT, NEGATIVE_FLOAT),
    "--tolerance": st.one_of(NOT_A_FLOAT, NEGATIVE_FLOAT),
    "--N": st.one_of(NOT_AN_INT, NEGATIVE_INT, st.just("0")),
    "--paths": st.one_of(NOT_AN_INT, NEGATIVE_INT, st.just("0")),
    "--seed": st.one_of(NOT_AN_INT, NEGATIVE_INT),
    "--trials": st.one_of(NOT_AN_INT, NEGATIVE_INT),
    "--config": st.just(""),
    "--out": st.just(""),
}
INVEST_FLAGS = {flag: value for flag, value in BAD_FLAGS.items() if flag != "--trials"}
NOISE_CHECK_FLAGS = {flag: BAD_FLAGS[flag] for flag in ("--H", "--N", "--tolerance", "--out")}
NOT_ABOVE_ONE = st.floats(max_value=1.0).map(repr)
BSDE_CONVERGE_FLAGS = {
    "--model": st.sampled_from(["", "x", "Constant"]),
    "--driver-constant": NOT_A_FLOAT,
    "--lambda": st.one_of(NOT_A_FLOAT, NEGATIVE_FLOAT, st.just("0")),
    "--gamma-exp": st.one_of(NOT_A_FLOAT, NOT_ABOVE_ONE),
    "--theta": st.one_of(NOT_A_FLOAT, NOT_ABOVE_ONE),
    "--N-list": st.sampled_from(["", "x", ",", "2", "2,2", "0,4", "-1,4", "2.5,4", "4,", "1e3,4"]),
    "--out": st.just(""),
}
# Each command's small valid run, which the bad values override, and its flags.
FUZZED_COMMANDS = {
    "invest": (["--paths", "3", "--N", "2"], INVEST_FLAGS),
    "smp-check": (["--paths", "3", "--N", "2"], BAD_FLAGS),
    "noise-check": (["--N", "2"], NOISE_CHECK_FLAGS),
    "bsde-converge": (["--N-list", "2,4"], BSDE_CONVERGE_FLAGS),
}


def _bad_values(command):
    flags = FUZZED_COMMANDS[command][1]
    return st.sets(st.sampled_from(sorted(flags)), min_size=1, max_size=3).flatmap(
        lambda chosen: st.fixed_dictionaries({flag: flags[flag] for flag in sorted(chosen)})
    )


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a value it cannot convert
        return exc.code


@pytest.fixture
def no_large_arrays(monkeypatch):
    """Fail, before anything is allocated, a command that goes on to build
    arrays for more than 10**6 steps or paths.  The adjoint tables are
    guarded where both callers read them: ``bsde-converge`` through ``cli``,
    ``invest`` and ``smp-check`` through ``run_experiment``'s ``invest``."""

    def guarded(module, name, sizes):
        build = getattr(module, name)

        def checked(*args, **kwargs):
            if max(sizes(*args, **kwargs)) > 10**6:
                pytest.fail(f"{module.__name__}.{name} was reached with sizes {sizes(*args, **kwargs)}")
            return build(*args, **kwargs)

        monkeypatch.setattr(module, name, checked)

    guarded(cli, "build_innovation_system", lambda hurst, horizon: [horizon])
    guarded(cli, "run_experiment", lambda config, **kwargs: [config.horizon, config.paths])
    guarded(cli, "adjoint_tables", lambda config, truncation: [truncation])
    guarded(invest, "adjoint_tables", lambda config, truncation: [truncation])
    guarded(cli, "cauchy_diagnostic", lambda driver, state, sys, n_list, params: n_list)


class TestFuzzedFlags:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(sorted(FUZZED_COMMANDS)).flatmap(
            lambda command: st.tuples(st.just(command), _bad_values(command))
        )
    )
    def test_bad_flag_values_only_exit_2(self, drawn):
        """The last of repeated flags wins, so each bad value overrides a small valid run."""
        command, bad = drawn
        argv = [command, *FUZZED_COMMANDS[command][0]] + [f"{flag}={value}" for flag, value in bad.items()]
        assert _exit_code(argv) == 2, argv

    @pytest.mark.parametrize(
        "flag, needle, command",
        [
            (flag, needle, command)
            for flag, needle in [
                ("--tolerance=nan", "tolerance must be a finite number"),
                ("--tolerance=-1", "tolerance must be >= 0"),
                ("--out=", "--out: must name a directory"),
            ]
            for command in ("invest", "smp-check", "noise-check")
        ]
        + [
            ("--driver-constant=nan", "driver_constant must be a finite number", "bsde-converge"),
            ("--driver-constant=inf", "driver_constant must be a finite number", "bsde-converge"),
            ("--out=", "--out: must name a directory", "bsde-converge"),
        ]
        + [
            ("--N=1000000000", "--N 1000000000 with --paths 3 needs at least", "invest"),
            ("--N=1000000000", "--N 1000000000 with --paths 3 needs at least", "smp-check"),
            ("--paths=10000000000000", "--N 2 with --paths 10000000000000 needs", "invest"),
            ("--N=1000000000", "--N 1000000000 needs at least", "noise-check"),
            ("--N-list=2,100000000000", "--N-list 2,100000000000 needs at least", "bsde-converge"),
        ]
        + [
            # A consumption date far past the horizon: the adjoint tables
            # run to the truncation past it.
            ("--config={consumption}", "adjoint truncation 1000000000020, --N 2 with --paths 3 needs", command)
            for command in ("invest", "smp-check")
        ],
    )
    def test_flags_that_once_escaped_exit_2(
        self, command, flag, needle, tmp_path, monkeypatch, capsys, no_large_arrays
    ):
        consumption = tmp_path / "consumption.json"
        consumption.write_text(json.dumps({"consumption_times": [10**12]}))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert _exit_code([command, *FUZZED_COMMANDS[command][0], flag.format(consumption=consumption)]) == 2
        assert os.listdir(work) == []
        assert needle in capsys.readouterr().err

    def test_invest_reads_its_tolerance(self, monkeypatch):
        seen = []
        run_experiment = cli.run_experiment

        def keep(*args, **kwargs):
            seen.append(kwargs["tolerance"])
            return run_experiment(*args, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", keep)
        assert main(["invest", "--paths", "3", "--N", "2", "--tolerance", "0.25"]) == 0
        assert seen == [0.25]


class TestModuleInvocation:
    def test_python_dash_m_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracctrl.cli", "noise-check", "--H", "0.5", "--N", "8"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout
