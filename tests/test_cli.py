import gc
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from jmgt_lab import (
    BoundaryKind,
    ConfigFileError,
    NonFiniteNormError,
    SolverConfig,
    SingularStepMatrixError,
    build_basis,
    cli,
    constant_field,
    nonlinear,
    solve_smgt_linear,
    solve_westervelt_linearized,
)
from jmgt_lab.cli import main, mms_study, limit_study, run
from jmgt_lab.config import parse_config, parse_config_text
from helpers import AMPLITUDE_FOUR_STUDY

BASE_CONFIG = """\
[model]
c2 = 1.0
delta = 1.0
tau = 0.1
k = 0.4
beta = 0.0

[signal]
amplitude = 0.2
frequency = 2.0
onset_power = 5
decay_rate = 1.0

[discretization]
dt = 0.02
t_final = 0.5
n_modes = 6

[experiment]
variant = full
bc = neumann
"""


def config_with(**overrides):
    lines = []
    for line in BASE_CONFIG.splitlines():
        key = line.split("=")[0].strip() if "=" in line else None
        if key in overrides:
            lines.append(f"{key} = {overrides.pop(key)}")
        else:
            lines.append(line)
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_minimal_valid_file_echoes_values(self):
        config = parse_config_text(BASE_CONFIG)
        assert config.params.c2 == 1.0
        assert config.params.tau == 0.1
        assert config.signal.amplitude == 0.2
        assert config.solver.dt == 0.02
        assert config.solver.n_modes == 6
        assert config.solver.quad_points == 24  # default 4 * n_modes
        # omitted keys take the SolverConfig defaults
        defaults = SolverConfig(dt=0.02, t_final=0.5, n_modes=6)
        assert config.solver.picard_tol == defaults.picard_tol
        assert config.solver.picard_max == defaults.picard_max
        assert config.solver.eval_grid == defaults.eval_grid
        assert config.length == math.pi
        assert config.bc is BoundaryKind.PURE_NEUMANN
        assert config.warnings == []

    def test_negative_tau_names_key_and_line(self):
        text = config_with(tau=-1)
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(text)
        (message,) = info.value.errors
        assert "tau" in message
        assert "line 4" in message

    def test_duplicate_key_last_wins_with_warning(self):
        text = BASE_CONFIG.replace("c2 = 1.0", "c2 = 1.0\nc2 = 2.5")
        config = parse_config_text(text)
        assert config.params.c2 == 2.5
        assert len(config.warnings) == 1
        assert "duplicate" in config.warnings[0]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(speed_of_light=3.0))
        assert any("unknown key" in message for message in info.value.errors)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(BASE_CONFIG + "\n[plotting]\ncolor = red\n")
        assert any("unknown section" in message for message in info.value.errors)

    def test_missing_required_key_reported(self):
        text = "\n".join(
            line for line in BASE_CONFIG.splitlines() if not line.startswith("dt")
        )
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(text)
        assert any("missing required key 'dt'" in message for message in info.value.errors)

    def test_low_onset_power_rejected(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(onset_power=3))
        assert any("onset_power" in message for message in info.value.errors)

    def test_type_mismatch_reported(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(dt="fast"))
        assert any("invalid value" in message for message in info.value.errors)

    def test_multiple_errors_collected(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(tau=-1, n_modes=0))
        assert len(info.value.errors) >= 2

    def test_tau_sweep_parsing_and_validation(self):
        config = parse_config_text(config_with(tau_sweep="1e-1, 3e-2, 1e-2"))
        assert config.tau_sweep == (0.1, 0.03, 0.01)
        with pytest.raises(ConfigFileError):
            parse_config_text(config_with(tau_sweep="1e-2, 1e-1"))

    def test_empty_tau_sweep_rejected(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(tau_sweep=""))
        (message,) = info.value.errors
        assert "tau_sweep must list at least one tau" in message

    @pytest.mark.parametrize("key", ["quad_points", "eval_grid"])
    def test_derived_size_key_is_unknown(self, key):
        # both sizes follow from n_modes, so a file cannot set them
        text = BASE_CONFIG.replace("n_modes = 6", f"n_modes = 6\n{key} = 64")
        line = text.splitlines().index(f"{key} = 64") + 1
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(text)
        assert info.value.errors == [f"line {line}: unknown key {key!r} in [discretization]"]

    def test_comments_and_blank_lines_ignored(self):
        text = "# preamble\n" + BASE_CONFIG.replace(
            "c2 = 1.0", "c2 = 1.0  # speed of sound squared"
        )
        config = parse_config_text(text)
        assert config.params.c2 == 1.0

    def test_step_that_does_not_divide_horizon_rejected(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(dt=0.3, t_final=1.0, n_modes=4))
        (message,) = info.value.errors
        assert message.startswith("line 15: dt must divide t_final")

    def test_step_error_reported_with_the_other_errors(self):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(c2=-1, dt=0.3, t_final=1.0))
        assert len(info.value.errors) == 2
        assert info.value.errors[0].startswith("line 2: c2 must be positive")
        assert info.value.errors[1].startswith("line 15: dt must divide t_final")

    def test_every_section_reports_its_errors_with_their_lines(self):
        text = config_with(
            delta=0, beta=-1, decay_rate=-2, n_modes=0, bc="robin", mms_levels=1
        )
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(text)
        prefixes = [message.split(" must")[0] for message in info.value.errors]
        assert sorted(prefixes) == sorted([
            "line 3: delta",
            "line 6: beta",
            "line 12: decay_rate",
            "line 17: n_modes",
            "line 21: bc",
            "line 22: mms_levels",
        ])

    @pytest.mark.parametrize(
        "text, expected",
        [
            (
                BASE_CONFIG.replace("n_modes = 6", "n_modes = 6\nlength = 0.0"),
                ["line 18: length must be positive"],
            ),
            (config_with(tau_sweep="0.1, 0.0"), ["line 22: tau_sweep entries must be positive"]),
            (
                config_with(n_modes=8.5),
                ["line 17: invalid value for 'n_modes': expected an integer, got '8.5'"],
            ),
            (
                BASE_CONFIG.replace("k = 0.4", "k 0.4"),
                [
                    "line 5: expected `key = value`, got 'k 0.4'",
                    "<string>: missing required key 'k' in [model]",
                ],
            ),
        ],
        ids=["zero-length", "zero-tau", "fractional-n-modes", "no-equals-sign"],
    )
    def test_rejected_value_reported_on_its_line(self, text, expected):
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(text)
        assert info.value.errors == expected

    def test_rule_errors_reported_with_the_format_errors(self):
        # [discretization] and [signal] hold a value that does not parse, so they build
        # nothing (t_final = 0.3 with the bad dt adds no error); [model] and the
        # [experiment] rules are still checked in the same pass
        text = config_with(c2=-1, dt="fast", t_final=0.3, onset_power="five", mms_levels=1)
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(text)
        errors = info.value.errors
        assert len(errors) == 4
        assert errors[0].startswith("line 11: invalid value for 'onset_power'")
        assert errors[1].startswith("line 15: invalid value for 'dt'")
        assert errors[2].startswith("line 2: c2 must be positive")
        assert errors[3].startswith("line 22: mms_levels must be at least 2")

    def test_duplicate_key_whose_last_value_fails_builds_nothing(self):
        # the earlier dt = 0.3 does not stand in for the bad one (it would not divide 0.5)
        text = BASE_CONFIG.replace("dt = 0.02", "dt = 0.3\ndt = fast")
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(text)
        (message,) = info.value.errors
        assert message.startswith("line 16: invalid value for 'dt'")

    def test_beta_must_be_zero_without_an_absorbing_end(self):
        # under bc = neumann no run reads beta, so a nonzero one would be ignored
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(beta=0.7))
        assert info.value.errors == [
            "line 6: beta must be 0 under bc = neumann (no absorbing end), got 0.7"
        ]
        assert parse_config_text(config_with(bc="mixed", beta=0.7)).params.beta == 0.7

    def test_beta_rule_waits_for_a_valid_bc_and_beta(self):
        # an invalid bc or a beta that breaks its own rule is reported once, on its own line
        for overrides, prefix in (({"bc": "robin"}, "line 21: bc"), ({"beta": -1}, "line 6: beta")):
            with pytest.raises(ConfigFileError) as info:
                parse_config_text(config_with(**{"beta": 0.7, **overrides}))
            (message,) = info.value.errors
            assert message.startswith(prefix)
            assert "absorbing end" not in message

    @pytest.mark.parametrize("variant", ["relaxed", "westervelt", "bogus"])
    def test_variant_other_than_full_rejected(self, variant):
        # the subcommand picks the model; a variant key that it would ignore is an error
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(variant=variant))
        (message,) = info.value.errors
        assert "variant" in message
        assert "solve-relaxed" in message and "solve-westervelt" in message

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_modes", "1e400"),
            ("tau", "nan"),
            ("k", "inf"),
            ("dt", "-inf"),
            ("tau_sweep", "0.1, nan"),
            ("dt", "fast"),
        ],
    )
    def test_non_finite_value_rejected(self, key, value):
        # a required key whose value does not parse is reported once, not also as missing
        with pytest.raises(ConfigFileError) as info:
            parse_config_text(config_with(**{key: value}))
        (message,) = info.value.errors
        reason = "could not convert" if value == "fast" else "expected a finite number"
        assert f"invalid value for {key!r}: {reason}" in message


class TestRun:
    def write_config_file(self, tmp_path, text):
        path = tmp_path / "experiment.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_zero_amplitude_linear_solve(self, tmp_path):
        config = parse_config_text(config_with(amplitude=0.0))
        code = run("solve-linear", config, out_dir=tmp_path, quiet=True)
        assert code == 0
        body = (tmp_path / "trajectory.csv").read_text()
        lines = body.strip().split("\n")
        assert lines[0].startswith("t,xi_0")
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.abs(values[:, 1:]).max() == 0.0

    @pytest.mark.parametrize("quiet", [False, True])
    def test_progress_and_config_warnings_unless_quiet(self, tmp_path, capsys, quiet):
        config = parse_config_text(BASE_CONFIG.replace("c2 = 1.0", "c2 = 1.0\nc2 = 2.5"))
        assert run("solve-linear", config, out_dir=tmp_path, quiet=quiet) == 0
        captured = capsys.readouterr()
        if quiet:
            assert (captured.out, captured.err) == ("", "")
        else:
            assert captured.err == "warning: line 3: duplicate key 'c2' in [model]; last value wins\n"
            assert captured.out == f"solve-linear: 25 steps, artifacts in {tmp_path}\n"

    def test_degeneracy_failure_exit_code_and_report(self, tmp_path):
        config = parse_config_text(config_with(amplitude=100.0))
        code = run("solve-jmgt", config, out_dir=tmp_path, quiet=True)
        assert code == 2
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "energy.csv").exists()
        report = (tmp_path / "report.csv").read_text()
        assert "NonDegeneracyViolated" in report
        assert "violation_time" in report
        assert "margin" in report

    @pytest.mark.parametrize(
        "subcommand, overrides", [("solve-linear", {"tau": 0.0}), ("limit-study", {})]
    )
    def test_failed_config_check_creates_no_output_directory(
        self, tmp_path, subcommand, overrides
    ):
        config = parse_config_text(config_with(**overrides))
        out = tmp_path / "out"
        assert run(subcommand, config, out_dir=out, quiet=True) == 1
        assert not out.exists()

    def test_solver_failure_creates_the_output_directory_for_its_report(self, tmp_path):
        config = parse_config_text(config_with(amplitude=100.0))
        out = tmp_path / "out"
        assert run("solve-jmgt", config, out_dir=out, quiet=True) == 2
        assert sorted(path.name for path in out.iterdir()) == ["report.csv"]

    def test_successful_jmgt_run_writes_all_artifacts(self, tmp_path):
        config = parse_config_text(BASE_CONFIG)
        code = run("solve-jmgt", config, out_dir=tmp_path, quiet=True)
        assert code == 0
        for name in ("trajectory.csv", "energy.csv", "report.csv"):
            assert (tmp_path / name).exists()
        report = (tmp_path / "report.csv").read_text()
        assert "degeneracy_margin" in report
        assert "TauUniform_ratio" in report

    def test_relaxed_and_westervelt_subcommands(self, tmp_path):
        config = parse_config_text(BASE_CONFIG)
        assert run("solve-relaxed", config, out_dir=tmp_path / "a", quiet=True) == 0
        assert run("solve-westervelt", config, out_dir=tmp_path / "b", quiet=True) == 0

    def test_mixed_bc_emits_flux_columns(self, tmp_path):
        config = parse_config_text(config_with(bc="mixed", beta=0.5))
        assert run("solve-linear", config, out_dir=tmp_path, quiet=True) == 0
        header = (tmp_path / "energy.csv").read_text().split("\n", 1)[0]
        assert "flux_tt_accum" in header
        assert "flux_t_max" in header

    def test_flux_columns_follow_the_subcommand(self, tmp_path):
        config = parse_config_text(config_with(bc="mixed", beta=0.5, tau_sweep="1e-1, 1e-2"))
        expected = {"energy-audit": True, "limit-study": False, "mms": False}
        for subcommand, with_flux in expected.items():
            assert run(subcommand, config, out_dir=tmp_path / subcommand, quiet=True) == 0
            header = (tmp_path / subcommand / "energy.csv").read_text().split("\n", 1)[0]
            assert ("flux_tt_accum" in header) is with_flux, subcommand

    @pytest.mark.parametrize(
        "subcommand, code",
        [
            ("solve-linear", 1),
            ("solve-jmgt", 1),
            ("solve-relaxed", 1),
            ("mms", 1),
            ("energy-audit", 1),
            ("solve-westervelt", 0),
            ("limit-study", 0),
        ],
    )
    def test_tau_rule_of_every_subcommand(self, tmp_path, capsys, subcommand, code):
        # the third-order system needs tau > 0; Westervelt is the tau = 0 system, and
        # limit-study (like an energy-audit with a sweep) solves at the tau_sweep values
        sweep = {"tau_sweep": "1e-1, 1e-2"} if subcommand == "limit-study" else {}
        config = parse_config_text(config_with(tau=0.0, **sweep))
        out = tmp_path / "out"
        assert run(subcommand, config, out_dir=out, quiet=True) == code
        if code:
            assert not out.exists()
            assert "tau" in capsys.readouterr().err
        else:
            assert (out / "report.csv").exists()

    def test_determinism_byte_identical_outputs(self, tmp_path):
        config = parse_config_text(BASE_CONFIG)
        run("solve-jmgt", config, out_dir=tmp_path / "one", quiet=True)
        run("solve-jmgt", config, out_dir=tmp_path / "two", quiet=True)
        for name in ("trajectory.csv", "energy.csv", "report.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_csv_uses_lf_and_full_precision(self, tmp_path):
        config = parse_config_text(BASE_CONFIG)
        run("solve-jmgt", config, out_dir=tmp_path, quiet=True)
        raw = (tmp_path / "trajectory.csv").read_bytes()
        assert b"\r\n" not in raw
        third = float(raw.decode().strip().split("\n")[3].split(",")[0])
        assert f"{third:.17g}" in raw.decode()

    def test_mms_observed_order(self, tmp_path):
        config = parse_config_text(config_with(dt=0.025, t_final=1.0, n_modes=4))
        code = run("mms", config, out_dir=tmp_path, quiet=True)
        assert code == 0
        rows, _ = mms_study(config)
        for solver in ("smgt", "westervelt"):
            orders = [r.observed_order for r in rows if r.solver == solver and r.observed_order]
            assert 1.7 <= orders[-1] <= 2.3
        report = (tmp_path / "report.csv").read_text()
        assert report.startswith("solver,dt,error,observed_order")

    def test_limit_study_smoke(self, tmp_path):
        config = parse_config_text(
            config_with(tau_sweep="1e-1, 1e-2", dt=0.02, t_final=0.5, n_modes=6)
        )
        code = run("limit-study", config, out_dir=tmp_path, quiet=True)
        assert code == 0
        result, _ = limit_study(config)
        assert result.rows[0].tau == 0.1
        assert result.rows[1].velocity_error < result.rows[0].velocity_error

    def test_limit_study_without_nonlinearity_still_converges(self, tmp_path):
        # the singular perturbation is present even for k = 0
        config = parse_config_text(
            config_with(k=0.0, tau_sweep="1e-1, 1e-2", dt=0.02, t_final=0.5, n_modes=6)
        )
        result, _ = limit_study(config)
        assert result.rows[1].velocity_error < result.rows[0].velocity_error
        assert result.rows[0].velocity_error > 0.0

    def test_limit_study_zero_data_zero_errors(self, tmp_path):
        config = parse_config_text(
            config_with(amplitude=0.0, tau_sweep="1e-1, 1e-2", dt=0.02, t_final=0.5)
        )
        result, _ = limit_study(config)
        assert all(row.velocity_error == 0.0 for row in result.rows)
        assert all(row.energy_error == 0.0 for row in result.rows)

    def test_limit_study_fails_on_a_non_finite_error(self, monkeypatch):
        # an error norm that overflows is a solver failure, not a table row
        infinite = SimpleNamespace(total=lambda mode: math.inf)
        monkeypatch.setattr(cli, "energy_higher", lambda diff, basis: infinite)
        config = parse_config_text(config_with(tau_sweep="0.1, 0.01"))
        with pytest.raises(NonFiniteNormError, match=r"the energy error at tau = 0\.1 is not"):
            limit_study(config)

    def test_limit_study_requires_sweep(self, tmp_path, capsys):
        config = parse_config_text(BASE_CONFIG)
        assert run("limit-study", config, out_dir=tmp_path, quiet=True) == 1
        assert "config error: limit-study requires a tau_sweep" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_energy_audit_table(self, tmp_path):
        config = parse_config_text(config_with(tau_sweep="1e-1, 1e-2"))
        assert run("energy-audit", config, out_dir=tmp_path, quiet=True) == 0
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "tau,mode,lhs,rhs,ratio,log_constant,flags"
        assert len(lines) == 1 + 2 * 3  # two taus, three modes each

    def test_audit_rows_follow_the_modes_each_run_serves(self, tmp_path):
        # TauDependent needs tau > 0, so the Westervelt (tau = 0) run reports the other two
        def report(subcommand, text):
            out = tmp_path / subcommand
            assert run(subcommand, parse_config_text(text), out_dir=out, quiet=True) == 0
            return [line.split(",") for line in (out / "report.csv").read_text().splitlines()]

        def audit_keys(subcommand):
            rows = report(subcommand, BASE_CONFIG)
            return [key for section, key, _ in rows if section == "audit"]

        assert audit_keys("solve-westervelt") == ["TauUniform_ratio", "Higher_ratio"]
        assert audit_keys("solve-jmgt") == [
            "TauDependent_ratio",
            "TauDependent_log_constant",
            "TauUniform_ratio",
            "Higher_ratio",
        ]
        table = report("energy-audit", config_with(tau_sweep="1e-1, 3e-2, 1e-2"))[1:]
        modes = ["TauDependent", "TauUniform", "Higher"]
        assert [(float(tau), mode) for tau, mode, *_ in table] == [
            (tau, mode) for tau in (1e-1, 3e-2, 1e-2) for mode in modes
        ]

    @pytest.mark.parametrize(
        "subcommand, overrides, runs",
        [("solve-linear", {}, 1), ("energy-audit", {"tau_sweep": "1e-1, 3e-2, 1e-2"}, 3)],
    )
    def test_energy_records_once_per_trajectory(
        self, tmp_path, monkeypatch, subcommand, overrides, runs
    ):
        # the audit rows and energy.csv of the written run share its records
        calls = {"energy_lower": 0, "energy_higher": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        config = parse_config_text(config_with(**overrides))
        assert run(subcommand, config, out_dir=tmp_path, quiet=True) == 0
        assert calls == {"energy_lower": runs, "energy_higher": runs}


class TestSweepBatches:
    """The tau-members of a sweep are stepped together but report as if solved in sweep order."""

    @pytest.mark.parametrize("bc", ["neumann", "mixed"])
    def test_energy_audit_members_equal_lone_linear_solves(self, tmp_path, monkeypatch, bc):
        batches = []
        original = cli._solve_linear

        def spy(*args):
            batches.append(original(*args))
            return batches[-1]

        monkeypatch.setattr(cli, "_solve_linear", spy)
        taus = (0.1, 0.03, 0.01)
        beta = 0.5 if bc == "mixed" else 0.0  # neumann has no absorbing end to weigh
        text = config_with(bc=bc, beta=beta, tau_sweep=", ".join(map(repr, taus)))
        config = parse_config_text(text)
        assert run("energy-audit", config, out_dir=tmp_path, quiet=True) == 0
        [trajectories] = batches
        basis = build_basis(config.length, config.solver.n_modes)
        for tau, traj in zip(taus, trajectories, strict=True):
            params = replace(config.params, tau=tau)
            lone = solve_smgt_linear(
                params, basis, constant_field(1.0), None, config.signal, config.solver, config.bc
            )
            assert traj.params == lone.params
            for name in ("coeff", "coeff_t", "coeff_tt", "coeff_ttt"):
                assert np.array_equal(getattr(traj, name), getattr(lone, name)), name

    def test_amplitude_four_study_stops_at_its_second_member(self, tmp_path, monkeypatch, capsys):
        # the criterion-05 study at amplitude 4: tau = 0.03 loses positivity at iteration 4,
        # so the study never runs tau <= 0.01 (tau = 1e-3 would warn with margin 0.000828)
        batch_sizes = []
        original = nonlinear._integrate

        def spy(order, members, *args):
            if order == 3:
                batch_sizes.append((len(members), args[-1]))
            return original(order, members, *args)

        monkeypatch.setattr(nonlinear, "_integrate", spy)
        path = tmp_path / "study.cfg"
        path.write_text(AMPLITUDE_FOUR_STUDY, encoding="utf-8")
        argv = ["limit-study", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
        code = main(argv)
        assert code == 2
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "report.csv").read_text() == (
            "section,key,value\n"
            "failure,type,NonDegeneracyViolated\n"
            "failure,message,degeneracy margin -0.00711744 <= 0 at t = 1.085 "
            "(fixed-point iteration 4)\n"
            "failure,violation_time,1.085\n"
            "failure,margin,-0.007117444647147142\n"
            "failure,iteration,4\n"
        )
        stderr = capsys.readouterr().err
        assert ".py:" not in stderr
        margins = [line.split()[3] for line in stderr.splitlines() if line.startswith("warning: ")]
        reference = ["0.0906", "0.0334", "0.0129", "0.00625", "0.00432", "0.00382", "0.00371"]
        reference += ["0.00369"] + ["0.00368"] * 10
        first_member = ["0.0853", "0.0537", "0.0498"] + ["0.0495"] * 9  # tau = 0.1, iterations 2-13
        second_member = ["0.0702", "0.00972"]  # tau = 0.03, before its iteration-4 abort
        assert margins == reference + first_member + second_member
        # (members, rounds) of each step loop: round 1, then windows of two rounds; the
        # members after tau = 0.03 stop with it in the window of rounds 4 and 5, whose
        # round 5 tau = 0.1 keeps, and tau = 0.1 runs on to converge at 13
        assert batch_sizes == [(5, 1), (5, 2), (5, 2), (1, 10)]


class TestMmsBatches:
    """Each system's refinement levels are one batch, failing and freed as lone runs would."""

    CONFIG = config_with(dt=0.05, t_final=0.5, n_modes=4, mms_levels=3)

    def test_every_level_equals_its_lone_run(self, monkeypatch):
        batches = []  # (order, source, trajectories coarsest first) of each batch
        prepare, original = cli._prepare_data, cli._integrate

        def spy_prepare(order, members, basis, f, *args):
            batches.append((order, f))
            return prepare(order, members, basis, f, *args)

        def spy(*args):
            results = original(*args)
            batches[-1] += ([traj for traj, _ in reversed(results)],)
            return results

        monkeypatch.setattr(cli, "_prepare_data", spy_prepare)
        monkeypatch.setattr(cli, "_integrate", spy)
        config = parse_config_text(self.CONFIG)
        basis = build_basis(config.length, config.solver.n_modes)
        rows, finest = mms_study(config)
        solves = {3: solve_smgt_linear, 2: solve_westervelt_linearized}
        assert [order for order, _, _ in batches] == [3, 2]
        for (order, source, levels), block in zip(batches, (rows[:3], rows[3:])):
            for level, (traj, row) in enumerate(zip(levels, block, strict=True)):
                lone_config = replace(config.solver, dt=config.solver.dt / 2**level)
                field = constant_field(1.0)
                lone = solves[order](config.params, basis, field, source, None, lone_config)
                assert row.dt == lone_config.dt
                assert np.array_equal(traj.times, lone.times)
                for name in ("coeff", "coeff_t", "coeff_tt", "coeff_ttt"):
                    assert np.array_equal(getattr(traj, name), getattr(lone, name)), name
        for name in ("times", "coeff", "coeff_t", "coeff_tt", "coeff_ttt"):
            assert np.array_equal(getattr(finest, name), getattr(batches[0][2][-1], name))

    @pytest.mark.parametrize(
        "solve, poisoned",
        [
            (solve_smgt_linear, (1,)),
            (solve_smgt_linear, (2, 1)),
            (solve_westervelt_linearized, (2,)),
        ],
    )
    def test_a_singular_level_fails_as_its_lone_run(self, monkeypatch, solve, poisoned):
        # the BDF2 step matrix of each poisoned level cannot be inverted: the coarsest such
        # level fails with its lone run's step, time and cause, and a smgt failure stops
        # the study before any westervelt level runs
        config = parse_config_text(self.CONFIG)
        basis = build_basis(config.length, config.solver.n_modes)
        original = np.linalg.inv
        seen = []

        def spy(a):
            seen.append(a.copy())
            return original(a)

        def lone(level):
            level_config = replace(config.solver, dt=config.solver.dt / 2**level)
            return solve(config.params, basis, constant_field(1.0), None, None, level_config)

        monkeypatch.setattr(np.linalg, "inv", spy)
        for level in poisoned:
            lone(level)
        # each lone run inverts its startup, then its BDF2 matrix, as a stack of one
        targets = [stack[0] for stack in seen[1::2]]

        def poisoned_inv(a):
            if any(np.array_equal(m, t) for m in a.reshape(-1, *a.shape[-2:]) for t in targets):
                raise np.linalg.LinAlgError("poisoned")
            return original(a)

        monkeypatch.setattr(np.linalg, "inv", poisoned_inv)
        with pytest.raises(SingularStepMatrixError) as expected:
            lone(min(poisoned))
        orders = []
        integrate = cli._integrate

        def counted(order, *args):
            orders.append(order)
            return integrate(order, *args)

        monkeypatch.setattr(cli, "_integrate", counted)
        with pytest.raises(SingularStepMatrixError) as info:
            mms_study(config)
        assert (info.value.step, info.value.time) == (expected.value.step, expected.value.time)
        assert info.value.step == 2
        assert type(info.value.__cause__) is np.linalg.LinAlgError
        assert str(info.value.__cause__) == str(expected.value.__cause__) == "poisoned"
        assert orders == ([3] if solve is solve_smgt_linear else [3, 2])

    def test_the_smgt_batch_is_freed_before_the_westervelt_batch_steps(self, monkeypatch):
        batches, live = [], []
        original = cli._integrate

        def spy(*args):
            gc.collect()
            live.append(sum(batch() is not None for batch in batches))
            results = original(*args)
            stored = results[0][0].coeff.base
            assert stored.ndim == 4  # the (derivative, row, column, mode) array of the loop
            batches.append(weakref.ref(stored))
            return results

        monkeypatch.setattr(cli, "_integrate", spy)
        rows, finest = mms_study(parse_config_text(self.CONFIG))
        assert [row.solver for row in rows] == ["smgt"] * 3 + ["westervelt"] * 3
        assert live == [0, 0]
        # the returned finest smgt level is a copy, which keeps no batch alive either
        gc.collect()
        assert [batch() for batch in batches] == [None, None]
        assert finest.n_steps == 40 and finest.coeff_ttt is not None


class TestMain:
    def test_main_happy_path(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text(BASE_CONFIG, encoding="utf-8")
        code = main(
            ["solve-jmgt", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "out" / "report.csv").exists()

    def test_main_reports_config_errors(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(tau=-1), encoding="utf-8")
        code = main(["solve-jmgt", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_main_rejects_step_that_overshoots_horizon(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(dt=0.3, t_final=1.0, n_modes=4), encoding="utf-8")
        code = main(["solve-linear", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: line 15: dt must divide t_final" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_main_rejects_variant_the_subcommand_would_ignore(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(variant="relaxed"), encoding="utf-8")
        code = main(["solve-jmgt", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "solve-relaxed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_main_rejects_beta_without_an_absorbing_end(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(beta=0.7), encoding="utf-8")
        code = main(["solve-linear", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: line 6: beta must be 0 under bc = neumann" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["energy-audit", "limit-study"])
    def test_main_rejects_empty_tau_sweep(self, tmp_path, capsys, subcommand):
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(tau_sweep=""), encoding="utf-8")
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "at least one tau" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "subcommand, key, value",
        [
            ("solve-linear", "n_modes", "1e400"),
            ("solve-jmgt", "tau", "nan"),
            ("solve-jmgt", "k", "inf"),
            ("limit-study", "tau_sweep", "0.1, nan"),
        ],
    )
    def test_main_rejects_non_finite_values(self, tmp_path, capsys, subcommand, key, value):
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(**{key: value}), encoding="utf-8")
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "subcommand",
        [
            "solve-linear",
            "solve-jmgt",
            "solve-relaxed",
            "solve-westervelt",
            "energy-audit",
            "limit-study",
        ],
    )
    def test_main_reports_an_overflowing_run_as_a_solver_failure(
        self, tmp_path, capsys, subcommand
    ):
        # the squares of a 1e160 drive and of the run it drives overflow a double; with
        # k = 0 no degeneracy guard stops the run first
        path = tmp_path / "experiment.cfg"
        text = config_with(amplitude="1e160", k="0.0", tau_sweep="0.1, 0.01")
        path.write_text(text, encoding="utf-8")
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["report.csv"]
        header, kind, message = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert (header, kind) == ("section,key,value", "failure,type,NonFiniteNormError")
        assert message.startswith("failure,message,") and "is not finite" in message
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"solver failure: {message.removeprefix('failure,message,')}\n"

    @pytest.mark.parametrize("subcommand", ["solve-westervelt", "limit-study"])
    def test_an_overflowing_second_order_run_reports_inf(self, tmp_path, capsys, subcommand):
        # at tau = 0 the energy norm has no tau-weighted term, so the overflowing first
        # iterate's norm is inf, as in the third-order runs, and not 0 * inf = NaN
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(amplitude="1e160", k="0.0", tau_sweep="0.1, 0.01"))
        code = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "solver failure: the energy norm of fixed-point iterate 1 is not finite (inf): "
            "the run overflows double precision\n"
        )

    def test_main_rejects_mms_with_one_mode(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(n_modes=1), encoding="utf-8")
        code = main(["mms", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "config error: mms requires n_modes >= 2\n"
        assert not (tmp_path / "out").exists()

    def test_main_flags_a_tau_dependent_constant_past_1e100(self, tmp_path):
        # log C = log(1/tau^2 + T^2 + 1) + (2/tau + 1 + T) T + log(1 + tau) is about 412.6
        # at tau = 0.005 and T = 1, past the flag level 100 ln 10 (about 230.3)
        path = tmp_path / "experiment.cfg"
        path.write_text(config_with(tau=0.005, t_final=1.0), encoding="utf-8")
        code = main(["solve-linear", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert code == 0
        rows = [line.split(",") for line in (tmp_path / "report.csv").read_text().splitlines()]
        values = {key: value for section, key, value in rows[1:] if section == "audit"}
        assert 412.0 < float(values["TauDependent_log_constant"]) < 413.0
        assert values["TauDependent_flag"] == "constant not tau-robust"
        assert "TauUniform_flag" not in values

    def test_main_rejects_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "experiment.cfg"
        path.write_bytes(BASE_CONFIG.encode("utf-8") + b"# caf\xe9\n")
        code = main(["solve-jmgt", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_main_missing_file(self, tmp_path, capsys):
        code = main(["solve-jmgt", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1

    def test_parse_config_from_disk(self, tmp_path):
        path = tmp_path / "experiment.cfg"
        path.write_text(BASE_CONFIG, encoding="utf-8")
        config = parse_config(path)
        assert config == parse_config_text(BASE_CONFIG)
