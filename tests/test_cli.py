"""Command-line layer: config files, stage wiring, exit codes.

Every invocation goes through main(argv) in-process; stdout/stderr and
exit codes are asserted rather than stack traces.  The central wiring
property is composability: running the three stages separately must
produce byte-identical outputs to the one-shot pipeline.
"""

import contextlib
import io
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import displaced_fock_amplitudes
from phasekit import cli, textio
from phasekit.cli import (_CONFIG_KEYS, RunConfig, build_parser, main,
                          parse_config)
from phasekit.kernels import (
    DEFAULT_F_TRUNCATION,
    DEFAULT_GRID_STEP,
    DEFAULT_L0,
    DEFAULT_X0,
    TABLE_COLUMNS,
    KernelSpec,
    build_kernel_table,
)
from phasekit.estimator import estimate_all, load_moments
from phasekit.reconstruct import METHODS, fourier_reconstruct, \
    least_squares_reconstruct, load_distribution
from phasekit.simulator import ExperimentPlan, MeasurementSet, \
    load_records, run_experiment, save_records
from phasekit.states import STATE_KINDS, DensityMatrix, StateSpec


def small_config(**overrides):
    state = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20)
    base = dict(
        state=state,
        capture_tol=0.05,
        n_phases=24,
        events_per_phase=(400,),
        k_max=4,
        recon_method="fourier",
        recon_K=4,
        recon_M=64,
        seed=99,
    )
    base.update(overrides)
    return RunConfig(**base)


def write_config(tmp_path, cfg, name="run.cfg"):
    path = tmp_path / name
    path.write_text(cfg.to_text())
    return str(path)


def test_config_round_trip_is_lossless():
    cfg = small_config(
        state=StateSpec(kind="coherent", alpha=1.25 - 0.5j, n_max=30),
        eta=0.8125,
        events_per_phase=(100, 200, 300),
        n_phases=3,
        reg_lambda=0.1,
        normalize=False,
        recon_method="least_squares",
        output_dir="elsewhere",
    )
    assert parse_config(cfg.to_text()) == cfg


@pytest.mark.parametrize("state", [
    StateSpec(kind="displaced_fock", alpha=1 / 3 - 1.7j, fock_n=3, n_max=17),
    StateSpec(kind="squeezed_vacuum", squeeze=-0.1 + 2j / 3, n_max=9),
])
def test_state_round_trips_through_config_and_records(tmp_path, state):
    # both files read and write a state through states.STATE_FIELDS
    assert parse_config(small_config(state=state).to_text()).state == state
    plan = ExperimentPlan.uniform(state, n_phases=2, events=3)
    save_records(MeasurementSet(plan, np.zeros(6)), tmp_path / "records.txt")
    assert load_records(tmp_path / "records.txt").plan.state == state


def test_default_config_round_trip():
    cfg = RunConfig()
    assert parse_config(cfg.to_text()) == cfg


def test_parse_config_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2: unknown config key"):
        parse_config("seed = 1\nplan.n_fases = 3\n")
    with pytest.raises(ValueError, match="line 1: expected"):
        parse_config("seed 1\n")
    with pytest.raises(ValueError, match="line 3: bad value"):
        parse_config("seed = 1\n\nplan.n_phases = many\n")


def test_parse_config_skips_comments_and_blanks():
    cfg = parse_config("# a comment\n\nseed = 5\n")
    assert cfg.seed == 5
    assert cfg.state.kind == "vacuum"


def test_config_hash_ignores_output_dir():
    here = small_config(output_dir="a")
    there = small_config(output_dir="b")
    assert here.config_hash() == there.config_hash()
    assert here.config_hash() != small_config(eta=0.9).config_hash()


def test_plan_broadcasts_single_event_count():
    plan = small_config().plan()
    assert plan.events_per_phase == (400,) * 24
    with pytest.raises(ValueError, match="2 values for 24 phases"):
        small_config(events_per_phase=(10, 20)).plan()


def test_kernel_table_command_writes_loadable_tables(tmp_path, capsys):
    cfg = small_config(kernel_grid_step=0.05, k_max=2, recon_K=2)
    ret = main(["kernel-table", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path)])
    assert ret == 0
    out = capsys.readouterr().out
    for k in (1, 2):
        path = tmp_path / ("kernel_k%d_eta1.txt" % k)
        assert "wrote %s" % path in out
        assert path.read_text().startswith(
            "# sampling kernel table\n# config: %s\n" % cfg.config_hash())
        art = textio.load(path, TABLE_COLUMNS)
        assert (art.field("k =", int), art.field("eta =", float)) == (k, 1.0)
        rebuilt = build_kernel_table(KernelSpec(k=k), grid_step=0.05)
        assert np.array_equal(art.rows[:, 0], rebuilt.grid)
        assert np.array_equal(art.rows[:, 1], rebuilt.values)
        tail = art.field("tail:", str).split()
        assert float(tail[2]) == rebuilt.edge_gap
        assert (art.field("offset removed from series part:", float)
                == rebuilt.offset)


def test_kernel_table_files_of_every_order_load(tmp_path):
    # the tables of every order 1..k_max, at the eta the estimate stage
    # uses, under the hash that simulate's records carry
    for compensate, eta in ((True, 0.8), (False, 1.0)):
        cfg = small_config(n_phases=12, events_per_phase=(20,), eta=0.8,
                           compensate=compensate, k_max=8,
                           kernel_grid_step=0.0013)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / ("compensate_%s" % compensate)
        assert main(["kernel-table", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        assert main(["simulate", "--config", cfg_path,
                     "--output-dir", str(out)]) == 0
        tag = textio.load(out / "records.txt", "x").field("config:")
        for k in range(1, 9):
            path = out / ("kernel_k%d_eta%g.txt" % (k, eta))
            art = textio.load(path, TABLE_COLUMNS)
            assert art.field("config:") == tag == cfg.config_hash()
            assert (art.field("k =", int),
                    art.field("eta =", float)) == (k, eta)
            rebuilt = build_kernel_table(KernelSpec(k=k, eta=eta),
                                         grid_step=0.0013)
            assert art.rows.shape == (rebuilt.grid.size, 2) == (6155, 2)
            assert np.array_equal(art.rows[:, 0], rebuilt.grid)
            assert art.rows[-1, 0] == DEFAULT_X0
            assert np.array_equal(art.rows[:, 1], rebuilt.values)
        assert len(list(out.glob("kernel_*.txt"))) == 8


def test_pipeline_writes_all_stage_outputs(tmp_path):
    cfg = small_config(output_dir=str(tmp_path / "out"))
    ret = main(["pipeline", "--config", write_config(tmp_path, cfg)])
    assert ret == 0
    records = load_records(tmp_path / "out" / "records.txt")
    assert records.plan.n_phases == 24
    dist = load_distribution(tmp_path / "out" / "distribution.txt")
    assert dist.n_grid == 64
    assert np.isclose(dist.norm(), 1.0, atol=1e-12)
    tag = "# config: %s" % cfg.config_hash()
    for name in ("records.txt", "moments.txt", "distribution.txt"):
        assert tag in (tmp_path / "out" / name).read_text()


def test_pipeline_is_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    for run in ("one", "two"):
        ret = main(["pipeline", "--config", cfg_path,
                    "--output-dir", str(tmp_path / run)])
        assert ret == 0
    for name in ("records.txt", "moments.txt", "distribution.txt"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second


def test_stages_compose_to_the_pipeline(tmp_path):
    cfg_path = write_config(tmp_path, small_config())
    whole = str(tmp_path / "whole")
    staged = str(tmp_path / "staged")
    assert main(["pipeline", "--config", cfg_path,
                 "--output-dir", whole]) == 0
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", staged]) == 0
    assert main(["estimate", "--config", cfg_path,
                 "--output-dir", staged, staged + "/records.txt"]) == 0
    assert main(["reconstruct", "--config", cfg_path,
                 "--output-dir", staged, staged + "/moments.txt"]) == 0
    for name in ("records.txt", "moments.txt", "distribution.txt"):
        a = (tmp_path / "whole" / name).read_bytes()
        b = (tmp_path / "staged" / name).read_bytes()
        assert a == b


STAGE_INPUTS = {"simulate": (), "estimate": ("records.txt",),
                "reconstruct": ("moments.txt",), "pipeline": (),
                "kernel-table": ()}


# The commands that offer each flag: those whose stages read its key.
FLAG_COMMANDS = {"--seed": ("pipeline", "simulate"),
                 "--eta": ("estimate", "kernel-table", "pipeline",
                           "simulate")}
BAD_FLAGS = [
    ("--seed", "-1", "seed must be an integer >= 0, not '-1'"),
    ("--seed", "nan", "seed must be an integer >= 0, not 'nan'"),
    ("--seed", "2.0", "seed must be an integer >= 0, not '2.0'"),
    ("--eta", "-0.5", "eta must lie in (0, 1], not -0.5"),
    ("--eta", "nan", "eta must lie in (0, 1], not nan"),
    ("--eta", "1.5", "eta must lie in (0, 1], not 1.5"),
]


@pytest.mark.parametrize("command, flag, value, reason", [
    (command, flag, value, reason) for flag, value, reason in BAD_FLAGS
    for command in FLAG_COMMANDS[flag]])
def test_bad_seed_or_eta_flag_exits_2_naming_flag_and_value(
        command, flag, value, reason, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--config", "run.cfg", *STAGE_INPUTS[command],
              flag, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument %s: %s" % (flag, reason) in err, err


@pytest.mark.parametrize("command", ["estimate", "pipeline", "simulate",
                                     "kernel-table"])
def test_seed_above_one_and_eta_in_range_are_accepted(command):
    given = {"--seed": ("7", 7), "--eta": ("0.75", 0.75)}
    offered = [flag for flag in given if command in FLAG_COMMANDS[flag]]
    args = build_parser().parse_args([
        command, "--config", "run.cfg", *STAGE_INPUTS[command],
        *(token for flag in offered for token in (flag, given[flag][0]))])
    for flag in offered:
        assert getattr(args, flag[2:]) == given[flag][1]


@pytest.mark.parametrize("command, flag, value", [
    ("estimate", "--seed", "5"),
    ("reconstruct", "--seed", "5"),
    ("reconstruct", "--eta", "0.8"),
    ("kernel-table", "--seed", "5"),
])
def test_stage_is_not_offered_a_flag_it_does_not_read(command, flag, value,
                                                      capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--config", "run.cfg", *STAGE_INPUTS[command],
              flag, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: %s %s" % (flag, value) in err


@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_simulate_records_reload_to_the_drawn_samples(tmp_path, eta):
    cfg = small_config(n_phases=6, events_per_phase=(300,), eta=eta)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--output-dir", str(out)]) == 0
    drawn = run_experiment(cfg.plan(), capture_tol=cfg.capture_tol)
    loaded = load_records(out / "records.txt")
    assert loaded.plan == drawn.plan
    assert ([r.tobytes() for r in loaded.records]
            == [r.tobytes() for r in drawn.records])


def test_stage_files_reload_to_what_each_stage_computed(tmp_path):
    cfg = small_config(n_phases=12, events_per_phase=(200,), eta=0.9)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", write_config(tmp_path, cfg),
                 "--output-dir", str(out)]) == 0
    tables = {s.k: build_kernel_table(s, grid_step=cfg.kernel_grid_step)
              for s in cfg.kernel_specs()}
    want = estimate_all(load_records(out / "records.txt"), cfg.k_max, tables)
    moments = load_moments(out / "moments.txt")

    def held(m):
        # the file holds sigma, so the variance comes back as its square
        return (m.k, m.value, m.sigma_re, m.sigma_im, m.n_phases,
                m.compensated, m.eta_assumed)

    assert list(map(held, moments)) == list(map(held, want))
    dist = fourier_reconstruct(moments, cfg.recon_K, cfg.recon_M)
    got = load_distribution(out / "distribution.txt")
    assert got.grid.tobytes() == dist.grid.tobytes()
    assert got.values.tobytes() == dist.values.tobytes()


def test_least_squares_from_a_reloaded_moments_file_is_bit_identical(
        tmp_path):
    # the filter factors take the variance as sigma^2, which the moments
    # file holds exactly, so the stand-alone reconstruct of the file and
    # the in-process P agree bit for bit
    cfg = small_config(n_phases=12, events_per_phase=(200,), eta=0.9,
                       recon_method="least_squares", recon_K=4, recon_M=64,
                       reg_lambda=1.0e5)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg_path,
                 "--output-dir", str(out)]) == 0
    tables = {s.k: build_kernel_table(s, grid_step=cfg.kernel_grid_step)
              for s in cfg.kernel_specs()}
    estimates = estimate_all(load_records(out / "records.txt"), cfg.k_max,
                             tables)
    dist = least_squares_reconstruct(estimates, cfg.recon_K, cfg.recon_M,
                                     cfg.reg_lambda)
    assert main(["reconstruct", "--config", cfg_path, "--output-dir",
                 str(tmp_path / "again"), str(out / "moments.txt")]) == 0
    for path in (out, tmp_path / "again"):
        got = load_distribution(path / "distribution.txt")
        assert got.values.tobytes() == dist.values.tobytes()


def test_v1_records_exit_2_naming_their_columns_line(tmp_path, capsys):
    cfg = small_config(n_phases=6, events_per_phase=(20,))
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", str(out)]) == 0
    path = out / "records.txt"
    lines = path.read_text().splitlines()
    i = lines.index("# columns: x")
    lines[i] = "# columns: l, theta_l, x"
    path.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--config", cfg_path, "--output-dir", str(out),
                 str(path)]) == 2
    assert ("error: line %d: columns 'l, theta_l, x', expected 'x'"
            % (i + 1)) in capsys.readouterr().err
    assert not (out / "moments.txt").exists()


def test_seed_override_changes_the_draws(tmp_path):
    cfg_path = write_config(tmp_path, small_config(n_phases=4,
                                                   events_per_phase=(50,)))
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg_path, "--seed", "123",
                 "--output-dir", str(tmp_path / "b")]) == 0
    a = load_records(tmp_path / "a" / "records.txt")
    b = load_records(tmp_path / "b" / "records.txt")
    assert b.plan.seed == 123
    assert not np.array_equal(a.records[0], b.records[0])


def test_output_dir_environment_fallback(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, small_config(n_phases=2,
                                                   events_per_phase=(20,)))
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("PHASEKIT_OUTPUT_DIR", str(env_dir))
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (env_dir / "records.txt").exists()
    flag_dir = tmp_path / "from_flag"
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "records.txt").exists()


def test_uncompensatable_efficiency_exits_2(tmp_path, capsys):
    cfg = small_config(eta=0.4, n_phases=6, events_per_phase=(20,))
    ret = main(["pipeline", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "out")])
    assert ret == 2
    assert "eta" in capsys.readouterr().err


def test_order_cap_at_phase_count_exits_2(tmp_path, capsys):
    cfg = small_config(n_phases=4, events_per_phase=(20,), k_max=4)
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", out]) == 0
    ret = main(["estimate", "--config", cfg_path, "--output-dir", out,
                out + "/records.txt"])
    assert ret == 2
    assert "smaller than the number of phases" in capsys.readouterr().err


def test_wrong_input_schema_exits_2(tmp_path, capsys):
    cfg = small_config(n_phases=2, events_per_phase=(20,))
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", out]) == 0
    ret = main(["reconstruct", "--config", cfg_path, "--output-dir", out,
                out + "/records.txt"])
    assert ret == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_finite_record_exits_2_naming_the_line(tmp_path, capsys):
    cfg = small_config(n_phases=6, events_per_phase=(20,))
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", str(out)]) == 0
    path = out / "records.txt"
    lines = path.read_text().splitlines()
    row = [i for i, ln in enumerate(lines) if not ln.startswith("#")][30]
    lines[row] = "nan"
    path.write_text("\n".join(lines) + "\n")
    ret = main(["estimate", "--config", cfg_path, "--output-dir", str(out),
                str(path)])
    assert ret == 2
    assert "line %d: non-finite" % (row + 1) in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    ret = main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert ret == 1
    assert "error:" in capsys.readouterr().err


def test_verify_command_passes(capsys):
    ret = main(["verify"])
    out = capsys.readouterr().out
    assert ret == 0
    assert out.count("[PASS]") == 12
    assert "[PASS] closed-form identity k=1" in out
    assert "[PASS] closed-form identity k=2" in out
    assert "[FAIL]" not in out
    assert "all identity suites passed" in out


def test_verify_fails_when_the_closed_form_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(cli, "integral_kernel_k1", lambda x: x + 1.0)
    ret = main(["verify"])
    out = capsys.readouterr().out
    assert ret == 1
    assert "[FAIL] closed-form identity k=1" in out
    assert "verification FAILED: 1 check group(s)" in out


def test_verify_fails_when_the_k2_gap_is_not_constant(capsys, monkeypatch):
    # A constant offset is what the even series drops, so it must pass;
    # an x-dependent one must not.
    real = cli.integral_kernel_k2
    monkeypatch.setattr(cli, "integral_kernel_k2", lambda x: real(x) + 0.3)
    assert main(["verify"]) == 0
    assert "[PASS] closed-form identity k=2" in capsys.readouterr().out
    monkeypatch.setattr(cli, "integral_kernel_k2",
                        lambda x: real(x) + 1e-3 * x)
    ret = main(["verify"])
    out = capsys.readouterr().out
    assert ret == 1
    assert "[FAIL] closed-form identity k=2" in out
    assert "[PASS] closed-form identity k=1" in out


@pytest.mark.parametrize("overrides, keys", [
    (dict(recon_K=4, recon_M=4), "reconstruct.K = 4, reconstruct.M = 4"),
    (dict(recon_K=6, recon_M=64), "reconstruct.K = 6 exceeds "
                                  "estimate.k_max = 4"),
    (dict(recon_method="least_squares", recon_K=4, recon_M=31),
     "reconstruct.K = 4, reconstruct.M = 31"),
    (dict(recon_K=3, recon_M=6), "reconstruct.K = 3, reconstruct.M = 6"),
    (dict(recon_method="least_squares", recon_K=0, recon_M=64),
     "reconstruct.K = 0, reconstruct.M = 64"),
    (dict(k_max=8), "estimate.k_max = 8 must be smaller than "
                    "plan.n_phases = 8"),
])
def test_pipeline_refuses_reconstruction_settings_before_any_output(
        tmp_path, capsys, overrides, keys):
    cfg = small_config(n_phases=8, events_per_phase=(50,), **overrides)
    out = tmp_path / "out"
    ret = main(["pipeline", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    assert ret == 2
    assert keys in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_reconstruct_refuses_its_grid_before_reading_moments(tmp_path,
                                                            capsys):
    # The moments file does not exist: the grid is refused first.
    cfg = small_config(recon_K=4, recon_M=4)
    out = tmp_path / "out"
    ret = main(["reconstruct", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out), str(tmp_path / "moments.txt")])
    assert ret == 2
    assert "reconstruct.K = 4, reconstruct.M = 4" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_default_config_hash_is_pinned():
    assert RunConfig().config_hash() == "027bf3247a68"


def test_kernel_defaults_come_from_the_kernel_module():
    cfg = RunConfig()
    assert (cfg.kernel_l0, cfg.kernel_x0, cfg.kernel_f_truncation) == (
        DEFAULT_L0, DEFAULT_X0, DEFAULT_F_TRUNCATION)
    assert cfg.kernel_grid_step == DEFAULT_GRID_STEP
    # kernel-table reads them from the config too: it offers no flag
    args = build_parser().parse_args(["kernel-table", "--config", "run.cfg"])
    assert sorted(vars(args)) == ["command", "config", "eta", "func",
                                  "input", "output_dir", "stages"]


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    code = (
        "import sys, phasekit.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.special', "
        "'scipy.optimize') if m in sys.modules))"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def run_fresh_python(code):
    """stdout of code run in a fresh interpreter importing ./src."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["phasekit", "phasekit.cli"])
def test_import_loads_neither_scipy_nor_mpmath(module):
    code = (
        "import sys, %s; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'mpmath')))" % module
    )
    assert run_fresh_python(code) == "[]"


def test_tables_and_pipeline_run_with_mpmath_blocked(tmp_path):
    # mpmath is a test-only dependency: with its import blocked, tables
    # of every default order build at eta = 1 and 0.8, a small
    # compensated pipeline exits 0, and mpmath never enters sys.modules
    cfg_path = write_config(tmp_path, small_config(eta=0.8))
    code = (
        "import sys; sys.modules['mpmath'] = None; "
        "from phasekit import KernelSpec, build_kernel_table, cli; "
        "[build_kernel_table(KernelSpec(k=k, eta=eta)) "
        " for k in range(1, 9) for eta in (1.0, 0.8)]; "
        "status = cli.main(['pipeline', '--config', %r, "
        "                   '--output-dir', %r]); "
        "print(status, sys.modules['mpmath'], "
        "      [m for m in sys.modules if m.startswith('mpmath.')])"
        % (cfg_path, str(tmp_path / "out"))
    )
    assert run_fresh_python(code).splitlines()[-1] == "0 None []"
    assert (tmp_path / "out" / "distribution.txt").exists()


def test_displaced_fock_state_imports_expm_on_demand(tmp_path):
    spec = StateSpec(kind="displaced_fock", alpha=-1.5, fock_n=2, n_max=20)
    path = tmp_path / "rho.npy"
    code = (
        "import sys, numpy, phasekit; "
        "assert 'scipy' not in sys.modules; "
        "rho = phasekit.build_state(phasekit.%r); "
        "assert 'scipy.linalg' in sys.modules; "
        "numpy.save(%r, rho.elements)" % (spec, str(path))
    )
    run_fresh_python(code)
    amplitudes = displaced_fock_amplitudes(spec)[: spec.n_max + 1]
    expected = DensityMatrix.from_pure(amplitudes).elements
    assert np.array_equal(np.load(path).view(np.uint64),
                          expected.view(np.uint64))


def test_non_finite_moment_exits_2_naming_the_line(tmp_path, capsys):
    cfg = small_config(n_phases=6, events_per_phase=(20,), k_max=2,
                       recon_K=2)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", cfg_path,
                 "--output-dir", str(out)]) == 0
    path = out / "moments.txt"
    lines = path.read_text().splitlines()
    parts = lines[-1].split()
    parts[1] = "nan"
    lines[-1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    ret = main(["reconstruct", "--config", cfg_path, "--output-dir",
                str(out), str(path)])
    assert ret == 2
    assert "line %d: " % len(lines) in capsys.readouterr().err


def readme_config_block():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text[text.index("## Command line"):]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def test_readme_command_lines_parse():
    # every 'phasekit ...' line of the README's sh blocks is a valid
    # command line, so a stale usage line fails here
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = [shlex.split(line) for block in blocks
             for line in block.splitlines()
             if line.startswith("phasekit ")]
    assert {args[1] for args in lines} >= {"kernel-table", "pipeline",
                                           "simulate", "estimate",
                                           "reconstruct"}
    for args in lines:
        build_parser().parse_args(args[1:])


def test_readme_config_block_parses_to_the_defaults():
    assert parse_config(readme_config_block()) == RunConfig()


def test_readme_config_block_sets_every_key_once_in_listing_order():
    keys = [line.partition("=")[0].strip()
            for line in readme_config_block().splitlines()
            if line.strip() and not line.startswith("#")]
    listed = [line.partition(" = ")[0]
              for line in RunConfig().to_text().splitlines()]
    assert listed == list(_CONFIG_KEYS)
    assert keys == listed


@pytest.mark.parametrize("key, value", [
    ("plan.eta", "nan"), ("kernel.grid_step", "inf"),
    ("kernel.x0", "-inf"), ("state.capture_tol", "1e999"),
    ("reconstruct.reg_lambda", "nan"), ("state.alpha", "nan+1j"),
    ("state.squeeze", "1e999j"),
])
def test_parse_config_rejects_non_finite_numbers(key, value):
    with pytest.raises(ValueError, match="line 2: bad value for %s" % key):
        parse_config("seed = 1\n%s = %s\n" % (key, value))


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
counts = st.integers(min_value=1, max_value=10 ** 6)

valid_configs = st.builds(
    RunConfig,
    state=st.builds(
        StateSpec, kind=st.sampled_from(STATE_KINDS),
        alpha=st.complex_numbers(allow_nan=False, allow_infinity=False),
        squeeze=st.complex_numbers(allow_nan=False, allow_infinity=False),
        fock_n=st.integers(0, 100), n_max=st.integers(0, 200),
    ),
    capture_tol=st.floats(0.0, 1.0), n_phases=counts,
    events_per_phase=st.lists(counts, min_size=1, max_size=5).map(tuple),
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    kernel_l0=st.integers(0, 80), kernel_x0=positive,
    kernel_f_truncation=counts, kernel_grid_step=positive,
    compensate=st.booleans(), k_max=counts,
    recon_method=st.sampled_from(METHODS), recon_K=counts, recon_M=counts,
    reg_lambda=st.floats(min_value=0.0, allow_infinity=False),
    normalize=st.booleans(),
    output_dir=st.text("abcXYZ019/._-=#", max_size=20),
    seed=st.integers(0, 2 ** 63),
)


@given(cfg=valid_configs)
@settings(max_examples=100, deadline=None)
def test_config_text_round_trip_of_random_configs(cfg):
    assert parse_config(cfg.to_text()) == cfg


def corrupt_line(line, how, token):
    key, _, value = line.partition(" = ")
    if how == "drop_separator":
        return line.replace("=", " ")
    if how == "unknown_key":
        return "x%s = %s" % (key, value)
    return "%s = %s" % (key, token)


@given(cfg=valid_configs, data=st.data(),
       how=st.sampled_from(["drop_separator", "unknown_key", "bad_value"]),
       token=st.sampled_from(["x", "nan", "inf", "-inf", "1e999", "1..2"]))
@settings(max_examples=150, deadline=None)
def test_corrupted_config_line_is_named(cfg, data, how, token):
    lines = cfg.to_text().splitlines()
    if how == "bad_value":
        # output_dir takes any text, so it has no bad value
        choices = [i for i, ln in enumerate(lines)
                   if not ln.startswith("output_dir")]
    else:
        choices = range(len(lines))
    i = data.draw(st.sampled_from(choices))
    lines[i] = corrupt_line(lines[i], how, token)
    with pytest.raises(ValueError, match=r"^line %d: " % (i + 1)):
        parse_config("\n".join(lines))


@given(cfg=valid_configs, data=st.data(),
       value=st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl",
                                                         "Zp")),
                     max_size=30))
@settings(max_examples=150, deadline=None)
def test_config_value_fuzz_raises_only_line_named_value_errors(cfg, data,
                                                               value):
    lines = cfg.to_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = corrupt_line(lines[i], "bad_value", value)
    try:
        parse_config("\n".join(lines))
    except ValueError as exc:
        assert str(exc).startswith("line %d: " % (i + 1))


@pytest.mark.parametrize("key, value", [
    ("plan.events_per_phase", "-5"), ("plan.events_per_phase", "0"),
    ("plan.events_per_phase", "10 0 10"), ("plan.events_per_phase", ""),
    ("plan.n_phases", "0"), ("plan.n_phases", "-3"),
])
def test_parse_config_rejects_counts_below_one(key, value):
    with pytest.raises(ValueError, match="^line 3: bad value for %s" % key):
        parse_config("seed = 1\n# counts\n%s = %s\n" % (key, value))


@pytest.mark.parametrize("key, value", [
    ("kernel.l0", "-1"), ("kernel.f_truncation", "0"),
    ("estimate.k_max", "0"), ("seed", "-1"), ("state.capture_tol", "nan"),
    ("state.capture_tol", "-0.1"), ("state.capture_tol", "1.5"),
])
def test_parse_config_rejects_out_of_range_values(key, value):
    with pytest.raises(ValueError, match="^line 3: bad value for %s: " % key):
        parse_config("seed = 1\n# ranges\n%s = %s\n" % (key, value))


# Integer config keys: the name and lower bound of the field each fills.
INTEGER_KEYS = [
    ("state.fock_n", "fock_n", 0), ("state.n_max", "n_max", 0),
    ("plan.n_phases", "n_phases", 1),
    ("plan.events_per_phase", "events_per_phase", 1),
    ("kernel.l0", "l0", 0), ("kernel.f_truncation", "f_truncation", 1),
    ("estimate.k_max", "k_max", 1), ("reconstruct.K", "K_used", 0),
    ("reconstruct.M", "M", 1), ("seed", "seed", 0),
]


@pytest.mark.parametrize("key, name, low", INTEGER_KEYS)
@pytest.mark.parametrize("value", ["2.0", "1e1", "below"])
def test_integer_config_key_takes_an_integer_literal_in_its_range(
        key, name, low, value):
    if value == "below":
        value = str(low - 1)
    # events_per_phase checks each of its tokens: spoil the second
    text = "5 %s 7" % value if key == "plan.events_per_phase" else value
    with pytest.raises(ValueError) as info:
        parse_config("%s = %s\n" % (key, text))
    assert str(info.value) == (
        "line 1: bad value for %s: %s must be an integer >= %d, not %r"
        % (key, name, low, value))


@pytest.mark.parametrize("key, value, reason", [
    ("reconstruct.K", "-1", "K_used must be an integer >= 0, not '-1'"),
    ("reconstruct.K", "2.0", "K_used must be an integer >= 0, not '2.0'"),
    ("reconstruct.K", "1e1", "K_used must be an integer >= 0, not '1e1'"),
    ("reconstruct.K", "0x10", "K_used must be an integer >= 0, not '0x10'"),
    ("reconstruct.reg_lambda", "-1",
     "reg_lambda must be finite and >= 0, not -1"),
    ("plan.eta", "1.5", "eta must lie in (0, 1], not 1.5"),
])
def test_bad_later_stage_value_exits_2_naming_its_line_before_any_output(
        tmp_path, capsys, key, value, reason):
    lines = small_config().to_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key + " ="))
    lines[i] = "%s = %s" % (key, value)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    ret = main(["pipeline", "--config", str(path), "--output-dir", str(out)])
    assert ret == 2
    assert capsys.readouterr().err == (
        "error: line %d: bad value for %s: %s\n" % (i + 1, key, reason))
    assert not (out / "records.txt").exists()


@pytest.mark.parametrize("value", ["nan", "-0.1", "1.5"])
def test_capture_tol_outside_unit_interval_exits_2_naming_its_line(
        tmp_path, capsys, value):
    lines = small_config().to_text().splitlines()
    i = next(i for i, ln in enumerate(lines)
             if ln.startswith("state.capture_tol ="))
    lines[i] = "state.capture_tol = " + value
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    ret = main(["simulate", "--config", str(path), "--output-dir", str(out)])
    assert ret == 2
    assert capsys.readouterr().err == (
        "error: line %d: bad value for state.capture_tol: capture_tol must "
        "lie in [0, 1], not '%s'\n" % (i + 1, value))
    assert not out.exists()


@given(key=st.sampled_from(["kernel.x0", "kernel.grid_step"]),
       value=st.floats(max_value=0.0)
       | st.sampled_from([math.inf, -math.inf, math.nan]))
@settings(max_examples=60, deadline=None)
def test_parse_config_rejects_nonpositive_or_non_finite_geometry(key,
                                                                 value):
    with pytest.raises(ValueError, match="^line 1: bad value for %s: " % key):
        parse_config("%s = %r\n" % (key, value))


@pytest.mark.parametrize("flag, value", [
    ("--x0", "inf"), ("--x0", "nan"), ("--grid-step", "nan"),
    ("--grid-step", "inf"),
])
def test_kernel_table_with_non_finite_geometry_exits_2(tmp_path, capsys,
                                                       flag, value):
    # the geometry is the config's: the old flag is refused, and its
    # config key refuses the value at its line
    key = "kernel." + flag[2:].replace("-", "_")
    path = tmp_path / "run.cfg"
    path.write_text("%s = %s\n" % (key, value))
    tables = str(tmp_path / "tables")
    with pytest.raises(SystemExit) as info:
        main(["kernel-table", "--config", str(path), flag, "1",
              "--output-dir", tables])
    assert info.value.code == 2
    assert "unrecognized arguments: %s 1" % flag in capsys.readouterr().err
    assert main(["kernel-table", "--config", str(path),
                 "--output-dir", tables]) == 2
    assert re.match(r"error: line 1: bad value for %s: (x0|grid step) must "
                    r"be finite and > 0, not '%s'$" % (key, value),
                    capsys.readouterr().err.strip())
    assert not (tmp_path / "tables").exists()


def test_output_dir_flag_overrides_the_environment_for_kernel_tables(
        tmp_path, monkeypatch):
    cfg = small_config(kernel_grid_step=0.5, k_max=1, recon_K=1,
                       output_dir=str(tmp_path / "from_config"))
    cfg_path = write_config(tmp_path, cfg)
    monkeypatch.delenv("PHASEKIT_OUTPUT_DIR", raising=False)
    assert main(["kernel-table", "--config", cfg_path]) == 0
    assert (tmp_path / "from_config" / "kernel_k1_eta1.txt").exists()
    monkeypatch.setenv("PHASEKIT_OUTPUT_DIR", str(tmp_path / "from_env"))
    assert main(["kernel-table", "--config", cfg_path]) == 0
    assert (tmp_path / "from_env" / "kernel_k1_eta1.txt").exists()
    assert main(["kernel-table", "--config", cfg_path,
                 "--output-dir", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "kernel_k1_eta1.txt").exists()


@pytest.mark.parametrize("overrides, message", [
    (dict(eta=0.4), "plan.eta = 0.40000000000000002, kernel.compensate = "
                    "true: efficiency must satisfy 1/2 < eta <= 1"),
    (dict(kernel_grid_step=10.0), "kernel.grid_step = 10, kernel.x0 = 4: "
                                  "grid step 10.0 leaves no table node "
                                  "inside x0 = 4.0"),
])
def test_pipeline_refuses_kernel_settings_before_any_output(
        tmp_path, capsys, overrides, message):
    cfg = small_config(n_phases=6, events_per_phase=(20,), **overrides)
    out = tmp_path / "out"
    ret = main(["pipeline", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(out)])
    assert ret == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_kernel_table_names_a_grid_step_without_a_table_node(tmp_path,
                                                             capsys):
    cfg = small_config(kernel_grid_step=10.0)
    ret = main(["kernel-table", "--config", write_config(tmp_path, cfg),
                "--output-dir", str(tmp_path / "tables")])
    assert ret == 2
    assert capsys.readouterr().err == (
        "error: kernel.grid_step = 10, kernel.x0 = 4: grid step 10.0 leaves "
        "no table node inside x0 = 4.0; it must be below 2 x0\n")
    assert not (tmp_path / "tables").exists()


@pytest.mark.parametrize("eta, override", [("0.4", []),
                                           ("0.9", ["--eta", "0.45"])])
def test_kernel_table_refuses_an_uncompensatable_eta_before_writing(
        tmp_path, capsys, eta, override):
    path = tmp_path / "run.cfg"
    path.write_text("plan.eta = %s\n" % eta)
    ret = main(["kernel-table", "--config", str(path), *override,
                "--output-dir", str(tmp_path / "tables")])
    assert ret == 2
    assert "kernel.compensate = true: efficiency must satisfy" \
        in capsys.readouterr().err
    assert not (tmp_path / "tables").exists()


def test_estimate_refuses_records_taken_at_another_eta(tmp_path, capsys):
    cfg_path = write_config(tmp_path, small_config(n_phases=6,
                                                   events_per_phase=(20,)))
    records = str(tmp_path / "sim" / "records.txt")
    assert main(["simulate", "--config", cfg_path,
                 "--output-dir", str(tmp_path / "sim")]) == 0
    out = tmp_path / "est"
    ret = main(["estimate", "--config", cfg_path, "--eta", "0.8",
                "--output-dir", str(out), records])
    assert ret == 2
    assert capsys.readouterr().err == (
        "error: plan.eta = 0.80000000000000004, but %s holds records "
        "taken at eta = 1.0\n" % records)
    assert not out.exists()


def test_reconstruct_refuses_orders_the_moments_file_lacks(tmp_path, capsys):
    cfg = small_config(n_phases=6, events_per_phase=(20,), k_max=2,
                       recon_K=2)
    assert main(["pipeline", "--config", write_config(tmp_path, cfg),
                 "--output-dir", str(tmp_path / "run")]) == 0
    moments = str(tmp_path / "run" / "moments.txt")
    cfg_path = write_config(tmp_path, small_config(recon_K=5),
                            name="recon.cfg")
    capsys.readouterr()
    out = tmp_path / "recon"
    ret = main(["reconstruct", "--config", cfg_path, "--output-dir", str(out),
                moments])
    assert ret == 2
    assert capsys.readouterr().err == (
        "error: reconstruct.K = 5, but %s holds no moment of order "
        "k = 3, 4, 5\n" % moments)
    assert not out.exists()


@st.composite
def run_configs(draw):
    """Small vacuum runs drawn on both sides of every RunConfig.check
    rule; returns (config, whether one of those rules is broken)."""
    k_max = draw(st.integers(1, 4))
    n_phases = min(6, k_max + draw(st.integers(0, 3)))
    counts = draw(st.sampled_from([1, n_phases, n_phases, n_phases + 1]))
    counts = tuple(draw(st.lists(st.integers(1, 20), min_size=counts,
                                 max_size=counts)))
    eta = draw(st.sampled_from([0.4, 0.5, 0.5001, 0.8, 1.0]))
    compensate = draw(st.booleans())
    x0 = draw(st.sampled_from([1.0, DEFAULT_X0]))
    step = 2.0 * x0 * draw(st.sampled_from([0.05, 0.5, 0.99, 1.0, 1.3]))
    method = draw(st.sampled_from(METHODS))
    K = draw(st.integers(0, k_max + 1))
    M = max(1, (2 if method == "fourier" else 8) * K
            + draw(st.sampled_from([-1, 0, 1, 5, 20])))
    broken = (
        len(counts) not in (1, n_phases)
        or (compensate and eta <= 0.5)
        or step >= 2.0 * x0
        or (method == "fourier" and M <= 2 * K)
        or (method == "least_squares" and not (K >= 1 and M >= 8 * K))
        or k_max >= n_phases
        or K > k_max
    )
    cfg = RunConfig(n_phases=n_phases, events_per_phase=counts, eta=eta,
                    compensate=compensate, kernel_x0=x0,
                    kernel_grid_step=step, k_max=k_max, recon_method=method,
                    recon_K=K, recon_M=M, reg_lambda=0.01,
                    seed=draw(st.integers(0, 9)))
    return cfg, broken


@given(drawn=run_configs())
@settings(max_examples=150, deadline=None)
def test_pipeline_runs_or_refuses_naming_a_key_before_any_output(
        tmp_path_factory, drawn):
    cfg, broken = drawn
    work = tmp_path_factory.mktemp("run")
    out = work / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        ret = main(["pipeline", "--config", write_config(work, cfg),
                    "--output-dir", str(out)])
    if ret == 0:
        assert sorted(os.listdir(out)) == ["distribution.txt",
                                           "moments.txt", "records.txt"]
    else:
        assert ret == 2, err.getvalue()
        assert not out.exists() or not any(out.iterdir())
        assert any("%s = " % key in err.getvalue() for key in _CONFIG_KEYS)
    assert (ret == 2) == broken, err.getvalue()
