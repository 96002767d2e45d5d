"""Command-line layer: config files, stage wiring, exit codes.

Every invocation goes through main(argv) in-process; stdout/stderr and
exit codes are asserted rather than stack traces.  The central wiring
property is composability: running the three stages separately must
produce byte-identical outputs to the one-shot pipeline.
"""

import math

import numpy as np
import pytest

from phasekit.cli import RunConfig, main, parse_config
from phasekit.kernels import KernelSpec, KernelTable, build_kernel_table
from phasekit.reconstruct import load_distribution
from phasekit.simulator import load_records
from phasekit.states import StateSpec


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
    ret = main([
        "kernel-table", "--k", "1", "--k", "2",
        "--grid-step", "0.05", "--output-dir", str(tmp_path),
    ])
    assert ret == 0
    out = capsys.readouterr().out
    for k in (1, 2):
        path = tmp_path / ("kernel_k%d_eta1.txt" % k)
        assert path.exists()
        assert str(path) in out
        text = path.read_text()
        assert text.startswith("# config: ")
        table = KernelTable.from_text(text)
        rebuilt = build_kernel_table(KernelSpec(k=k), grid_step=0.05)
        assert np.allclose(table.values, rebuilt.values, rtol=1e-14)


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
    cfg = small_config(eta=0.4, n_phases=2, events_per_phase=(20,))
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
    lines[row] = lines[row].rsplit(",", 1)[0] + ", nan"
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
    assert out.count("[PASS]") == 10
    assert "[FAIL]" not in out
    assert "all identity suites passed" in out
