import contextlib
import copy
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiergames.bench.cli import main
from hiergames.bench.runner import (
    CSV_COLUMNS,
    aggregate_rows,
    emit_csv,
    read_csv_rows,
    run_experiment,
)
from hiergames.bench.spec import SpecValidationError, spec_from_dict, validate_spec


def tiny_spec(**overrides):
    spec = {
        "name": "tiny",
        "game": {
            "family": "mlmf",
            "n_leaders": 3,
            "n_followers": 4,
            "demand_slope": 7.0,
            "a_range": [33.0, 37.0],
            "leader_cost_range": [0.0, 100.0],
            "follower_cost": 50.0,
        },
        "solver": {
            "kind": "vr-spp",
            "lam": 0.1,
            "theta": 0.1,
            "schedule": {"kind": "geometric-base", "param": 1.1},
        },
        "budget": {"outer_iters": 5},
        "seeds": [0, 1],
        "residual": {
            "kind": "yosida",
            "lam": 0.1,
            "theta": 0.2,
            "inner_steps": 200,
            "samples_per_step": 4,
            "repeats": 2,
            "cadence": "final",
        },
    }
    spec.update(copy.deepcopy(overrides))
    return spec


def tiny_arspbr_spec(**overrides):
    spec = {
        "name": "tiny-arspbr",
        "game": {"family": "bilevel", "n_players": 3, "lower_quad": 3.0, "a_range": [33.0, 37.0]},
        "solver": {"kind": "arspbr", "smoothing": {"eta": 0.1, "zeta": 0.01}, "record_every": 2},
        "budget": {"outer_iters": 5},
        "seeds": [0, 1],
        "residual": {"kind": "br", "extra_steps": 2, "eval_zeta_scale": 0.2, "cadence": "final"},
    }
    spec.update(copy.deepcopy(overrides))
    return spec


def test_validate_lists_every_offending_field():
    bad = tiny_spec()
    del bad["name"]
    bad["game"]["family"] = "poker"
    bad["seeds"] = []
    bad["budget"] = {}
    problems = validate_spec(bad)
    joined = "\n".join(problems)
    for needle in ("name:", "game.family:", "seeds:", "budget:"):
        assert needle in joined, joined


def test_spec_from_dict_raises_on_problems():
    bad = tiny_spec()
    bad["solver"]["kind"] = "bfgs"
    with pytest.raises(SpecValidationError, match="solver.kind"):
        spec_from_dict(bad)


def test_single_seed_zero_iters_reports_initial_residual():
    spec = spec_from_dict(tiny_spec(budget={"outer_iters": 0}, seeds=[0]))
    aggregates, rows, _ = run_experiment(spec, root_seed=7)
    assert len(rows) == 1
    assert rows[0].iter == 0
    assert rows[0].samples_cum == 0
    assert rows[0].residual > 0
    assert len(aggregates) == 1
    assert aggregates[0].mean_final_residual == rows[0].residual


def test_rows_differ_only_in_stochastic_columns():
    spec = spec_from_dict(tiny_spec())
    _, rows, _ = run_experiment(spec, root_seed=7)
    by_seed = {r.seed: r for r in rows}
    assert set(by_seed) == {0, 1}
    a, b = by_seed[0], by_seed[1]
    assert a.sweep_key == b.sweep_key
    assert a.iter == b.iter
    assert a.samples_cum == b.samples_cum
    assert a.residual != b.residual


def test_csv_round_trip_and_aggregation(tmp_path):
    spec = spec_from_dict(tiny_spec())
    aggregates, rows, _ = run_experiment(spec, root_seed=11)
    path = tmp_path / "runs.csv"
    emit_csv(rows, path)
    parsed = read_csv_rows(path)
    assert parsed == rows
    recomputed = aggregate_rows(parsed)
    assert len(recomputed) == len(aggregates)
    for a, b in zip(recomputed, aggregates):
        assert a.sweep_key == b.sweep_key
        assert abs(a.mean_final_residual - b.mean_final_residual) <= 1e-12
        assert abs(a.residual_std - b.residual_std) <= 1e-12


def test_emit_csv_rejects_empty():
    with pytest.raises(SpecValidationError):
        emit_csv([], "/tmp/should-not-exist.csv")


def test_experiment_deterministic_up_to_wall_time(tmp_path):
    spec_dict = tiny_spec()
    rows1 = run_experiment(spec_from_dict(spec_dict), root_seed=3)[1]
    rows2 = run_experiment(spec_from_dict(spec_dict), root_seed=3)[1]
    strip = lambda r: (r.sweep_key, r.seed, r.iter, r.residual, r.residual_stderr, r.samples_cum)
    assert [strip(r) for r in rows1] == [strip(r) for r in rows2]
    # byte-identical CSVs once the wall-clock column is masked
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, p1)
    emit_csv(rows2, p2)
    mask = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
    assert mask(p1) == mask(p2)


def test_worker_pool_order_independent():
    spec = spec_from_dict(tiny_spec(seeds=[0, 1, 2, 3]))
    rows_seq = run_experiment(spec, root_seed=5, jobs=1)[1]
    rows_par = run_experiment(spec, root_seed=5, jobs=3)[1]
    strip = lambda r: (r.sweep_key, r.seed, r.iter, r.residual, r.samples_cum)
    assert [strip(r) for r in rows_seq] == [strip(r) for r in rows_par]


def test_sweep_applies_values_and_budgets():
    spec = spec_from_dict(
        tiny_spec(
            sweep={
                "path": "game.n_leaders",
                "values": [2, 4],
                "budgets": [{"outer_iters": 2}, {"outer_iters": 3}],
            },
            budget={},
        )
    )
    aggregates, rows, _ = run_experiment(spec, root_seed=1)
    assert [a.sweep_key for a in aggregates] == ["game.n_leaders=2", "game.n_leaders=4"]
    finals = {r.sweep_key: r.iter for r in rows}
    assert finals["game.n_leaders=2"] == 2
    assert finals["game.n_leaders=4"] == 3


def test_instance_is_shared_across_seeds_within_sweep_point(monkeypatch):
    from hiergames.bench import runner
    from hiergames.bench.runner import build_game
    from hiergames.bench.spec import spec_from_dict as parse
    from hiergames import RandomStream

    spec = parse(tiny_spec())
    sweep_stream = RandomStream(9).derive(spec.sweep_key(0))
    g1 = build_game(spec.game, sweep_stream.derive("params"))
    g2 = build_game(spec.game, sweep_stream.derive("params"))
    assert np.array_equal(g1.params.leader_costs, g2.params.leader_costs)

    # A sweep over anything but the game compares its points on one instance.
    games = []

    def capture(game_cfg, stream):
        games.append(build_game(game_cfg, stream))
        return games[-1]

    monkeypatch.setattr(runner, "build_game", capture)
    spec = parse(tiny_arspbr_spec(sweep={"path": "solver.relaxation", "values": ["constant", "power"]}))
    run_experiment(spec, root_seed=9)
    assert len(games) == 4
    for game in games[1:]:
        assert np.array_equal(game.params.curvature, games[0].params.curvature)


def test_cli_validate_and_run(tmp_path, capsys):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(tiny_spec()))
    assert main(["validate", "--spec", str(spec_path)]) == 0

    bad_path = tmp_path / "bad.json"
    bad = tiny_spec()
    bad["seeds"] = "all"
    bad_path.write_text(json.dumps(bad))
    assert main(["validate", "--spec", str(bad_path)]) == 1

    out_dir = tmp_path / "out"
    assert main(["run", "--spec", str(spec_path), "--out", str(out_dir), "--seed", "17"]) == 0
    assert (out_dir / "runs.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "summary.md").exists()
    with open(out_dir / "runs.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == CSV_COLUMNS
    capsys.readouterr()

    assert main(["tables", "--in", str(tmp_path)]) == 0
    tables_out = capsys.readouterr().out
    assert "mean final residual" in tables_out

    assert main(["plotdata", "--in", str(out_dir), "--out", str(tmp_path / "plots")]) == 0
    dats = list((tmp_path / "plots").glob("*.dat"))
    assert dats and dats[0].read_text().startswith("# iter residual samples_cum")


# Line 3 of the file is malformed.  Undecodable bytes are found while the
# file is read in blocks, before the row they sit in is parsed, so that error
# names the line the parser had reached.
MALFORMED_ROWS = [
    ("bad-int", b"k,0,abc,0.5,0.1,10,1.0", "line 3: invalid literal"),
    ("missing-field", b"k,0,1,0.5,0.1,10", "line 3: expected 7 fields"),
    ("extra-field", b"k,0,1,0.5,0.1,10,1.0,9", "line 3: expected 7 fields"),
    ("not-utf8", b"k\xff,0,1,0.5,0.1,10,1.0", "can't decode"),
]


@pytest.mark.parametrize("label,row,message", MALFORMED_ROWS, ids=[m[0] for m in MALFORMED_ROWS])
@pytest.mark.parametrize("command", ["tables", "plotdata"])
def test_malformed_runs_csv_is_a_validation_error(tmp_path, command, label, row, message):
    run_dir = tmp_path / "r"
    run_dir.mkdir()
    path = run_dir / "runs.csv"
    path.write_bytes((",".join(CSV_COLUMNS) + "\nk,0,0,0.5,0.1,0,0.0\n").encode() + row + b"\n")
    with pytest.raises(SpecValidationError, match=message):
        read_csv_rows(path)
    code, err = _cli([command, "--in", str(tmp_path)])
    assert code == 1
    assert f"{path}, line " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["tables", "plotdata"])
def test_unreadable_runs_csv_is_a_runtime_error(tmp_path, command):
    (tmp_path / "r" / "runs.csv").mkdir(parents=True)
    code, err = _cli([command, "--in", str(tmp_path)])
    assert code == 2
    assert "runtime error:" in err and "Traceback" not in err


def test_cli_run_rejects_missing_spec(tmp_path):
    assert main(["run", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o"), "--seed", "1"]) == 1


def test_non_utf8_spec_is_a_validation_error(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(b'{"name": "x\xff"}')
    for argv in (["validate"], ["run", "--out", str(tmp_path / "o"), "--seed", "1"]):
        code, err = _cli([*argv, "--spec", str(spec_path)])
        assert code == 1 and err.startswith("validation error:") and "spec: " in err, err
        assert "Traceback" not in err, err


def test_failing_solver_is_a_runtime_error(tmp_path, monkeypatch):
    from hiergames.solvers import sg

    def overflowing(*args, **kwargs):
        raise OverflowError("injected")

    monkeypatch.setattr(sg, "run", overflowing)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPECS["sg"]))
    code, err = _cli(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 2
    assert err.count("runtime error:") == 1 and "injected" in err, err
    assert "Traceback" not in err, err


def test_unmapped_exception_propagates(tmp_path, monkeypatch):
    from hiergames.bench import cli

    class Bug(Exception):
        pass

    def broken(*args, **kwargs):
        raise Bug

    monkeypatch.setattr(cli, "run_experiment", broken)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec()))
    with pytest.raises(Bug):
        main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o"), "--seed", "1"])


@pytest.mark.parametrize("argv", [
    ["run", "--spec", "x.json", "--out", "o", "--seed", "abc"],
    ["run", "--spec", "x.json"],
    ["bogus"],
], ids=["bad-seed", "missing-options", "unknown-command"])
def test_usage_error_is_a_validation_error(argv):
    code, err = _cli(argv)
    assert code == 1
    assert err.count("validation error:") == 1 and "Traceback" not in err, err


def test_help_exits_zero():
    assert _cli(["--help"])[0] == 0
    assert _cli(["run", "--help"])[0] == 0


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_run_rejects_jobs_below_one(tmp_path, jobs):
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(tiny_spec()))
    out = tmp_path / "o"
    code, err = _cli(["run", "--spec", str(spec_path), "--out", str(out), "--seed", "1",
                      "--jobs", jobs])
    assert code == 1
    assert "validation error:" in err and "--jobs" in err
    assert not out.exists()


def test_worker_pool_never_exceeds_run_count(monkeypatch):
    from hiergames.bench import runner

    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    budget = {"budget": {"outer_iters": 1}}
    run_experiment(spec_from_dict(tiny_spec(**budget)), root_seed=5, jobs=64)  # 2 runs
    run_experiment(spec_from_dict(tiny_spec(seeds=[0, 1, 2, 3], **budget)), root_seed=5, jobs=3)
    run_experiment(spec_from_dict(tiny_spec(seeds=[0], **budget)), root_seed=5, jobs=64)
    assert sizes == [2, 3]


def test_bundled_specs_validate():
    from pathlib import Path

    spec_dir = Path(__file__).resolve().parents[1] / "specs"
    files = sorted(spec_dir.glob("*.json"))
    assert files, "bundled experiment specs are missing"
    for path in files:
        problems = validate_spec(json.loads(path.read_text()))
        assert not problems, f"{path.name}: {problems}"

    # The benchmark's workload specs must pass the same validator.
    import importlib.util

    bench_file = spec_dir.parent / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", bench_file)
    workloads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, pairs in workloads.WORKLOADS.items():
        for label, spec in pairs:
            problems = validate_spec(spec)
            assert not problems, f"{name}/{label}: {problems}"


def _subprocess_env(*paths):
    """A bare environment with ``paths`` as PYTHONPATH that passes
    PYTHONDONTWRITEBYTECODE through."""
    env = {"PYTHONPATH": ":".join(map(str, paths)), "PATH": ""}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def test_benchmark_trace_installs():
    # The traced benchmark wraps oracle, solver and runner functions by
    # attribute; a renamed or deleted one must fail here, not only under
    # `perfbench/run.py --trace 1`.  A subprocess keeps the wrappers out of
    # this session.
    import subprocess
    import sys

    root = Path(__file__).resolve().parents[1]
    code = "import tracing; tracing.install(); print('installed')"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=_subprocess_env(root / "src", root / "perfbench"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_benchmark_setup_probe(tmp_path):
    # `perfbench/workload.py --setup-only` stops `hiergames run` at its first
    # call into the runner by raising its own exception through `cli.main`;
    # a catch-all there would turn every `setup_s` probe into a failure.
    import subprocess
    import sys
    import time

    root = Path(__file__).resolve().parents[1]
    specs = tmp_path / "specs"
    specs.mkdir()
    (specs / "manifest.json").write_text(json.dumps(["tiny"]))
    (specs / "tiny.json").write_text(json.dumps(tiny_spec(seeds=[0])))
    result = tmp_path / "result.json"
    argv = [sys.executable, str(root / "perfbench" / "workload.py"), "--setup-only",
            "--specs", str(specs), "--out", str(tmp_path / "out"), "--seed", "1",
            "--t-spawn", repr(time.monotonic()), "--result", str(result)]
    proc = subprocess.run(argv, cwd=root, env=_subprocess_env(root / "src"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["metrics"]["setup_s"] > 0


def _residuals_point_by_point(spec, root_seed):
    """``report.residuals`` of ``run_single`` computed independently of the
    runner's batching: a plain solve, then one one-point residual call per
    due recorded iterate."""
    from hiergames import RandomStream
    from hiergames.bench import runner
    from hiergames.bench.spec import build_run
    from hiergames.residuals import BrResidualConfig, br_residual, yosida_residual
    from hiergames.solvers import sg, vr_spp
    from hiergames.solvers.smoothing import arspbr_run

    root = RandomStream(root_seed)
    plan = build_run(spec, root.derive(spec.name).derive("params"), runner.build_game)
    game, cfg = plan.game, plan.residual
    run_stream = root.derive(spec.sweep_key(0)).derive(spec.seeds[0])
    eval_root = run_stream.derive("eval")
    x0 = runner._draw_x0(game, spec, run_stream.derive("x0"))
    solve = run_stream.derive("solve")
    if isinstance(plan.solver, vr_spp.VrSppConfig):
        report = vr_spp.run(game, plan.solver, x0, solve)
    elif isinstance(plan.solver, sg.SgConfig):
        report = sg.run(game, plan.solver, x0, solve)
    else:
        report = arspbr_run(game, plan.smoothing, plan.solver, x0, solve)

    out = []
    for k, x in zip(report.recorded_iters, report.iterates):
        final = k == plan.iters
        if not (final if plan.cadence == "final" else final or k % plan.cadence == 0):
            continue
        if isinstance(cfg, BrResidualConfig):
            sm = plan.smoothing
            steps = sm.inner_steps(max(plan.iters, 1)) + cfg.extra_steps
            eval_zeta = cfg.eval_zeta_scale * sm.zeta
            value = br_residual(game, sm, x, steps, eval_root.derive(k), eval_zeta=eval_zeta)
            out.append((k, value, 0.0))
        else:
            out.append((k, *yosida_residual(game, x, cfg, eval_root.derive(k))))
    return out


@pytest.mark.parametrize("raw", [
    # 31 points x 5 repeats: more lanes than one resolvent_lanes call takes
    tiny_spec(budget={"outer_iters": 30}, seeds=[0],
              residual={"kind": "yosida", "lam": 0.1, "theta": 0.2, "inner_steps": 100,
                        "samples_per_step": 4, "repeats": 5, "cadence": 1}),
    # the final iterate, 1100, is due apart from the cadence
    tiny_arspbr_spec(budget={"outer_iters": 1100}, seeds=[0],
                     solver={"kind": "arspbr", "smoothing": {"eta": 0.1, "zeta": 0.01},
                             "record_every": 100},
                     residual={"kind": "br", "extra_steps": 2, "eval_zeta_scale": 0.2,
                               "cadence": 500}),
], ids=["vr-spp-cadence-1", "arspbr-cadence-500"])
def test_residual_work_stays_inside_the_timed_residual_calls(monkeypatch, raw):
    # The benchmark charges a run's time to measurement only inside
    # runner.yosida_residual and runner.br_residual; residual work anywhere
    # else would count as solver time.
    from hiergames import residuals
    from hiergames.bench import runner

    spec = spec_from_dict(raw).resolved(0)
    expected = _residuals_point_by_point(spec, root_seed=3)
    depth, calls, inner = [0], [], {"inside": 0, "outside": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def watched(fn):
        def wrapper(*args, **kwargs):
            inner["inside" if depth[0] else "outside"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(runner, "yosida_residual", counted(runner.yosida_residual))
    monkeypatch.setattr(runner, "br_residual", counted(runner.br_residual))
    monkeypatch.setattr(residuals, "resolvent_lanes", watched(residuals.resolvent_lanes))
    monkeypatch.setattr(residuals, "zsol_solve", watched(residuals.zsol_solve))
    rows, report, _ = runner.run_single(spec, spec.sweep_key(0), 0, root_seed=3)

    assert inner["outside"] == 0 and inner["inside"] > 0, inner
    if raw["residual"]["kind"] == "yosida":
        assert calls == ["yosida_residual"]  # all 31 points in one call
        assert len(expected) == 31
    else:
        assert calls == ["br_residual"] * 4 and [k for k, _, _ in expected] == [0, 500, 1000, 1100]
    assert report.residuals == expected
    assert [(r.iter, r.residual, r.residual_stderr) for r in rows] == expected


def test_sweep_path_head_is_validated():
    bad = tiny_spec(sweep={"path": "universe.n", "values": [1]})
    assert any("sweep.path" in p for p in validate_spec(bad))


def test_run_report_invariants():
    from hiergames import RunReport

    rep = RunReport()
    rep.record(0, np.zeros(2), 0)
    rep.record(1, np.ones(2), 5)
    rep.validate()
    assert rep.total_samples == 5
    assert np.array_equal(rep.final_iterate, np.ones(2))
    rep.samples_used[1] = -1
    with pytest.raises(ValueError, match="nondecreasing"):
        rep.validate()
    with pytest.raises(ValueError, match="no residuals"):
        _ = rep.final_residual


@pytest.mark.parametrize("solver", ["vr-spp", "sg", "arspbr"])
def test_wall_ms_is_elapsed_solver_time(solver):
    import time

    from hiergames import RandomStream
    from hiergames.solvers import sg, vr_spp
    from hiergames.solvers.smoothing import ArspbrConfig, SmoothingParams, arspbr_run

    from conftest import LinearToy

    game, x0, stream = LinearToy(slope=1.0), np.array([1.0]), RandomStream(8)
    started = time.perf_counter()
    if solver == "vr-spp":
        schedule = vr_spp.SampleSchedule("geometric-base", 1.5)
        report = vr_spp.run(game, vr_spp.VrSppConfig(0.1, 0.1, schedule, 8), x0, stream)
    elif solver == "sg":
        report = sg.run(game, sg.SgConfig(alpha0=0.1, total_iters=50, record_every=5), x0, stream)
    else:
        report = arspbr_run(game, SmoothingParams(), ArspbrConfig(outer_iters=20), x0, stream)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    assert len(report.wall_ms) == len(report.iterates) > 2
    assert all(b >= a for a, b in zip(report.wall_ms, report.wall_ms[1:]))
    assert 0.0 <= report.wall_ms[0] and report.wall_ms[-1] <= elapsed_ms


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_numeric_failure_marks_row_and_exit_code(tmp_path):
    # A divergent configuration (huge steplength on a stiff game) must mark
    # its rows failed and make the CLI exit with the runtime code.
    spec = tiny_spec()
    spec["solver"] = {"kind": "sg", "alpha0": 1e12, "record_every": 100}
    spec["budget"] = {"total_iters": 20000}
    spec["game"]["family"] = "bilevel"
    spec["game"] = {"family": "bilevel", "n_players": 3, "a_range": [33.0, 37.0]}
    spec["seeds"] = [0]
    spec_path = tmp_path / "diverge.json"
    spec_path.write_text(json.dumps(spec))
    code = main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 2
    rows = read_csv_rows(tmp_path / "o" / "runs.csv")
    assert any(np.isnan(r.residual) and r.iter == -1 for r in rows)


# ------------------------------------------------------- spec -> run contract

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"


def _mutated(spec, path, value):
    spec = copy.deepcopy(spec)
    *parents, last = path.split(".")
    node = spec
    for part in parents:
        node = node[part]
    node[last] = value
    return spec


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # the parser exits on usage errors and --help
            code = stop.code
    return code, err.getvalue()


# The first six specs the validator accepted before it built the configs:
# four then crashed `run` with a traceback, two ran with a field ignored or
# misread.  The seventh crashed both commands with a MemoryError traceback.
# The last two repeated a run and wrote its rows twice.
REJECTED_SPECS = [
    ("mlmf_rate_polynomial.json", "solver.schedule.kind", "bogus", "solver.schedule.kind:"),
    ("mlmf_rate_polynomial.json", "residual.kind", "br", "residual.kind:"),
    ("mlmf_rate_polynomial.json", "residual.repeats", 0, "residual.repeats:"),
    ("mlmf_rate_polynomial.json", "solver.lamm", 0.1, "solver.lamm:"),
    ("bilevel_eta_sweep.json", "game.lower_quad", 0, "game.lower_quad:"),
    ("mlmf_sg.json", "budget", {"max_samples": 100}, "budget.max_samples:"),
    # numpy refuses 10^12 leader costs (7.28 TiB) before allocating any.
    ("mlmf_sg.json", "sweep", {"path": "game.n_leaders", "values": [10**12]}, "game: Unable"),
    ("mlmf_sg.json", "seeds", [0, 0], "seeds:"),
    ("bilevel_arspbr.json", "sweep.values", ["power", "power"], "sweep.values:"),
]


@pytest.mark.parametrize("file,path,value,needle", REJECTED_SPECS)
def test_validate_rejects_what_run_cannot_execute(tmp_path, file, path, value, needle):
    spec = _mutated(json.loads((SPEC_DIR / file).read_text()), path, value)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    for argv in (["validate"], ["run", "--out", str(tmp_path / "o"), "--seed", "1"]):
        code, err = _cli([*argv, "--spec", str(spec_path)])
        assert code == 1 and err.startswith("validation error:") and needle in err, err
        assert "Traceback" not in err, err


def _paths(node, prefix=""):
    """Every key path of a spec, plus one unknown key in every object."""
    out = [f"{prefix}unknown_key"]
    for key, value in node.items():
        out.append(prefix + key)
        if isinstance(value, dict):
            out += _paths(value, f"{prefix}{key}.")
    return out


TINY_YOSIDA = dict(tiny_spec()["residual"], inner_steps=50)
TINY_SPECS = {
    "vr-spp": tiny_spec(seeds=[0], residual=TINY_YOSIDA),
    "sg": tiny_spec(
        solver={"kind": "sg", "alpha0": 0.1, "record_every": 2},
        budget={"total_iters": 5},
        seeds=[0],
        residual=TINY_YOSIDA,
    ),
    "arspbr": tiny_arspbr_spec(seeds=[0]),
}
MUTATIONS = [(kind, path) for kind, spec in TINY_SPECS.items() for path in _paths(spec)]
VALUE_POOL = [-1, 0, 0.5, 2, "text", None, "bogus"]


@settings(max_examples=120, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS), value=st.sampled_from(VALUE_POOL))
@example(mutation=("vr-spp", "solver.schedule.kind"), value="bogus")
@example(mutation=("vr-spp", "residual.kind"), value="br")
@example(mutation=("vr-spp", "residual.repeats"), value=0)
@example(mutation=("vr-spp", "solver.lamm"), value=0.1)
@example(mutation=("arspbr", "game.lower_quad"), value=0)
@example(mutation=("sg", "budget"), value={"max_samples": 100})
def test_validated_specs_run_without_traceback(mutation, value):
    kind, path = mutation
    spec = _mutated(TINY_SPECS[kind], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        if validate_spec(spec):
            assert _cli(["validate", "--spec", str(spec_path)])[0] == 1
        else:
            code, err = _cli(["run", "--spec", str(spec_path), "--out", tmp, "--seed", "3"])
            assert code in (0, 2) and "Traceback" not in err, err
