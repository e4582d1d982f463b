import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dclwe import ConfigError, EmptyResult, ErrorDistribution, choose_parameters
from dclwe.cli import (
    ExperimentConfig,
    build_config,
    emit,
    main,
    point_budget,
    read_config_file,
    report_bounds,
    run_experiment,
    run_point_trial,
)
from dclwe.oracle import coordinate_law

from _laws import elimination_law, mode_law


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _config(**overrides) -> ExperimentConfig:
    base = {"n": "2", "q": "101", "trials": "3", "seed": "777"}
    base.update({k: str(v) for k, v in overrides.items()})
    return build_config(None, base)


def _strip_wall(record: dict) -> dict:
    row = dict(record)
    row.pop("wall_time_ms")
    return row


def test_defaults_fill_unset_fields():
    config = build_config(None, {})
    assert config.n == (4,)
    assert config.q == (101,)
    assert config.xi == (1,)
    assert config.kappa == (1.0,)
    assert config.sigma == (None,)
    assert config.gamma == (0.125,)
    assert config.delta == (0.2,)
    assert config.v_size == (None,)
    assert config.chi_kind == "uniform"
    assert config.mode == "controlled"
    assert config.trials == 100
    assert config.seed == 12345


def test_precedence_cli_over_file_over_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment grid\n"
        "n = 6\n"
        "q = 31          # inline comment\n"
        "\n"
        "trials = 9\n"
    )
    file_values = read_config_file(cfg)
    assert file_values == {"n": "6", "q": "31", "trials": "9"}
    config = build_config(file_values, {"q": "101"})
    assert config.n == (6,)      # from file
    assert config.q == (101,)    # CLI wins
    assert config.trials == 9    # from file
    assert config.xi == (1,)     # default


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("q 101\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)
    bad.write_text("modulus = 101\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)


def test_sweep_axes_expand_as_a_product():
    config = _config(q="101,401", gamma="0.1,0.125,0.2")
    points = config.points()
    assert len(points) == 6
    assert [(p.q, p.gamma) for p in points] == [
        (101, 0.1), (101, 0.125), (101, 0.2),
        (401, 0.1), (401, 0.125), (401, 0.2),
    ]


def test_only_sweepable_fields_take_lists():
    with pytest.raises(ConfigError):
        _config(trials="3,4")
    config = _config(xi="0,1")
    assert config.xi == (0, 1)


def test_none_literals_for_optional_fields():
    config = _config(sigma="none", v_size="none")
    assert config.sigma == (None,)
    assert config.v_size == (None,)
    config = _config(sigma="1.5", v_size="50", chi_kind="gaussian")
    assert config.sigma == (1.5,)
    assert config.v_size == (50,)


def test_validation_messages_name_the_field():
    cases = {
        "q": {"q": "8"},
        "xi": {"xi": "-1"},
        "kappa": {"kappa": "0"},
        "kappa/xi": {"kappa": "1.5"},
        "gamma": {"gamma": "0.3"},
        "delta": {"delta": "1.5"},
        "v_size": {"v_size": "200"},
        "mode": {"mode": "sideways"},
        "chi_kind": {"chi_kind": "laplace"},
        "trials": {"trials": "0"},
        "seed": {"seed": "-4"},
        "n": {"n": "0"},
        "sigma": {"sigma": "-2"},
    }
    for field, overrides in cases.items():
        with pytest.raises(ConfigError) as err:
            _config(**overrides)
        assert str(err.value).startswith(f"{field}:"), (field, str(err.value))


def test_oversized_error_bound_is_a_config_error():
    with pytest.raises(ConfigError):
        _config(q="7", xi="4")


def test_run_point_trial_is_deterministic():
    point = _config().points()[0]
    budget = point_budget(0, point)
    a = run_point_trial(point, budget, 777, 0, 0)
    b = run_point_trial(point, budget, 777, 0, 0)
    assert _strip_wall(a) == _strip_wall(b)
    c = run_point_trial(point, budget, 777, 0, 1)
    assert _strip_wall(c) != _strip_wall(a)


def test_run_experiment_shape_and_reproducibility():
    config = _config(q="101", n="2,3", trials=2)
    records = run_experiment(config)
    assert len(records) == 4  # 2 points x 2 trials
    again = run_experiment(config)
    assert [_strip_wall(r) for r in records] == [_strip_wall(r) for r in again]
    for r in records:
        assert r["outcome"] in ("success", "failure", "wrong_accept")
        assert r["quantum_samples"] <= r["n"] * r["L"]
        assert len(r["coordinate_candidates"].split(";")) == r["n"]
        assert len(r["coordinate_nulls"].split(";")) == r["n"]


def test_run_experiment_worker_count_does_not_change_results():
    config = _config(trials=4)
    serial = run_experiment(config, workers=1)
    parallel = run_experiment(config, workers=2)
    assert [_strip_wall(r) for r in serial] == [_strip_wall(r) for r in parallel]


def test_workers_below_one_are_refused(capsys):
    for command in ("solve", "sweep"):
        for workers in ("0", "-3"):
            argv = [command, "--n", "2", "--q", "101", "--trials", "1", "--workers", workers]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "workers: must be at least 1" in captured.err
            assert captured.out == ""


def test_worker_pool_is_capped_at_the_task_count(monkeypatch):
    import dclwe.cli as cli_module

    requested = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", RecordingPool)
    config = _config(trials=3)
    serial = [_strip_wall(r) for r in run_experiment(config)]
    assert requested == []
    assert [_strip_wall(r) for r in run_experiment(config, workers=10**6)] == serial
    assert requested == [3]
    run_experiment(config, workers=2)
    assert requested == [3, 2]
    run_experiment(_config(trials=1), workers=8)  # one task runs in this process
    assert requested == [3, 2]


def test_emit_csv_round_trips():
    config = _config(trials=2)
    rows = run_experiment(config)
    buf = io.StringIO()
    emit(rows, "csv", buf)
    parsed = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(parsed) == len(rows)
    assert parsed[0]["q"] == "101"
    assert parsed[0]["outcome"] == rows[0]["outcome"]
    assert parsed[0]["v_size"] == ""  # None serializes empty


def test_emit_json_round_trips_with_rounded_floats():
    rows = [{"x": 1 / 3, "name": "a", "flag": True, "none": None}]
    buf = io.StringIO()
    emit(rows, "json", buf)
    back = json.loads(buf.getvalue())
    assert back == [{"x": 0.333333333333, "name": "a", "flag": True, "none": None}]


def test_emit_rejects_empty_and_unknown_format():
    with pytest.raises(EmptyResult):
        emit([], "csv", io.StringIO())
    with pytest.raises(ConfigError):
        emit([{"a": 1}], "xml", io.StringIO())


def test_report_bounds_rows_and_feasibility_columns():
    config = _config(q="101", xi="1", kappa="1,2", trials=200)
    rows = report_bounds(config)
    assert len(rows) == 2
    for row in rows:
        assert not row["violated"]
        assert row["exact_p"] >= row["lower_bound"] - 1e-10
        assert abs(row["empirical_p"] - row["exact_p"]) <= row["empirical_3sigma"] + 0.02
        assert row["L"] is not None and row["M"] is not None
        # both wrong-accept forms ride along; the integer-count form
        # dominates the continuous one since (2 xi' + 1)/q > 2 kappa alpha.
        assert row["wrong_accept_exact"] > row["wrong_accept_approx"]
    # kappa = 8 makes L overflow q: the bound columns go empty but the
    # grid row remains.
    rows = report_bounds(_config(q="101", xi="1", kappa="8", trials=100))
    assert rows[0]["L"] is None and rows[0]["wrong_accept_exact"] is None


def test_report_bounds_needs_a_noise_scale():
    with pytest.raises(ConfigError):
        report_bounds(_config(xi="0"))


def test_main_solve_prints_summary_and_writes_records(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(
        [
            "solve",
            "--n", "2",
            "--q", "101",
            "--trials", "3",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "point 0:" in printed
    assert "trials=3" in printed
    parsed = list(csv.DictReader(out.open()))
    assert len(parsed) == 3


def test_main_sweep_emits_to_stdout(capsys):
    code = main(["sweep", "--n", "2", "--q", "101", "--trials", "2", "--format", "json"])
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 2
    assert records[0]["n"] == 2


_SWEEP_COLUMNS = [
    "point_index", "trial_index", "n", "q", "xi", "kappa", "sigma", "gamma", "delta", "v_size",
    "chi_kind", "mode", "seed", "xi_prime", "L", "M", "outcome", "coordinate_candidates",
    "coordinate_nulls", "quantum_samples", "test_samples", "wall_time_ms",
]


def test_sweep_records_keep_their_columns_in_order(capsys):
    argv = ["sweep", "--n", "2", "--q", "101", "--trials", "2", "--seed", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(_SWEEP_COLUMNS)
    assert main(argv + ["--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [list(r) for r in records] == [_SWEEP_COLUMNS] * 2


def test_main_qram_cost_prints_value(capsys):
    code = main(
        ["qram-cost", "--q", "2", "--n", "4", "--d", "2",
         "--scheme", "primitive", "--sample-form", "full"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "4"


def test_main_maps_config_errors_to_exit_2(capsys):
    assert main(["solve", "--q", "8", "--trials", "1"]) == 2
    assert "q:" in capsys.readouterr().err
    # Feasibility failures (budget exceeds the field) map the same way.
    assert main(["solve", "--q", "101", "--kappa", "8", "--trials", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err
    # A non-integer kappa * xi is refused by every subcommand, bounds included.
    assert main(["bounds", "--q", "101", "--xi", "1", "--kappa", "1.5", "--trials", "1"]) == 2
    assert "kappa/xi: kappa * xi = 1.5" in capsys.readouterr().err
    # Uniform noise has no width, so sigma is refused with it in any mode.
    for argv in (
        ["sweep", "--sigma", "0.5", "--trials", "1"],
        ["sweep", "--mode", "elimination", "--sigma", "0.5", "--trials", "1"],
        ["bounds", "--sigma", "0.5", "--trials", "1"],
    ):
        assert main(argv) == 2
        assert "sigma: has no effect with uniform noise" in capsys.readouterr().err


@settings(max_examples=30, deadline=None)
@given(
    command=st.sampled_from(["solve", "sweep"]),
    n=st.integers(1, 3),
    q=st.sampled_from([31, 101]),
    mode=st.sampled_from(["controlled", "elimination"]),
    chi_kind=st.sampled_from(["uniform", "gaussian"]),
    v_size=st.one_of(st.none(), st.integers(1, 100)),
    sigma=st.sampled_from([None, None, None, 0.4, 1.5]),  # a set sigma runs only with gaussian noise
    seed=st.integers(0, 1000),
)
def test_small_configs_run_or_exit_with_a_reason(command, n, q, mode, chi_kind, v_size, sigma, seed):
    argv = [command, "--n", str(n), "--q", str(q), "--mode", mode, "--chi-kind", chi_kind]
    argv += ["--trials", "1", "--seed", str(seed)]
    if v_size is not None and v_size < q:
        argv += ["--v-size", str(v_size)]
    if sigma is not None:
        argv += ["--sigma", str(sigma)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3)


def test_elimination_runs_that_cannot_succeed_are_refused(capsys):
    # At xi' = 1 a noisy row's offset r . e is nearly uniform, so a true
    # candidate fails its own trials about as often as a wrong one passes:
    # the law predicts success far below 1 - delta.
    argv = ["--mode", "elimination", "--n", "2", "--q", "101", "--seed", "3", "--trials", "2"]
    params = choose_parameters(2, 101, 1, 1.0, 0.2)
    success, shots, _ = coordinate_law(
        *elimination_law(2, 101, ErrorDistribution("uniform", 1), 1, 101), params.L, params.M
    )
    message = (
        f"point 0 (n=2, q=101, xi=1, kappa=1): elimination's predicted success {success**2:.4g}"
        f" lies below 1 - delta = 0.8 ({2 * shots:.1f} shots per solve)"
    )
    assert main(["solve", *argv]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    # A sweep runs anyway and warns.
    assert main(["sweep", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {message}\n"
    assert len(list(csv.DictReader(io.StringIO(captured.out)))) == 2
    # Without noise every full-field row is correct, so the run goes ahead.
    assert main(["solve", *argv, "--xi", "0"]) == 0
    assert "success=1.000" in capsys.readouterr().out


def test_a_refused_elimination_solve_draws_nothing(monkeypatch, capsys):
    import dclwe.cli as cli_module
    import dclwe.solver as solver_module

    def no_draw(*args, **kwargs):
        raise AssertionError("an instance or an elimination row was drawn")

    # All three modes draw their rows through _shots, so this patch reaches
    # every row of any solve, each elimination row included; a point the
    # CLI accepts must trip it.
    monkeypatch.setattr(solver_module, "_shots", no_draw)
    live = ["--kappa", "2", "--v-size", "40", "--chi-kind", "gaussian"]
    with pytest.raises(AssertionError, match="an elimination row was drawn"):
        main(["solve", "--mode", "elimination", "--n", "3", "--q", "101", *live])
    capsys.readouterr()
    monkeypatch.setattr(cli_module, "make_instance", no_draw)
    for extra in (
        ["--kappa", "2"],  # noisy full field: every true candidate fails its trials
        ["--xi", "0", "--v-size", "1", "--trials", "5", "--seed", "1"],  # one input: 1/q on the atom
    ):
        assert main(["solve", "--mode", "elimination", "--n", "3", "--q", "101", *extra]) == 2, extra
        captured = capsys.readouterr()
        assert "elimination's predicted success" in captured.err and "below 1 - delta = 0.8" in captured.err
        assert captured.out == ""


def test_a_controlled_point_its_law_predicts_to_miss_delta_is_refused(monkeypatch, capsys):
    # With batches of 40 of q = 401 inputs a shot is correct with about
    # 0.022, so L = 119 shots leave about 7% of coordinates unsettled, and
    # the law predicts 0.5277 for a solve of n = 8 coordinates, not 0.8.
    import dclwe.cli as cli_module

    point = ["--n", "8", "--q", "401", "--kappa", "2", "--v-size", "40"]
    params = choose_parameters(8, 401, 1, 2.0, 0.2)
    law = mode_law("controlled", 8, 401, ErrorDistribution("uniform", 1), params.xi_prime, 40)
    assert abs(coordinate_law(*law, params.L, params.M)[0] ** 8 - 0.5277) < 5e-5
    message = (
        "point 0 (n=8, q=401, xi=1, kappa=2): controlled's predicted success 0.5277"
        " lies below 1 - delta = 0.8 (340.4 shots per solve)"
    )
    drawn = []
    real_make_instance = cli_module.make_instance

    def spy(*args, **kwargs):
        drawn.append(args)
        return real_make_instance(*args, **kwargs)

    monkeypatch.setattr(cli_module, "make_instance", spy)
    assert main(["solve", *point, "--trials", "200", "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n" and captured.out == ""
    assert drawn == []
    # A sweep warns and still runs the point.
    assert main(["sweep", *point, "--trials", "2", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {message}\n"
    assert len(list(csv.DictReader(io.StringIO(captured.out)))) == 2
    assert len(drawn) == 2


def test_an_elimination_point_that_can_succeed_runs_without_a_warning(capsys):
    # Gaussian noise at sigma = xi/3 draws e = 0 in most rows, so r . e = 0:
    # the law predicts 0.9996, whatever the worst-case amplification.
    argv = ["--mode", "elimination", "--n", "3", "--q", "101", "--kappa", "2", "--v-size", "40"]
    argv += ["--chi-kind", "gaussian", "--trials", "20", "--seed", "1"]
    assert main(["solve", *argv]) == 0
    captured = capsys.readouterr()
    assert "success=1.000" in captured.out and captured.err == ""
    assert main(["sweep", *argv, "--trials", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_an_infeasible_later_point_is_refused_before_any_solve(monkeypatch, capsys):
    # q=11 leaves no budget (L=96 > q) at kappa=2; the q=101 point runs fine alone.
    import dclwe.cli as cli_module

    solves = []
    real_solve = cli_module.solve

    def spy(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli_module, "solve", spy)
    for command in ("solve", "sweep"):
        for mode in ("controlled", "elimination"):
            argv = [command, "--n", "4", "--q", "101,11", "--xi", "1", "--kappa", "2"]
            assert main([*argv, "--mode", mode, "--trials", "30", "--seed", "1"]) == 2
            assert solves == [], (command, mode)
            captured = capsys.readouterr()
            assert "point 1 (n=4, q=11, xi=1, kappa=2)" in captured.err
            assert "L=96 exceeds q=11" in captured.err
            assert captured.out == ""


def test_an_unusable_config_or_out_path_is_refused_before_any_draw(tmp_path, monkeypatch, capsys):
    import dclwe.cli as cli_module

    calls = []

    def spy(name):
        real = getattr(cli_module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("solve", "synth_reduced_batch"):  # the first draws of solves and bounds
        monkeypatch.setattr(cli_module, name, spy(name))
    missing_dir = tmp_path / "no_such_dir"
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"n = 2\n\xc0\xff\n")
    cases = (
        (["--out", str(missing_dir / "x.csv")], f"out: cannot write {missing_dir}"),
        (["--config", str(missing_dir / "x.cfg")], f"config: cannot read {missing_dir}"),
        (["--config", str(tmp_path)], f"config: cannot read {tmp_path}"),  # a directory
        (["--config", str(binary)], f"config: cannot read {binary}: not a text file"),
    )
    for command in ("solve", "sweep", "bounds"):
        for extra, message in cases:
            assert main([command, "--n", "2", "--q", "101", "--trials", "1", *extra]) == 2
            captured = capsys.readouterr()
            assert f"configuration error: {message}" in captured.err, (command, extra)
            assert captured.out == ""
            assert calls == [], (command, extra)
    assert not missing_dir.exists()


def test_out_is_replaced_by_a_run_and_left_alone_by_a_refusal(tmp_path, capsys):
    out = tmp_path / "records.csv"
    before = "previous contents\n" * 100
    out.write_text(before)
    argv = ["--n", "2", "--q", "101", "--trials", "2", "--out", str(out)]
    for refused in (["solve", "--workers", "0"], ["sweep", "--workers", "0"], ["bounds", "--xi", "0"]):
        assert main([*refused, *argv]) == 2
        assert out.read_text() == before, refused
    for command, rows in (("solve", 2), ("sweep", 2), ("bounds", 1)):
        assert main([command, *argv]) == 0
        assert len(list(csv.DictReader(out.open()))) == rows, command


def test_a_refused_run_creates_no_out_file(tmp_path, capsys):
    out = tmp_path / "F"
    for argv in (
        ["sweep", "--n", "4", "--q", "101,11", "--kappa", "2", "--trials", "1"],  # no budget at q=11
        ["bounds", "--n", "3", "--q", "101", "--xi", "0,1", "--kappa", "1"],  # xi'=0
        ["solve", "--workers", "0"],
        ["solve", "--mode", "elimination", "--n", "2", "--q", "101", "--seed", "3", "--trials", "2"],  # law
    ):
        assert main([*argv, "--out", str(out)]) == 2, argv
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists(), argv


def test_bounds_refuses_a_point_over_the_dense_limit_before_any_draw(tmp_path, monkeypatch, capsys):
    # The sampler's one-row block at q = 33554393 would peak near 5.5 GiB.
    # At q = 6,100,799 the block alone fits, but a full-field row's 56 bytes
    # per pair take it past 2^30: 176 q + 56 m bytes. Each point is refused
    # with its name before --out is opened or the first point's batch is drawn.
    import dclwe.cli as cli_module

    def no_draw(*args, **kwargs):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(cli_module, "synth_reduced_batch", no_draw)
    out = tmp_path / "F"
    for q, kappa, name in (
        ("4093,33554393", "200", "point 1 (n=4, q=33554393, xi=1, kappa=200)"),
        ("6100799", "1", "point 0 (n=4, q=6100799, xi=1, kappa=1)"),
    ):
        argv = ["bounds", "--q", q, "--kappa", kappa, "--trials", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "dense limit" in err
        assert name in err
        assert not out.exists()


def test_a_positive_kappa_xi_that_rounds_to_zero_is_refused(capsys):
    assert main(["solve", "--kappa", "1e-10", "--xi", "1", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: kappa/xi: ") and not captured.out


# The cases of test_validation_messages_name_the_field, as config-file lines, since
# --mode and --chi-kind take only valid choices, plus 2 xi >= q at kappa < 1.
_FIELD_REFUSALS = {
    "q": "q = 8",
    "xi": "xi = -1",
    "kappa": "kappa = 0",
    "kappa/xi": "kappa = 1.5",
    "gamma": "gamma = 0.3",
    "delta": "delta = 1.5",
    "v_size": "v_size = 200",
    "mode": "mode = sideways",
    "chi_kind": "chi_kind = laplace",
    "trials": "trials = 0",
    "seed": "seed = -4",
    "n": "n = 0",
    "sigma": "sigma = -2",
}


def test_every_field_refusal_exits_2_from_every_command_before_any_draw(tmp_path, monkeypatch, capsys):
    import dclwe.cli as cli_module

    calls = []

    def spy(name):
        real = getattr(cli_module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("solve", "synth_reduced_batch", "make_instance"):
        monkeypatch.setattr(cli_module, name, spy(name))
    cases = list(_FIELD_REFUSALS.items())
    cases.append(("xi", "q = 7\nxi = 4\nkappa = 0.5"))  # xi' = 2 fits, xi = 4 does not
    cfg = tmp_path / "run.cfg"
    for command in ("solve", "sweep", "bounds"):
        for field, lines in cases:
            cfg.write_text(f"n = 2\ntrials = 1\n{lines}\n")
            assert main([command, "--config", str(cfg)]) == 2, (command, field)
            captured = capsys.readouterr()
            assert f"configuration error: {field}:" in captured.err, (command, field, captured.err)
            assert captured.out == ""
            assert calls == [], (command, field)


def test_bounds_and_solve_build_one_chi_prime_at_one_point(monkeypatch, capsys):
    import dclwe.cli as cli_module
    from dclwe import solver as solver_module
    from dclwe.instance import GAUSSIAN, ErrorDistribution

    laws = {}

    def spy(module, key):
        real = module.amplified_law

        def wrapper(chi, xi_prime):
            law = real(chi, xi_prime)
            laws.setdefault(key, []).append(law)
            return law

        monkeypatch.setattr(module, "amplified_law", wrapper)

    spy(cli_module, "bounds")
    spy(solver_module, "solve")
    point = ["--n", "2", "--q", "101", "--kappa", "2", "--chi-kind", "gaussian", "--sigma", "0.8"]
    assert main(["bounds", *point, "--trials", "10"]) == 0
    assert main(["solve", *point, "--trials", "1"]) == 0
    capsys.readouterr()
    expected = ErrorDistribution(GAUSSIAN, 2, sigma=1.6)
    assert laws == {"bounds": [expected], "solve": [expected]}


def test_bounds_refuses_a_point_without_a_usable_bound(capsys):
    # xi' = kappa * xi must lie in [1, q/2); the xi=0 point is named, not skipped.
    assert main(["bounds", "--n", "3", "--q", "101", "--xi", "0,1", "--kappa", "1"]) == 2
    captured = capsys.readouterr()
    assert "xi/kappa: point 0 (n=3, q=101, xi=0, kappa=1) has xi'=0" in captured.err
    assert captured.out == ""


def test_non_finite_kappa_and_sigma_are_config_errors(capsys):
    for command in ("solve", "sweep", "bounds"):
        for kappa in ("inf", "1e400", "nan"):
            for xi in ("0", "1"):  # at xi=0, kappa*xi is nan
                assert main([command, "--trials", "1", "--kappa", kappa, "--xi", xi]) == 2, (command, kappa)
                assert "configuration error: kappa:" in capsys.readouterr().err
        # bounds takes no --mode.
        mode = [] if command == "bounds" else ["--mode", "elimination"]
        gaussian = [command, *mode, "--chi-kind", "gaussian", "--trials", "1"]
        for sigma in ("inf", "1e400", "nan"):
            assert main([*gaussian, "--sigma", sigma]) == 2, (command, sigma)
            assert "configuration error: sigma:" in capsys.readouterr().err


def test_main_maps_invariant_violations_to_exit_3(monkeypatch, capsys):
    from dclwe import InvariantViolation
    import dclwe.cli as cli_module

    def boom(config, workers=1):
        raise InvariantViolation("synthetic drift")

    monkeypatch.setattr(cli_module, "run_experiment", boom)
    assert main(["solve", "--trials", "1"]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_main_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds.csv"
    code = main(
        ["bounds", "--q", "101", "--xi", "1", "--trials", "100", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["violated"] == "false"


def test_bounds_takes_no_mode(tmp_path, capsys):
    # The bound table draws controlled batches only, so a mode cannot be set.
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--q", "101", "--mode", "elimination", "--trials", "10"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = elimination\n")
    assert main(["bounds", "--config", str(cfg), "--q", "101", "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert "configuration error: mode:" in captured.err
    assert captured.out == ""


def test_bounds_trials_is_the_shot_count(monkeypatch):
    import dclwe.cli as cli_module

    shots = []
    real_sampler = cli_module.sample_bv_outcomes

    def spy(batch, rng, count):
        shots.append(count)
        return real_sampler(batch, rng, count)

    monkeypatch.setattr(cli_module, "sample_bv_outcomes", spy)
    (row,) = report_bounds(_config(q="101", xi="1", trials=7))
    assert shots == [7]
    hits = row["empirical_p"] * 7
    assert abs(hits - round(hits)) < 1e-9


def test_bounds_runs_above_the_dense_limit_when_its_exact_column_fits(capsys):
    # A 4099 x 4099 grid is over the dense limit; the exact column, which
    # counts the pairs per error value, and the sampler's few-row tables
    # are not, whether the batch holds 100 pairs or the full field.
    argv = ["bounds", "--n", "3", "--q", "4099", "--kappa", "2", "--trials", "50"]
    for v_size in (100, 4099):
        assert main([*argv, "--v-size", str(v_size), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["q"] == 4099 and row["batch_size"] == v_size
        assert abs(row["empirical_p"] - row["exact_p"]) <= row["empirical_3sigma"] + 0.05


def _run_under_a_2_gib_cap(argv):
    """main(argv) in a fresh interpreter whose address space is capped at 2 GiB."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from dclwe.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def test_bounds_refuses_dense_tables_before_allocating():
    # The sampler's one-row block at q = 33554393 would peak near 5.5 GiB.
    # Under a 2 GiB address-space cap the size guard must answer exit 2 first.
    proc = _run_under_a_2_gib_cap(["bounds", "--q", "33554393", "--kappa", "200", "--trials", "1"])
    assert proc.returncode == 2, proc.stderr
    assert "dense limit" in proc.stderr


def test_bounds_with_many_error_values_at_q65537_runs_under_a_2_gib_cap():
    # 401 error values at q = 65537: the exact column counts pairs, with no
    # table of phases, and the sampler's blocks are one row of q.
    proc = _run_under_a_2_gib_cap(["bounds", "--q", "65537", "--kappa", "200", "--trials", "1"])
    assert proc.returncode == 0, proc.stderr
    assert "65537" in proc.stdout


def test_solve_at_the_largest_modulus_runs_under_a_2_gib_cap():
    # The largest prime below MODULUS_CEILING: a controlled solve there holds
    # no q-sized array, so under a 2 GiB address-space cap it runs to exit 0.
    argv = ["solve", "--n", "2", "--q", "33554393", "--xi", "1", "--kappa", "2", "--trials", "2"]
    proc = _run_under_a_2_gib_cap(argv)
    assert proc.returncode == 0, proc.stderr
    assert "q=33554393" in proc.stdout


def test_closed_stdout_exits_141_without_a_traceback():
    # `dclwe sweep ... | head -n 1`: the reader is gone before the first write.
    script = (
        "import sys\n"
        "from dclwe.cli import main\n"
        "sys.exit(main(['sweep', '--n', '2', '--q', '101', '--kappa', '2',"
        " '--trials', '20', '--seed', '1']))\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""
