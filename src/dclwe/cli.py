"""Command-line driver: experiments, sweeps, bound tables, self-checks.

Configuration is a flat key=value file plus command-line overrides,
with precedence CLI > file > defaults. Any numeric field may hold a
comma-separated list, which turns it into a sweep axis; the run covers
the cartesian product of all axes. Every (point, trial) task derives
its own RNG stream from the master seed, so results are identical for
any worker count and any scheduling order.

Exit codes: 0 on success, 2 on configuration errors, 3 on invariant
violations, 141 when the reader of stdout closes the pipe. The library
states every field rule: build_config refuses each point's ValueError,
InvalidModulus or BoundTooLarge. InfeasibleParameters means only that no
L or M fits a point: solve and sweep refuse it, bounds keeps its row.
A refused run writes no file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import (
    ConfigError,
    DclweError,
    EmptyResult,
    InfeasibleParameters,
    InvalidLength,
    InvariantViolation,
)
from .fq import PrimeField, check_dense_size, is_prime, mat_inverse_stack
from .instance import GAUSSIAN, UNIFORM, ErrorDistribution, draw_samples, make_instance
from .oracle import (
    FORM_DIVIDED,
    FORM_FULL,
    SCHEME_BUCKET,
    SCHEME_PRIMITIVE,
    bound_report,
    coordinate_law,
    elimination_law,
    prob_iii_bound,
    qram_cost,
)
from .qsim import TwoQuditState, bv_kernel, kernel_distribution, prepare_sample_state, sample_bv_outcomes
from .reduce import eliminate_row, synth_reduced_batch
from .rng import derive_rng
from .solver import (
    MODE_CONTROLLED, MODE_ELIMINATION, SolveParameters, amplified_bound, amplified_law,
    choose_parameters, solve,
)

_SWEEPABLE = ("n", "q", "xi", "kappa", "sigma", "gamma", "delta", "v_size")

_DEFAULTS = {
    "n": "4",
    "q": "101",
    "xi": "1",
    "kappa": "1",
    "sigma": "none",
    "gamma": "0.125",
    "delta": "0.2",
    "v_size": "none",
    "chi_kind": UNIFORM,
    "mode": MODE_CONTROLLED,
    "trials": "100",
    "seed": "12345",
}


@dataclass(frozen=True)
class PointConfig:
    """One fully scalar sweep point."""

    n: int
    q: int
    xi: int
    kappa: float
    sigma: float | None
    gamma: float
    delta: float
    v_size: int | None
    chi_kind: str
    mode: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration; sweepable fields hold one or more values."""

    n: tuple[int, ...]
    q: tuple[int, ...]
    xi: tuple[int, ...]
    kappa: tuple[float, ...]
    sigma: tuple[float | None, ...]
    gamma: tuple[float, ...]
    delta: tuple[float, ...]
    v_size: tuple[int | None, ...]
    chi_kind: str
    mode: str
    trials: int
    seed: int

    def points(self) -> list[PointConfig]:
        axes = [getattr(self, name) for name in _SWEEPABLE]
        return [
            PointConfig(*combo, chi_kind=self.chi_kind, mode=self.mode)
            for combo in itertools.product(*axes)
        ]


@dataclass(frozen=True)
class ExperimentRecord:
    point_index: int
    trial_index: int
    n: int
    q: int
    xi: int
    kappa: float
    sigma: float | None
    gamma: float
    delta: float
    v_size: int | None
    chi_kind: str
    mode: str
    seed: int
    xi_prime: int
    L: int
    M: int
    outcome: str
    coordinate_candidates: str  # ';'-joined per-coordinate counts
    coordinate_nulls: str
    quantum_samples: int
    test_samples: int
    wall_time_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_scalar(field: str, raw: str):
    raw = raw.strip()
    if field in ("sigma", "v_size") and raw.lower() in ("none", ""):
        return None
    try:
        if field in ("n", "q", "xi", "v_size", "trials", "seed"):
            return int(raw)
        if field in ("kappa", "sigma", "gamma", "delta"):
            return float(raw)
    except ValueError:
        raise ConfigError(f"{field}: cannot parse {raw!r}")
    return raw


def _parse_field(field: str, raw: str):
    if field in _SWEEPABLE:
        return tuple(_parse_scalar(field, part) for part in raw.split(","))
    if "," in raw:
        raise ConfigError(f"{field}: is not sweepable")
    return _parse_scalar(field, raw)


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{key}: unknown configuration field")
        out[key] = value
    return out


def build_config(file_values: dict[str, str] | None, cli_values: dict[str, str]) -> ExperimentConfig:
    """Merge defaults, file, and CLI values (rightmost wins) and validate."""
    raw = dict(_DEFAULTS)
    raw.update(file_values or {})
    raw.update({k: v for k, v in cli_values.items() if v is not None})
    for key in raw:
        if key not in _DEFAULTS:
            raise ConfigError(f"{key}: unknown configuration field")

    config = ExperimentConfig(**{field: _parse_field(field, raw[field]) for field in _DEFAULTS})
    _validate_config(config)
    return config


def _validate_config(config: ExperimentConfig) -> None:
    """The CLI's own fields, then every point; one that lacks only a budget is left to each command."""
    if config.mode not in (MODE_CONTROLLED, MODE_ELIMINATION):
        raise ConfigError(
            f"mode: must be {MODE_CONTROLLED!r} or {MODE_ELIMINATION!r}, got {config.mode!r}"
        )
    if config.trials < 1:
        raise ConfigError(f"trials: must be at least 1, got {config.trials}")
    if config.seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {config.seed}")
    for pi, point in enumerate(config.points()):
        with contextlib.suppress(InfeasibleParameters):
            point_budget(pi, point)


def _name(point_index: int, point: PointConfig) -> str:
    return f"point {point_index} (n={point.n}, q={point.q}, xi={point.xi}, kappa={point.kappa:g})"


Budget = tuple[ErrorDistribution, SolveParameters]


def point_budget(point_index: int, point: PointConfig) -> Budget:
    """A sweep point's noise law and solve budget, derived once for all its trials.

    A library refusal of a bad field becomes a ConfigError naming the point, and so does
    v_size outside [1, q], which solve checks only after the instance draw. A point that
    no L or M fits raises InfeasibleParameters, naming the point.
    """
    try:
        if point.v_size is not None and not 1 <= point.v_size <= point.q:
            raise ValueError(f"v_size: must lie in [1, q={point.q}], got {point.v_size}")
        chi = ErrorDistribution(point.chi_kind, point.xi, sigma=point.sigma)
        params = choose_parameters(point.n, point.q, point.xi, point.kappa, point.delta, point.gamma)
    except InfeasibleParameters as exc:
        raise InfeasibleParameters(f"{_name(point_index, point)}: {exc}") from None
    except (ValueError, DclweError) as exc:
        raise ConfigError(f"{exc} at {_name(point_index, point)}") from None
    return chi, params


def _budgets(config: ExperimentConfig, workers: int) -> list[Budget]:
    """Every point's budget, derived before the first task; workers below 1 are refused first."""
    if workers < 1:
        raise ConfigError("workers: must be at least 1")
    return [point_budget(pi, point) for pi, point in enumerate(config.points())]


def unreachable_points(config: ExperimentConfig, budgets: list[Budget]) -> list[str]:
    """Elimination-mode points whose predicted success falls below 1 - delta.

    oracle.elimination_law gives the law of a point's rows from every
    point's budget (_budgets), and oracle.coordinate_law a coordinate's
    success and shots under it; a solve is n independent coordinates.
    Nothing is drawn.
    """
    if config.mode != MODE_ELIMINATION:
        return []
    problems = []
    for pi, (point, (chi, params)) in enumerate(zip(config.points(), budgets)):
        rows = elimination_law(point.n, point.q, chi, params.xi_prime, point.v_size or point.q)
        success, shots, _ = coordinate_law(*rows, params.L, params.M)
        success **= point.n
        if success < 1 - point.delta:
            problems.append(
                f"{_name(pi, point)}: elimination's predicted success {success:.4g}"
                f" lies below 1 - delta = {1 - point.delta:g}"
                f" ({point.n * shots:.1f} shots per solve)"
            )
    return problems


def run_point_trial(
    point: PointConfig, budget: Budget, seed: int, point_index: int, trial_index: int
) -> ExperimentRecord:
    """One solve at the point's noise law and budget (point_budget), with a
    stream derived from (seed, point, trial)."""
    chi, params = budget
    rng = derive_rng(seed, point_index, trial_index)
    instance = make_instance(point.n, point.q, chi, rng)
    start = time.perf_counter()
    result = solve(instance, params, point.mode, rng, v_size=point.v_size)
    wall_ms = (time.perf_counter() - start) * 1e3
    return ExperimentRecord(
        point_index=point_index,
        trial_index=trial_index,
        **asdict(point),
        seed=seed,
        xi_prime=params.xi_prime,
        L=params.L,
        M=params.M,
        outcome=result.outcome,
        coordinate_candidates=";".join(str(st.candidates_tried) for st in result.per_coordinate),
        coordinate_nulls=";".join(str(st.null_count) for st in result.per_coordinate),
        quantum_samples=result.quantum_samples,
        test_samples=result.test_samples,
        wall_time_ms=wall_ms,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """All (point, trial) tasks in deterministic order, on at most
    `workers` processes and never more processes than tasks. Every
    point's budget is derived before the first task runs."""
    budgets = _budgets(config, workers)
    tasks = [
        (point, budget, config.seed, pi, ti)
        for pi, (point, budget) in enumerate(zip(config.points(), budgets))
        for ti in range(config.trials)
    ]
    # Under the fork start method a pool starts all its workers on the first submit.
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [run_point_trial(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, len(tasks) // (workers * 4))
        return list(pool.map(run_point_trial, *zip(*tasks), chunksize=chunksize))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def emit(rows: Sequence[dict], fmt: str, fh: TextIO) -> None:
    """Write records as CSV or JSON with 12-significant-digit numbers."""
    if not rows:
        raise EmptyResult("nothing to emit")
    if fmt == "csv":
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    elif fmt == "json":
        cooked = [
            {k: (float(f"{v:.12g}") if isinstance(v, float) else v) for k, v in row.items()}
            for row in rows
        ]
        json.dump(cooked, fh, indent=2)
        fh.write("\n")
    else:
        raise ConfigError(f"format: must be 'csv' or 'json', got {fmt!r}")


def _bound_points(config: ExperimentConfig) -> list[tuple[int, SolveParameters | None]]:
    """Each bounds row's xi' and budget (None if no L or M fits); refuses xi' = 0, other
    modes and a point whose exact column may need a table over the dense limit."""
    if config.mode != MODE_CONTROLLED:
        raise ConfigError(f"mode: bounds draws controlled batches only, got {config.mode!r}")
    budgets = []
    for pi, point in enumerate(config.points()):
        xi_prime = amplified_bound(point.kappa, point.xi)
        if xi_prime < 1:
            raise ConfigError(f"xi/kappa: {_name(pi, point)} has xi'={xi_prime}, outside [1, q/2)")
        try:
            budgets.append((xi_prime, point_budget(pi, point)[1]))
        except InfeasibleParameters:
            budgets.append((xi_prime, None))  # the row stays, with empty bound columns
        # The exact column's table: one row per error value the batch may hold, one per k*.
        distinct = min(point.v_size or point.q, 2 * xi_prime + 1)
        try:
            check_dense_size(distinct, point.q, "exact_success_probability")
        except InvalidLength as exc:
            raise ConfigError(f"{exc} at {_name(pi, point)}") from None
    return budgets


def report_bounds(config: ExperimentConfig) -> list[dict]:
    """Exact ridge mass next to its analytic floor across the sweep grid.

    One synthesized controlled batch per (q, xi', gamma, batch size)
    point, plus a Monte Carlo rate over `trials` shots of the kernel
    sampler, which no solve runs, with its 3-sigma half-width, and the
    wrong-accept bound in its continuous (2 kappa alpha)^M and
    integer-count ((2 xi' + 1)/q)^M forms when the point admits a
    budget. A mode other than controlled,
    or a point whose xi' lies outside [1, q/2), is refused before any draw.
    """
    rows = []
    for pi, (point, (xi_prime, params)) in enumerate(zip(config.points(), _bound_points(config))):
        rng = derive_rng(config.seed, 7, pi)
        q = point.q
        s_j = int(rng.integers(q))
        chi = ErrorDistribution(point.chi_kind, point.xi, sigma=point.sigma)
        chi_prime = amplified_law(chi, xi_prime)
        v = np.arange(q) if point.v_size in (None, q) else rng.choice(q, size=point.v_size, replace=False)
        batch = synth_reduced_batch(s_j, q, v, xi_prime, chi_prime, rng, xi=max(point.xi, 1))
        report = bound_report(batch, point.gamma)

        shots = config.trials
        outcomes = sample_bv_outcomes(batch, rng, shots)
        on_ridge = (outcomes[:, 0] == (-s_j * outcomes[:, 1]) % q).mean()
        sigma3 = 3 * float(np.sqrt(on_ridge * (1 - on_ridge) / shots))

        row = {**asdict(report), "empirical_p": float(on_ridge), "empirical_3sigma": sigma3}
        if params is None:
            row.update(L=None, M=None, wrong_accept_approx=None, wrong_accept_exact=None)
        else:
            wa = prob_iii_bound(params.L, point.kappa, point.xi / q, params.M, q)
            row.update(L=params.L, M=params.M, wrong_accept_approx=wa.approx, wrong_accept_exact=wa.exact)
        rows.append(row)
    return rows


def run_selftest(fh: TextIO = sys.stdout) -> int:
    """Structural invariant suite; returns 0 or 3 (first failure wins)."""
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        tag = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        fh.write(f"{tag:4s} {name}{suffix}\n")
        if not ok:
            failures += 1

    rng = np.random.default_rng(20260816)

    # Exhaustive inverses for every odd prime modulus up to 101.
    primes = [p for p in range(3, 102, 2) if is_prime(p)]
    bad = 0
    for p in primes:
        field = PrimeField(p)
        for x in range(1, p):
            if x * field.inv(x) % p != 1:
                bad += 1
    check("field inverses exhaustive (q <= 101)", bad == 0, f"{len(primes)} moduli")

    # Centered window is a bijection onto (-q/2, q/2].
    ok = True
    for p in (3, 7, 101):
        field = PrimeField(p)
        reps = {field.centered(x) for x in range(p)}
        ok &= reps == set(range(-(p // 2), p // 2 + 1))
    check("centered representatives bijective", ok)

    # Kernel preserves the norm on random states: 1e3 states, drift < 1e-10.
    # States are grouped by modulus, since qft_matrix caches one table.
    worst = 0.0
    for q in (5, 7, 11, 13):
        for _ in range(250):
            raw = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
            raw /= np.linalg.norm(raw)
            out = bv_kernel(TwoQuditState(q, raw))
            worst = max(worst, abs(out.norm_squared() - 1.0))
    check("kernel unitarity on 1e3 random states", worst < 1e-10, f"max drift {worst:.2e}")

    # Elimination on real samples: for each invertible sample matrix A, the
    # inverse row r for j has r A = e_j, and eliminate_row on r and A's
    # outputs b gives b' = a' (r . b) = a' (s_j + r . e), with eta' within
    # the L1 bound.
    ok, matrices = True, 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        q = int(rng.choice([11, 31, 101]))
        xi = int(rng.integers(0, 4))
        inst = make_instance(n, q, ErrorDistribution(UNIFORM, xi), rng)
        j = int(rng.integers(n))
        a, b, e = draw_samples(inst, rng, (4, n))
        inv, invertible = mat_inverse_stack(a, q)
        a, b, e, r = a[invertible], b[invertible], e[invertible], inv[invertible, j]
        a_values = rng.choice(q, size=min(q, 17), replace=False)
        ok &= not (((r[:, :, None] * a).sum(axis=1) - np.eye(n, dtype=np.int64)[j]) % q).any()
        for row, b_row, e_row in zip(r, b, e):
            _, eta, l1 = eliminate_row(row, int(row @ b_row % q), a_values, int(inst.s[j]), q)
            ok &= not ((eta - a_values * int(row @ e_row)) % q).any()
            ok &= bool((np.abs(eta) <= l1 * xi).all())
        matrices += r.shape[0]
    check("elimination identity and amplification bound", ok, f"{matrices} sample matrices")

    # The factored kernel sampler agrees with the exact grid (chi-square, 4 sigma).
    q = 31
    chi_prime = ErrorDistribution(UNIFORM, 2)
    batch = synth_reduced_batch(int(rng.integers(q)), q, np.arange(q), 2, chi_prime, rng)
    grid = kernel_distribution(batch).ravel()
    shots = 20000
    outcomes = sample_bv_outcomes(batch, rng, shots)
    counts = np.bincount(outcomes[:, 0] * q + outcomes[:, 1], minlength=q * q)
    stat, dof = pooled_chi_square(counts, grid, shots)
    limit = dof + 4 * np.sqrt(2 * dof)
    check("measurement sampler chi-square (4 sigma)", stat <= limit, f"{stat:.1f} <= {limit:.1f}")

    # A true candidate is never rejected in controlled mode.
    rejections = 0
    for trial in range(100):
        inst = make_instance(3, 101, ErrorDistribution(UNIFORM, 1), rng)
        params = choose_parameters(3, 101, 1, 2, 0.2)
        result = solve(inst, params, MODE_CONTROLLED, rng)
        rejections += sum(st.true_rejections for st in result.per_coordinate)
    check("true candidate never rejected (controlled)", rejections == 0, "100 solves")

    # The dense kernel path and the closed-form grid agree.
    worst = 0.0
    for _ in range(10):
        q = int(rng.choice([7, 11, 17]))
        batch = synth_reduced_batch(
            int(rng.integers(q)), q, np.arange(q), 1, ErrorDistribution(UNIFORM, 1), rng
        )
        dense = bv_kernel(prepare_sample_state(batch)).probabilities()
        worst = max(worst, float(np.abs(dense - kernel_distribution(batch)).max()))
    check("dense kernel matches closed form", worst < 1e-12, f"max gap {worst:.2e}")

    fh.write(f"{'PASS' if failures == 0 else 'FAIL'}: {7 - failures}/7 invariant groups hold\n")
    return 0 if failures == 0 else 3


def pooled_chi_square(counts, probs, shots: int) -> tuple[float, int]:
    """Chi-square statistic with cells expecting fewer than 5 counts pooled into one.

    Returns (statistic, degrees of freedom). Pooling keeps the usual
    chi-square approximation honest when the distribution has many
    near-zero cells.
    """
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * shots
    big = expected >= 5.0
    stat = float(((counts[big] - expected[big]) ** 2 / expected[big]).sum())
    dof = int(big.sum()) - 1
    rest = float(expected[~big].sum())
    if rest > 0:
        stat += (float(counts[~big].sum()) - rest) ** 2 / rest
        dof += 1
    return stat, max(dof, 1)


def _config_parser() -> argparse.ArgumentParser:
    """Parent parser of solve, sweep and bounds: the configuration, --out and --format.
    solve and sweep add --mode and --workers."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="flat key=value configuration file")
    for field in _SWEEPABLE:
        parser.add_argument(f"--{field.replace('_', '-')}", help=f"override {field} (comma list sweeps)")
    parser.add_argument("--chi-kind", choices=[UNIFORM, GAUSSIAN], help="error law")
    parser.add_argument("--trials", help="solves per sweep point (bounds: shots per point)")
    parser.add_argument("--seed", help="master seed")
    parser.add_argument("--out", help="write records to this path (sweep and bounds: default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    try:
        file_values = read_config_file(args.config) if args.config else None
    except OSError as exc:
        raise ConfigError(f"config: cannot read {args.config}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config: cannot read {args.config}: not a text file") from None
    return build_config(file_values, {field: getattr(args, field, None) for field in _DEFAULTS})


def _output(args: argparse.Namespace) -> contextlib.AbstractContextManager[TextIO]:
    """--out opened for appending, or stdout when it is unset. Commands open it after their
    refusals and before their first draw, so a refused run creates no file and an unwritable
    path costs no run; _write empties it, so a run failing in between leaves its contents alone."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "a")
    except OSError as exc:
        raise ConfigError(f"out: cannot write {args.out}: {exc.strerror}") from None


def _write(rows: Sequence[dict], args: argparse.Namespace, fh: TextIO) -> None:
    """Emit rows to _output's handle, replacing what a regular --out file held."""
    if args.out and fh.seekable():
        fh.truncate(0)
    emit(rows, args.format, fh)


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    unreachable = unreachable_points(config, _budgets(config, args.workers))
    if unreachable:
        raise InfeasibleParameters("; ".join(unreachable))
    with _output(args) as fh:
        records = run_experiment(config, workers=args.workers)
        for pi, group in itertools.groupby(records, key=lambda r: r.point_index):
            recs = list(group)
            tally = Counter(r.outcome for r in recs)
            head = recs[0]
            fractions = ", ".join(f"{k}={v / len(recs):.3f}" for k, v in sorted(tally.items()))
            print(
                f"point {pi}: n={head.n} q={head.q} xi'={head.xi_prime} L={head.L} M={head.M}"
                f" trials={len(recs)}: {fractions}"
            )
        if args.out:
            _write([r.to_dict() for r in records], args, fh)
            print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    for warning in unreachable_points(config, _budgets(config, args.workers)):
        print(f"warning: {warning}", file=sys.stderr)
    with _output(args) as fh:
        _write([r.to_dict() for r in run_experiment(config, workers=args.workers)], args, fh)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _bound_points(config)  # its refusals, before --out is opened
    with _output(args) as fh:
        rows = report_bounds(config)
        _write(rows, args, fh)
    violated = [r for r in rows if r["violated"]]
    if violated:
        print(f"warning: {len(violated)} of {len(rows)} points violate the bound", file=sys.stderr)
    return 0


def _cmd_qram_cost(args: argparse.Namespace) -> int:
    value = qram_cost(args.q, args.n, args.d, args.scheme, args.sample_form)
    print(_fmt(value))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dclwe",
        description="divide-and-conquer LWE solver: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_options = _config_parser()
    for name, func, text in (
        ("solve", _cmd_solve, "run solves and print outcome fractions"),
        ("sweep", _cmd_sweep, "run the sweep grid and emit records"),
        ("bounds", _cmd_bounds, "exact success probability vs. its lower bound"),
    ):
        p_config = sub.add_parser(name, help=text, parents=[config_options])
        p_config.set_defaults(func=func)
        if name != "bounds":  # bounds draws controlled batches on one process
            modes = [MODE_CONTROLLED, MODE_ELIMINATION]
            p_config.add_argument("--mode", choices=modes, help="batch construction mode")
            p_config.add_argument("--workers", type=int, default=1)

    p_qram = sub.add_parser("qram-cost", help="query cost for a memory layout")
    p_qram.add_argument("--q", type=int, required=True)
    p_qram.add_argument("--n", type=int, required=True)
    p_qram.add_argument("--d", type=int, required=True)
    p_qram.add_argument("--scheme", choices=[SCHEME_PRIMITIVE, SCHEME_BUCKET], required=True)
    p_qram.add_argument("--sample-form", choices=[FORM_FULL, FORM_DIVIDED], required=True)
    p_qram.set_defaults(func=_cmd_qram_cost)

    p_self = sub.add_parser("selftest", help="run the structural invariant suite")
    p_self.set_defaults(func=lambda args: run_selftest(sys.stdout))

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except BrokenPipeError:
        # `dclwe sweep ... | head`: what is still buffered goes to devnull, so
        # the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InfeasibleParameters) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DclweError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
