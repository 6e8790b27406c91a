"""Command-line interface: ratmin approx | poly | check | sine-fit | features | smoke.

Outputs are JSON (results, reports) and CSV (error curves, feature tables).
Exit codes: 0 success, 2 usage error, 3 input error (missing or malformed
files, bad values), 4 solver failure.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .basis import BasisSpec, ChebyshevT, Monomial, family_label
from .equioscillation import analyze
from .grid import IntervalMap, chebyshev_nodes, uniform_nodes
from .lp_solver import SolverFailure
from .minimax import (
    ApproximationError,
    ApproximationProblem,
    BisectionConfig,
    error_curve,
    solve_minimax,
)
from .poly_minimax import solve_poly_minimax
from .sine_model import SineSearchSpace, fit_sine_model
from .signal_pipeline import (
    FeatureExtractionError,
    SegmentFormatError,
    SplitSpec,
    extract_features,
    load_segments,
    read_feature_csv,
    read_samples,
    separability_smoke_check,
    split,
    write_feature_csv,
)

EXIT_INPUT = 3
EXIT_SOLVER = 4

TEST_FUNCTIONS = {
    "sqrt-abs-shift": lambda x: np.sqrt(np.abs(x - 0.25)),
    "abs": np.abs,
    "exp": np.exp,
    "step": lambda x: np.where(x < 0.0, 0.0, 1.0),
}

BASIS_FAMILIES = {"monomial": Monomial, "chebyshev": ChebyshevT}


@dataclass
class Settings:
    seed: int
    quiet: bool


def _fail(category: str, message: str, code: int):
    click.echo(f"ERROR {category}: {message}", err=True)
    sys.exit(code)


def cli_errors(func):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (SolverFailure, ApproximationError, FeatureExtractionError) as exc:
            _fail("solver-failure", str(exc), EXIT_SOLVER)
        except (SegmentFormatError, FileNotFoundError, NotADirectoryError) as exc:
            _fail("input-error", str(exc), EXIT_INPUT)
        except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
            _fail("input-error", str(exc), EXIT_INPUT)

    return wrapper


def parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"interval must be 'c,d', got {text!r}")
    c, d = (float(p) for p in parts)
    if c >= d:
        raise ValueError(f"interval must satisfy c < d, got [{c}, {d}]")
    return c, d


def parse_taus(text: str) -> tuple[float, ...]:
    """Comma-separated phases; a 'pi' suffix scales by pi (e.g. 0.25pi)."""
    values = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token.endswith("pi"):
            prefix = token[:-2]
            values.append(float(prefix) * math.pi if prefix else math.pi)
        else:
            values.append(float(token))
    if not values:
        raise ValueError("no phase values given")
    return tuple(values)


def _resolve_target(fn, input_file, grid_kind, nodes, interval, n, m):
    """Build (grid, values) from a named function or a sample file."""
    if (fn is None) == (input_file is None):
        raise ValueError("exactly one of --fn and --input is required")
    if fn is not None:
        count = nodes if nodes is not None else max(2000, 10 * (n + m + 2))
        c, d = interval
        grid = chebyshev_nodes(c, d, count) if grid_kind == "chebyshev" else uniform_nodes(c, d, count)
        return grid, TEST_FUNCTIONS[fn](grid.nodes), fn
    samples = read_samples(input_file)
    if samples.size < 2:
        raise ValueError(f"{input_file}: need at least two samples")
    if interval is not None:
        c, d = interval
    else:
        c, d = 0.0, float(samples.size - 1)
    return uniform_nodes(c, d, samples.size), samples, None


def _write_json(path, payload, quiet):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    if not quiet:
        click.echo(f"wrote {path}")


def _write_curve(path, ts, errors, quiet):
    with open(path, "w") as handle:
        handle.write("t,error\n")
        for t, e in zip(ts, errors):
            handle.write(f"{float(t)!r},{float(e)!r}\n")
    if not quiet:
        click.echo(f"wrote {path}")


@click.group()
@click.option("--seed", default=0, show_default=True, help="Seed for all randomness (the split shuffle).")
@click.option("--quiet", is_flag=True, help="Suppress progress messages.")
@click.pass_context
def cli(ctx, seed, quiet):
    """Best uniform ratio approximation toolkit.

    Fits ratios of basis-function combinations to sampled targets in the
    worst-case (uniform) sense, checks optimality through error-curve
    alternation, and turns signal directories into classifier-ready feature
    tables.
    """
    ctx.obj = Settings(seed=seed, quiet=quiet)


def target_options(func):
    for option in reversed(
        [
            click.option("--fn", type=click.Choice(sorted(TEST_FUNCTIONS)), default=None,
                         help="Built-in test function."),
            click.option("--input", "input_file", type=click.Path(dir_okay=False),
                         default=None, help="Sample file, one value per line."),
            click.option("--grid", "grid_kind", type=click.Choice(["chebyshev", "uniform"]),
                         default="chebyshev", show_default=True),
            click.option("--nodes", type=int, default=None,
                         help="Grid size [default: max(2000, 10*(n+m+2))]."),
            click.option("--interval", default=None,
                         help="Approximation interval 'c,d' [default: -1,1 for --fn, sample indices for --input]."),
            click.option("--basis", "basis_name", type=click.Choice(sorted(BASIS_FAMILIES)),
                         default="monomial", show_default=True),
            click.option("--out", "out_path", type=click.Path(writable=True), default="result.json",
                         show_default=True),
            click.option("--error-curve", "curve_path", type=click.Path(writable=True), default=None,
                         help="Also write the signed error curve as CSV (columns t,error)."),
        ]
    ):
        func = option(func)
    return func


@cli.command()
@target_options
@click.option("--n", type=int, required=True, help="Numerator degree.")
@click.option("--m", type=int, required=True, help="Denominator degree.")
@click.option("--eps", default=1e-10, show_default=True, help="Bisection precision on the deviation.")
@click.option("--delta", default=None, type=float, help="Denominator floor [default: 1e-6*max|f|].")
@click.pass_obj
@cli_errors
def approx(settings, fn, input_file, grid_kind, nodes, interval, basis_name, out_path,
           curve_path, n, m, eps, delta):
    """Fit the best uniform ratio of degrees (n, m) to a target."""
    interval = parse_interval(interval) if interval is not None else ((-1.0, 1.0) if fn else None)
    grid, values, fn_name = _resolve_target(fn, input_file, grid_kind, nodes, interval, n, m)
    family = BASIS_FAMILIES[basis_name]()
    problem = ApproximationProblem(grid, values, BasisSpec(family, family, n, m))
    config = BisectionConfig(epsilon=eps, delta=delta)
    fit = solve_minimax(problem, config)
    payload = {"kind": "rational", "function": fn_name, "input": input_file,
               "grid": grid_kind if fn_name else "native", "nodes": len(grid),
               "epsilon": eps, "delta": fit.delta}
    payload.update(fit.to_dict())
    _write_json(out_path, payload, settings.quiet)
    if curve_path:
        ts, errors = error_curve(problem, fit)
        _write_curve(curve_path, ts, errors, settings.quiet)
    if not settings.quiet:
        click.echo(f"z = {fit.z:.12g} after {fit.iterations} bisection steps")


@cli.command()
@target_options
@click.option("--degree", type=int, required=True, help="Polynomial degree.")
@click.pass_obj
@cli_errors
def poly(settings, fn, input_file, grid_kind, nodes, interval, basis_name, out_path,
         curve_path, degree):
    """Best uniform polynomial (constant-denominator) fit, solved as one LP."""
    interval = parse_interval(interval) if interval is not None else ((-1.0, 1.0) if fn else None)
    grid, values, fn_name = _resolve_target(fn, input_file, grid_kind, nodes, interval, degree, 0)
    family = BASIS_FAMILIES[basis_name]()
    coeffs, deviation = solve_poly_minimax(values, grid, degree, family)
    imap = IntervalMap(*grid.interval)
    payload = {
        "kind": "polynomial", "function": fn_name, "input": input_file,
        "grid": grid_kind if fn_name else "native", "nodes": len(grid),
        "degree": degree, "n": degree, "m": 0,
        "basis": {"numerator": family_label(family), "denominator": family_label(family)},
        "map": imap.to_dict(),
        "A": [float(v) for v in coeffs], "B": [1.0],
        "z": deviation,
    }
    _write_json(out_path, payload, settings.quiet)
    if curve_path:
        fitted = family.values(imap.to_unit(grid.nodes), degree + 1) @ coeffs
        _write_curve(curve_path, grid.nodes, values - fitted, settings.quiet)
    if not settings.quiet:
        click.echo(f"z = {deviation:.12g}")


@cli.command()
@click.option("--result", "result_path", type=click.Path(dir_okay=False), required=True,
              help="result.json from approx or poly (supplies the degrees).")
@click.option("--curve", "curve_path", type=click.Path(dir_okay=False), required=True,
              help="Error-curve CSV with columns t,error.")
@click.option("--peak-tol", default=0.05, show_default=True,
              help="Peaks must reach (1 - peak_tol) of the curve's own maximum.")
@cli_errors
def check(result_path, curve_path, peak_tol):
    """Alternation report for a fitted error curve, printed as JSON."""
    meta = json.loads(Path(result_path).read_text())
    n, m = int(meta["n"]), int(meta["m"])
    rows = Path(curve_path).read_text().splitlines()
    if not rows or rows[0].strip() != "t,error":
        raise ValueError(f"{curve_path}: expected header 't,error'")
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:] if row.strip()])
    if data.size == 0:
        raise ValueError(f"{curve_path}: no data rows")
    ts, errors = data[:, 0], data[:, 1]
    report = analyze(ts, errors, n, m, float(np.max(np.abs(errors))), peak_tol)
    click.echo(json.dumps(report.to_dict(), indent=2))


@cli.command("sine-fit")
@click.option("--input", "input_file", type=click.Path(dir_okay=False), required=True,
              help="Sample file, one value per line.")
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--eps", default=1e-6, show_default=True)
@click.option("--delta", default=None, type=float)
@click.option("--omega-min", default=1, show_default=True, type=int)
@click.option("--omega-max", default=15, show_default=True, type=int)
@click.option("--taus", default="0,0.25pi,0.5pi,0.75pi", show_default=True,
              help="Comma-separated phases; 'pi' suffix scales by pi.")
@click.option("--out", "out_path", type=click.Path(writable=True), default="result.json",
              show_default=True)
@click.pass_obj
@cli_errors
def sine_fit(settings, input_file, n, m, eps, delta, omega_min, omega_max, taus, out_path):
    """Fit ratio(t)*sin(omega*t+tau) by sweeping a finite (omega, tau) grid."""
    samples = read_samples(input_file)
    grid = uniform_nodes(0.0, float(samples.size - 1), samples.size)
    problem = ApproximationProblem(grid, samples, BasisSpec(Monomial(), Monomial(), n, m))
    space = SineSearchSpace(
        omegas=tuple(float(w) for w in range(omega_min, omega_max + 1)),
        taus=parse_taus(taus),
    )
    config = BisectionConfig(epsilon=eps, delta=delta)
    result = fit_sine_model(problem, space, config)
    payload = {"kind": "sine-rational", "input": input_file, "epsilon": eps}
    payload.update(result.to_dict())
    _write_json(out_path, payload, settings.quiet)
    if not settings.quiet:
        click.echo(f"omega = {result.omega:g}, tau = {result.tau:g}, z = {result.best.z:.12g}")


def _parse_class_spec(values):
    classes = []
    for item in values:
        label, sep, directory = item.partition("=")
        if not sep or not label or not directory:
            raise ValueError(f"--class expects LABEL=DIR, got {item!r}")
        classes.append((label, directory))
    return classes


@cli.command()
@click.option("--class", "class_specs", multiple=True, required=True,
              help="LABEL=DIR with one plain-text segment file per segment; repeatable.")
@click.option("--model", type=click.Choice(["m1", "m2"]), default="m1", show_default=True)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--eps", default=1e-6, show_default=True)
@click.option("--delta", default=None, type=float)
@click.option("--omega-max", default=15, show_default=True, type=int)
@click.option("--taus", default="0,0.25pi,0.5pi,0.75pi", show_default=True)
@click.option("--split", "train_fraction", default=0.75, show_default=True)
@click.option("--seed", default=None, type=int, help="Override the global --seed for the shuffle.")
@click.option("--no-shuffle", is_flag=True, help="Split by file order instead of shuffling.")
@click.option("--out-train", type=click.Path(writable=True), default="train.csv", show_default=True)
@click.option("--out-test", type=click.Path(writable=True), default="test.csv", show_default=True)
@click.pass_obj
@cli_errors
def features(settings, class_specs, model, n, m, eps, delta, omega_max, taus,
             train_fraction, seed, no_shuffle, out_train, out_test):
    """Fit every segment of every class and write train/test feature CSVs."""
    classes = _parse_class_spec(class_specs)
    config = BisectionConfig(epsilon=eps, delta=delta)
    space = SineSearchSpace(
        omegas=tuple(float(w) for w in range(1, omega_max + 1)), taus=parse_taus(taus)
    )
    vectors = []
    for label, directory in classes:
        segment_set = load_segments(directory, label)
        if not settings.quiet:
            click.echo(f"fitting {len(segment_set.segments)} segments of class {label!r} ...")
        vectors.extend(extract_features(segment_set, model, n, m, config, space))
    spec = SplitSpec(
        train_fraction=train_fraction,
        seed=settings.seed if seed is None else seed,
        shuffle=not no_shuffle,
    )
    train, test = split(vectors, spec)
    write_feature_csv(out_train, train)
    write_feature_csv(out_test, test)
    if not settings.quiet:
        click.echo(f"wrote {out_train} ({len(train)} rows) and {out_test} ({len(test)} rows)")


@cli.command()
@click.option("--train", "train_path", type=click.Path(dir_okay=False), required=True)
@click.option("--test", "test_path", type=click.Path(dir_okay=False), required=True)
@cli_errors
def smoke(train_path, test_path):
    """Nearest-centroid separability check on exported feature CSVs."""
    train = read_feature_csv(train_path)
    test = read_feature_csv(test_path)
    accuracy = separability_smoke_check(train, test)
    click.echo(json.dumps({
        "accuracy": accuracy,
        "train_rows": len(train),
        "test_rows": len(test),
        "classes": sorted({vec.label for vec in train}),
    }, indent=2))


def main():
    cli(max_content_width=100)


if __name__ == "__main__":
    main()
