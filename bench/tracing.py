"""Outside-in tracing: spans around the calls into each ratmin layer.

``Tracer.install`` replaces each listed public function at every ``ratmin.*``
module attribute that *is* that function object, which covers the
``from .x import f`` binding sites the layers call each other through, and
``Tracer.uninstall`` puts every original back. Each span records its name,
start, end and the span that was open when it started. Spans stay in memory
and are written out when the traced pass ends; ``layer_metrics`` turns them
into the per-layer numbers. Only public names the ROADMAP keeps are wrapped,
so solver rewrites that keep those names keep the benchmark working.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# layer -> (module, public functions timed at that layer's boundary)
LAYERS = {
    "lp_solver": ("ratmin.lp_solver", ("solve",)),
    "minimax": ("ratmin.minimax", ("solve_minimax", "build_feasibility_lp", "error_curve")),
    "poly_minimax": ("ratmin.poly_minimax", ("solve_poly_minimax",)),
    "basis": ("ratmin.basis", ("eval_numerator_basis", "eval_denominator_basis", "eval_ratio")),
    "equioscillation": ("ratmin.equioscillation", ("analyze",)),
    "sine_model": ("ratmin.sine_model", ("fit_sine_model",)),
    "signal_pipeline": (
        "ratmin.signal_pipeline",
        ("load_segments", "extract_features", "split", "write_feature_csv",
         "read_feature_csv", "separability_smoke_check"),
    ),
}

# The tail percentile needs at least this many fits beyond it.
TAIL_BEYOND = 10


class MissingName(RuntimeError):
    """A function the traced run wraps no longer exists."""


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def ratmin_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ratmin" or name.startswith("ratmin."))]


class Tracer:
    """Records spans for the wrapped functions while installed.

    ``capture_every``: keep every k-th LP passed to ``lp_solver.solve`` (with
    ratmin's status, optimum and time) for the HiGHS comparison; 0 keeps none.
    """

    def __init__(self, capture_every: int = 0):
        self.spans: list[Span] = []
        self.captured: list[tuple] = []
        self.capture_every = capture_every
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._lp_count = 0

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, _ in LAYERS.values():
            importlib.import_module(module_name)
        modules = ratmin_modules()
        try:
            for layer, (module_name, names) in LAYERS.items():
                module = sys.modules[module_name]
                for fname in names:
                    original = getattr(module, fname, None)
                    if not callable(original):
                        raise MissingName(f"{module_name}.{fname}")
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                stack.pop()
                span.attrs["error"] = type(exc).__name__
                raise
            span.end = time.perf_counter()
            stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return wrapper

    def _after_lp_solve(self, span, args, kwargs, result) -> None:
        problem = args[0] if args else kwargs["problem"]
        span.attrs["rows"] = int(problem.n_constraints)
        span.attrs["iterations"] = int(result.iterations)
        if self.capture_every and self._lp_count % self.capture_every == 0:
            self.captured.append((problem, result.status.value,
                                  float(result.objective_value), span.duration))
        self._lp_count += 1

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.attrs]) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as handle:
        return [Span(*json.loads(line)) for line in handle]


_HOOKS = {
    "lp_solver.solve": Tracer._after_lp_solve,
    "equioscillation.analyze":
        lambda tracer, span, a, k, report: span.attrs.update(alternations=report.alternation_count),
    "signal_pipeline.load_segments":
        lambda tracer, span, a, k, loaded: span.attrs.update(segments=len(loaded.segments)),
}


# ---------------------------------------------------------------- metrics


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def busy_time(spans: list[Span], layer: str) -> float:
    """Wall time inside the layer: spans with no enclosing span of that layer."""
    return sum(s.duration for i, s in enumerate(spans) if s.layer == layer
               and not any(a.layer == layer for a in _ancestors(spans, i)))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    values beyond it; (0, 0) when there are too few values."""
    if len(values) <= TAIL_BEYOND:
        return 0.0, 0.0
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND  # 1-based rank
    return ordered[k - 1], 100.0 * k / len(ordered)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times from one traced pass (HiGHS figures and
    the tracing overhead are added by the caller)."""
    own = self_times(spans)
    duration = [s.duration for s in spans]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name, values=duration):
        return sum(values[i] for i in by_name[name])

    solves = by_name["lp_solver.solve"]
    iterations = sum(spans[i].attrs.get("iterations", 0) for i in solves)
    lp_busy = busy_time(spans, "lp_solver")
    fits = by_name["minimax.solve_minimax"]
    probes = sum(
        1 for i in solves
        if any(a.name == "minimax.solve_minimax" for a in _ancestors(spans, i))
        and not any(a.name == "poly_minimax.solve_poly_minimax" for a in _ancestors(spans, i))
    )
    fit_times = [duration[i] for i in fits]
    tail_s, tail_pct = tail(fit_times)
    alternations = [spans[i].attrs.get("alternations", 0) for i in by_name["equioscillation.analyze"]]
    basis_names = [n for n in by_name if n.startswith("basis.")]
    minimax_self = sum(own[i] for i, s in enumerate(spans) if s.layer == "minimax")
    return {
        "lp_solver.solves": len(solves),
        "lp_solver.rows_per_solve":
            sum(spans[i].attrs.get("rows", 0) for i in solves) / len(solves) if solves else 0.0,
        "lp_solver.iterations": iterations,
        "lp_solver.busy_s": lp_busy,
        "lp_solver.us_per_iteration": 1e6 * lp_busy / iterations if iterations else 0.0,
        "lp_solver.failures": sum(spans[i].attrs.get("error") == "SolverFailure" for i in solves),
        "minimax.fits": len(fits),
        "minimax.probes_per_fit": probes / len(fits) if fits else 0.0,
        "minimax.assemble_s": total("minimax.build_feasibility_lp"),
        "minimax.self_s": minimax_self,
        "minimax.fit_p50_s": statistics.median(fit_times) if fit_times else 0.0,
        "minimax.fit_tail_s": tail_s,
        "minimax.fit_tail_pct": tail_pct,
        "poly_minimax.solves": len(by_name["poly_minimax.solve_poly_minimax"]),
        "poly_minimax.busy_s": busy_time(spans, "poly_minimax"),
        "basis.evals": sum(len(by_name[n]) for n in basis_names),
        "basis.busy_s": busy_time(spans, "basis"),
        "equioscillation.alternations_fit1": alternations[0] if alternations else 0,
        "equioscillation.alternations_fit2": alternations[1] if len(alternations) > 1 else 0,
        "equioscillation.busy_s": busy_time(spans, "equioscillation"),
        "sine_model.probes": sum(
            1 for i in fits
            if any(a.name == "sine_model.fit_sine_model" for a in _ancestors(spans, i))),
        "sine_model.self_s": total("sine_model.fit_sine_model", own),
        "signal_pipeline.segments":
            sum(spans[i].attrs.get("segments", 0) for i in by_name["signal_pipeline.load_segments"]),
        "signal_pipeline.load_s": total("signal_pipeline.load_segments"),
        "signal_pipeline.extract_self_s": total("signal_pipeline.extract_features", own),
        "signal_pipeline.csv_s":
            total("signal_pipeline.write_feature_csv") + total("signal_pipeline.read_feature_csv"),
        "signal_pipeline.split_smoke_s":
            total("signal_pipeline.split") + total("signal_pipeline.separability_smoke_check"),
    }
