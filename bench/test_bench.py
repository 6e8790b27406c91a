"""Self-tests of the benchmark: python3 -m pytest bench/"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import ratmin  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def test_self_time_and_busy_time_on_nested_spans():
    spans = [
        Span("minimax.solve_minimax", 0.0, 10.0, -1),
        Span("poly_minimax.solve_poly_minimax", 1.0, 3.0, 0),
        Span("lp_solver.solve", 1.5, 2.5, 1),
        Span("minimax.build_feasibility_lp", 4.0, 5.0, 0),
        Span("basis.eval_numerator_basis", 4.2, 4.4, 3),
        Span("lp_solver.solve", 5.0, 9.0, 0),
        Span("basis.eval_ratio", 11.0, 12.0, -1),
        Span("basis.eval_numerator_basis", 11.2, 11.5, 6),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 1.0, 1.0, 0.8, 0.2, 4.0, 0.7, 0.3])
    assert tracing.busy_time(spans, "basis") == pytest.approx(0.2 + 1.0)
    assert tracing.busy_time(spans, "lp_solver") == pytest.approx(5.0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["minimax.self_s"] == pytest.approx(3.0 + 0.8)
    assert metrics["minimax.probes_per_fit"] == 1  # the poly LP is not a probe
    assert metrics["minimax.assemble_s"] == pytest.approx(1.0)
    assert metrics["basis.evals"] == 3


def test_tail_needs_ten_values_beyond_it():
    assert tracing.tail([1.0] * 10) == (0.0, 0.0)
    value, pct = tracing.tail([float(i) for i in range(1, 61)])
    assert value == 50.0 and pct == pytest.approx(100 * 50 / 60)


def _bindings():
    return {(mod.__name__, attr): value
            for mod in tracing.ratmin_modules() for attr, value in vars(mod).items()}


def test_install_wraps_every_binding_site_and_uninstall_restores_all():
    before = _bindings()
    solve_minimax = ratmin.minimax.solve_minimax
    with Tracer():
        assert ratmin.sine_model.solve_minimax is not solve_minimax
        assert ratmin.signal_pipeline.solve_minimax is ratmin.sine_model.solve_minimax
        assert ratmin.solve_minimax is ratmin.minimax.solve_minimax
        assert ratmin.minimax.solve_minimax is not solve_minimax
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_missing_name_fails_the_traced_run(monkeypatch):
    before = _bindings()
    monkeypatch.delattr(ratmin.equioscillation, "analyze")
    with pytest.raises(tracing.MissingName, match="ratmin.equioscillation.analyze"):
        Tracer().install()
    monkeypatch.undo()
    assert all(_bindings()[key] is value for key, value in before.items())


def _small_inputs(workload, tmp_path):
    if workload == "sharp-fit":
        return wl.sharp_inputs(3, nodes=200, fits=((2, 2, 1e-4), (3, 2, 1e-6)))
    return wl.corpus_inputs(3, tmp_path, m1_shape=(3, 64), m2_shape=(3, 24))


@pytest.mark.parametrize("workload", sorted(wl.PASSES))
def test_traced_pass_gives_bit_identical_outputs(workload, tmp_path):
    run_pass = wl.PASSES[workload]
    inputs = _small_inputs(workload, tmp_path)
    plain = run_pass(inputs)
    tracer = Tracer(capture_every=1)
    with tracer:
        traced = run_pass(inputs)
    assert plain.calls == traced.calls > 0
    assert plain.digest == traced.digest
    assert plain.achieved == traced.achieved
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    assert len(tracer.captured) == tracing.layer_metrics(tracer.spans)["lp_solver.solves"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    c1 = wl.corpus_inputs(5, tmp_path / "a", m1_shape=(2, 64), m2_shape=(2, 24))
    c2 = wl.corpus_inputs(5, tmp_path / "b", m1_shape=(2, 64), m2_shape=(2, 24))
    for x, y in zip(c1.corpora, c2.corpora):
        for label in x.segments:
            assert all((p == q).all() for p, q in zip(x.segments[label], y.segments[label]))
    assert (tmp_path / "a" / "M1" / "A" / "seg0001.txt").read_text() == \
        (tmp_path / "b" / "M1" / "A" / "seg0001.txt").read_text()


def test_compare_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    faster = [p * 0.8 for p in parent]
    assert compare.verdict(parent, faster, list(zip(parent, faster)), 0.1, True)[0] == "improved"
    slower = [p * 1.3 for p in parent]
    assert compare.verdict(parent, slower, list(zip(parent, slower)), 0.1, True)[0] == "worse"
    same = parent[::-1]
    assert compare.verdict(parent, same, list(zip(parent, same)), 0.1, True)[0] == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, parent, list(zip(noisy, parent)), 0.1, True)[0] == "unresolved"


def _write_runs(path, rows):
    path.write_text("".join(json.dumps({"workload": w, "seed": s, "result": {}}) + "\n"
                            for w, s in rows))


def test_compare_pairs_runs_by_seed_and_rejects_unmatched_or_repeated_seeds(tmp_path):
    _write_runs(tmp_path / "p.jsonl", [("sharp-fit", 1), ("sharp-fit", 2)])
    _write_runs(tmp_path / "c.jsonl", [("sharp-fit", 2), ("sharp-fit", 1)])
    parent, change = compare.load(tmp_path / "p.jsonl"), compare.load(tmp_path / "c.jsonl")
    assert len(compare.pair(parent, change, "sharp-fit")) == 2
    _write_runs(tmp_path / "c.jsonl", [("sharp-fit", 2)])
    with pytest.raises(compare.PairingError, match=r"\[1\]"):
        compare.pair(parent, compare.load(tmp_path / "c.jsonl"), "sharp-fit")
    _write_runs(tmp_path / "c.jsonl", [("sharp-fit", 1), ("sharp-fit", 1)])
    with pytest.raises(compare.PairingError, match="twice"):
        compare.load(tmp_path / "c.jsonl")
