"""Self-tests of the benchmark harness: seeded inputs, tracing coverage
and the metric names promised in BENCHMARK.json."""

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter_ns

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_berklip()

import benchgen  # noqa: E402
import benchtrace  # noqa: E402
from berklip import cli, invariants, lipschitz, valued  # noqa: E402
from berklip.sampling import DetRng  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _same_map(a, b):
    return a.p == b.p and a.f == b.f and a.g == b.g and a.factored == b.factored


def test_generator_is_deterministic():
    a, b = benchgen.corpus_maps(5, 30), benchgen.corpus_maps(5, 30)
    assert all(_same_map(x, y) for x, y in zip(a, b))
    assert not all(_same_map(x, y) for x, y in zip(a, benchgen.corpus_maps(6, 30)))
    assert all(m.factored is not None and m.d <= 5 for m in a)
    m1 = benchgen.ladder_map(DetRng(3), 6)
    m2 = benchgen.ladder_map(DetRng(3), 6)
    assert _same_map(m1, m2) and m1.d == 6 and m1.p == 3


def _traced_smoke():
    """One small map through every traced layer; returns (tracer, wall ns)."""
    m = benchgen.corpus_maps(1, 1)[0]
    fixture = str(run.INPUTS / "square_shift_p3.json")
    tracer = benchtrace.Tracer()
    tracer.install()
    start = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.root("smoke", invariants.bundle, m)
            tracer.root("smoke", lipschitz.bound_report, m, 50, 1)
            tracer.root("smoke", lambda: lipschitz.segment_lip(lipschitz.radial_profile(m, 0, 0)))
            for cmd in ("invariants", "bounds", "profile"):
                tracer.root("smoke", cli.main, [cmd, "--input", fixture, "--n", "50"])
    finally:
        wall = perf_counter_ns() - start
        tracer.uninstall()
    return tracer, wall


def test_traced_smoke_records_every_listed_function():
    tracer, _ = _traced_smoke()
    for layer, path, _ in benchtrace.SPANNED:
        assert tracer.calls(f"{layer}.{path}") >= 1, f"{layer}.{path} never called"
    for layer, path in benchtrace.COUNTED:
        assert tracer.counters[f"{layer}.{path}.calls"] >= 1
    # uninstall restored every binding
    assert lipschitz.gpr is invariants.gpr and not hasattr(invariants.gpr, "__wrapped__")
    assert not hasattr(valued.int_val, "__wrapped__")


def test_self_times_are_nonnegative_and_within_wall():
    tracer, wall = _traced_smoke()
    child_ns = {}
    for span_id, parent, _, _, start, end in tracer.spans:
        child_ns[parent] = child_ns.get(parent, 0) + end - start
    self_ns = [end - start - child_ns.get(span_id, 0)
               for span_id, _, _, _, start, end in tracer.spans]
    assert min(self_ns) >= 0
    assert sum(self_ns) <= wall
    assert all(total[2] >= 0 for total in tracer.totals.values())


def test_traced_run_reports_every_per_layer_metric():
    wl = run.CliWorkload(run.GOLDEN_SEED, trace=True)
    out, metrics, _ = run.per_layer(wl, run.GOLDEN_SEED)
    assert out.failed == 0, out.errors
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    assert metrics["cli.exit_nonzero"][0] == 2  # bounds on the two coefficient-only maps


def test_timed_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(run, "CORPUS_MAPS", 4)
    monkeypatch.setattr(run, "SETUP_PACE", 0)
    wl = run.CorpusWorkload(3, trace=False)
    out, metrics, notes = run.end_to_end(wl, 0.0)
    assert out.failed == 0 and out.attempted == 4 * run.MIN_PASSES
    # at pace 0, one set-up before the first pass and one after every operation
    assert any(f"median of {1 + out.attempted} set-ups" in n for n in notes)
    assert set(metrics) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_golden_digest_rejects_other_results(monkeypatch):
    # four maps instead of the recorded 405 serialize to another digest
    monkeypatch.setattr(run, "CORPUS_MAPS", 4)
    wl = run.CorpusWorkload(run.GOLDEN_SEED, trace=False)
    wl.prepare()
    results = {k: wl.run_op(k) for k in wl.keys}
    assert wl.check(results) == {}
    assert set(wl.check_digest(results)) == set(wl.keys)
