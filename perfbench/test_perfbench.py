"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import worldline as wl  # noqa: E402
import worldline.cli  # noqa: E402,F401

import layers  # noqa: E402
from measure import OpFailed, WrongOutput, percentile, run_op, tally  # noqa: E402
from tracing import Span, Tracer, self_times, union_length  # noqa: E402


# ---------------------------------------------------------------- percentiles


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90
    assert sum(s > 90 for s in samples) == 10
    assert percentile(samples[:99], 90) is None
    assert percentile(samples, 99) is None
    assert percentile(samples, 50) == 50


def test_percentile_is_order_independent_and_handles_empty():
    samples = [float(v) for v in range(200, 0, -1)]
    assert percentile(samples, 90) == 180.0
    assert percentile([], 50) is None
    assert percentile([1.0, 2.0, 3.0], 50, min_beyond=1) == 2.0


# ------------------------------------------------------------------ self time


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def _span(layer, start, end, thread, parent=None):
    return Span(layer, start, end, thread=thread, parent=parent)


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("reference.study", 0.0, 10.0, thread=1)
    # two pool threads solving at the same time
    a = _span("solver.solve", 1.0, 4.0, thread=2, parent=parent)
    b = _span("solver.solve", 3.0, 6.0, thread=3, parent=parent)
    grandchild = _span("action.hessian", 1.5, 2.5, thread=2, parent=a)
    selfs = self_times([parent, a, b, grandchild])
    assert selfs[id(parent)] == pytest.approx(5.0)  # 10 - |[1, 6]|, not 10 - 3 - 3
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(grandchild)] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent_interval():
    parent = _span("cli.main", 0.0, 2.0, thread=1)
    late = _span("solver.solve", 1.5, 3.0, thread=2, parent=parent)
    assert self_times([parent, late])[id(parent)] == pytest.approx(1.5)


def test_traced_spans_from_two_threads_keep_their_parent():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=5)

    def inner():
        barrier.wait()
        time.sleep(0.05)

    inner = tracer.wrap("inner", inner)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(inner) for _ in range(2)]
            for f in futures:
                f.result(timeout=5)

    tracer.wrap("outer", outer)()
    (root,) = [s for s in tracer.spans if s.layer == "outer"]
    kids = [s for s in tracer.spans if s.layer == "inner"]
    assert len(kids) == 2
    assert all(k.parent is root for k in kids)
    assert kids[0].thread != kids[1].thread != root.thread
    covered = union_length((k.start, k.end) for k in kids)
    assert covered < sum(k.duration for k in kids)  # they overlapped
    assert self_times(tracer.spans)[id(root)] == pytest.approx(root.duration - covered)


def test_nested_call_into_the_same_layer_stays_in_one_span():
    tracer = Tracer()
    inner = tracer.wrap("solver.solve", lambda: 1)
    outer = tracer.wrap("solver.solve", lambda: inner() + 1)
    assert outer() == 2
    assert [s.layer for s in tracer.spans] == ["solver.solve"]


def test_install_wraps_every_binding_and_restore_puts_them_back():
    originals = (wl.solve, wl.solver.solve, wl.reference.solve, wl.DiscreteAction.gradient)
    tracer = Tracer()
    layers.install(tracer, wl)
    try:
        assert wl.reference.solve is not originals[2]
        cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=16)
        sol = wl.solve(cfg)
        metrics = layers.layer_metrics(tracer.spans, n_ops=1)
    finally:
        tracer.restore()
    assert (wl.solve, wl.solver.solve, wl.reference.solve, wl.DiscreteAction.gradient) == originals
    assert metrics["solver.solve.calls"] == 1
    assert metrics["action.init.calls"] == 1
    # ProblemConfig.build_operator (holding sbp.build_operator) and two regularize calls
    assert metrics["sbp.build.calls"] == 3
    assert metrics["action.hessian.calls"] == sol.iterations
    assert metrics["solver.newton_iters"] == sol.iterations
    assert metrics["solver.failed"] == 0


# ----------------------------------------------------------- failure counting


def _non_convergence():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    best = wl.Solution(
        state=wl.initial_guess(cfg),
        gamma=cfg.gamma_grid,
        grad_norm=1.0,
        iterations=12,
        converged=False,
    )
    return wl.NonConvergence(best)


def _raise(exc):
    raise exc


def test_non_convergence_is_a_failed_op_but_not_wrong_output():
    r = run_op(lambda: _raise(_non_convergence()), lambda _: None, (wl.NonConvergence,))
    assert r.failure.startswith("NonConvergence")
    assert not r.wrong


def test_failed_check_counts_as_failed_op():
    def check(value):
        if value > 1e-9:
            raise OpFailed("interior charge deviation above 1e-09")

    assert run_op(lambda: 2e-9, check).failure == "interior charge deviation above 1e-09"
    assert run_op(lambda: 1e-12, check).failure is None


def test_unexpected_errors_are_wrong_output():
    def bad_manifest(_):
        raise WrongOutput("summary.json does not match its manifest checksum")

    assert run_op(lambda: 0, bad_manifest).wrong
    assert run_op(lambda: _raise(TypeError("boom")), lambda _: None, (wl.NonConvergence,)).wrong
    assert run_op(lambda: {}, lambda d: d["missing"]).wrong


def test_tally_counts_every_failure_once():
    results = [
        run_op(lambda: 0, lambda _: None),
        run_op(lambda: _raise(_non_convergence()), lambda _: None, (wl.NonConvergence,)),
        run_op(lambda: _raise(_non_convergence()), lambda _: None, (wl.NonConvergence,)),
        run_op(lambda: 0, lambda _: _raise(WrongOutput("exit code 3"))),
    ]
    counts = tally(results)
    assert (counts["attempted"], counts["failed"], counts["wrong"]) == (4, 3, 1)
    assert sum(counts["reasons"].values()) == 3
    assert counts["reasons"]["WrongOutput: exit code 3"] == 1


def test_cli_check_rejects_a_file_that_does_not_match_its_manifest(tmp_path):
    from workloads import SmallCli

    workload = SmallCli(wl, seed=3, out_dir=tmp_path / "small_cli")
    case = workload.cases[0]
    assert run_op(lambda: workload.call(case), lambda r: workload.check(case, r)).failure is None
    trajectory = Path(case["out"]) / "trajectory.csv"
    trajectory.write_text(trajectory.read_text() + "0,0,0,0,0\n")
    result = run_op(lambda: 0, lambda r: workload.check(case, r))
    assert result.wrong and "trajectory.csv" in result.failure
