"""Which worldline entry points form each layer, and the per-layer metrics.

Layers are named after the module that owns the entry point.  Every metric
is normalised per benchmark op, so runs of different length compare.
"""

from __future__ import annotations

from tracing import Tracer, children_of, self_times

# grids with a per-step solver time of their own
STEP_GRIDS = (256, 512, 768)

COUNTED_LAYERS = (
    "sbp.build",
    "action.init",
    "action.gradient",
    "action.hessian",
    "diagnostics.diagnose",
    "reference.oracle",
)


def _solve_exit(span, args, kwargs, result, exc):
    cfg = args[0] if args else kwargs["cfg"]
    span.attrs["n"] = cfg.n_gamma
    span.attrs["failed"] = exc is not None
    solution = result if exc is None else getattr(exc, "solution", None)
    if solution is not None:
        span.attrs["iterations"] = solution.iterations
        span.attrs["accepted"] = len(solution.grad_history) - 1


def install(tracer: Tracer, wl) -> None:
    """Wrap the public entry points of each worldline module."""
    modules = [wl, wl.sbp, wl.action, wl.solver, wl.diagnostics, wl.reference, wl.cli]
    for layer, fn, on_exit in (
        ("sbp.build", wl.sbp.build_operator, None),
        ("sbp.build", wl.sbp.regularize, None),
        ("solver.solve", wl.solver.solve, _solve_exit),
        ("solver.solve", wl.solver.continuation_solve, _solve_exit),
        ("diagnostics.diagnose", wl.diagnostics.diagnose, None),
        ("reference.oracle", wl.reference.solve_geodesic_ode, None),
        ("reference.study", wl.reference.convergence_study, None),
        ("reference.study", wl.reference.scaled_tdot_study, None),
        ("cli.main", wl.cli.main, None),
    ):
        tracer.rebind(layer, fn, modules, on_exit)
    tracer.rebind_method("sbp.build", wl.action.ProblemConfig, "build_operator")
    for layer, name in (
        ("action.init", "__init__"),
        ("action.gradient", "gradient"),
        ("action.hessian", "hessian"),
    ):
        tracer.rebind_method(layer, wl.action.DiscreteAction, name)


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-op calls and self seconds of each layer, plus solver counters."""
    selfs = self_times(spans)
    children = children_of(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span in spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
        self_s[span.layer] = self_s.get(span.layer, 0.0) + selfs[id(span)]

    def per_op(value):
        return value / n_ops

    out = {}
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = per_op(calls.get(layer, 0))
        out[f"{layer}.s"] = per_op(self_s.get(layer, 0.0))
    out["solver.solve.calls"] = per_op(calls.get("solver.solve", 0))
    out["solver.self_s"] = per_op(self_s.get("solver.solve", 0.0))
    out["reference.study.self_s"] = per_op(self_s.get("reference.study", 0.0))
    out["cli.main.calls"] = per_op(calls.get("cli.main", 0))
    out["cli.self_s"] = per_op(self_s.get("cli.main", 0.0))

    solves = [s for s in spans if s.layer == "solver.solve"]
    steps_s = {n: [0.0, 0] for n in STEP_GRIDS}
    iterations = accepted = trials = failed = 0
    for s in solves:
        kids = children.get(id(s), ())
        hessians = sum(1 for c in kids if c.layer == "action.hessian")
        gradients = sum(1 for c in kids if c.layer == "action.gradient")
        if s.attrs.get("n") in steps_s:
            steps_s[s.attrs["n"]][0] += selfs[id(s)]
            steps_s[s.attrs["n"]][1] += hessians
        iterations += s.attrs.get("iterations", 0)
        accepted += s.attrs.get("accepted", 0)
        trials += max(gradients - 1, 0)
        failed += s.attrs.get("failed", False)
    for n, (seconds, steps) in steps_s.items():
        out[f"solver.step_s.n{n}"] = seconds / steps if steps else 0.0
    out["solver.newton_iters"] = iterations / len(solves) if solves else 0.0
    out["solver.failed"] = failed / len(solves) if solves else 0.0
    out["solver.ls_accept_ratio"] = accepted / trials if trials else 0.0
    return out
