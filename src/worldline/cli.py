"""Command-line front end: solve, sweep, dump-operator.

All outputs are byte-deterministic for fixed inputs: floats are written as
their shortest round-trip decimals, JSON keys are sorted, and no
timestamps appear anywhere.  Every run writes a manifest listing the
emitted files with their SHA-256 checksums.

Exit codes: 0 success, 1 configuration or flag error, 2 solver
non-convergence, a singular Newton system, or a failed reference
integration in ``sweep``, 3 I/O error.  On non-convergence ``solve``
still writes its files, flagged as not converged; on a singular system (a
non-finite gradient or Hessian, or a system no damping makes solvable) it
writes none, as there is no finite iterate.  ``sweep`` writes none on exit
code 2.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .action import InvalidConfig, ProblemConfig
from .diagnostics import _csv_text, _fmt, diagnose
from .reference import StepFailure, convergence_study, scaled_tdot_study
from .sbp import SIGMA0, build_operator, regularize
from .solver import NonConvergence, SingularSystem, SolveOptions, solve

__all__ = ["main"]

_SOLVE_EPILOG = """\
output files:
  trajectory.csv   columns: gamma,t1,t2,x1,x2
  diagnostics.csv  columns: gamma,t,x,dt_dgamma,q_t,delta_e,delta_g_t,delta_g_x,h_bvp
  summary.json     keys: converged, grad_norm, iterations, t_final, tdot_final,
                   delta_e_end, max_interior_delta_e, lambda
  manifest.json    emitted files with sha256 checksums
"""

_SWEEP_EPILOG = """\
output files:
  convergence.csv  columns: n,dgamma,eps_final_x,eps_final_t,eps_l2_x,eps_l2_t,
                   delta_e_end,max_interior_delta_e
  fit.json         fitted convergence exponents (omitted in --scale-tdot mode)
  manifest.json    emitted files with sha256 checksums
"""


class _Parser(argparse.ArgumentParser):
    # spec'd exit taxonomy: flag errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser unchanged, so build it once
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="worldline",
        description=(
            "Variational initial-value solver for a point particle in a "
            "potential, with conserved-charge diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve",
        help="solve one configuration and write trajectory + diagnostics",
        epilog=_SOLVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_solve.add_argument("--config", required=True, help="JSON problem configuration")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--tol", type=float, help="gradient tolerance factor")
    p_solve.add_argument("--max-iter", type=int, help="Newton iteration cap")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser(
        "sweep",
        help="grid-refinement sweep with convergence-exponent fit",
        epilog=_SWEEP_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_sweep.add_argument("--config", required=True, help="JSON problem configuration")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument(
        "--n-list", required=True, help="comma-separated grid sizes, ascending"
    )
    p_sweep.add_argument(
        "--order", choices=["sbp21", "sbp42"], help="override the configured operator"
    )
    p_sweep.add_argument(
        "--scale-tdot",
        help=(
            "comma-separated tdot_i values paired with --n-list entries; "
            "extends the simulated time window with the grid"
        ),
    )
    p_sweep.add_argument("--tol", type=float, help="gradient tolerance factor")
    p_sweep.add_argument("--max-iter", type=int, help="Newton iteration cap")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dump = sub.add_parser(
        "dump-operator", help="print operator matrices as row-major JSON"
    )
    p_dump.add_argument("--order", required=True, choices=["sbp21", "sbp42"])
    p_dump.add_argument("--n", required=True, type=int)
    p_dump.add_argument("--dgamma", required=True, type=float)
    p_dump.add_argument("--regularized", action="store_true")
    p_dump.add_argument("--init-value", type=float, default=0.0)
    p_dump.set_defaults(func=cmd_dump_operator)

    return parser


def _load_config(path: str) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as f:
        return ProblemConfig.from_json(f.read())


def _solve_options(args) -> SolveOptions:
    opts = SolveOptions()
    overrides = {}
    if getattr(args, "tol", None) is not None:
        overrides["grad_tol"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        overrides["max_iter"] = args.max_iter
    return replace(opts, **overrides) if overrides else opts


@dataclass
class _OutputSink:
    """Collects emitted files so the manifest can list them all."""

    directory: Path
    entries: list

    @classmethod
    def create(cls, directory: str) -> "_OutputSink":
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        return cls(directory=d, entries=[])

    def write_text(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        (self.directory / name).write_bytes(data)
        self.entries.append(
            {"name": name, "sha256": hashlib.sha256(data).hexdigest()}
        )

    def finish(self, subcommand: str, config_path: str | None) -> None:
        manifest = {
            "subcommand": subcommand,
            "config": config_path,
            "out_dir": str(self.directory),
            "files": sorted(self.entries, key=lambda e: e["name"])
            + [{"name": "manifest.json", "sha256": None}],
        }
        (self.directory / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def cmd_solve(args) -> int:
    try:
        cfg = _load_config(args.config)
        opts = _solve_options(args)
    except (OSError, json.JSONDecodeError, InvalidConfig, ValueError) as exc:
        print(f"worldline solve: bad configuration: {exc}", file=sys.stderr)
        return 1

    exit_code = 0
    try:
        sol = solve(cfg, opts)
    except NonConvergence as exc:
        sol = exc.solution
        exit_code = 2
    except SingularSystem as exc:
        print(f"worldline solve: {exc}", file=sys.stderr)
        return 2

    try:
        sink = _OutputSink.create(args.out)
        state = sol.state

        sink.write_text(
            "trajectory.csv",
            _csv_text(
                ("gamma", "t1", "t2", "x1", "x2"),
                (
                    [_fmt(g), _fmt(a), _fmt(b), _fmt(c), _fmt(d)]
                    for g, a, b, c, d in zip(
                        sol.gamma, state.t1, state.t2, state.x1, state.x2
                    )
                ),
            ),
        )

        # diagnostics are computed on branch 1; skip the branch-coincidence
        # check for non-converged states so the data still lands on disk
        limit_tol = 1e-9 if sol.converged else np.inf
        report = diagnose(state, cfg, limit_tol=limit_tol)
        buf = io.StringIO()
        report.write_csv(buf)
        sink.write_text("diagnostics.csv", buf.getvalue())

        summary = {
            "converged": sol.converged,
            "grad_norm": sol.grad_norm,
            "iterations": sol.iterations,
            "t_final": float(state.t1[-1]),
            "tdot_final": float(report.time_mesh_velocity[-1]),
            "delta_e_end": report.delta_e_end,
            "max_interior_delta_e": report.max_interior_delta_e,
            "lambda": [float(v) for v in state.lam],
        }
        sink.write_text(
            "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        sink.finish("solve", args.config)
    except OSError as exc:
        print(f"worldline solve: I/O error: {exc}", file=sys.stderr)
        return 3
    return exit_code


_SWEEP_HEADER = (
    "n",
    "dgamma",
    "eps_final_x",
    "eps_final_t",
    "eps_l2_x",
    "eps_l2_t",
    "delta_e_end",
    "max_interior_delta_e",
)


def _sweep_rows_csv(rows) -> str:
    return _csv_text(
        _SWEEP_HEADER,
        (
            [str(r.n_gamma)]
            + [
                _fmt(v)
                for v in (
                    r.dgamma,
                    r.eps_final_x,
                    r.eps_final_t,
                    r.eps_l2_x,
                    r.eps_l2_t,
                    r.delta_e_end,
                    r.max_interior_delta_e,
                )
            ]
            for r in rows
        ),
    )


def cmd_sweep(args) -> int:
    try:
        cfg = _load_config(args.config)
        opts = _solve_options(args)
        n_list = [int(s) for s in args.n_list.split(",") if s.strip()]
        if args.order:
            cfg = replace(cfg, order=args.order)
        tdot_list = None
        if args.scale_tdot:
            tdot_list = [float(s) for s in args.scale_tdot.split(",") if s.strip()]
            if len(tdot_list) != len(n_list):
                raise InvalidConfig(
                    "--scale-tdot needs one tdot_i value per --n-list entry"
                )
    except (OSError, json.JSONDecodeError, InvalidConfig, ValueError) as exc:
        print(f"worldline sweep: bad configuration: {exc}", file=sys.stderr)
        return 1

    exit_code = 0
    rows = []
    fit_payload: dict = {}

    try:
        if tdot_list is None:
            table = convergence_study(cfg, n_list, opts=opts)
            rows = list(table.rows)
            fit_payload = {"mode": "refinement", "fits": table.fit_exponents()}
        else:
            table = scaled_tdot_study(cfg, n_list, tdot_list, opts=opts)
            rows = list(table.rows)
            fit_payload = {"mode": "scale-tdot", "tdot_i": tdot_list}
    except (NonConvergence, SingularSystem, StepFailure) as exc:
        print(f"worldline sweep: {exc}", file=sys.stderr)
        return 2
    except (InvalidConfig, ValueError) as exc:
        print(f"worldline sweep: bad configuration: {exc}", file=sys.stderr)
        return 1

    try:
        sink = _OutputSink.create(args.out)
        sink.write_text("convergence.csv", _sweep_rows_csv(rows))
        sink.write_text(
            "fit.json", json.dumps(fit_payload, indent=2, sort_keys=True) + "\n"
        )
        sink.finish("sweep", args.config)
    except OSError as exc:
        print(f"worldline sweep: I/O error: {exc}", file=sys.stderr)
        return 3
    return exit_code


def cmd_dump_operator(args) -> int:
    try:
        op = build_operator(args.order, args.n, args.dgamma)
        h = np.diag(op.h)
        payload = {
            "order": args.order,
            "n": op.n,
            "dgamma": op.dgamma,
            "interior_order": op.interior_order,
            "boundary_order": op.boundary_order,
            "d": [[float(v) for v in row] for row in op.d],
            "h": [[float(v) for v in row] for row in h],
        }
        if args.regularized:
            reg = regularize(op, args.init_value)
            payload.update(
                {
                    "init_value": reg.init_value,
                    "sigma0": SIGMA0,
                    "dbar": [[float(v) for v in row] for row in reg.dbar],
                    # the quadrature padded by a zero row and column, so the
                    # affine entry of dbar never enters an inner product
                    "hbar": [[float(v) for v in row] for row in np.pad(h, (0, 1))],
                }
            )
    except ValueError as exc:
        print(f"worldline dump-operator: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
