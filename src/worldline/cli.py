"""Command-line front end: solve, sweep, dump-operator.

This is the only module that formats or writes output files.  All
outputs are byte-deterministic for fixed inputs: floats are written as
their shortest round-trip decimals, JSON keys are sorted, and no
timestamps appear anywhere.  Every run writes a manifest listing the
emitted files with their SHA-256 checksums.

A run into an existing ``--out`` rewrites each output file in place and
cuts it to its new length: on ext4 an ``O_TRUNC`` open costs several
times the write.  Files the run does not write are left alone.  Nothing
is fsynced; a torn file fails its manifest checksum.

Exit codes: 0 success, 1 configuration or flag error, 2 solver
non-convergence (the iteration cap or a stalled line search), a singular
Newton system, a geodesic seed reaching g00 <= 0 or too many steps, or in
``sweep`` a failed reference integration, 3 I/O error.  On non-convergence
``solve`` still writes its files, flagged as not converged; on a singular
system (a non-finite gradient or Hessian, or a zero pivot in the band LU)
or a failed seed it writes none.  ``sweep`` writes none on exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .action import InvalidConfig, ProblemConfig
from .diagnostics import diagnose
from .reference import convergence_study, scaled_tdot_study
from .sbp import SIGMA0, build_operator, regularize
from .solver import NonConvergence, SingularSystem, SolveOptions, StepFailure, solve

__all__ = ["main"]

_SOLVE_EPILOG = """\
output files:
  trajectory.csv   columns: gamma,t1,t2,x1,x2
  diagnostics.csv  columns: gamma,t,x,dt_dgamma,q_t,delta_e,delta_g_t,delta_g_x,h_bvp
  summary.json     keys: converged, termination, grad_norm, iterations, t_final,
                   tdot_final, delta_e_end, max_interior_delta_e, lambda;
                   termination is converged, roundoff_floor, max_iter or stalled
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
            "extends the simulated time window with the grid, each run "
            "solved from a geodesic seed against one stretched reference"
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
    given = {"grad_tol": args.tol, "max_iter": args.max_iter}
    return SolveOptions(**{name: v for name, v in given.items() if v is not None})


# The output format: floats as their shortest round-trip decimal (repr),
# integers as integers, comma-separated rows ending in "\n", and JSON
# indented with sorted keys.
def _table(header, columns) -> str:
    """CSV text with one row per index of the equal-length ``columns``."""
    cells = [map(repr, np.asarray(col).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _rewrite(path: Path, data: bytes) -> None:
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(data)
        f.truncate()


def _write_outputs(args, subcommand: str, files: dict) -> int:
    """Write ``files`` (name -> text) and their manifest; 3 on an I/O error."""
    directory = Path(args.out)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        entries = []
        for name in sorted(files):
            data = files[name].encode("utf-8")
            _rewrite(directory / name, data)
            entries.append({"name": name, "sha256": hashlib.sha256(data).hexdigest()})
        manifest = {
            "subcommand": subcommand,
            "config": args.config,
            "out_dir": str(directory),
            "files": entries + [{"name": "manifest.json", "sha256": None}],
        }
        _rewrite(directory / "manifest.json", _json(manifest).encode("utf-8"))
    except OSError as exc:
        print(f"worldline {subcommand}: I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


_TRAJECTORY_HEADER = ("gamma", "t1", "t2", "x1", "x2")
_DIAGNOSTICS_HEADER = (
    "gamma",
    "t",
    "x",
    "dt_dgamma",
    "q_t",
    "delta_e",
    "delta_g_t",
    "delta_g_x",
    "h_bvp",
)
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
    except (SingularSystem, StepFailure) as exc:
        print(f"worldline solve: {exc}", file=sys.stderr)
        return 2

    # every state solve returns, converged or not, lies on the physical limit
    state = sol.state
    report = diagnose(state, cfg)
    summary = {
        "converged": sol.converged,
        "termination": sol.termination,
        "grad_norm": sol.grad_norm,
        "iterations": sol.iterations,
        "t_final": float(state.t1[-1]),
        "tdot_final": float(report.time_mesh_velocity[-1]),
        "delta_e_end": report.delta_e_end,
        "max_interior_delta_e": report.max_interior_delta_e,
        "lambda": [float(v) for v in state.lam],
    }
    files = {
        "trajectory.csv": _table(
            _TRAJECTORY_HEADER, (sol.gamma, state.t1, state.t2, state.x1, state.x2)
        ),
        "diagnostics.csv": _table(
            _DIAGNOSTICS_HEADER,
            (
                report.gamma,
                report.t,
                report.x,
                report.time_mesh_velocity,
                report.q_t,
                report.delta_e,
                report.delta_g_t,
                report.delta_g_x,
                report.h_bvp,
            ),
        ),
        "summary.json": _json(summary),
    }
    return _write_outputs(args, "solve", files) or exit_code


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

    try:
        if tdot_list is None:
            table = convergence_study(cfg, n_list, opts=opts)
            fit_payload = {"mode": "refinement", "fits": table.fit_exponents()}
        else:
            table = scaled_tdot_study(cfg, n_list, tdot_list, opts=opts)
            fit_payload = {"mode": "scale-tdot", "tdot_i": tdot_list}
    except (NonConvergence, SingularSystem, StepFailure) as exc:
        print(f"worldline sweep: {exc}", file=sys.stderr)
        return 2
    except (InvalidConfig, ValueError) as exc:
        print(f"worldline sweep: bad configuration: {exc}", file=sys.stderr)
        return 1

    columns = [table.column("n_gamma"), *map(table.column, _SWEEP_HEADER[1:])]
    files = {
        "convergence.csv": _table(_SWEEP_HEADER, columns),
        "fit.json": _json(fit_payload),
    }
    return _write_outputs(args, "sweep", files)


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
                    "init_value": args.init_value,
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
