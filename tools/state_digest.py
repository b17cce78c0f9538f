"""Digests of solver states and CLI outputs on the benchmark's inputs.

    python3 tools/state_digest.py > digests.txt

Prints one line per item, a label and a SHA-256:
- the state (t, x, then lam: four zeros and lam_5..lam_8, the doubled
  state's eight multipliers), grad_history, iterations and termination of
  ``wl.solve`` on each of large_solve's 12 configurations (with its
  iteration cap) and small_cli's 96 seed-1 configurations;
- the output digest of small_cli at seeds 1-20 and refine_sweep at seeds
  1-10, each case run once through ``worldline.cli.main`` in a temporary
  directory.

Run it on two checkouts and diff the outputs: a change that keeps the
arithmetic prints the same lines.  Configurations are drawn by
``perfbench/workloads.py``, imported as it is; BLAS runs on one thread.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
sys.dont_write_bytecode = True  # leave no cache files in perfbench/

import hashlib
import json
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

import worldline as wl
import worldline.cli
from workloads import WORKLOADS


def state_digest(cfg, opts=None) -> str:
    try:
        sol = wl.solve(cfg, opts)
    except wl.NonConvergence as exc:
        sol = exc.solution
    except (wl.SingularSystem, wl.StepFailure) as exc:
        return hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()
    s = sol.state
    h = hashlib.sha256()
    for a in (s.t, s.x, np.append(np.zeros(4), s.lam), np.array(sol.grad_history)):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(f"{sol.iterations} {sol.termination}".encode())
    return h.hexdigest()


def output_digest(name: str, seed: int, out_dir: Path) -> str:
    workload = WORKLOADS[name](wl, seed, out_dir)
    for case in workload.cases:
        workload.check(case, workload.call(case))
    return workload.quality()["output_digest"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        large = WORKLOADS["large_solve"](wl, 1, out)
        for label, cfg in sorted({c["label"]: c["cfg"] for c in large.cases}.items()):
            print(f"large_solve {label} {state_digest(cfg, large.opts)}")
        small = WORKLOADS["small_cli"](wl, 1, out / "small")
        for case in small.cases:
            config = Path(case["argv"][case["argv"].index("--config") + 1])
            cfg = wl.ProblemConfig.from_json_dict(json.loads(config.read_text(encoding="utf-8")))
            print(f"small_cli {case['label']} {state_digest(cfg)}")
        for name, seeds in (("small_cli", range(1, 21)), ("refine_sweep", range(1, 11))):
            for seed in seeds:
                print(f"{name} seed {seed} output {output_digest(name, seed, out / name)}")


if __name__ == "__main__":
    main()
