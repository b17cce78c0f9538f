"""Seeded inputs, the timed call and the output checks of each workload.

Each workload is a fixed cycle of cases drawn from the seed.  A run repeats
whole cycles, so every case runs equally often and repeats of one input
must give byte-identical output.

large_solve
    ``worldline.solve`` + ``worldline.diagnose`` at n = 256, 512 and 768,
    both operator families, linear and quartic potentials.  The dense
    Newton step does nearly all the work here, so a cheaper Newton core
    shows here; so do the SBP42 stagnations near the roundoff floor at
    n = 768, which count as failed ops.
small_cli
    In-process ``worldline solve`` at n = 16 to 48 on every family and
    potential.  Each op is a few milliseconds, so per-call overhead
    (operator rebuilds, parsing, formatting, checksums, file writes) shows
    here and a faster Newton core does not.
refine_sweep
    In-process ``worldline sweep``: the four acceptance refinement studies
    and one quartic ``--scale-tdot`` ladder.  The only workload that runs
    the Dormand-Prince oracle, warm-started continuation and the sweep's
    thread pool.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from pathlib import Path

from measure import OpFailed, WrongOutput

# interior charge ceiling of acceptance criterion 9b
CHARGE_CEILING = 1e-9
# every converging large solve needs 3-10 steps; the cap bounds a stagnating one
LARGE_MAX_ITER = 12
# grid size -> runs of each of its cases per cycle.  The median op falls
# among the n = 512 solves; repeating them rests it on 12 samples spread
# over the cycle instead of on two single solves.
LARGE_GRIDS = {256: 1, 512: 3, 768: 1}
# the development seed; its draw stagnates in both SBP42 cases at n = 768
LARGE_DRAW_SEED = 1
# small_cli configs per grid size, operator family and potential
SMALL_DRAWS = 4


def draw_physics(rng: random.Random, potential: str, initial_data: bool = True) -> dict:
    """Initial data and potential strength for one config."""
    spec = {"type": potential}
    if potential == "linear":
        spec["alpha"] = rng.uniform(0.1, 0.4)
    elif potential == "quartic":
        spec["kappa"] = rng.uniform(0.2, 0.6)
    physics = {"potential": spec, "tdot_i": 1.0}
    if initial_data:
        physics["x_i"] = rng.uniform(0.5, 1.0)
        physics["xdot_i"] = rng.uniform(-0.2, 0.2)
    return physics


class Workload:
    """A cycle of cases with the timed call and the checks of its outputs."""

    name = ""

    def __init__(self, wl, seed: int, out_dir: Path):
        self.wl = wl
        self.out_dir = out_dir
        self.expected = (
            wl.NonConvergence,
            wl.SingularSystem,
            wl.PhysicalLimitViolation,
        )
        self.charge_devs: list[float] = []
        self.ref_errs: list[float] = []
        self.bytes_written = 0
        self.cases = self.make_cases(random.Random(f"{self.name}:{seed}"))

    def make_cases(self, rng) -> list[dict]:
        raise NotImplementedError

    @property
    def warmup(self) -> dict:
        """The case with the smallest grids."""
        return min(self.cases, key=lambda c: c["size"])

    def call(self, case):
        raise NotImplementedError

    def check(self, case, result) -> None:
        raise NotImplementedError

    def quality(self) -> dict:
        return {
            "charge_dev_max": max(self.charge_devs, default=None),
            "ref_err_l2_max": max(self.ref_errs, default=None),
        }


class LargeSolve(Workload):
    name = "large_solve"

    def make_cases(self, rng):
        self.opts = self.wl.SolveOptions(max_iter=LARGE_MAX_ITER)
        # One fixed draw, whatever the seed: which SBP42 case stagnates at
        # n = 768, and whether a solve needs 3 or 10 steps, changes with the
        # draw; over seven draws the two SBP42 solves at n = 768 took 10.8 to
        # 16.2 s of the ~25 s that all twelve cases take.  The seed sets the
        # order in which the cases run.
        draw = random.Random(f"{self.name}:{LARGE_DRAW_SEED}")
        cases = []
        for n, repeats in LARGE_GRIDS.items():
            for order in ("sbp21", "sbp42"):
                for potential in ("linear", "quartic"):
                    data = {**draw_physics(draw, potential), "n_gamma": n, "order": order}
                    case = {
                        "label": f"{order}-{potential}-n{n}",
                        "size": n,
                        "cfg": self.wl.ProblemConfig.from_json_dict(data),
                    }
                    cases += [case] * repeats
        rng.shuffle(cases)
        return cases

    def call(self, case):
        cfg = case["cfg"]
        sol = self.wl.solve(cfg, self.opts)
        # diagnose raises PhysicalLimitViolation if the branches differ by > 1e-9
        return self.wl.diagnose(sol.state, cfg)

    def check(self, case, report):
        dev = report.max_interior_delta_e
        self.charge_devs.append(dev)
        if not dev <= CHARGE_CEILING:
            raise OpFailed(f"interior charge deviation above {CHARGE_CEILING:g}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _CliWorkload(Workload):
    """Ops are in-process ``worldline.cli.main`` calls writing to ``out_dir``."""

    required: tuple = ()

    def __init__(self, wl, seed, out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)
        (out_dir / "configs").mkdir(parents=True)
        self.pool_threads: dict[str, int] = {}
        self.digests: dict[str, str] = {}
        super().__init__(wl, seed, out_dir)

    def _config_file(self, label: str, data: dict) -> str:
        path = self.out_dir / "configs" / f"{label}.json"
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        return str(path)

    def call(self, case):
        return self.wl.cli.main(case["argv"])

    def check(self, case, code):
        if code == 2:
            raise OpFailed("exit code 2: no convergence")
        if code != 0:
            raise WrongOutput(f"exit code {code}")
        directory = Path(case["out"])
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        entries = sorted(
            (e["name"], e["sha256"]) for e in manifest["files"] if e["name"] != "manifest.json"
        )
        missing = set(self.required) - {name for name, _ in entries}
        if missing:
            raise WrongOutput(f"missing {sorted(missing)}")
        for name, sha in entries:
            if _sha256((directory / name).read_bytes()) != sha:
                raise WrongOutput(f"{name} does not match its manifest checksum")
        self.bytes_written += sum(p.stat().st_size for p in directory.iterdir())
        # manifest.json embeds the output path, so the digest leaves it out
        digest = _sha256("".join(f"{name}:{sha}\n" for name, sha in entries).encode())
        if self.digests.setdefault(case["label"], digest) != digest:
            raise WrongOutput("output differs from an earlier repeat of the same input")
        self.check_files(directory)

    def check_files(self, directory: Path) -> None:
        raise NotImplementedError

    def quality(self):
        out = super().quality()
        out["output_digest"] = _sha256(
            "".join(f"{c['label']}:{self.digests.get(c['label'])}\n" for c in self.cases).encode()
        )
        out["sweep_pool_threads"] = self.pool_threads
        return out


class SmallCli(_CliWorkload):
    name = "small_cli"
    required = ("trajectory.csv", "diagnostics.csv", "summary.json")

    def make_cases(self, rng):
        # several draws per grid, family and potential, so that the mix of
        # 3- and 4-step solves, and with it the per-op medians, varies
        # little between seeds
        cases = []
        for n in (16, 24, 32, 48):
            for order in ("sbp21", "sbp42"):
                for potential in ("free", "linear", "quartic"):
                    for draw in range(SMALL_DRAWS):
                        label = f"{order}-{potential}-n{n}-{draw}"
                        data = {**draw_physics(rng, potential), "n_gamma": n, "order": order}
                        out = str(self.out_dir / label)
                        argv = ["solve", "--config", self._config_file(label, data), "--out", out]
                        cases.append({"label": label, "size": n, "argv": argv, "out": out})
        return cases

    def check_files(self, directory):
        summary = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
        self.charge_devs.append(summary["max_interior_delta_e"])


# the acceptance refinement studies: (potential, order, grids)
STUDIES = (
    ("linear", "sbp21", (16, 32, 64, 128)),
    ("linear", "sbp42", (16, 32, 64, 128)),
    ("quartic", "sbp21", (16, 32, 64, 128)),
    ("quartic", "sbp42", (16, 32, 64, 128, 256)),
)
# The tdot ladder of acceptance criterion 9b, at its own kappa = 0.5: the
# number of continuation solves in a ladder jumps with kappa (250-440 ms
# per op over the seeded range), which would make the cycle time a
# property of the seed.
LADDER_CONFIG = {"potential": {"type": "quartic", "kappa": 0.5}, "order": "sbp21"}
LADDER_ARGS = ["--n-list", "16,32,64", "--scale-tdot", "1,4,8"]


class RefineSweep(_CliWorkload):
    name = "refine_sweep"
    required = ("convergence.csv", "fit.json")

    def _case(self, label, data, size, extra):
        out = str(self.out_dir / label)
        argv = ["sweep", "--config", self._config_file(label, data), "--out", out, *extra]
        return {"label": label, "size": size, "argv": argv, "out": out}

    def make_cases(self, rng):
        sweep_threads = getattr(self.wl.cli, "_sweep_threads", None)
        cases = []
        for potential, order, grids in STUDIES:
            label = f"{order}-{potential}-refine"
            data = {**draw_physics(rng, potential, initial_data=False), "order": order}
            n_list = ",".join(map(str, grids))
            cases.append(self._case(label, data, max(grids), ["--n-list", n_list]))
            if sweep_threads is not None:
                self.pool_threads[label] = sweep_threads(len(grids))
        cases.append(self._case("sbp21-quartic-ladder", LADDER_CONFIG, 64, LADDER_ARGS))
        return cases

    def check_files(self, directory):
        with open(directory / "convergence.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if not rows:
            raise WrongOutput("convergence.csv has no rows")
        self.charge_devs.append(max(float(r["max_interior_delta_e"]) for r in rows))
        self.ref_errs.append(max(float(r["eps_l2_x"]) for r in rows))


WORKLOADS = {w.name: w for w in (LargeSolve, SmallCli, RefineSweep)}
