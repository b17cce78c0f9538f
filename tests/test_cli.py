import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import worldline as wl
from worldline.cli import _table, main
from conftest import STALLING_CONFIG


@pytest.fixture()
def linear_config(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(
        json.dumps(
            {
                "m": 1.0,
                "c": 1.0,
                "t_i": 0.0,
                "x_i": 1.0,
                "tdot_i": 1.0,
                "xdot_i": 0.1,
                "n_gamma": 32,
                "gamma_i": 0.0,
                "gamma_f": 1.0,
                "order": "sbp21",
                "potential": {"type": "linear", "alpha": 0.25},
            }
        )
    )
    return path


@pytest.fixture()
def free_config(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"n_gamma": 24, "potential": {"type": "free"}}))
    return path


@pytest.fixture()
def quartic_config(tmp_path):
    path = tmp_path / "quartic.json"
    path.write_text(
        json.dumps({"n_gamma": 16, "potential": {"type": "quartic", "kappa": 0.5}})
    )
    return path


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def run_cli(*argv, timeout=120):
    """Run ``worldline.cli`` in a fresh interpreter on this checkout's source."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "worldline.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=timeout,
    )


def test_solve_linear_outputs(linear_config, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", str(linear_config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["termination"] == "converged"
    assert abs(summary["t_final"] - 1.0) < 0.05
    assert summary["max_interior_delta_e"] <= 1e-9
    assert summary["delta_e_end"] < 2e-3
    assert len(summary["lambda"]) == 8

    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["gamma", "t1", "t2", "x1", "x2"]
    assert len(rows) == 32
    # the doubled format is kept: t2, x2 and lam_1..lam_4 are written from
    # the physical limit, the lambda entries as the solve's own multipliers
    assert [row[2] for row in rows] == [row[1] for row in rows]
    assert [row[4] for row in rows] == [row[3] for row in rows]
    assert summary["lambda"][:4] == [0.0] * 4
    cfg = wl.ProblemConfig.from_json(linear_config.read_text())
    assert summary["lambda"][4:] == wl.solve(cfg).state.lam.tolist()

    header, rows = read_csv(out / "diagnostics.csv")
    assert header[:4] == ["gamma", "t", "x", "dt_dgamma"]

    manifest = json.loads((out / "manifest.json").read_text())
    names = {e["name"] for e in manifest["files"]}
    assert names == {
        "trajectory.csv",
        "diagnostics.csv",
        "summary.json",
        "manifest.json",
    }


def test_report_csv_round_trip(linear_config, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", str(linear_config), "--out", str(out)]) == 0
    header, rows = read_csv(out / "diagnostics.csv")
    assert header == [
        "gamma", "t", "x", "dt_dgamma", "q_t", "delta_e", "delta_g_t", "delta_g_x", "h_bvp",
    ]
    cfg = wl.ProblemConfig.from_json(linear_config.read_text())
    report = wl.diagnose(wl.solve(cfg).state, cfg)
    expected = np.column_stack(
        [
            report.gamma,
            report.t,
            report.x,
            report.time_mesh_velocity,
            report.q_t,
            report.delta_e,
            report.delta_g_t,
            report.delta_g_x,
            report.h_bvp,
        ]
    )
    parsed = np.array([[float(v) for v in row] for row in rows])
    np.testing.assert_array_equal(parsed, expected)


def csv_writer_text(header, columns):
    # csv.writer over repr(float) is the reference; integer columns stay integers
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow(
            str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row
        )
    return buf.getvalue()


def test_table_matches_csv_writer_on_edge_values():
    floats = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.8e308, 0.1, -1 / 3]
    ints = list(range(len(floats)))
    expected = csv_writer_text(("n", "value"), (ints, floats))
    assert _table(("n", "value"), (np.array(ints), np.array(floats))) == expected
    assert _table(("n", "value"), (ints, floats)) == expected
    assert _table(("n", "value"), ([], [])) == "n,value\n"

    # the sweep's shape: an int column, float columns and a float32 column
    singles = [0.1, -1 / 3, 1e-30, 3.4e38, np.nan, -0.0, 1.5, 2.0**-149, np.inf]
    header = ("n", "a", "b", "c")
    columns = (
        np.array(ints),
        np.array(floats),
        np.array(floats[::-1]),
        np.array(singles, dtype=np.float32),
    )
    assert _table(header, columns) == csv_writer_text(header, columns)


def test_solve_free_charges_constant(free_config, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--config", str(free_config), "--out", str(out)]) == 0
    _, rows = read_csv(out / "diagnostics.csv")
    q_t = np.array([float(r[4]) for r in rows])
    assert np.max(np.abs(q_t - q_t[0])) <= 1e-10


def test_solve_byte_determinism(linear_config, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve", "--config", str(linear_config), "--out", str(out_a)]) == 0
    assert main(["solve", "--config", str(linear_config), "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "diagnostics.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # manifests differ only in the out_dir field; checksums must agree
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    assert ma["files"] == mb["files"]


def test_solve_bad_config_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    missing = tmp_path / "does-not-exist.json"
    assert main(["solve", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    argv = ["solve", "--config", str(not_an_object), "--out", str(tmp_path / "o")]
    assert main(argv) == 1


# each malformed value with the field its message must name
MALFORMED_FIELDS = [
    ({"n_gamma": 32.5}, "n_gamma"),
    ({"n_gamma": 32.0}, "n_gamma"),
    ({"order": 5}, "order"),
    ({"m": float("nan")}, "m"),
    ({"x_i": float("inf")}, "x_i"),
    ({"gamma_f": float("inf")}, "gamma_f"),
    ({"potential": {"type": "quartic", "kappa": float("nan")}}, "kappa"),
    ({"potential": {"type": "linear", "alpha": None}}, "alpha"),
    ({"potential": {"type": "quartic", "kappa": 0.5, "alpha": 0.3}}, "alpha"),
    ({"potential": {"type": "free", "kappa": 0.5}}, "kappa"),
    # JSON integers are exact: too large for a float, they are not finite
    ({"x_i": 10**400}, "x_i"),
    ({"tdot_i": -(10**400)}, "tdot_i"),
    ({"potential": {"type": "linear", "alpha": 10**400}}, "alpha"),
    # strings, booleans, null and lists are not real numbers
    ({"potential": {"type": "linear", "alpha": "0.25"}}, "alpha"),
    ({"potential": {"type": "quartic", "kappa": True}}, "kappa"),
    ({"tdot_i": True}, "tdot_i"),
    ({"x_i": "1.0"}, "x_i"),
    ({"m": None}, "m"),
    ({"c": [1.0]}, "c"),
    ({"n_gamma": True}, "n_gamma"),
    # a potential is a JSON object, not a name or a list
    ({"potential": "quartic"}, "potential"),
    ({"potential": ["type", "quartic"]}, "potential"),
]


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "field, name",
    [pytest.param(*case, id=f"field{i}") for i, case in enumerate(MALFORMED_FIELDS)],
)
def test_malformed_config_value_exits_1(tmp_path, capsys, command, field, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"potential": {"type": "free"}, **field}))
    argv = [command, "--config", str(bad), "--out", str(tmp_path / "o")]
    if command == "sweep":
        argv += ["--n-list", "8,16,32"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"worldline {command}: bad configuration: ")
    assert re.search(rf"\b{name}\b", err[0].split(": bad configuration: ", 1)[1])
    assert not (tmp_path / "o").exists()


def test_solve_non_convergence_exits_2_with_files(quartic_config, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--config",
            str(quartic_config),
            "--out",
            str(out),
            "--max-iter",
            "1",
        ]
    )
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["termination"] == "max_iter"
    assert (out / "trajectory.csv").exists()


def test_solve_stalled_line_search_exits_2_with_files(tmp_path, monkeypatch):
    # from its geodesic seed this input converges; the stall needs Newton
    # to start from the straight line
    monkeypatch.setattr(wl.solver, "_geodesic_seed", wl.initial_guess)
    config = tmp_path / "stall.json"
    config.write_text(json.dumps(STALLING_CONFIG))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert summary["termination"] == "stalled"
    assert summary["iterations"] == 0
    assert (out / "trajectory.csv").exists()


def test_solve_large_grid_stops_at_roundoff_floor(tmp_path):
    # the gradient floor at n = 2048 lies above the default tolerance
    config = tmp_path / "large.json"
    config.write_text(
        json.dumps(
            {
                "n_gamma": 2048,
                "order": "sbp42",
                "potential": {"type": "linear", "alpha": 0.25},
            }
        )
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["termination"] == "roundoff_floor"
    assert summary["iterations"] <= 10
    assert summary["max_interior_delta_e"] <= 1e-9


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_singular_system_exits_2_without_files(tmp_path, capsys, command):
    # g00 ~ 2e300 overflows the gradient norm at the initial guess
    config = tmp_path / "huge.json"
    config.write_text('{"potential": {"type": "quartic", "kappa": 1e300}, "n_gamma": 16}')
    out = tmp_path / "o"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "sweep":
        # the oracle is never reached: the cold solve fails first
        argv += ["--n-list", "16,32,64", "--scale-tdot", "1,1,1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"worldline {command}: gradient norm inf at the initial guess\n"
    assert not out.exists()


def test_sweep_scale_tdot_overflow_exits_2_fast_without_files(quartic_config, tmp_path):
    # at tdot_i = 1e300 the geodesic seed would need ~4e300 RK4 steps; it
    # must refuse before its first one
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(quartic_config), "--out", str(out)]
    result = run_cli(*argv, "--n-list", "16,32,64", "--scale-tdot", "1,4,1e300", timeout=60)
    assert result.returncode == 2
    assert result.stderr == (
        b"worldline sweep: window too long: the geodesic seed needs more than "
        b"100000 RK4 sub-steps\n"
    )
    assert not out.exists()


def test_sweep_scale_tdot_long_window_exits_2_fast_without_files(quartic_config, tmp_path):
    # tdot_i = 1e8 stays finite but would take the geodesic seed ~4e8 RK4
    # sub-steps; it must give up at its sub-step cap instead
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(quartic_config), "--out", str(out)]
    result = run_cli(*argv, "--n-list", "16,32,64", "--scale-tdot", "1,4,1e8", timeout=60)
    assert result.returncode == 2
    assert result.stderr == (
        b"worldline sweep: window too long: the geodesic seed needs more than "
        b"100000 RK4 sub-steps\n"
    )
    assert not out.exists()


def test_sweep_refinement_long_window_exits_2_fast_without_files(tmp_path):
    # gamma_f = 30000 would take the geodesic seed 120000 RK4 sub-steps; the
    # window must be refused before the reference integration, which has no
    # bound on its time or memory
    config = tmp_path / "long.json"
    config.write_text(
        '{"potential": {"type": "quartic", "kappa": 0.5}, "n_gamma": 16, "gamma_f": 30000}'
    )
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(config), "--out", str(out), "--n-list", "16,32,64"]
    result = run_cli(*argv, timeout=60)
    assert result.returncode == 2
    assert result.stderr == (
        b"worldline sweep: window too long: the geodesic seed needs more than "
        b"100000 RK4 sub-steps\n"
    )
    assert not out.exists()


def test_sweep_oracle_failure_exits_2_without_files(tmp_path, capsys):
    # a refinement sweep runs the reference integrator before any solve, and
    # its step size collapses in the huge metric
    config = tmp_path / "huge.json"
    config.write_text('{"potential": {"type": "quartic", "kappa": 1e300}, "n_gamma": 16}')
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(config), "--out", str(out), "--n-list", "8,16,32"]
    assert main(argv) == 2
    # the blow-up is reported once, without numpy overflow warnings before it
    assert capsys.readouterr().err == (
        "worldline sweep: Required step size is less than spacing between numbers.\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("x_i", ["1e200", "5e102"])
def test_sweep_non_finite_oracle_start_exits_2_without_files(tmp_path, x_i):
    # g00'/g00 is inf/inf at x_i (at 5e102 through g00' overflowing); DOP853
    # would spin on a nan step size, so the oracle must refuse to start
    config = tmp_path / "far.json"
    config.write_text(
        f'{{"n_gamma": 16, "x_i": {x_i}, "potential": {{"type": "quartic", "kappa": 0.5}}}}'
    )
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(config), "--out", str(out), "--n-list", "8,16,32"]
    result = run_cli(*argv, timeout=60)
    assert result.returncode == 2
    assert result.stderr == (
        b"worldline sweep: the right-hand side is not finite at the initial point\n"
    )
    assert not out.exists()


def test_sweep_horizon_exits_2_fast_without_files(linear_config, tmp_path, capsys):
    # at tdot_i = 6 the linear run reaches g00 = 1 + x/2 = 0 near gamma = 0.72;
    # the geodesic seed meets it before Newton could spend its iterations
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(linear_config), "--out", str(out)]
    start = time.perf_counter()
    assert main(argv + ["--n-list", "16,32", "--scale-tdot", "1,6"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    prefix = "worldline sweep: the trajectory reaches g00 <= 0 near gamma = 0.7"
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "tdot, message",
    [
        # the linear run reaches g00 = 1 + x/2 = 0 near gamma = 0.72
        ("6", "the trajectory reaches g00 <= 0 near gamma = 0.7"),
        ("1e8", "window too long: the geodesic seed needs more than 100000"),
    ],
    ids=["horizon", "long-window"],
)
def test_solve_failed_seed_exits_2_fast_without_files(tmp_path, capsys, tdot, message):
    # the geodesic seed ends the solve before the first Newton step
    config = tmp_path / "far.json"
    config.write_text(
        f'{{"n_gamma": 32, "tdot_i": {tdot}, "xdot_i": {float(tdot) / 10}, '
        '"potential": {"type": "linear", "alpha": 0.25}}'
    )
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err.startswith(f"worldline solve: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


_OVERFLOWING_WINDOWS = {
    # 4 tdot_i (gamma_f - gamma_i) overflows to inf: the seed's cap refuses it
    "seed-count": (
        '"tdot_i": 1e300, "xdot_i": 0.0, "gamma_f": 1e9',
        2,
        "window too long: the geodesic seed needs more than 100000 RK4 sub-steps",
    ),
    # gamma_f - gamma_i itself overflows: the configuration refuses it
    "span": (
        '"gamma_i": -1e308, "gamma_f": 1e308',
        1,
        "bad configuration: gamma_f must exceed gamma_i by a finite span",
    ),
}


@pytest.mark.parametrize("window", sorted(_OVERFLOWING_WINDOWS))
@pytest.mark.parametrize(
    "command",
    [
        ["solve"],
        ["sweep", "--n-list", "16,32,64"],
        ["sweep", "--n-list", "16,32,64", "--scale-tdot", "1e300,1e300,1e300"],
    ],
    ids=["solve", "sweep", "sweep-scale-tdot"],
)
def test_overflowing_window_exits_with_one_line_without_files(tmp_path, capsys, window, command):
    fields, code, message = _OVERFLOWING_WINDOWS[window]
    config = tmp_path / "window.json"
    config.write_text(
        f'{{"potential": {{"type": "quartic", "kappa": 0.5}}, "n_gamma": 16, {fields}}}'
    )
    out = tmp_path / "o"
    name, *flags = command
    assert main([name, "--config", str(config), "--out", str(out), *flags]) == code
    assert capsys.readouterr().err == f"worldline {name}: {message}\n"
    assert not out.exists()


def test_solve_infinite_tolerance_exits_1(quartic_config, tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["solve", "--config", str(quartic_config), "--out", str(out), "--tol", "inf"]
    assert main(argv) == 1
    assert "worldline solve: bad configuration: " in capsys.readouterr().err
    assert not out.exists()


def test_solve_io_error_exits_3(linear_config, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(
        ["solve", "--config", str(linear_config), "--out", str(blocker / "sub")]
    )
    assert code == 3


@pytest.mark.parametrize(
    "command, longer, shorter",
    [("solve", "64", "16"), ("sweep", "8,16,32,64", "8,16,32")],
)
def test_rerun_over_longer_files_matches_a_fresh_directory(
    linear_config, tmp_path, command, longer, shorter
):
    # the first run leaves longer files in --out; the second must cut each one
    # to its own length, so --out reads as if the second run had written it alone
    out = tmp_path / "out"
    config = json.loads(linear_config.read_text())

    def run(grids):
        config["n_gamma"] = int(grids.split(",")[-1])
        linear_config.write_text(json.dumps(config))
        argv = [command, "--config", str(linear_config), "--out", str(out)]
        if command == "sweep":
            argv += ["--n-list", grids]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run(longer)
    rerun = run(shorter)
    assert all(len(first[n]) > len(rerun[n]) for n in rerun if n.endswith(".csv"))
    shutil.rmtree(out)
    assert rerun == run(shorter)
    for entry in json.loads(rerun["manifest.json"])["files"]:
        if entry["sha256"] is not None:
            assert hashlib.sha256(rerun[entry["name"]]).hexdigest() == entry["sha256"]


def test_sweep_refinement(linear_config, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--config",
            str(linear_config),
            "--n-list",
            "8,16,32",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out / "convergence.csv")
    assert header[:2] == ["n", "dgamma"]
    assert [r[0] for r in rows] == ["8", "16", "32"]
    fits = json.loads((out / "fit.json").read_text())
    assert fits["mode"] == "refinement"
    assert abs(fits["fits"]["eps_final_x"]["beta"] - 2.0) < 0.4


def test_sweep_order_override(linear_config, tmp_path):
    out = tmp_path / "sweep42"
    code = main(
        [
            "sweep",
            "--config",
            str(linear_config),
            "--n-list",
            "16,32,64",
            "--order",
            "sbp42",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    fits = json.loads((out / "fit.json").read_text())
    assert fits["fits"]["eps_l2_x"]["beta"] > 2.5


def test_sweep_exact_column_writes_strict_json_and_no_warning(tmp_path):
    # the free particle at zero velocity has eps_x = 0 on every grid
    config = tmp_path / "rest.json"
    config.write_text('{"potential": {"type": "free"}, "n_gamma": 16, "xdot_i": 0.0}')
    argv = ["sweep", "--config", str(config), "--n-list", "16,32,64", "--out", str(tmp_path / "o")]
    result = run_cli(*argv)
    assert (result.returncode, result.stderr) == (0, b"")

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    text = (tmp_path / "o" / "fit.json").read_text()
    fits = json.loads(text, parse_constant=reject)["fits"]
    for name in ("eps_final_x", "eps_l2_x"):
        assert fits[name] == {"beta": None, "residual_rms": None}


def test_sweep_scale_tdot(quartic_config, tmp_path):
    out = tmp_path / "scaled"
    code = main(
        [
            "sweep",
            "--config",
            str(quartic_config),
            "--n-list",
            "16,32",
            "--scale-tdot",
            "1,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    fits = json.loads((out / "fit.json").read_text())
    assert fits["mode"] == "scale-tdot"
    assert fits["tdot_i"] == [1.0, 2.0]
    _, rows = read_csv(out / "convergence.csv")
    assert len(rows) == 2
    assert all(float(r[7]) <= 1e-9 for r in rows)  # interior conservation


def test_sweep_scale_tdot_length_mismatch(quartic_config, tmp_path):
    code = main(
        [
            "sweep",
            "--config",
            str(quartic_config),
            "--n-list",
            "16,32",
            "--scale-tdot",
            "1",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1


def test_dump_operator_matches_library(capsys):
    assert main(["dump-operator", "--order", "sbp21", "--n", "3", "--dgamma", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == [[-2, 2, 0], [-1, 0, 1], [0, -2, 2]]
    assert payload["h"][0][0] == 0.25


def test_dump_operator_regularized(capsys):
    code = main(
        [
            "dump-operator",
            "--order",
            "sbp21",
            "--n",
            "4",
            "--dgamma",
            "0.5",
            "--regularized",
            "--init-value",
            "0",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma0"] == -1.0
    first = payload["dbar"][0]
    assert first[0] == pytest.approx(1 / 0.5)
    assert first[1] == pytest.approx(1 / 0.5)
    assert all(v == 0 for v in first[2:])
    assert payload["dbar"][-1] == [0, 0, 0, 0, 1]
    # hbar is h padded by a zero row and column
    hbar = np.array(payload["hbar"])
    assert hbar.shape == (5, 5)
    assert np.all(hbar[-1, :] == 0.0)
    assert np.all(hbar[:, -1] == 0.0)
    assert hbar[:-1, :-1].tolist() == payload["h"]


@pytest.mark.parametrize(
    "flags",
    [["--dgamma", "inf"], ["--dgamma", "0.5", "--regularized", "--init-value", "nan"]],
)
def test_dump_operator_non_finite_exits_1(capsys, flags):
    assert main(["dump-operator", "--order", "sbp21", "--n", "4", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_dump_operator_too_small_exits_1(capsys):
    assert main(["dump-operator", "--order", "sbp21", "--n", "2", "--dgamma", "0.5"]) == 1
    assert "grid points" in capsys.readouterr().err


def test_unknown_flags_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["solve", "--no-such-flag"])
    assert err.value.code == 1


def test_help_documents_csv_schemas(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    assert "gamma,t1,t2,x1,x2" in text
    assert "delta_g_t" in text


def test_repeated_main_matches_fresh_processes(quartic_config, tmp_path):
    # one process runs main several times on the parser it built once; every
    # run must behave as it does in an interpreter of its own
    runs = [
        (["solve", "--config", str(quartic_config), "--max-iter", "many"], None),
        (["solve", "--config", str(quartic_config), "--out", str(tmp_path / "s")], "s"),
        (
            ["sweep", "--config", str(quartic_config), "--n-list", "8,16,32",
             "--out", str(tmp_path / "w")],
            "w",
        ),
    ]

    def files(name):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    fresh = []
    for argv, name in runs:
        result = run_cli(*argv)
        fresh.append((result.returncode, files(name) if name else None))
        if name:
            for p in (tmp_path / name).iterdir():
                p.unlink()
    assert [code for code, _ in fresh] == [1, 0, 0]

    def in_process(argv):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse exits on flag errors
            return exc.code

    for _ in range(2):
        for (argv, name), (code, expected) in zip(runs, fresh):
            assert in_process(argv) == code
            if name:
                assert files(name) == expected
