"""Command-line interface: subcommands, exit codes, report formats."""

import json
import os
import subprocess
import sys

import pytest

import equipell as eq
from equipell.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_moments_ball_t2(capsys):
    code, out, _ = run(["moments", "--model", "ball2d", "--t", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 4
    moments = data["moments"]
    assert len(moments) == 15
    assert moments["4 0"]["value"] == pytest.approx(0.2)
    assert moments["2 2"]["value"] == pytest.approx(1 / 15)
    assert moments["2 2"]["exact"] == "1/15"


def test_moments_interval_t1(capsys):
    code, out, _ = run(["moments", "--model", "interval", "--t", "1"], capsys)
    assert code == 0
    values = [entry["value"] for entry in json.loads(out)["moments"].values()]
    assert values == [1.0, 0.0, 0.5]


def test_moments_bad_model_key_is_usage_error(capsys):
    code, _, err = run(["moments", "--model", "pentagon", "--t", "1"], capsys)
    assert code == 2
    assert "unknown model" in err


def test_moments_csv_export(tmp_path, capsys):
    out_path = tmp_path / "moments.csv"
    code, _, _ = run(
        ["moments", "--model", "interval", "--t", "1", "--format", "csv",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "a1,value"
    assert len(lines) == 4


def test_verify_simplex_t2(capsys):
    code, out, _ = run(["verify", "--set", "simplex2d", "--t", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["c_t"] == 15
    assert data["pass"] is True


def test_verify_box_t1(capsys):
    code, out, _ = run(["verify", "--set", "box2d", "--t", "1"], capsys)
    assert code == 0
    assert json.loads(out)["c_t"] == 5


def test_verify_solver_source_tvscreen(capsys):
    code, out, _ = run(
        ["verify", "--set", "tvscreen", "--t", "2", "--source", "solver"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["c_t"] == 7
    assert data["pass"] is True


def test_verify_fail_exit_code(capsys):
    # an absurd tolerance turns a tiny solver residual into a verified fail
    code, out, _ = run(
        ["verify", "--set", "ellipsoids2", "--t", "1", "--source", "solver",
         "--tol", "1e-30"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_without_model_requires_solver(capsys):
    code, _, err = run(["verify", "--set", "tvscreen", "--t", "2"], capsys)
    assert code == 2
    assert "no closed-form measure" in err


def test_solve_interval_report(capsys):
    code, out, _ = run(
        ["solve", "--set", "interval", "--t", "2", "--trace"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert data["moments"]["2"] == pytest.approx(0.5, abs=1e-6)
    assert data["moments"]["4"] == pytest.approx(0.375, abs=1e-6)
    assert data["trace"]


def test_extension_csv(capsys):
    code, out, _ = run(
        ["extension", "--set", "interval", "--t-from", "1", "--t-to", "2",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t_low,t_high,distance,verdict"
    assert lines[1].endswith("extension")


def test_extension_bad_range(capsys):
    code, _, err = run(
        ["extension", "--set", "interval", "--t-from", "3", "--t-to", "1"], capsys
    )
    assert code == 2
    assert "exceeds" in err


def test_cheb_all_zero(capsys):
    code, out, _ = run(["cheb", "--t", "12"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_zero"] is True
    assert len(data["orders"]) == 12


def test_numerical_failure_exit_code(tmp_path, capsys):
    # empty-interior set: the solver cannot build a feasible start
    definition = {
        "name": "empty",
        "n": 1,
        "R": "1",
        "generators": [[{"exponents": [0], "coeff": "-1"},
                        {"exponents": [2], "coeff": "-1"}]],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(definition))
    code, _, err = run(["solve", "--set", str(path), "--t", "1"], capsys)
    assert code == 3
    assert "numerical failure" in err


def test_set_definition_round_trip(tmp_path):
    original = eq.builtin_set("simplex2d")
    path = tmp_path / "simplex.json"
    eq.save_set(original, path)
    loaded = eq.load_set(path)
    assert loaded.n == original.n
    assert loaded.radius == original.radius
    assert loaded.generators == original.generators
    assert loaded.known_measure == "simplex2d"


def test_custom_set_file_via_cli(tmp_path, capsys):
    path = tmp_path / "disc.json"
    eq.save_set(eq.builtin_set("ball2d"), path)
    code, out, _ = run(["verify", "--set", str(path), "--t", "2"], capsys)
    assert code == 0
    assert json.loads(out)["c_t"] == 9


def test_moments_custom_quadrature_weight(tmp_path, capsys):
    weight_path = tmp_path / "weight.json"
    weight_path.write_text(json.dumps([{"exponents": [2, 0], "coeff": "1"}]))
    code, out, _ = run(
        ["moments", "--region", "ball2d", "--weight", str(weight_path), "--t", "1"],
        capsys,
    )
    assert code == 0
    moments = json.loads(out)["moments"]
    assert moments["0 0"]["value"] == pytest.approx(1 / 3, abs=1e-12)
    assert moments["2 0"]["value"] == pytest.approx(1 / 5, abs=1e-12)
    assert moments["0 2"]["value"] == pytest.approx(1 / 15, abs=1e-12)


def test_solve_max_iter_exhaustion_is_numerical_failure(capsys):
    code, _, err = run(
        ["solve", "--set", "ball2d", "--t", "1", "--max-iter", "1"], capsys
    )
    assert code == 3
    assert "max iterations" in err


def test_solve_report_carries_dual_blocks(capsys):
    code, out, _ = run(["solve", "--set", "interval", "--t", "1"], capsys)
    assert code == 0
    blocks = json.loads(out)["q_blocks"]
    assert len(blocks) == 2
    sizes = sorted(b["size"] for b in blocks.values())
    assert sizes == [1, 2]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "equipell", "cheb", "--t", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_zero"] is True


def test_import_loads_numpy_but_not_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(eq.__file__)))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, equipell, equipell.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['numpy']"]


def test_missing_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "equipell"], capture_output=True, text=True
    )
    assert proc.returncode == 2
