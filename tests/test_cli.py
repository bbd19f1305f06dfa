"""CLI contract tests: output formats, determinism, exit codes."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import screened_hookium
from screened_hookium import cli, oracle
from screened_hookium.cli import main


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def sign_changes(values):
    signs = [math.copysign(1.0, v) for v in values if abs(v) > 1e-300]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class TestSolve:
    def test_class_one_singlets(self, capsys):
        code, out, _ = run(capsys, ["solve", "--N", "1", "--lr", "0", "--d-over-b", "1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["g", "E_r", "E_total", "n_r", "v_1", "symmetry"]
        assert [float(r["g"]) for r in rows] == pytest.approx([12.0, 26.0], abs=1e-9)
        assert [int(r["n_r"]) for r in rows] == [1, 0]
        assert {r["symmetry"] for r in rows} == {"singlet"}
        assert [float(r["E_total"]) for r in rows] == [7.0, 7.0]

    def test_class_one_triplets(self, capsys):
        code, out, _ = run(capsys, ["solve", "--N", "1", "--lr", "1", "--d-over-b", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert {r["symmetry"] for r in rows} == {"triplet"}

    def test_class_two_node_counts(self, capsys):
        code, out, _ = run(capsys, ["solve", "--N", "2", "--lr", "0", "--d-over-b", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert sorted(int(r["n_r"]) for r in rows) == [0, 1, 2]

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, ["solve", "--N", "1", "--lr", "0", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"params", "results", "checks"}
        assert doc["params"]["M"] == "inf"
        assert [round(r["g"], 9) for r in doc["results"]] == [12.0, 26.0]

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, ["solve", "--N", "2", "--lr", "1"])
        _, second, _ = run(capsys, ["solve", "--N", "2", "--lr", "1"])
        assert first == second

    def test_finite_nucleus_mass_total_energy(self, capsys):
        code, out, _ = run(capsys, ["solve", "--N", "1", "--lr", "0", "--M", "2"])
        assert code == 0
        _, rows = parse_csv(out)
        expected = math.sqrt(1.0 + 2.0 / 2.0) * 1.5 + 5.5
        assert float(rows[0]["E_total"]) == pytest.approx(expected, rel=1e-12)

    def test_bad_mass_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["solve", "--N", "1", "--lr", "0", "--M", "heavy"])
        assert code == 1


class TestVerify:
    def test_default_class_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--N", "1", "--lr", "0"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["PASS", "PASS"]
        assert [int(r["node_oracle"]) for r in rows] == [1, 0]

    def test_impossible_tolerance_fails_with_exit_3(self, capsys):
        code, out, err = run(capsys, ["verify", "--N", "1", "--lr", "0", "--tol", "1e-18"])
        assert code == 3
        _, rows = parse_csv(out)
        assert "FAIL" in {r["status"] for r in rows}
        assert "verification failure" in err

    def test_grid_warning_gets_failing_check(self, capsys, monkeypatch):
        solve = oracle.radial_eigensolve

        def warn_above_20(atom, *args, **kwargs):
            pairs = solve(atom, *args, **kwargs)
            return [dataclasses.replace(p, grid_warning=atom.g > 20.0) for p in pairs]

        monkeypatch.setattr(oracle, "radial_eigensolve", warn_above_20)
        code, out, err = run(capsys, ["verify", "--N", "1", "--lr", "0", "--format", "json"])
        assert code == 3
        doc = json.loads(out)
        assert [r["status"] for r in doc["results"]] == ["PASS", "FAIL"]
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failed == ["grid[g=26]"]
        assert "1 of 2 root(s) failed" in err

    def test_missing_node_match_gets_failing_check(self, capsys, monkeypatch):
        solve = oracle.radial_eigensolve

        def shifted_nodes(*args, **kwargs):
            return [dataclasses.replace(p, node_count=p.node_count + 5) for p in solve(*args, **kwargs)]

        monkeypatch.setattr(oracle, "radial_eigensolve", shifted_nodes)
        code, out, err = run(capsys, ["verify", "--N", "1", "--lr", "0"])
        assert code == 3
        _, rows = parse_csv(out)
        assert [r["status"] for r in rows] == ["FAIL", "FAIL"]
        comments = [ln for ln in out.splitlines() if "node_match" in ln]
        assert comments == [
            "# node_match[g=12]: FAIL (observed [5, 6, 7], tol 1)",
            "# node_match[g=26]: FAIL (observed [5, 6], tol 0)",
        ]
        assert "2 of 2 root(s) failed" in err

    def test_class_two_all_roots_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "--N", "2", "--lr", "0"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert {r["status"] for r in rows} == {"PASS"}


class TestFigure:
    def test_fig2_nodal_structure(self, capsys):
        code, out, _ = run(capsys, ["figure", "fig2"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "R_g26", "R_g12"]
        g26 = [float(r["R_g26"]) for r in rows]
        g12 = [float(r["R_g12"]) for r in rows]
        assert sign_changes(g26) == 0
        assert sign_changes(g12) == 1

    def test_fig3_fat_attractor_shape(self, capsys):
        code, out, _ = run(capsys, ["figure", "fig3"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r1", "rho"]
        rho = np.array([float(r["rho"]) for r in rows])
        peak = int(np.argmax(rho))
        assert 0 < peak < rho.size - 1
        assert (np.diff(rho[peak:]) <= 0).all()  # Gaussian-dominated decay
        assert rho[-1] < 1e-8 * rho[peak]

    def test_round_trip_headers_stable(self, capsys):
        _, out1, _ = run(capsys, ["figure", "fig2", "--grid-points", "50"])
        _, out2, _ = run(capsys, ["figure", "fig2", "--grid-points", "50"])
        assert out1 == out2
        header, rows = parse_csv(out1)
        assert header == ["r", "R_g26", "R_g12"] and len(rows) == 50

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "fig3.csv"
        code, out, _ = run(capsys, ["figure", "fig3", "--out", str(target)])
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert header == ["r1", "rho"] and len(rows) == 400


class TestLimits:
    def test_small_d_degenerate_pair_flagged(self, capsys):
        code, out, _ = run(capsys, ["limits", "small-d", "--g", "3.75", "--levels", "8"])
        assert code == 0
        _, rows = parse_csv(out)
        level5 = [r for r in rows if abs(float(r["energy"]) - 5.0) < 1e-9]
        assert [(int(r["n_r"]), int(r["l_r"])) for r in level5] == [(1, 0), (0, 3)]
        assert all(r["degenerate"] == "true" for r in level5)

    def test_large_d_oscillator_ladder(self, capsys):
        code, out, _ = run(capsys, ["limits", "large-d", "--g", "0", "--levels", "4"])
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["energy"]) for r in rows] == pytest.approx([1.5, 2.5, 3.5, 3.5])

    def test_large_d_triple_group(self, capsys):
        code, out, _ = run(
            capsys, ["limits", "large-d", "--g", "1", "--d-over-b", "10", "--levels", "10"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        by_group = {}
        for r in rows:
            by_group.setdefault(r["group"], []).append((int(r["n_r"]), int(r["l_r"])))
        assert [(2, 0), (1, 2), (0, 4)] in by_group.values()

    def test_small_d_pair_solution(self, capsys):
        code, out, _ = run(
            capsys,
            ["limits", "small-d", "--g", "3.75", "--pair", "1,0,0,3", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["pairs"][0]["g"] == pytest.approx(3.75)

    def test_bad_pair_syntax_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["limits", "small-d", "--pair", "1,0,0"])
        assert code == 1 and "error" in err


class TestExitCodes:
    def test_usage_error_unknown_option(self, capsys):
        code, _, _ = run(capsys, ["solve", "--N", "1", "--lr", "0", "--bogus", "3"])
        assert code == 1

    def test_usage_error_missing_required(self, capsys):
        code, _, _ = run(capsys, ["solve", "--lr", "0"])
        assert code == 1

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, ["solve", "--N", "0", "--lr", "0"])
        assert code == 2 and "domain error" in err

    def test_domain_error_negative_length(self, capsys):
        code, _, _ = run(capsys, ["solve", "--N", "1", "--lr", "0", "--b", "-1"])
        assert code == 2

    def test_io_error(self, capsys):
        code, _, err = run(
            capsys,
            ["figure", "fig2", "--out", "/nonexistent-dir/figure.csv"],
        )
        assert code == 4 and "i/o error" in err

    def test_version_is_package_version(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0
        assert out.strip() == f"screened-hookium, version {screened_hookium.__version__}"

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        assert "solve" in out and "verify" in out


GOLDEN = Path(__file__).parent / "golden"

# The README's commands; `verify` is left out because its max_ode_residual and
# the last digits of its l2_error follow rounding-level changes of the numerics.
GOLDEN_COMMANDS = {
    "solve": ["solve", "--N", "1", "--lr", "0", "--d-over-b", "1"],
    "figure_fig2": ["figure", "fig2"],
    "figure_fig3": ["figure", "fig3"],
    "limits_small_d": ["limits", "small-d", "--g", "3.75", "--levels", "8", "--pair", "1,0,0,3"],
    "limits_large_d": ["limits", "large-d", "--g", "1", "--d-over-b", "10", "--levels", "10"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    code, _, _ = run(capsys, [*GOLDEN_COMMANDS[name], "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
