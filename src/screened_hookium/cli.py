"""Command-line interface: solve / verify / figure / limits workflows.

Output is deterministic: identical invocations produce byte-identical CSV or
JSON (floats at 12 significant digits in CSV, 17 in JSON).  Exit codes:
0 success, 1 usage error, 2 domain error, 3 verification failure, 4 I/O error.
"""

from __future__ import annotations

import io
import json
import math

import click
import numpy as np

from . import __version__
from . import limits as limits_mod
from .atom import (
    AtomParameters,
    assemble_total_energy,
    normalize_radial,
    radial_ode_residual,
    radial_solution,
    solve_g,
)
from .errors import DomainError, ScreenedHookiumError
from .groundstate import density_closed_form, ground_state

__all__ = ["VerificationFailure", "cli", "main"]


class VerificationFailure(Exception):
    """One or more verification checks exceeded their tolerance."""


# ---------------------------------------------------------------------------
# deterministic formatting

def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_json_dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isinf(obj):
            return json.dumps("inf" if obj > 0 else "-inf")
        return format(obj, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _emit(command: str, fmt: str, out: str | None, params: dict, results, checks: list,
          columns: list[str], rows: list[dict]) -> None:
    if fmt == "json":
        text = _json_dumps({"params": params, "results": results, "checks": checks}) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# screened-hookium {command}\n")
        buf.write("# " + " ".join(f"{k}={_fmt_csv(v)}" for k, v in params.items()) + "\n")
        buf.write(",".join(columns) + "\n")
        for row in rows:
            buf.write(",".join(_fmt_csv(row[c]) for c in columns) + "\n")
        for line in checks:
            if isinstance(line, str):
                buf.write(f"# {line}\n")
        text = buf.getvalue()
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _parse_mass(text: str) -> float:
    label = text.strip().lower()
    if label in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise click.UsageError(f'--M must be a number or "inf", got {text!r}') from exc


def _mass_repr(m: float):
    return "inf" if math.isinf(m) else m


# ---------------------------------------------------------------------------
# commands

@click.group()
@click.version_option(version=__version__, prog_name="screened-hookium")
def cli() -> None:
    """Exactly solvable two-electron atom with a screened pair interaction."""


@cli.command("solve")
@click.option("--N", "n_class", type=int, required=True, help="Termination class N >= 1.")
@click.option("--lr", "l_r", type=int, required=True, help="Relative angular momentum l_r >= 0.")
@click.option("--d-over-b", type=float, default=1.0, show_default=True)
@click.option("--b", "b_len", type=float, default=1.0, show_default=True, help="Confinement length.")
@click.option("--M", "m_nuc", type=str, default="inf", show_default=True, help='Nucleus mass (number or "inf").')
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Output file (default: stdout).")
def cmd_solve(n_class, l_r, d_over_b, b_len, m_nuc, fmt, out_path) -> None:
    """All exact couplings g of class (N, l_r) with their solutions."""
    mass = _parse_mass(m_nuc)
    d_len = d_over_b * b_len
    roots = solve_g(n_class, l_r, b=b_len, d=d_len)
    rows = []
    for g in roots:
        sol = radial_solution(n_class, l_r, g, b=b_len, d=d_len)
        total = assemble_total_energy((0.0, 0.0, 0.0), mass, b_len, 0, 0, sol.energy_r)
        row = {"g": float(g), "E_r": sol.energy_r, "E_total": total, "n_r": sol.n_r}
        for i, v in enumerate(sol.coefficients.values[1:], start=1):
            row[f"v_{i}"] = v
        row["symmetry"] = sol.symmetry.value
        rows.append(row)
    params = {"N": n_class, "lr": l_r, "d_over_b": d_over_b, "b": b_len,
              "M": _mass_repr(mass)}
    columns = ["g", "E_r", "E_total", "n_r"] + [f"v_{i}" for i in range(1, n_class + 1)] + ["symmetry"]
    _emit("solve", fmt, out_path, params, rows, [], columns, rows)


@cli.command("verify")
@click.option("--N", "n_class", type=int, required=True)
@click.option("--lr", "l_r", type=int, required=True)
@click.option("--d-over-b", type=float, default=1.0, show_default=True)
@click.option("--b", "b_len", type=float, default=1.0, show_default=True)
@click.option("--grid-points", type=int, default=4000, show_default=True, help="Eigensolver grid points.")
@click.option("--rmax", "r_max", type=float, default=None, help="Eigensolver grid extent [default: 10 b].")
@click.option("--tol", type=float, default=1e-4, show_default=True, help="Relative eigenvalue tolerance.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_verify(n_class, l_r, d_over_b, b_len, grid_points, r_max, tol, fmt, out_path) -> None:
    """Check every root of a class against the independent eigensolver."""
    from . import oracle  # loads scipy, which no other command needs

    d_len = d_over_b * b_len
    r_top = r_max if r_max is not None else 10.0 * b_len
    grid = oracle.RadialGrid(r_min=1e-6 * b_len, r_max=r_top, n_points=grid_points)
    l2_tol = 1e-3
    resid_tol = 1e-9
    sample_radii = np.geomspace(1e-3 * b_len, 6.0 * b_len, 50)

    roots = solve_g(n_class, l_r, b=b_len, d=d_len)
    rows = []
    checks = []
    failures = 0
    for g in roots:
        sol = normalize_radial(radial_solution(n_class, l_r, g, b=b_len, d=d_len))
        pairs = oracle.radial_eigensolve(sol.atom, l_r, grid, n_states=sol.n_r + 2)
        match = next((p for p in pairs if p.node_count == sol.n_r), None)
        resid = float(np.abs(radial_ode_residual(sol, sample_radii)).max())
        tag = f"g={_fmt_csv(float(g))}"
        if match is None:
            rows.append({"g": float(g), "n_r": sol.n_r, "E_exact": sol.energy_r,
                         "E_oracle": math.nan, "eig_rel_err": math.inf,
                         "l2_error": math.inf, "max_ode_residual": resid,
                         "node_oracle": -1, "status": "FAIL"})
            checks.append({"name": f"node_match[{tag}]", "passed": False,
                           "tolerance": sol.n_r, "observed": [p.node_count for p in pairs]})
            failures += 1
            continue
        rel = abs(match.eigenvalue - sol.energy_r) / abs(sol.energy_r)
        r_pts = match.grid.points()
        u_exact = r_pts * sol.radial(r_pts)
        u_exact /= math.sqrt(np.trapezoid(u_exact**2, r_pts))
        u_num = match.u_values.copy()
        peak = int(np.argmax(np.abs(u_num)))
        if u_num[peak] * u_exact[peak] < 0:
            u_num = -u_num
        l2 = math.sqrt(np.trapezoid((u_num - u_exact) ** 2, r_pts))
        ok = rel <= tol and l2 <= l2_tol and resid <= resid_tol and not match.grid_warning
        failures += 0 if ok else 1
        rows.append({"g": float(g), "n_r": sol.n_r, "E_exact": sol.energy_r,
                     "E_oracle": match.eigenvalue, "eig_rel_err": rel,
                     "l2_error": l2, "max_ode_residual": resid,
                     "node_oracle": match.node_count, "status": "PASS" if ok else "FAIL"})
        checks.append({"name": f"eigenvalue[{tag}]", "passed": rel <= tol,
                       "tolerance": tol, "observed": rel})
        checks.append({"name": f"l2_mismatch[{tag}]", "passed": l2 <= l2_tol,
                       "tolerance": l2_tol, "observed": l2})
        checks.append({"name": f"ode_residual[{tag}]", "passed": resid <= resid_tol,
                       "tolerance": resid_tol, "observed": resid})
        if match.grid_warning:
            checks.append({"name": f"grid[{tag}]", "passed": False,
                           "tolerance": False, "observed": True})

    params = {"N": n_class, "lr": l_r, "d_over_b": d_over_b, "b": b_len,
              "grid_points": grid_points, "rmax": r_top, "tol": tol}
    columns = ["g", "n_r", "E_exact", "E_oracle", "eig_rel_err", "l2_error",
               "max_ode_residual", "node_oracle", "status"]
    comment_checks = [f"{c['name']}: {'PASS' if c['passed'] else 'FAIL'} "
                      f"(observed {_fmt_csv(c['observed'])}, tol {_fmt_csv(c['tolerance'])})"
                      for c in checks]
    _emit("verify", fmt, out_path, params, rows, checks if fmt == "json" else comment_checks,
          columns, rows)
    if failures:
        raise VerificationFailure(f"{failures} of {len(roots)} root(s) failed verification")


@cli.command("figure")
@click.argument("which", type=click.Choice(["fig2", "fig3"]))
@click.option("--b", "b_len", type=float, default=1.0, show_default=True)
@click.option("--rmax", "r_max", type=float, default=None, help="Sampling extent [default: 6 b].")
@click.option("--grid-points", type=int, default=400, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_figure(which, b_len, r_max, grid_points, out_path) -> None:
    """CSV plot data: fig2 = the two N=1 radial functions, fig3 = the density."""
    if grid_points < 2:
        raise DomainError(f"--grid-points must be >= 2, got {grid_points}")
    top = r_max if r_max is not None else 6.0 * b_len
    radii = np.linspace(0.0, top, grid_points)
    if which == "fig2":
        g_lo, g_hi = solve_g(1, 0, b=b_len, d=b_len)
        sol_hi = normalize_radial(radial_solution(1, 0, g_hi, b=b_len, d=b_len))
        sol_lo = normalize_radial(radial_solution(1, 0, g_lo, b=b_len, d=b_len))
        rows = [{"r": r, "R_g26": hi, "R_g12": lo}
                for r, hi, lo in zip(radii, sol_hi.radial(radii), sol_lo.radial(radii))]
        params = {"b": b_len, "d_over_b": 1.0, "N": 1, "lr": 0,
                  "g_hi": float(g_hi), "g_lo": float(g_lo), "rmax": top,
                  "grid_points": grid_points}
        columns = ["r", "R_g26", "R_g12"]
    else:
        gs = ground_state(b=b_len, d=b_len)
        rows = [{"r1": r, "rho": v} for r, v in zip(radii, density_closed_form(gs, radii))]
        params = {"b": b_len, "d_over_b": 1.0, "g": gs.g_root, "v1": gs.v1,
                  "normalization": gs.normalization, "rmax": top,
                  "grid_points": grid_points}
        columns = ["r1", "rho"]
    _emit(f"figure {which}", "csv", out_path, params, rows, [], columns, rows)


@cli.command("limits")
@click.argument("regime", type=click.Choice(["small-d", "large-d"]))
@click.option("--g", "g_coupling", type=float, default=0.0, show_default=True)
@click.option("--b", "b_len", type=float, default=1.0, show_default=True)
@click.option("--d-over-b", type=float, default=10.0, show_default=True, help="Used by large-d only.")
@click.option("--levels", type=int, default=8, show_default=True)
@click.option("--pair", "pairs", multiple=True,
              help='State pair "n,l,n2,l2"; small-d solves for the degeneracy coupling.')
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_limits(regime, g_coupling, b_len, d_over_b, levels, pairs, fmt, out_path) -> None:
    """Low-lying limiting-regime spectra with degeneracies flagged."""
    parsed_pairs = []
    for text in pairs:
        parts = text.split(",")
        if len(parts) != 4:
            raise click.UsageError(f'--pair expects "n,l,n2,l2", got {text!r}')
        try:
            parsed_pairs.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise click.UsageError(f"--pair entries must be integers, got {text!r}") from exc

    params = {"regime": regime, "g": g_coupling, "b": b_len, "levels": levels}
    if regime == "small-d":
        entries = limits_mod.small_d_spectrum(g_coupling, b=b_len, levels=levels)
    else:
        model = AtomParameters(b=b_len, d=d_over_b * b_len, g=g_coupling)
        entries = limits_mod.large_d_spectrum(model, levels=levels)
        params["d_over_b"] = d_over_b
        params["gamma_renorm"] = limits_mod.gamma_renorm(model)

    rows = []
    group = -1
    last_energy = None
    for e in entries:
        if last_energy is None or abs(e.energy - last_energy) > 1e-9 * max(1.0, abs(e.energy)):
            group += 1
        last_energy = e.energy
        rows.append({"n_r": e.n_r, "l_r": e.l_r, "energy": e.energy, "group": group})
    group_sizes = {}
    for row in rows:
        group_sizes[row["group"]] = group_sizes.get(row["group"], 0) + 1
    for row in rows:
        row["degenerate"] = group_sizes[row["group"]] > 1

    pair_rows = []
    for (n1, l1, n2, l2) in parsed_pairs:
        if regime == "small-d":
            g_val = limits_mod.small_d_degeneracy_g(n1, l1, n2, l2)
            pair_rows.append({"n_r": n1, "l_r": l1, "n_r2": n2, "l_r2": l2,
                              "g": g_val if g_val is not None else None})
        else:
            pair_rows.append({"n_r": n1, "l_r": l1, "n_r2": n2, "l_r2": l2,
                              "degenerate": limits_mod.large_d_degenerate(n1, l1, n2, l2)})

    columns = ["n_r", "l_r", "energy", "group", "degenerate"]
    if fmt == "json":
        _emit(f"limits {regime}", fmt, out_path, params, {"levels": rows, "pairs": pair_rows}, [],
              columns, rows)
    else:
        comments = []
        for p in pair_rows:
            label = f"pair ({p['n_r']},{p['l_r']})-({p['n_r2']},{p['l_r2']})"
            if "g" in p:
                comments.append(f"{label}: g={_fmt_csv(p['g']) if p['g'] is not None else 'none'}")
            else:
                comments.append(f"{label}: degenerate={_fmt_csv(p['degenerate'])}")
        _emit(f"limits {regime}", fmt, out_path, params, rows, comments, columns, rows)


def main(argv=None) -> int:
    """Entry point with the exit-code contract; returns the code."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 1
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except VerificationFailure as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return 3
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return 2
    except ScreenedHookiumError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
