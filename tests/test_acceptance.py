"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""

import math
import time

import numpy as np
import pytest

import heun_series
from conftest import NCAL_REF
from screened_hookium import atom, groundstate, heun, limits, oracle
from screened_hookium.cli import main


def report(cid: str, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: criterion {cid} - {description}{suffix}")
    assert ok, f"criterion {cid} failed: {description}{suffix}"


def test_c01_coupling_roots():
    roots = atom.solve_g(1, 0, 1.0, 1.0)
    err = float(np.abs(roots - np.array([12.0, 26.0])).max())
    report("1", "coupling roots of class (1,0) are {12, 26}", err < 1e-10, f"max err {err:.2e}")


def test_c02_series_coefficients():
    v26 = atom.radial_solution(1, 0, 26.0).coefficients[1]
    v12 = atom.radial_solution(1, 0, 12.0).coefficients[1]
    err = max(abs(v26 + 2.0), abs(v12 - 1.0 / 3.0))
    report("2", "v1 = -2 (g=26) and v1 = 1/3 (g=12)", err < 1e-12, f"max err {err:.2e}")


def test_c03_exact_energies():
    e_r = atom.quantized_energy(1, 0, 1.0)
    total = atom.assemble_total_energy((0.0, 0.0, 0.0), math.inf, 1.0, 0, 0, e_r)
    report("3", "E_r = 5.5 and assembled ground total = 7 exactly",
           e_r == 5.5 and total == 7.0, f"E_r={e_r!r}, total={total!r}")


def test_c04_oracle_agreement():
    start = time.monotonic()
    sol26 = atom.normalize_radial(atom.radial_solution(1, 0, 26.0))
    pairs26 = oracle.radial_eigensolve(sol26.atom, 0, n_states=2)
    rel = abs(pairs26[0].eigenvalue - 5.5) / 5.5

    r, w = pairs26[0].radii, pairs26[0].weights
    u_exact = r * sol26.radial(r)
    u_exact /= math.sqrt(np.sum(w * u_exact**2))
    u_num = pairs26[0].u_values
    if u_num[np.argmax(np.abs(u_num))] * u_exact[np.argmax(np.abs(u_num))] < 0:
        u_num = -u_num
    l2 = math.sqrt(np.sum(w * (u_num - u_exact) ** 2))

    sol12 = atom.radial_solution(1, 0, 12.0)
    pairs12 = oracle.radial_eigensolve(sol12.atom, 0, n_states=2)
    nodes_ok = pairs26[0].node_count == 0 and pairs12[1].node_count == 1
    elapsed = time.monotonic() - start
    ok = rel < 1e-4 and l2 < 1e-3 and nodes_ok and elapsed < 10.0
    report("4", "DVR oracle matches the exact class-(1,0) states", ok,
           f"eig rel {rel:.2e}, L2 {l2:.2e}, nodes {nodes_ok}, {elapsed:.1f}s")


def test_c05_termination_closure():
    ok = True
    details = []
    for n_class in (1, 2, 3):
        for l_r in (0, 1):
            roots = atom.solve_g(n_class, l_r)
            nodes = []
            for g in roots:
                sol = atom.radial_solution(n_class, l_r, g)
                nodes.append(sol.n_r)
                params = atom.heun_parameters(sol.atom, l_r, sol.energy_r)
                coeffs = heun_series.series_coefficients(params, n_class + 8)
                scale = max(abs(v) for v in coeffs[: n_class + 1])
                tail = max(abs(v) for v in coeffs[n_class + 1 :])
                if tail >= 1e-10 * scale:
                    ok = False
                    details.append(f"tail {tail / scale:.1e} at (N={n_class}, l={l_r}, g={g:.6g})")
            if sorted(nodes) != list(range(n_class + 1)):
                ok = False
                details.append(f"nodes {sorted(nodes)} at (N={n_class}, l={l_r})")
    report("5", "termination closure and node enumeration for N in {1,2,3}, l_r in {0,1}",
           ok, "; ".join(details) if details else "18 solutions checked")


def test_c06_ode_residual():
    radii = np.geomspace(1e-3, 6.0, 50)
    worst = 0.0
    for n_class in (1, 2, 3):
        for l_r in (0, 1):
            for g in atom.solve_g(n_class, l_r):
                sol = atom.radial_solution(n_class, l_r, g)
                worst = max(worst, float(np.abs(atom.radial_ode_residual(sol, radii)).max()))
    report("6", "radial equation residual < 1e-9 at 50 radii for every solution",
           worst < 1e-9, f"worst {worst:.2e}")


def test_c07_density():
    gs = groundstate.ground_state()
    sol = atom.normalize_radial(atom.radial_solution(1, 0, gs.g_root))
    worst = 0.0
    for r1 in np.linspace(0.0, 5.0, 20):
        closed = groundstate.density_closed_form(gs, r1)
        numeric = groundstate.density_numeric(sol, float(r1))
        worst = max(worst, abs(closed - numeric) / max(abs(closed), 1e-12))
    total = oracle.quadrature(
        lambda r: 4.0 * math.pi * r**2 * groundstate.density_closed_form(gs, r),
        0.0, math.inf, tol=1e-12,
    )
    profile = groundstate.density_profile(gs)
    peak = int(np.argmax(profile.values))
    ok = worst < 1e-8 and abs(total - 2.0) < 1e-8 and 0 < peak < profile.radii.size - 1
    report("7", "closed-form density matches quadrature, integrates to 2, peaks off-center",
           ok, f"worst rel {worst:.2e}, integral {total:.10f}, peak r {profile.radii[peak]:.3f}")


def test_c08_no_kato_cusp():
    gs = groundstate.ground_state()
    psi0 = groundstate.wavefunction(gs, (0, 0, 0), (0, 0, 0))
    h = 1e-4  # electrons at -+(h/2) z_hat: the separation r12 runs through zero
    ahead = groundstate.wavefunction(gs, (0, 0, 0.5 * h), (0, 0, -0.5 * h))
    behind = groundstate.wavefunction(gs, (0, 0, -0.5 * h), (0, 0, 0.5 * h))
    slope = (ahead - behind) / (2.0 * h)
    ok = abs(slope) < 1e-8 * psi0
    report("8", "no coalescence cusp: d(Psi)/d(r12) vanishes at contact", ok,
           f"|slope| {abs(slope):.2e} vs scale {psi0:.2e}")


def test_c09_small_d_degeneracies():
    g1 = limits.small_d_degeneracy_g(1, 0, 0, 3)
    g2 = limits.small_d_degeneracy_g(1, 1, 0, 4)
    ok = g1 is not None and g2 is not None
    ok = ok and abs(g1 - 3.75) < 1e-12 and abs(g2 - 10.0) < 1e-12
    if ok:
        ok = abs(limits.small_d_energy(1, 0, g1) - limits.small_d_energy(0, 3, g1)) < 1e-12
        ok = ok and abs(limits.small_d_energy(1, 1, g2) - limits.small_d_energy(0, 4, g2)) < 1e-12
    report("9", "small-d degeneracy couplings g = 15/4 and g = 10 with equal energies",
           ok, f"g = {g1}, {g2}")


def test_c10_large_d_degeneracies():
    model = atom.AtomParameters(b=1.0, d=10.0, g=1.0)
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(100):
        n1, n2 = (int(x) for x in rng.integers(0, 6, size=2))
        l1, l2 = (int(x) for x in rng.integers(0, 9, size=2))
        predicted = limits.large_d_degenerate(n1, l1, n2, l2)
        equal = abs(limits.large_d_energy(n1, l1, model) - limits.large_d_energy(n2, l2, model)) < 1e-12
        if predicted != equal:
            ok = False
    triple = [limits.large_d_energy(*q, model) for q in ((2, 0), (1, 2), (0, 4))]
    ok = ok and max(triple) - min(triple) < 1e-12
    report("10", "large-d degeneracy predicate matches energy equality; triple level shared",
           ok)


def test_c11_series_vs_ode():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(20):
        params = heun.HeunParameters(
            alpha=rng.uniform(0.2, 2.5),
            beta=rng.uniform(0.3, 2.0),
            gamma=rng.uniform(0.5, 1.8),
            delta=rng.uniform(-3.0, 3.0),
            eta=rng.uniform(-3.0, 3.0),
        )
        xi = rng.uniform(-0.9, 0.9)
        series, converged = heun_series.evaluate(params, xi)
        direct = oracle.integrate_heun_ode(params, xi)
        assert converged
        worst = max(worst, abs(series - direct) / max(1.0, abs(series)))
    report("11", "series evaluation matches ODE integration on 20 non-terminated sets",
           worst < 1e-8, f"worst rel {worst:.2e}")


def test_c12_figure_reproduction(capsys):
    def rows_of(args):
        code = main(args)
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    def sign_changes(values):
        signs = [math.copysign(1.0, v) for v in values if abs(v) > 1e-300]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    fig2 = rows_of(["figure", "fig2"])
    changes26 = sign_changes([float(r["R_g26"]) for r in fig2])
    changes12 = sign_changes([float(r["R_g12"]) for r in fig2])

    fig3 = rows_of(["figure", "fig3"])
    rho = np.array([float(r["rho"]) for r in fig3])
    peak = int(np.argmax(rho))
    shape_ok = 0 < peak < rho.size - 1 and (np.diff(rho[peak:]) <= 0).all() and rho[-1] < 1e-8 * rho[peak]

    ok = changes26 == 0 and changes12 == 1 and shape_ok
    with capsys.disabled():
        report("12", "figure data: nodal structure and fat-attractor density shape", ok,
               f"sign changes g26={changes26}, g12={changes12}")


def test_frozen_normalization_reference():
    # companion check: the frozen reference constant used across the suite
    gs = groundstate.ground_state()
    assert gs.normalization == pytest.approx(NCAL_REF, rel=1e-12)
