"""Tests for the independent numerical machinery."""

import math

import numpy as np
import pytest

from screened_hookium import atom, heun, oracle
from screened_hookium.errors import ConvergenceError, DomainError


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            oracle.RadialGrid(r_min=0.0, r_max=10.0, n_points=500)
        with pytest.raises(DomainError):
            oracle.RadialGrid(r_min=2.0, r_max=1.0, n_points=500)
        with pytest.raises(DomainError):
            oracle.RadialGrid(r_min=1e-6, r_max=10.0, n_points=50)

    def test_refined_halves_spacing_exactly(self):
        grid = oracle.RadialGrid(r_min=1e-6, r_max=10.0, n_points=4000)
        assert grid.refined().h == pytest.approx(grid.h / 2.0, rel=1e-15)

    def test_default(self):
        grid = oracle.default_grid(2.0)
        assert grid.r_min == pytest.approx(2e-6)
        assert grid.r_max == 20.0
        assert grid.n_points == 4000


class TestRadialEigensolve:
    def test_oscillator_spectrum(self):
        # g = 0 reduces to the isotropic oscillator: E = (2n + l + 3/2)/b^2
        model = atom.AtomParameters(b=1.0, d=1.0, g=0.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=3, richardson=False)
        for pair, exact in zip(pairs, (1.5, 3.5, 5.5)):
            assert abs(pair.eigenvalue - exact) < 1e-5

    def test_exact_coupling_eigenvalue_and_nodes(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=2)
        assert abs(pairs[0].eigenvalue - 5.5) / 5.5 < 1e-4
        assert pairs[0].node_count == 0
        assert not pairs[0].grid_warning

    def test_excited_exact_state_has_one_node(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=12.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=2)
        assert abs(pairs[1].eigenvalue - 5.5) / 5.5 < 1e-4
        assert pairs[1].node_count == 1

    def test_second_order_convergence(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=0.0)
        grids = [oracle.RadialGrid(1e-6, 10.0, n) for n in (500, 999, 1997)]
        energies = [
            oracle.radial_eigensolve(model, 0, grid, n_states=2, richardson=False)[0].eigenvalue
            for grid in grids
        ]
        d1 = energies[0] - energies[1]
        d2 = energies[1] - energies[2]
        assert 3.0 < d1 / d2 < 5.0  # halving h shrinks the error ~4x

    def test_richardson_stability(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        coarse = oracle.radial_eigensolve(
            model, 0, oracle.RadialGrid(1e-6, 10.0, 2000), n_states=2
        )
        fine = oracle.radial_eigensolve(
            model, 0, oracle.RadialGrid(1e-6, 10.0, 3999), n_states=2
        )
        for a, b in zip(coarse, fine):
            assert abs(a.eigenvalue - b.eigenvalue) / abs(b.eigenvalue) < 1e-5

    def test_orthogonality(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=4, richardson=False)
        r = pairs[0].grid.points()
        for i in range(4):
            for j in range(i + 1, 4):
                overlap = np.trapezoid(pairs[i].u_values * pairs[j].u_values, r)
                assert abs(overlap) < 1e-8

    def test_node_theorem(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=4, richardson=False)
        assert [p.node_count for p in pairs] == [0, 1, 2, 3]

    def test_coarse_grid_warning_flag(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=1, coarse_tol=1e-14)
        assert pairs[0].grid_warning

    def test_triplet_class_roots(self):
        # l_r = 1 exercises the centrifugal term; both quadratic roots host
        # the exact state at E_r = 13/2 with the expected node count
        for g in atom.solve_g(1, 1):
            sol = atom.radial_solution(1, 1, g)
            pairs = oracle.radial_eigensolve(sol.atom, 1, n_states=sol.n_r + 2)
            match = next(p for p in pairs if p.node_count == sol.n_r)
            assert abs(match.eigenvalue - 6.5) / 6.5 < 1e-4

    def test_eigenfunction_error_shrinks_under_refinement(self):
        sol = atom.normalize_radial(atom.radial_solution(1, 0, 26.0))

        def l2_error(n_points):
            grid = oracle.RadialGrid(1e-6, 10.0, n_points)
            pair = oracle.radial_eigensolve(sol.atom, 0, grid, n_states=1, richardson=False)[0]
            r = grid.points()
            u_exact = r * sol.radial(r)
            u_exact /= math.sqrt(np.trapezoid(u_exact**2, r))
            u_num = pair.u_values
            if u_num[np.argmax(np.abs(u_num))] * u_exact[np.argmax(np.abs(u_num))] < 0:
                u_num = -u_num
            return math.sqrt(np.trapezoid((u_num - u_exact) ** 2, r))

        errors = [l2_error(n) for n in (500, 1000, 2000)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3


class TestIntegrateHeunOde:
    def _g26_params(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        return atom.heun_parameters(model, 0, 5.5)

    def test_at_zero(self):
        assert oracle.integrate_heun_ode(self._g26_params(), 0.0) == 1.0

    def test_terminated_polynomial_value(self):
        # 1 + v1 * (-0.5) with v1 = -2
        value = oracle.integrate_heun_ode(self._g26_params(), -0.5)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_agrees_with_series_far_out(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            p = heun.HeunParameters(
                alpha=rng.uniform(0.3, 2.0),
                beta=rng.uniform(0.4, 1.6),
                gamma=rng.uniform(0.6, 1.4),
                delta=rng.uniform(-2.0, 2.0),
                eta=rng.uniform(-2.0, 2.0),
            )
            series, _ = heun.evaluate(p, 0.9)
            direct = oracle.integrate_heun_ode(p, 0.9)
            assert abs(series - direct) <= 1e-8 * max(1.0, abs(series))

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            oracle.integrate_heun_ode(self._g26_params(), 1.0)
        with pytest.raises(DomainError):
            oracle.integrate_heun_ode(self._g26_params(), -1.5)

    def test_step_halving_guard(self):
        # needs a genuinely curved solution: polynomial cases are integrated
        # exactly even by a coarse grid
        curved = heun.HeunParameters(alpha=1.5, beta=0.7, gamma=1.1, delta=2.0, eta=-1.5)
        with pytest.raises(ConvergenceError):
            oracle.integrate_heun_ode(curved, 0.9, steps=3)


class TestQuadrature:
    def test_gaussian_moment(self):
        value = oracle.quadrature(lambda r: math.exp(-(r**2)) * r**2, 0.0, math.inf, tol=1e-13)
        assert value == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-12)

    def test_finite_interval(self):
        assert oracle.quadrature(lambda x: x**2, 0.0, 1.0, tol=1e-13) == pytest.approx(
            1.0 / 3.0, abs=1e-13
        )

    def test_normalized_radial_solution(self):
        sol = atom.normalize_radial(atom.radial_solution(1, 0, 26.0))
        value = oracle.quadrature(lambda r: sol.radial(r) ** 2 * r**2, 0.0, math.inf, tol=1e-12)
        assert value == pytest.approx(1.0, abs=1e-10)
