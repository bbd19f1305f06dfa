"""Tests for the independent numerical machinery."""

import math

import numpy as np
import pytest

import heun_series
from screened_hookium import atom, heun, oracle
from screened_hookium.errors import ConvergenceError, DomainError


class TestRadialEigensolve:
    def test_validation(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        for kwargs in ({"n_states": 0}, {"n_states": 25}, {"n_basis": 301}):
            with pytest.raises(DomainError):
                oracle.radial_eigensolve(model, 0, **kwargs)
        with pytest.raises(DomainError):
            oracle.radial_eigensolve(model, -1)

    def test_oscillator_spectrum(self):
        # g = 0 is the isotropic oscillator, E = (2n + l + 3/2)/b^2 with n
        # nodes.  The first row of T sinks to rounding noise and, from
        # n_basis ~ 100 on, to exact zeros, so fixing the column signs of T
        # by it would zero whole columns.
        model = atom.AtomParameters(b=1.3, d=1.0, g=0.0)
        for n_basis in (24, 100, 200):
            for l_r in (0, 3):
                pairs = oracle.radial_eigensolve(model, l_r, n_states=n_basis, n_basis=n_basis)
                exact = (2.0 * np.arange(n_basis) + l_r + 1.5) / 1.3**2
                assert np.abs([p.eigenvalue for p in pairs] - exact).max() < 1e-12 * exact[-1]
                assert [p.node_count for p in pairs] == list(range(n_basis))

    def test_exact_coupling_eigenvalue_and_nodes(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=2)
        assert abs(pairs[0].eigenvalue - 5.5) / 5.5 < 1e-13
        assert pairs[0].node_count == 0
        assert pairs[0].basis_change < 1e-13

    def test_excited_exact_state_has_one_node(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=12.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=2)
        assert abs(pairs[1].eigenvalue - 5.5) / 5.5 < 1e-13
        assert pairs[1].node_count == 1

    def test_exact_coupling_stable_across_basis_sizes(self):
        # a class-N state is a degree-N polynomial in r^2 times the
        # oscillator Gaussian, so it is exact from n_basis = N + 1 on
        for g in atom.solve_g(12, 2, d=0.3):
            sol = atom.radial_solution(12, 2, g, d=0.3)
            small, large = (
                oracle.radial_eigensolve(sol.atom, 2, n_states=sol.n_r + 1, n_basis=k)[sol.n_r]
                for k in (13, 57)
            )
            assert abs(small.eigenvalue - large.eigenvalue) <= 1e-12 * sol.energy_r
            assert small.basis_change <= 1e-12

    def test_basis_change_flags_an_inexact_coupling(self):
        # d/b = 0.05 puts the poles of 1/(r^2 + d^2) close to the real axis,
        # so a coupling that is not exact converges slowly in the basis size
        model = atom.AtomParameters(b=1.0, d=0.05, g=26.0)
        changes = [oracle.radial_eigensolve(model, 0, n_states=1, n_basis=k)[0].basis_change
                   for k in (6, 12, 24)]
        assert changes[0] > changes[1] > changes[2] > 1e-10

    def test_weights_integrate_the_span_exactly(self):
        # u = r^(l+1) e^(-r^2/2b^2) is the lowest oscillator state:
        # int u^2 dr = b^(2l+3) Gamma(l + 3/2) / 2
        for l_r in range(5):
            pair = oracle.radial_eigensolve(atom.AtomParameters(b=1.3, d=1.0), l_r, n_basis=9)[0]
            u = pair.radii ** (l_r + 1) * np.exp(-pair.radii**2 / (2.0 * 1.3**2))
            exact = 1.3 ** (2 * l_r + 3) * math.gamma(l_r + 1.5) / 2.0
            assert np.sum(pair.weights * u**2) == pytest.approx(exact, rel=1e-13)

    def test_node_count_ignores_the_tail_ripple(self):
        # at d/b = 0.05 the truncated neighbours of the exact states keep a
        # ripple of ~1e-9 of their peak in the forbidden tail; counting it
        # (as a 1e-8-of-peak threshold does at n_basis = 44) gives a second
        # state with n_r nodes
        for g in atom.solve_g(12, 0, d=0.05):
            sol = atom.radial_solution(12, 0, g, d=0.05)
            pairs = oracle.radial_eigensolve(sol.atom, 0, n_states=sol.n_r + 2, n_basis=44)
            assert [p.node_count for p in pairs] == list(range(sol.n_r + 2))

    def test_orthogonality(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=4)
        for i in range(4):
            for j in range(i, 4):
                overlap = np.sum(pairs[0].weights * pairs[i].u_values * pairs[j].u_values)
                assert abs(overlap - (i == j)) < 1e-13

    def test_node_theorem(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=4)
        assert [p.node_count for p in pairs] == [0, 1, 2, 3]

    def test_triplet_class_roots(self):
        # l_r = 1 exercises the centrifugal term; both quadratic roots host
        # the exact state at E_r = 13/2 with the expected node count
        for g in atom.solve_g(1, 1):
            sol = atom.radial_solution(1, 1, g)
            pairs = oracle.radial_eigensolve(sol.atom, 1, n_states=sol.n_r + 2)
            match = next(p for p in pairs if p.node_count == sol.n_r)
            assert abs(match.eigenvalue - 6.5) / 6.5 < 1e-13

    def test_eigenfunction_error_shrinks_under_refinement(self):
        # a class-4 state needs 5 oscillator functions; below that the basis
        # misses part of it, from there on the Gauss sum sees no error
        sol = atom.normalize_radial(atom.radial_solution(4, 0, atom.solve_g(4, 0)[2]))

        def l2_error(n_basis):
            pair = oracle.radial_eigensolve(sol.atom, 0, n_states=sol.n_r + 1,
                                            n_basis=n_basis)[sol.n_r]
            u_exact = pair.radii * sol.radial(pair.radii)
            u_exact /= math.sqrt(np.sum(pair.weights * u_exact**2))
            sign = np.sign(np.sum(pair.weights * pair.u_values * u_exact))
            return math.sqrt(np.sum(pair.weights * (sign * pair.u_values - u_exact) ** 2))

        errors = [l2_error(n) for n in (3, 4, 5, 6)]
        assert errors[0] > errors[1] > 1e-3
        assert max(errors[2:]) < 1e-12


class TestLargeClassSweep:
    def test_every_root_found_once_with_its_nodes(self):
        # seeded classes over N <= 60, l_r <= 4, d/b in [0.05, 20]
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(12):
            n_class = int(rng.integers(1, 61))
            l_r = int(rng.integers(0, 5))
            d = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            energy = atom.quantized_energy(n_class, l_r)
            for g in atom.solve_g(n_class, l_r, d=d):
                n_r = atom.radial_solution(n_class, l_r, g, d=d).n_r
                pairs = oracle.radial_eigensolve(
                    atom.AtomParameters(b=1.0, d=d, g=float(g)), l_r,
                    n_states=n_r + 2, n_basis=n_class + 12)
                matches = [p for p in pairs if p.node_count == n_r]
                assert len(matches) == 1, (n_class, l_r, d, g)
                worst = max(worst, abs(matches[0].eigenvalue - energy) / energy)
        assert worst <= 1e-10


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
            series, _ = heun_series.evaluate(p, 0.9)
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


def _oracle_sample_classes():
    """Seeded classes over N <= 24, l_r <= 4, d/b in [0.05, 20]."""
    rng = np.random.default_rng(21)
    return [(int(rng.integers(1, 25)), int(rng.integers(0, 5)),
             float(np.exp(rng.uniform(math.log(0.05), math.log(20.0)))),
             float(np.exp(rng.uniform(math.log(0.5), math.log(2.0)))))
            for _ in range(10)]


class TestRadialEigensolveClass:
    @pytest.mark.parametrize("n_class,l_r,d_over_b,b", _oracle_sample_classes())
    def test_stacked_solve_equals_one_coupling_calls(self, n_class, l_r, d_over_b, b):
        d = d_over_b * b
        couplings = atom.solve_g(n_class, l_r, b=b, d=d)
        n_states = [n_class - i + 2 for i in range(couplings.size)]
        stacked = oracle.radial_eigensolve_class(b, d, l_r, couplings, n_states, n_class + 12)
        assert len(stacked) == couplings.size
        for g, m, pairs in zip(couplings, n_states, stacked):
            single = oracle.radial_eigensolve(atom.AtomParameters(b=b, d=d, g=float(g)), l_r,
                                              n_states=m, n_basis=n_class + 12)
            assert len(pairs) == len(single) == m
            for got, want in zip(pairs, single):
                assert got.eigenvalue == want.eigenvalue
                assert got.node_count == want.node_count
                assert got.basis_change == want.basis_change
                for field in ("radii", "weights", "u_values"):
                    assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_split_stacks_give_the_same_pairs(self, monkeypatch):
        couplings = atom.solve_g(8, 1, d=0.7)
        n_states = [m + 2 for m in range(8, -1, -1)]
        whole = oracle.radial_eigensolve_class(1.0, 0.7, 1, couplings, n_states, 20)
        monkeypatch.setattr(oracle, "_STACK_ENTRIES", 2 * 20**2)  # 2, then 1, per stack
        split = oracle.radial_eigensolve_class(1.0, 0.7, 1, couplings, n_states, 20)
        for got, want in zip(split, whole):
            assert [(p.eigenvalue, p.node_count, p.basis_change, p.u_values.tobytes()) for p in got] \
                == [(p.eigenvalue, p.node_count, p.basis_change, p.u_values.tobytes()) for p in want]

    def test_validation(self):
        with pytest.raises(DomainError, match="one n_states per coupling"):
            oracle.radial_eigensolve_class(1.0, 1.0, 0, [12.0, 26.0], [3], 24)
        with pytest.raises(DomainError):
            oracle.radial_eigensolve_class(1.0, 1.0, 0, [12.0], [25], 24)
        with pytest.raises(DomainError):
            oracle.radial_eigensolve_class(-1.0, 1.0, 0, [12.0], [3], 24)
        assert oracle.radial_eigensolve_class(1.0, 1.0, 0, [], [], 24) == []
