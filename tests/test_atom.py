"""Tests for the physical model: transforms, truncation roots, exact solutions."""

import dataclasses
import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import N1_L0_G, N1_L1_G, N2_L0_G, NCAL_REF
from exact_truncation import (
    determinant_polynomial,
    exact_alpha_mu,
    exact_trace,
    positive_zero_count,
    relative_newton_steps,
    row_residual,
)
from screened_hookium import atom
from screened_hookium.errors import DomainError, TerminationError


class TestJacobiTransform:
    def test_all_zero(self):
        big_r, s, rel = atom.jacobi_transform([0, 0, 0], [0, 0, 0], [0, 0, 0], 4.0)
        assert not big_r.any() and not s.any() and not rel.any()

    def test_symmetric_configuration(self):
        big_r, s, rel = atom.jacobi_transform([1, 0, 0], [-1, 0, 0], [0, 0, 0], 4.0)
        assert np.allclose(big_r, 0.0) and np.allclose(s, 0.0)
        assert np.allclose(rel, [math.sqrt(2.0), 0.0, 0.0])

    def test_potential_argument_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r1, r2, r3 = rng.normal(size=(3, 3))
            _, s, rel = atom.jacobi_transform(r1, r2, r3, 4.0)
            assert np.linalg.norm(s + rel) / math.sqrt(2) == pytest.approx(
                np.linalg.norm(r1 - r3), abs=1e-14
            )
            assert np.linalg.norm(s - rel) / math.sqrt(2) == pytest.approx(
                np.linalg.norm(r2 - r3), abs=1e-14
            )
            assert math.sqrt(2) * np.linalg.norm(rel) == pytest.approx(
                np.linalg.norm(r1 - r2), abs=1e-14
            )

    def test_static_nucleus_center(self):
        big_r, _, _ = atom.jacobi_transform([1, 2, 3], [4, 5, 6], [7, 8, 9], math.inf)
        assert np.allclose(big_r, [7, 8, 9])


class TestPotentials:
    def test_relative_at_origin(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        assert atom.relative_potential(0.0, model) == pytest.approx(13.0, abs=1e-14)

    def test_relative_at_unit_radius(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        assert atom.relative_potential(1.0, model) == pytest.approx(7.0, abs=1e-14)

    def test_uncoupled_is_pure_oscillator(self):
        model = atom.AtomParameters(b=1.3, d=1.0, g=0.0)
        r = np.linspace(0.0, 5.0, 11)
        assert np.allclose(atom.relative_potential(r, model), r**2 / (2 * 1.3**4))

    def test_pair_potential_consistency(self):
        # the interaction part of the relative potential is the pair
        # potential evaluated at separation sqrt(2) r
        model = atom.AtomParameters(b=0.9, d=1.7, g=5.0)
        r = np.linspace(0.1, 4.0, 9)
        interaction = atom.relative_potential(r, model) - r**2 / (2 * model.b**4)
        assert np.allclose(interaction, atom.pair_potential(math.sqrt(2) * r, model), rtol=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            atom.AtomParameters(b=-1.0, d=1.0)
        with pytest.raises(DomainError):
            atom.AtomParameters(b=1.0, d=0.0)
        with pytest.raises(DomainError):
            atom.AtomParameters(b=1.0, d=1.0, M=-2.0)


class TestQuantizedEnergy:
    def test_threshold_class(self):
        assert atom.quantized_energy(1, 0, 1.0) == 5.5

    def test_second_class(self):
        assert atom.quantized_energy(2, 0, 1.0) == 7.5

    def test_scaling_with_b(self):
        assert atom.quantized_energy(1, 1, 2.0) == pytest.approx(13.0 / 8.0, abs=1e-15)

    def test_class_must_be_positive(self):
        with pytest.raises(DomainError):
            atom.quantized_energy(0, 0, 1.0)


class TestHeunParameterMap:
    def test_g26_values(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        p = atom.heun_parameters(model, 0, 5.5)
        assert (p.alpha, p.beta, p.gamma) == (1.0, 0.5, 1.0)
        assert p.delta == pytest.approx(-11.0 / 4.0, abs=1e-15)
        assert p.eta == pytest.approx(-13.0 / 4.0, abs=1e-15)
        assert p.mu == pytest.approx(3.0, abs=1e-14)
        assert p.nu == pytest.approx(-4.0, abs=1e-14)

    def test_g12_accessory_parameter(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=12.0)
        p = atom.heun_parameters(model, 0, 5.5)
        assert p.mu == pytest.approx(-0.5, abs=1e-14)

    def test_cancellation_case(self):
        # g = k^2 d^2 together with d^2 = 2 b^2 makes eta = 1/2 and mu = 0
        b = 1.0
        d = math.sqrt(2.0)
        e_r = 1.75
        g = 2.0 * e_r * d**2
        p = atom.heun_parameters(atom.AtomParameters(b=b, d=d, g=g), 0, e_r)
        assert p.eta == pytest.approx(0.5, abs=1e-15)
        assert p.mu == pytest.approx(0.0, abs=1e-15)


class TestTerminationMatrix:
    def test_class_one_entries(self):
        for mu in (0.0, 3.0, -0.5, 1.7):
            m = atom.termination_matrix(1, 0, 1.0, mu)
            expected = np.array([[mu, 1.5], [1.0, 1.0 + mu - 3.5]])
            assert np.allclose(m, expected, atol=1e-15)

    def test_class_two_entries(self):
        for mu in (0.25, -2.0):
            m = atom.termination_matrix(2, 0, 1.0, mu)
            expected = np.array(
                [
                    [mu, 1.5, 0.0],
                    [2.0, 1.0 + mu - 3.5, 5.0],
                    [0.0, 1.0, 2.0 + mu - 9.0],
                ]
            )
            assert np.allclose(m, expected, atol=1e-15)

    def test_determinant_vanishes_at_roots_class_three(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            d_over_b = rng.uniform(0.4, 2.5)
            l_r = int(rng.integers(0, 3))
            for g in atom.solve_g(3, l_r, 1.0, d_over_b):
                model = atom.AtomParameters(b=1.0, d=d_over_b, g=g)
                mu = atom.heun_parameters(model, l_r, atom.quantized_energy(3, l_r)).mu
                m = atom.termination_matrix(3, l_r, d_over_b, mu)
                # Hadamard's bound: |det| <= product of the row norms
                assert abs(np.linalg.det(m)) <= 1e-12 * np.prod(np.linalg.norm(m, axis=1))


def _mu_roots_by_symmetric_eigen(n_class, l_r, d_over_b):
    """Independent route: the truncation matrix minus mu*I is diagonally
    similar to a symmetric tridiagonal matrix, so the mu roots are the
    negated eigenvalues of that matrix."""
    alpha = d_over_b**2
    diag = np.array([k * alpha - k * (k + l_r + 2.5) for k in range(n_class + 1)])
    off = np.array(
        [
            math.sqrt((n_class + 1 - k) * alpha * k * (k + 0.5 + l_r))
            for k in range(1, n_class + 1)
        ]
    )
    return np.sort(-eigh_tridiagonal(diag, off, eigvals_only=True))


class TestSolveG:
    def test_class_one_reference_roots(self):
        roots = atom.solve_g(1, 0, 1.0, 1.0)
        assert np.allclose(roots, N1_L0_G, atol=1e-10)

    def test_class_one_l1_quadratic(self):
        roots = atom.solve_g(1, 1, 1.0, 1.0)
        assert np.allclose(roots, N1_L1_G, atol=1e-10)

    def test_class_two_cubic(self):
        roots = atom.solve_g(2, 0, 1.0, 1.0)
        assert roots.shape == (3,)
        assert np.allclose(roots, N2_L0_G, atol=1e-9)

    def test_roots_depend_only_on_shape_ratio(self):
        assert np.allclose(atom.solve_g(1, 0, 2.0, 2.0), atom.solve_g(1, 0, 1.0, 1.0), atol=1e-10)

    @pytest.mark.parametrize("n_class", [1, 2, 3])
    @pytest.mark.parametrize("l_r", [0, 1])
    @pytest.mark.parametrize("d_over_b", [0.7, 1.0, 1.6])
    def test_against_symmetric_eigenvalue_route(self, n_class, l_r, d_over_b):
        g_roots = atom.solve_g(n_class, l_r, 1.0, d_over_b)
        mu = _mu_roots_by_symmetric_eigen(n_class, l_r, d_over_b)
        alpha = d_over_b**2
        k2d2 = (7 + 2 * l_r + 4 * n_class) * alpha
        expected = 4.0 * (mu - (l_r + 1.5) * (0.5 * alpha - 1.0)) + k2d2
        assert np.allclose(g_roots, expected, rtol=1e-10, atol=1e-10)

    def test_root_count_and_node_enumeration(self):
        for n_class in (1, 2, 3):
            for l_r in (0, 1):
                roots = atom.solve_g(n_class, l_r)
                assert len(roots) == n_class + 1
                nodes = sorted(
                    atom.radial_solution(n_class, l_r, g).n_r for g in roots
                )
                assert nodes == list(range(n_class + 1))

    def test_class_24_root_is_exact(self):
        roots = atom.solve_g(24, 0, 1.0, 1.0)
        assert np.abs(roots - 1533.87436).min() < 1e-5
        assert np.abs(roots - 1533.86901).min() > 1e-3

    @pytest.mark.parametrize("n_class,l_r", [(30, 0), (30, 3), (40, 0), (40, 3)])
    def test_large_classes_have_all_real_roots(self, n_class, l_r):
        roots = atom.solve_g(n_class, l_r)
        assert roots.shape == (n_class + 1,)
        assert np.all(np.isfinite(roots)) and np.all(np.diff(roots) > 0)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            atom.solve_g(0, 0)
        with pytest.raises(DomainError):
            atom.solve_g(1, -1)
        with pytest.raises(DomainError):
            atom.solve_g(1, 0, b=-1.0)


class TestRadialSolution:
    def test_g26_shape(self):
        # R is proportional to (1 + r^2)(1 + 2 r^2) exp(-r^2/2)
        sol = atom.radial_solution(1, 0, 26.0)
        r = np.linspace(0.0, 4.0, 17)
        reference = (1 + r**2) * (1 + 2 * r**2) * np.exp(-(r**2) / 2)
        ratio = sol.radial(r) / reference
        assert np.allclose(ratio, ratio[0], rtol=1e-13)
        assert sol.n_r == 0

    def test_g12_node_location(self):
        sol = atom.radial_solution(1, 0, 12.0)
        assert sol.n_r == 1
        node = math.sqrt(3.0)
        assert abs(sol.radial(node)) < 1e-14
        assert sol.radial(node - 0.2) * sol.radial(node + 0.2) < 0

    def test_off_root_coupling_rejected(self):
        with pytest.raises(TerminationError):
            atom.radial_solution(1, 0, 26.1)

    def test_short_range_power_law(self):
        # R / r^{l_r} approaches a finite nonzero constant at the origin
        for l_r, g in ((0, 26.0), (1, N1_L1_G[1])):
            sol = atom.radial_solution(1, l_r, g)
            r = np.array([1e-3, 1e-4, 1e-5])
            scaled = sol.radial(r) / r**l_r
            assert np.allclose(scaled, scaled[-1], rtol=1e-5)
            assert abs(scaled[-1]) > 0.1

    @pytest.mark.parametrize("n_class,l_r", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)])
    def test_ode_residual(self, n_class, l_r):
        radii = np.geomspace(1e-3, 6.0, 50)
        for g in atom.solve_g(n_class, l_r):
            sol = atom.radial_solution(n_class, l_r, g)
            assert np.abs(atom.radial_ode_residual(sol, radii)).max() < 1e-9

    def test_strong_screening_ratio(self):
        for g in atom.solve_g(3, 0, 1.0, 20.0):
            assert atom.radial_solution(3, 0, g, 1.0, 20.0).N == 3

    @pytest.mark.parametrize("d_over_b", [0.05, 1.0])
    def test_class_twelve_ode_residual(self, d_over_b):
        radii = np.geomspace(1e-3, 6.0, 50)
        for g in atom.solve_g(12, 0, 1.0, d_over_b):
            sol = atom.radial_solution(12, 0, g, 1.0, d_over_b)
            assert np.abs(atom.radial_ode_residual(sol, radii)).max() <= 1e-8

    def test_node_counts_at_small_screening_ratio(self):
        roots = atom.solve_g(5, 0, 1.0, 0.05)
        assert [atom.radial_solution(5, 0, g, 1.0, 0.05).n_r for g in roots] == [5, 4, 3, 2, 1, 0]

    def test_vanishing_coefficient(self):
        # d/b = sqrt(4.5) puts a class-(2, 0) root at mu = 0, where v_1 = -mu/(3/2)
        # vanishes and the forward ratio v_1 / v_0 is exactly zero.
        d = math.sqrt(4.5)
        g = atom.solve_g(2, 0, 1.0, d)[1]
        sol = atom.radial_solution(2, 0, g, 1.0, d)
        assert abs(sol.coefficients.values[1]) < 1e-12
        assert sol.coefficients.values[2] == pytest.approx(-1.8, rel=1e-12)
        assert np.abs(atom.radial_ode_residual(sol, np.geomspace(1e-3, 6.0, 50))).max() < 1e-9


class TestNormalizeRadial:
    def test_unit_norm_and_frozen_constant(self):
        from screened_hookium import oracle

        sol = atom.normalize_radial(atom.radial_solution(1, 0, 26.0))
        integral = oracle.quadrature(lambda r: sol.radial(r) ** 2 * r**2, 0.0, math.inf, tol=1e-12)
        assert integral == pytest.approx(1.0, abs=1e-10)
        # closed-form Gaussian-moment value, b = d = 1
        assert sol.normalization == pytest.approx(NCAL_REF, rel=1e-12)

    def test_idempotent(self):
        sol = atom.normalize_radial(atom.radial_solution(1, 0, 12.0))
        again = atom.normalize_radial(sol)
        assert again.normalization == pytest.approx(sol.normalization, rel=1e-13)

    def test_scale_invariance(self):
        sol = atom.radial_solution(2, 1, atom.solve_g(2, 1)[0])
        scaled = dataclasses.replace(sol, normalization=3.7)
        a = atom.normalize_radial(sol).normalization
        b = atom.normalize_radial(scaled).normalization
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_raises(self):
        # The norm integral overflows for the 24 most repelled roots of this
        # class; it used to come out as inf, and normalization as 0.0.
        failed = []
        for g in atom.solve_g(60, 2, 1.0, 0.3):
            sol = atom.radial_solution(60, 2, g, 1.0, 0.3)
            try:
                assert atom.normalize_radial(sol).normalization > 0.0
            except DomainError as exc:
                failed.append(str(exc))
        assert len(failed) == 24
        assert all("N = 60, l_r = 2, d/b = 0.3 " in msg for msg in failed)


@functools.lru_cache(maxsize=None)
def _gaussian_moments(count: int, l_r: int, b: float, d: float) -> tuple:
    """int_0^oo (r/d)^{2m} r^2 exp(-r^2/b^2) dr = Gamma(m + 3/2) b^{2m+3} / (2 d^{2m}), m >= l_r."""
    with mpmath.workdps(60):
        b, d = mpmath.mpf(b), mpmath.mpf(d)
        return tuple(
            mpmath.gamma(m + 1.5) * b ** (2 * m + 3) / (2 * d ** (2 * m))
            for m in range(l_r, l_r + count)
        )


def _exact_norm2(sol) -> float:
    """int_0^oo R^2 r^2 dr of the float polynomial in sol, from exact moments at 60 digits.

    R^2 r^2 = C^2 z^{l_r} S(z) r^2 exp(-r^2/b^2) with S = ((1 + z) P(z))^2 and
    z = (r/d)^2.  The float coefficients are dyadic, so S is formed exactly
    in integers and only its sum against the Gaussian moments is rounded.
    """
    pz = [Fraction(c) for c in sol.polynomial_coefficients()]
    q = [a + c for a, c in zip(pz + [0], [0] + pz)]  # (1 + z) P(z)
    scale = max(c.denominator for c in q)  # a power of two
    ints = np.array([int(c * scale) for c in q], dtype=object)
    s = np.convolve(ints, ints)
    moments = _gaussian_moments(s.size, sol.l_r, sol.atom.b, sol.atom.d)
    with mpmath.workdps(60):
        total = mpmath.fdot(zip(map(mpmath.mpf, s), moments))
        return float(mpmath.mpf(sol.normalization) ** 2 * total / scale**2)


@pytest.mark.parametrize("n_class", [*range(1, 13), 16])
def test_normalization_sweep(n_class):
    """Unit norm for every root over l_r <= 4 and d/b in {0.05, ..., 20}.

    The reference is exact in the float coefficients, so what remains is the
    rounding of evaluating R in the monomial basis at the Gauss nodes.
    """
    tol = 1e-10 if n_class <= 12 else 1e-8
    for l_r in range(5):
        for d_over_b in (0.05, 0.3, 1.0, 4.0, 20.0):
            for g in atom.solve_g(n_class, l_r, 1.0, d_over_b):
                sol = atom.normalize_radial(atom.radial_solution(n_class, l_r, g, 1.0, d_over_b))
                assert abs(_exact_norm2(sol) - 1.0) <= tol, (l_r, d_over_b, g)


class TestSymmetryAndEnergy:
    def test_classify(self):
        assert atom.classify_symmetry(0) is atom.Symmetry.SINGLET
        assert atom.classify_symmetry(1) is atom.Symmetry.TRIPLET
        assert atom.classify_symmetry(4) is atom.Symmetry.SINGLET

    def test_ground_total_is_exact(self):
        total = atom.assemble_total_energy((0, 0, 0), math.inf, 1.0, 0, 0, 5.5)
        assert total == 7.0

    def test_excited_pseudorelative(self):
        total = atom.assemble_total_energy((0, 0, 0), math.inf, 1.0, 1, 0, 0.0)
        assert total == pytest.approx(3.5, abs=1e-15)

    def test_finite_mass_center_of_mass_energy(self):
        # E_R = |K|^2 / (2 M (1 + 2/M)) = 4 / (2 * 2 * 2) = 1/2 at M = 2
        total = atom.assemble_total_energy((2.0, 0.0, 0.0), 2.0, 1.0, 0, 0, 0.0)
        e_s = math.sqrt(2.0) * 3.0 / 2.0
        assert total - e_s == pytest.approx(0.5, abs=1e-14)

    def test_mass_factor_monotone_to_static_limit(self):
        masses = [1.0, 2.0, 5.0, 10.0, 100.0, 1e6]
        values = [
            atom.assemble_total_energy((0, 0, 0), m, 1.0, 0, 0, 0.0) for m in masses
        ]
        limit = atom.assemble_total_energy((0, 0, 0), math.inf, 1.0, 0, 0, 0.0)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > limit for v in values)
        assert values[-1] == pytest.approx(limit, rel=1e-5)

    def test_quantum_number_validation(self):
        with pytest.raises(DomainError):
            atom.QuantumNumbers(n_s=-1)
        with pytest.raises(DomainError):
            atom.QuantumNumbers(l_r=1, m_r=2)
        qn = atom.QuantumNumbers(n_s=0, l_s=0, n_r=0, l_r=0)
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        assert qn.total_energy(model, 5.5) == 7.0


def _sweep_classes():
    """Seeded classes over N <= 60, l_r <= 4, d/b in [0.05, 20], corners included."""
    rng = np.random.default_rng(2)
    corners = [(60, l_r, d_over_b) for l_r in (0, 4) for d_over_b in (0.05, 20.0)]
    drawn = [
        (
            int(math.exp(rng.uniform(0.0, math.log(61.0)))),
            int(rng.integers(0, 5)),
            float(math.exp(rng.uniform(math.log(0.05), math.log(20.0)))),
        )
        for _ in range(16)
    ]
    return corners + drawn


def test_exact_oracle_rejects_wrong_answers():
    wrong_g = 1533.86901  # the class-(24, 0) root returned by the companion-matrix route
    alpha, mu = exact_alpha_mu(24, 0, wrong_g, 1.0, 1.0)
    assert relative_newton_steps(determinant_polynomial(24, 0, alpha), [mu]) > [1e-9]
    sol = atom.radial_solution(2, 1, atom.solve_g(2, 1)[0])
    alpha, mu = exact_alpha_mu(2, 1, sol.g_root, 1.0, 1.0)
    perturbed = np.array(sol.coefficients.values) * [1.0, 1.0 + 1e-8, 1.0]
    assert row_residual(2, 1, alpha, mu, perturbed) > 1e-9
    assert positive_zero_count([2.0, -3.0, 1.0]) == (2, 2)  # (1 - z)(2 - z)
    assert positive_zero_count([1.0, 0.0, 1.0]) == (0, 0)  # 1 + z^2


@pytest.mark.parametrize("n_class,l_r,d_over_b", _sweep_classes())
def test_truncation_sweep(n_class, l_r, d_over_b):
    """Every root, coefficient vector and node count against exact rationals.

    The node count is checked against Descartes' sign changes of P for every
    class (an upper bound on its positive zeros), and for N <= 24 also
    against exact signs of P between its zeros (a lower bound).  Past that,
    rounding the monomial coefficients to floats removes zeros of P itself:
    at N = 60, d/b = 0.05 only 16 of 60 survive, so the lower bound is no
    longer a statement about the solution.
    """
    alpha = Fraction(d_over_b) ** 2
    poly = determinant_polynomial(n_class, l_r, alpha)
    roots = atom.solve_g(n_class, l_r, 1.0, d_over_b)
    assert roots.shape == (n_class + 1,)
    mus = [exact_alpha_mu(n_class, l_r, g, 1.0, d_over_b)[1] for g in roots]
    scale = sum(max(1.0, abs(float(mu))) for mu in mus)
    assert abs(float(sum(mus) - exact_trace(n_class, l_r, alpha))) <= 1e-10 * scale
    assert max(relative_newton_steps(poly, mus)) <= 1e-9
    for g, mu in zip(roots, mus):
        sol = atom.radial_solution(n_class, l_r, g, 1.0, d_over_b)
        assert row_residual(n_class, l_r, alpha, mu, sol.coefficients.values) <= 1e-10
        lower, upper = positive_zero_count(sol.polynomial_coefficients())
        assert upper == sol.n_r
        if n_class <= 24:
            assert lower == sol.n_r
