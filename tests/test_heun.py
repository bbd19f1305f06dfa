"""Tests for the Heun parameters and the forward-recurrence series reference."""

import numpy as np
import pytest

import heun_series
from screened_hookium import atom, heun, oracle
from screened_hookium.errors import DomainError


def params_for(g, l_r=0, b=1.0, d=1.0, N=1):
    """Heun parameters of the atom at the class-N quantized energy."""
    model = atom.AtomParameters(b=b, d=d, g=g)
    return atom.heun_parameters(model, l_r, atom.quantized_energy(N, l_r, b))


class TestRecurrenceCoefficients:
    def test_a1_for_g26(self):
        a1, _, _ = heun_series.recurrence_coefficients(params_for(26.0), 1)
        assert a1 == pytest.approx(1.5, abs=1e-15)

    def test_b1_gives_v1_minus_two_for_g26(self):
        a1, b1, _ = heun_series.recurrence_coefficients(params_for(26.0), 1)
        assert b1 == pytest.approx(-3.0, abs=1e-14)
        assert b1 / a1 == pytest.approx(-2.0, abs=1e-14)

    def test_v1_is_one_third_for_g12(self):
        a1, b1, _ = heun_series.recurrence_coefficients(params_for(12.0), 1)
        assert b1 / a1 == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(DomainError):
            heun_series.recurrence_coefficients(params_for(26.0), 0)


class TestSeriesCoefficients:
    def test_zeroth_order_is_one(self):
        coeffs = heun_series.series_coefficients(params_for(20.0), 0)
        assert coeffs == [1.0]

    def test_g26_terminates_exactly(self):
        # all inputs are dyadic rationals here, so the truncation is exact
        coeffs = heun_series.series_coefficients(params_for(26.0), 3)
        assert coeffs[0] == 1.0
        assert coeffs[1] == -2.0
        assert coeffs[2] == 0.0
        assert coeffs[3] == 0.0

    def test_g12_first_coefficient(self):
        coeffs = heun_series.series_coefficients(params_for(12.0), 1)
        assert coeffs[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_negative_n_max_rejected(self):
        with pytest.raises(DomainError):
            heun_series.series_coefficients(params_for(26.0), -1)


def tail_ratio(values, degree):
    """Largest |v_n| beyond `degree`, relative to the largest up to it."""
    scale = max(abs(v) for v in values[: degree + 1])
    return max(abs(v) for v in values[degree + 1 :]) / scale


class TestTerminationDegree:
    def test_g26_class_one(self):
        coeffs = heun_series.series_coefficients(params_for(26.0), 6)
        assert tail_ratio(coeffs, 1) < 1e-10

    def test_g12_class_one(self):
        coeffs = heun_series.series_coefficients(params_for(12.0), 6)
        assert tail_ratio(coeffs, 1) < 1e-10

    def test_generic_coupling_does_not_terminate(self):
        coeffs = heun_series.series_coefficients(params_for(20.0), 40)
        assert all(tail_ratio(coeffs, n) > 1e-3 for n in range(len(coeffs) - 1))

    @pytest.mark.parametrize("n_class", [1, 2, 3])
    @pytest.mark.parametrize("l_r", [0, 1])
    def test_termination_closure(self, n_class, l_r):
        """At every root, the recurrence collapses all v_n beyond the degree."""
        for g in atom.solve_g(n_class, l_r):
            p = params_for(g, l_r=l_r, N=n_class)
            coeffs = heun_series.series_coefficients(p, n_class + 10)
            assert tail_ratio(coeffs, n_class) < 1e-10


class TestEvaluate:
    def test_at_zero(self):
        value, converged = heun_series.evaluate(params_for(20.0), 0.0)
        assert value == 1.0 and converged

    def test_nonterminated_outside_disc_raises(self):
        with pytest.raises(DomainError):
            heun_series.evaluate(params_for(20.0), 1.2)

    def test_nonterminated_atom_coupling_matches_ode(self):
        # g = 20 sits between the two class-1 roots: no truncation
        p = params_for(20.0)
        series, converged = heun_series.evaluate(p, 0.5)
        assert converged
        direct = oracle.integrate_heun_ode(p, 0.5)
        assert abs(series - direct) <= 1e-8 * max(1.0, abs(series))

    def test_matches_ode_integration(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = heun.HeunParameters(
                alpha=rng.uniform(0.2, 2.5),
                beta=rng.uniform(0.3, 2.0),
                gamma=rng.uniform(0.5, 1.8),
                delta=rng.uniform(-3.0, 3.0),
                eta=rng.uniform(-3.0, 3.0),
            )
            xi = rng.uniform(-0.9, 0.9)
            series, converged = heun_series.evaluate(p, xi)
            assert converged
            direct = oracle.integrate_heun_ode(p, xi)
            assert abs(series - direct) <= 1e-8 * max(1.0, abs(series))

    def test_partial_sum_flag_when_starved(self):
        # far too few terms near the disc edge: value returned, flag cleared
        _, converged = heun_series.evaluate(params_for(20.0), 0.97, tol=1e-14, max_terms=10)
        assert not converged


class TestParameterizationConsistency:
    @pytest.mark.parametrize("d_over_b", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("n_class", [1, 2, 3])
    @pytest.mark.parametrize("l_r", [0, 1, 2])
    def test_accessors_match_direct_formulas(self, d_over_b, n_class, l_r):
        g = 17.3
        b = 1.2
        d = d_over_b * b
        e_r = atom.quantized_energy(n_class, l_r, b)
        p = atom.heun_parameters(atom.AtomParameters(b=b, d=d, g=g), l_r, e_r)
        k2d2 = 2.0 * e_r * d**2
        alpha = d_over_b**2
        mu_direct = 0.25 * (g - k2d2) + (l_r + 1.5) * (0.5 * alpha - 1.0)
        nu_direct = 1.5 + l_r + alpha - 0.25 * g
        assert abs(p.mu - mu_direct) <= 1e-13 * max(1.0, abs(mu_direct))
        assert abs(p.nu - nu_direct) <= 1e-13 * max(1.0, abs(nu_direct))
