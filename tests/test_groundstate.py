"""Tests for the closed-form ground state, density, and cusp behavior."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import NCAL_REF
from quadrature_density import density_numeric as density_quadrature
from screened_hookium import atom, groundstate, oracle
from screened_hookium.errors import ConsistencyError, DomainError


@pytest.fixture(scope="module")
def gs():
    return groundstate.ground_state()


class TestGroundStateConstruction:
    def test_reference_fields(self, gs):
        assert gs.g_root == pytest.approx(26.0, abs=1e-10)
        assert gs.v1 == pytest.approx(-2.0, abs=1e-12)
        assert gs.energy_total == 7.0
        assert math.isinf(gs.atom.M)

    def test_normalization_frozen_value(self, gs):
        assert gs.normalization == pytest.approx(NCAL_REF, rel=1e-12)

    def test_normalization_equals_radial_route(self):
        # the pair normalization is the radial normalization times d^{3/2}
        for b, d in ((1.0, 1.0), (1.0, 1.5), (0.8, 1.2)):
            state = groundstate.ground_state(b=b, d=d)
            sol = atom.normalize_radial(atom.radial_solution(1, 0, state.g_root, b=b, d=d))
            assert state.normalization == pytest.approx(
                sol.normalization * d**1.5, rel=1e-10
            )


class TestWavefunction:
    def test_value_at_coalescence_at_origin(self, gs):
        expected = gs.normalization / (2.0 * math.pi**1.25)
        assert groundstate.wavefunction(gs, (0, 0, 0), (0, 0, 0)) == pytest.approx(
            expected, rel=1e-14
        )

    def test_exchange_symmetry(self, gs):
        rng = np.random.default_rng(5)
        for _ in range(10):
            r1, r2 = rng.normal(scale=1.2, size=(2, 3))
            assert groundstate.wavefunction(gs, r1, r2) == pytest.approx(
                groundstate.wavefunction(gs, r2, r1), rel=1e-14
            )

    def test_rotational_invariance(self, gs):
        rng = np.random.default_rng(9)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            r1, r2 = rng.normal(size=(2, 3))
            original = groundstate.wavefunction(gs, r1, r2)
            rotated = groundstate.wavefunction(gs, q @ r1, q @ r2)
            assert rotated == pytest.approx(original, rel=1e-12)

    def test_factorization_consistency(self, gs):
        # Psi must equal the separable product of the pseudorelative oscillator
        # ground state and the normalized relative radial function
        sol = atom.normalize_radial(atom.radial_solution(1, 0, gs.g_root))
        b = gs.atom.b
        rng = np.random.default_rng(41)
        for _ in range(20):
            r1, r2 = rng.normal(scale=1.0, size=(2, 3))
            s_vec = (r1 + r2) / math.sqrt(2.0)
            rel = np.linalg.norm(r1 - r2) / math.sqrt(2.0)
            phi_s = (math.pi * b**2) ** -0.75 * math.exp(
                -float(s_vec @ s_vec) / (2.0 * b**2)
            )
            product = phi_s * sol.radial(rel) / math.sqrt(4.0 * math.pi)
            direct = groundstate.wavefunction(gs, r1, r2)
            assert direct == pytest.approx(product, rel=1e-10)


class TestDensity:
    def test_closed_form_matches_quadrature(self, gs):
        sol = atom.normalize_radial(atom.radial_solution(1, 0, gs.g_root))
        for r1 in np.linspace(0.0, 5.0, 20):
            closed = groundstate.density_closed_form(gs, r1)
            numeric = groundstate.density_numeric(sol, float(r1))
            assert abs(closed - numeric) <= 1e-8 * max(abs(closed), 1e-12)
        for b, d in ((1.0, 0.5), (0.7, 1.4), (2.0, 3.0)):
            state = groundstate.ground_state(b=b, d=d)
            sol = atom.radial_solution(1, 0, state.g_root, b=b, d=d)
            radii = np.linspace(0.0, 6.0 * b, 50)
            closed = groundstate.density_closed_form(state, radii)
            assert np.abs(groundstate.density_numeric(sol, radii) / closed - 1.0).max() <= 1e-13

    def test_integrates_to_two_electrons(self, gs):
        total = oracle.quadrature(
            lambda r: 4.0 * math.pi * r**2 * groundstate.density_closed_form(gs, r),
            0.0,
            math.inf,
            tol=1e-12,
        )
        assert total == pytest.approx(2.0, abs=1e-8)

    def test_density_scales_with_normalization_squared(self, gs):
        doubled = dataclasses.replace(gs, normalization=2.0 * gs.normalization)
        r = 0.7
        assert groundstate.density_closed_form(doubled, r) == pytest.approx(
            4.0 * groundstate.density_closed_form(gs, r), rel=1e-14
        )

    def test_nonnegative_everywhere(self, gs):
        rng = np.random.default_rng(13)
        radii = rng.uniform(0.0, 8.0, size=10_000)
        assert (groundstate.density_closed_form(gs, radii) >= 0.0).all()

    def test_fat_attractor_maximum(self, gs):
        profile = groundstate.density_profile(gs)
        peak = int(np.argmax(profile.values))
        assert 0 < peak < profile.radii.size - 1
        assert profile.radii[peak] > 0.0
        assert profile.values[peak] > profile.values[0]

    def test_profile_defaults(self, gs):
        profile = groundstate.density_profile(gs)
        assert profile.radii.size == 400
        assert profile.radii[0] == 0.0
        assert profile.radii[-1] == pytest.approx(6.0 * gs.atom.b)
        assert (profile.values >= 0.0).all()
        assert profile.values[-1] < 1e-10 * profile.values.max()

    def test_numeric_density_rejects_nonzero_l(self):
        sol = atom.radial_solution(1, 1, atom.solve_g(1, 1)[0])
        with pytest.raises(DomainError):
            groundstate.density_numeric(sol, 1.0)

    def test_numeric_profile_flagged(self, gs):
        sol = atom.radial_solution(2, 0, atom.solve_g(2, 0)[2])
        profile = groundstate.density_profile_numeric(sol, n_points=9)
        assert profile.kind == "numeric"
        assert profile.radii.size == 9
        assert (profile.values >= 0.0).all()
        closed = groundstate.density_profile(gs)
        assert closed.kind == "closed-form"

    def test_numeric_density_higher_class_integrates_to_two(self):
        # no closed form for N = 2; the Gauss-rule density must still hold 2
        sol = atom.normalize_radial(atom.radial_solution(2, 0, atom.solve_g(2, 0)[2]))
        radii = np.linspace(0.0, 8.0, 81)
        rho = groundstate.density_numeric(sol, radii)
        total = 4.0 * math.pi * np.trapezoid(rho * radii**2, radii)
        assert total == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("d_over_b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_class", [1, 2, 3, 4])
    def test_gauss_density_matches_quadrature_reference(self, n_class, d_over_b):
        # every l_r = 0 root against the nested adaptive quadrature, 24 radii on [0, 8b]
        b = 1.3
        d = d_over_b * b
        radii = np.linspace(0.0, 8.0 * b, 24)
        for g in atom.solve_g(n_class, 0, b=b, d=d):
            sol = atom.radial_solution(n_class, 0, g, b=b, d=d)
            gauss = groundstate.density_numeric(sol, radii)
            reference = np.array([density_quadrature(sol, float(r)) for r in radii])
            assert np.abs(gauss / reference - 1.0).max() <= 1e-10
            assert groundstate.density_numeric(sol, radii[5]) == pytest.approx(gauss[5], rel=1e-14)


class TestNormalizationConstant:
    def test_reference_value(self):
        model = atom.AtomParameters(b=1.0, d=1.0, g=26.0)
        assert groundstate.normalization_constant(model, -2.0) == pytest.approx(
            NCAL_REF, rel=1e-12
        )

    def test_other_shape(self):
        # the guard inside the constructor integrates the paper's closed-form
        # density and cross-checks it against the radial Gauss rule
        model = atom.AtomParameters(b=1.3, d=0.9, g=26.0)
        value = groundstate.normalization_constant(model, -2.0)
        assert value > 0.0

    def test_guard_rejects_a_wrong_radial_norm(self, monkeypatch):
        radial_norm2 = groundstate._radial_norm2
        monkeypatch.setattr(
            groundstate, "_radial_norm2", lambda *args: radial_norm2(*args) * (1.0 + 1e-9)
        )
        with pytest.raises(ConsistencyError, match="closed-form density"):
            groundstate.ground_state()


class TestCusp:
    def test_analytic_value_is_zero(self, gs):
        assert groundstate.cusp_derivative(gs) == 0.0

    def test_finite_difference_is_tiny(self, gs):
        psi0 = groundstate.wavefunction(gs, (0, 0, 0), (0, 0, 0))
        value = groundstate.cusp_derivative(gs, step=1e-4)
        assert abs(value) < 1e-8 * psi0

    def test_differentiator_calibration(self):
        # a genuine coalescence kink is seen by the same operator
        slope = groundstate.separation_derivative(lambda u: math.exp(-u), 1e-4)
        assert slope == pytest.approx(-1.0, abs=1e-8)
