"""Tests for the limiting-regime spectra and degeneracy conditions."""

import itertools
import math

import numpy as np
import pytest

from screened_hookium import atom, limits, oracle
from screened_hookium.errors import DomainError


class TestSmallD:
    def test_pure_oscillator_ground(self):
        assert limits.small_d_energy(0, 0, 0.0, 1.0) == pytest.approx(1.5, abs=1e-15)

    def test_degenerate_level_at_g_15_over_4(self):
        assert limits.small_d_energy(1, 0, 3.75) == pytest.approx(5.0, abs=1e-13)
        assert limits.small_d_energy(0, 3, 3.75) == pytest.approx(5.0, abs=1e-13)

    def test_degenerate_level_at_g_10(self):
        assert limits.small_d_energy(1, 1, 10.0) == pytest.approx(6.5, abs=1e-13)
        assert limits.small_d_energy(0, 4, 10.0) == pytest.approx(6.5, abs=1e-13)

    def test_fall_to_center_rejected(self):
        with pytest.raises(DomainError):
            limits.small_d_energy(0, 0, -0.3)

    def test_degeneracy_couplings(self):
        assert limits.small_d_degeneracy_g(1, 0, 0, 3) == pytest.approx(3.75, abs=1e-13)
        assert limits.small_d_degeneracy_g(1, 1, 0, 4) == pytest.approx(10.0, abs=1e-13)

    def test_oscillator_degeneracy_at_zero_coupling(self):
        g = limits.small_d_degeneracy_g(1, 0, 0, 2)
        assert g == pytest.approx(0.0, abs=1e-15)
        assert limits.small_d_energy(1, 0, g) == pytest.approx(
            limits.small_d_energy(0, 2, g), abs=1e-14
        )

    def test_same_radial_index_has_no_degeneracy(self):
        assert limits.small_d_degeneracy_g(1, 0, 1, 3) is None

    def test_spurious_candidate_rejected(self):
        # squaring artifacts: the formula yields a g, but the energies differ
        assert limits.small_d_degeneracy_g(1, 3, 0, 0) is None

    def test_closure_over_state_grid(self):
        states = list(itertools.product(range(3), range(5)))
        for (n1, l1), (n2, l2) in itertools.combinations(states, 2):
            g = limits.small_d_degeneracy_g(n1, l1, n2, l2)
            if g is None:
                continue
            e1 = limits.small_d_energy(n1, l1, g)
            e2 = limits.small_d_energy(n2, l2, g)
            assert abs(e1 - e2) < 1e-12


class TestLargeD:
    def _atom(self, g=1.0, b=1.0, d=10.0):
        return atom.AtomParameters(b=b, d=d, g=g)

    def test_uncoupled_ladder(self):
        model = self._atom(g=0.0)
        for n_r, l_r in ((0, 0), (1, 0), (0, 2), (2, 1)):
            assert limits.large_d_energy(n_r, l_r, model) == pytest.approx(
                (3.0 + 4 * n_r + 2 * l_r) / 2.0, abs=1e-14
            )

    def test_doubly_degenerate_level(self):
        model = self._atom()
        shift = model.g / (2 * model.d**2)
        gam = limits.gamma_renorm(model)
        expected = shift + 7.0 * math.sqrt(gam) / 2.0
        assert limits.large_d_energy(1, 0, model) == pytest.approx(expected, abs=1e-13)
        assert limits.large_d_energy(0, 2, model) == pytest.approx(expected, abs=1e-13)

    def test_triply_degenerate_level(self):
        model = self._atom()
        values = [limits.large_d_energy(*q, model) for q in ((2, 0), (1, 2), (0, 4))]
        assert max(values) - min(values) < 1e-13
        assert values[0] == pytest.approx(
            model.g / (2 * model.d**2) + 11.0 * math.sqrt(limits.gamma_renorm(model)) / 2.0,
            abs=1e-13,
        )

    def test_unbound_regime_rejected(self):
        with pytest.raises(DomainError):
            limits.large_d_energy(0, 0, atom.AtomParameters(b=1.0, d=1.0, g=2.0))

    def test_degeneracy_predicate_examples(self):
        assert limits.large_d_degenerate(1, 0, 0, 2)
        assert limits.large_d_degenerate(0, 0, 0, 0)
        assert not limits.large_d_degenerate(1, 0, 0, 3)

    def test_predicate_matches_energy_equality(self):
        model = self._atom()
        rng = np.random.default_rng(17)
        for _ in range(100):
            n1, n2 = rng.integers(0, 6, size=2)
            l1, l2 = rng.integers(0, 9, size=2)
            predicted = limits.large_d_degenerate(int(n1), int(l1), int(n2), int(l2))
            e1 = limits.large_d_energy(int(n1), int(l1), model)
            e2 = limits.large_d_energy(int(n2), int(l2), model)
            assert predicted == (abs(e1 - e2) < 1e-12)


class TestSpectra:
    def test_small_d_levels_sorted_and_flagged(self):
        entries = limits.small_d_spectrum(3.75, levels=8)
        energies = [e.energy for e in entries]
        assert energies == sorted(energies)
        degenerate = [(e.n_r, e.l_r) for e in entries if abs(e.energy - 5.0) < 1e-12]
        assert degenerate == [(1, 0), (0, 3)]

    def test_large_d_levels_carry_gamma(self):
        model = atom.AtomParameters(b=1.0, d=10.0, g=1.0)
        entries = limits.large_d_spectrum(model, levels=10)
        group = [(e.n_r, e.l_r) for e in entries if abs(e.energy - entries[-4].energy) < 1e-12]
        assert group == [(2, 0), (1, 2), (0, 4)]


class TestDomainGuards:
    @pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coupling_rejected(self, g):
        with pytest.raises(DomainError, match="finite"):
            limits.small_d_energy(0, 0, g)
        with pytest.raises(DomainError, match="finite"):
            limits.small_d_spectrum(g, levels=2)
        model = atom.AtomParameters(b=1.0, d=10.0, g=g)
        with pytest.raises(DomainError, match="finite"):
            limits.large_d_energy(0, 0, model)
        with pytest.raises(DomainError, match="finite"):
            limits.large_d_spectrum(model, levels=2)

    @pytest.mark.parametrize("b", [-1.0, 0.0, math.nan, math.inf])
    def test_small_d_rejects_bad_length(self, b):
        with pytest.raises(DomainError, match="confinement length b"):
            limits.small_d_spectrum(1.0, b=b, levels=2)

    def test_small_d_scales_with_length(self):
        # b = -1 used to give the b = 1 spectrum, since energies divide by b^2.
        energies = [e.energy for e in limits.small_d_spectrum(1.0, b=2.0, levels=4)]
        assert energies == pytest.approx([e.energy / 4.0 for e in limits.small_d_spectrum(1.0, levels=4)])


class TestOracleConsistency:
    def test_small_d_regime(self):
        # strong screening: the eigensolver reproduces the inverse-square map
        model = atom.AtomParameters(b=1.0, d=1e-3, g=3.75)
        pairs = oracle.radial_eigensolve(model, 0, n_states=3)
        for pair, n_r in zip(pairs, range(3)):
            exact = limits.small_d_energy(n_r, 0, model.g, model.b)
            assert abs(pair.eigenvalue - exact) / exact < 1e-3

    def test_small_d_regime_l1(self):
        model = atom.AtomParameters(b=1.0, d=1e-3, g=10.0)
        pairs = oracle.radial_eigensolve(model, 1, n_states=2)
        for pair, n_r in zip(pairs, range(2)):
            exact = limits.small_d_energy(n_r, 1, model.g, model.b)
            assert abs(pair.eigenvalue - exact) / exact < 1e-3

    def test_large_d_regime(self):
        model = atom.AtomParameters(b=1.0, d=1e3, g=1.0)
        pairs = oracle.radial_eigensolve(model, 0, n_states=3)
        for pair, n_r in zip(pairs, range(3)):
            exact = limits.large_d_energy(n_r, 0, model)
            assert abs(pair.eigenvalue - exact) / exact < 1e-3
