"""Nucleon code: rate models, scattering channels, repetition recovery."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssrqec import qcdcode
from ssrqec.hilbert import DensityMatrix, partial_trace
from ssrqec.klcore import CodeSpace, ErrorSet, kl_check
from ssrqec.hilbert import Operator, ProductSpace, basis_state
from ssrqec.qcdcode import (LAMBDA_QCD, M_PI, M_W, AmplitudeTable,
                            MomentumGrid,
                            RepetitionState, SyndromeResult,
                            alpha_decomposition, apply_scattering_error,
                            binomial_tail, decode_phase_flip, encode_repetition,
                            error_operator_pn, logical_error_rate,
                            measure_syndrome, momentum_project_and_boost,
                            pion_mass, recovery_cycle, sm_flip_suppression,
                            syndrome_outcomes, thermal_flip_suppression,
                            toy_amplitude_table)

import helpers
from helpers import dense_psi, effective_distance, em_phase_error, to_pn_state_vector

INV_SQRT2 = 1 / math.sqrt(2)


def logical_overlap(state, c_plus, c_minus):
    cp, cm = state.normalized().logical_amplitudes()
    return abs(np.conj(c_plus) * cp + np.conj(c_minus) * cm) ** 2


def flip(state, *particles):
    """The state with the |+> <-> |-> flip on each listed particle."""
    mask = np.isin(np.arange(state.n), particles)
    return RepetitionState(state.n, state.configs ^ mask, state.amps, state.momenta)


class TestRateModels:
    def test_pion_mass_default_scales(self):
        assert pion_mass(3, 3, 3000) == pytest.approx(134.16, abs=0.01)
        # consistent with the ~140 MeV physical value to 5%
        assert abs(pion_mass(3, 3, 3000) - 140.0) / 140.0 < 0.05

    def test_pion_mass_chiral_limit(self):
        assert pion_mass(0, 0, 3000) == 0.0

    def test_pion_mass_monotone(self):
        base = pion_mass(3, 3, 3000)
        assert pion_mass(4, 3, 3000) > base
        assert pion_mass(3, 4, 3000) > base

    def test_thermal_suppression_value(self):
        t = M_PI / 10
        assert thermal_flip_suppression(t) == pytest.approx(math.exp(-10),
                                                            abs=1e-15)

    def test_thermal_suppression_high_t_limit(self):
        assert thermal_flip_suppression(1e12) == pytest.approx(1.0, abs=1e-9)

    def test_thermal_suppression_monotone_in_t(self):
        ts = np.linspace(5.0, 500.0, 50)
        vals = [thermal_flip_suppression(t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_exponent_identity(self):
        # (e^{-eps/T})^{m_pi/eps} = e^{-m_pi/T}
        t, eps = 37.0, 3.0
        lhs = math.exp(-eps / t) ** (M_PI / eps)
        assert lhs == pytest.approx(thermal_flip_suppression(t), rel=1e-12)

    def test_sm_suppression_electroweak_dominates_at_low_e(self):
        e = 0.05 * LAMBDA_QCD
        val = sm_flip_suppression(e)
        assert val == pytest.approx((e / M_W) ** 2)
        assert (e / M_W) ** 2 > math.exp(-LAMBDA_QCD / e)

    def test_sm_crossover_energy_location(self):
        lam, mw = LAMBDA_QCD, M_W
        f = lambda e: math.exp(-lam / e) - (e / mw) ** 2
        lo, hi = 0.05 * lam, lam
        assert f(lo) < 0 < f(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert 0.05 * lam < lo < lam

    def test_sm_suppression_floor_above_lambda(self):
        assert sm_flip_suppression(LAMBDA_QCD) >= math.exp(-1)

    def test_sm_suppression_monotone_up_to_lambda(self):
        es = np.linspace(1.0, LAMBDA_QCD, 100)
        vals = [sm_flip_suppression(e) for e in es]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_effective_distance_values(self):
        assert effective_distance(330, 3) == pytest.approx(110.0)
        assert effective_distance(330, 0.511) == pytest.approx(645.8, abs=0.1)

    def test_distance_exponent_identity(self):
        t, eps, lam = 29.0, 3.0, 330.0
        lhs = math.exp(-eps / t) ** effective_distance(lam, eps)
        assert lhs == pytest.approx(math.exp(-lam / t), rel=1e-12)


class TestAmplitudeTable:
    def test_forward_entries_match_coupling_pattern(self):
        table = toy_amplitude_table(0.2, 0.0, MomentumGrid(2))
        assert table.amplitude("phi1", "p", 1, 0) == pytest.approx(0.98)
        assert table.amplitude("phi1", "n", 1, 0) == pytest.approx(1.0)
        assert table.amplitude("phi2", "p", -2, 0) == pytest.approx(1.0)
        assert table.amplitude("phi2", "n", 0, 0) == pytest.approx(1.0)

    def test_zero_couplings_no_interaction(self):
        table = toy_amplitude_table(0.0, 0.0, MomentumGrid(1))
        for s in ("phi1", "phi2"):
            for i in ("p", "n"):
                assert table.amplitude(s, i, 0, 0) == pytest.approx(1.0)

    def test_rows_subnormalized(self):
        table = toy_amplitude_table(0.5, 0.3, MomentumGrid(3))
        for s in ("phi1", "phi2"):
            for i in ("p", "n"):
                for k in table.grid.indices:
                    total = sum(abs(table.amplitude(s, i, k, kp)) ** 2
                                for kp in table.row_kprimes(s, i, k))
                    assert total <= 1.0 + 1e-9

    def test_oversized_row_rejected(self):
        with pytest.raises(ValueError):
            AmplitudeTable(MomentumGrid(0),
                           {("phi1", "p", 0, 0): 1.2})

    def test_alpha_decomposition_values(self):
        table = toy_amplitude_table(0.2, 0.0, MomentumGrid(1))
        a1, a2 = alpha_decomposition(table, "phi1", 0, 0)
        assert a1 == pytest.approx(0.99)
        assert a2 == pytest.approx(-0.01)

    def test_alpha_reconstruction_identity(self):
        rng = np.random.default_rng(1)
        grid = MomentumGrid(1)
        entries = {}
        for i in ("p", "n"):
            for k in grid.indices:
                a = (rng.normal() + 1j * rng.normal()) * 0.3
                entries[("phi1", i, k, 0)] = a
        table = AmplitudeTable(grid, entries)
        for k in grid.indices:
            a1, a2 = alpha_decomposition(table, "phi1", k, 0)
            assert a1 + a2 == pytest.approx(table.amplitude("phi1", "p", k, 0),
                                            abs=1e-15)
            assert a1 - a2 == pytest.approx(table.amplitude("phi1", "n", k, 0),
                                            abs=1e-15)

    def test_equal_amplitudes_pure_identity(self):
        table = AmplitudeTable(MomentumGrid(0),
                               {("phi1", "p", 0, 0): 0.7,
                                ("phi1", "n", 0, 0): 0.7})
        a1, a2 = alpha_decomposition(table, "phi1", 0, 0)
        assert a2 == 0

    def test_opposite_amplitudes_pure_z(self):
        table = AmplitudeTable(MomentumGrid(0),
                               {("phi1", "p", 0, 0): 1.0,
                                ("phi1", "n", 0, 0): -1.0})
        assert alpha_decomposition(table, "phi1", 0, 0) == (0, 1)

    def test_error_operator_is_species_diagonal(self):
        table = toy_amplitude_table(0.2, 0.1, MomentumGrid(1))
        m = error_operator_pn(table, "phi1", 0, 0)
        np.testing.assert_allclose(m, np.diag([0.98, 1.0]))

    def test_em_phase_error_reconstruction(self):
        theta = 0.37
        a1, a2 = em_phase_error(theta)
        assert a1 + a2 == pytest.approx(np.exp(-1j * theta), abs=1e-15)
        assert a1 - a2 == pytest.approx(1.0, abs=1e-15)


class TestKlOnNucleonCode:
    def setup_method(self):
        sp2 = ProductSpace((2,))
        self.code = CodeSpace((basis_state(sp2, 0), basis_state(sp2, 1)))
        self.sp2 = sp2

    def test_species_diagonal_channels_zero_off_diagonal(self):
        table = toy_amplitude_table(0.3, 0.1, MomentumGrid(1))
        ops = []
        for s in ("phi1", "phi2"):
            for kp in (-1, 0, 1):
                ops.append(Operator(self.sp2,
                                    error_operator_pn(table, s, 0, kp)))
        cw = self.code.matrix()
        for a in ops:
            for b in ops:
                m = cw.conj().T @ (b.dense().conj().T @ a.dense()) @ cw
                assert m[0, 1] == 0 and m[1, 0] == 0

    def test_diagonal_kl_failure_for_unequal_couplings(self):
        table = toy_amplitude_table(0.2, 0.0, MomentumGrid(0))
        op = Operator(self.sp2, error_operator_pn(table, "phi1", 0, 0))
        report = kl_check(self.code, ErrorSet((op,)))
        assert not report.satisfied
        assert report.max_violation > 0


class TestEncodeAndStates:
    def test_plus_codeword(self):
        st = encode_repetition(1.0, 0.0, 3)
        assert st.logical_amplitudes() == (1.0, 0.0)
        assert st.momenta == (0, 0, 0)

    def test_single_particle_plus_superposition_is_proton(self):
        st = encode_repetition(INV_SQRT2, INV_SQRT2, 1)
        pn = to_pn_state_vector(st)
        np.testing.assert_allclose(pn.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_reduced_single_particle_maximally_mixed(self):
        st = encode_repetition(INV_SQRT2, INV_SQRT2, 3)
        rho = DensityMatrix.from_state(to_pn_state_vector(st))
        red = partial_trace(rho, keep=[0])
        # maximally mixed in the +/- basis means off-diagonal-free there;
        # transform the p/n reduction back
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(h @ red.matrix @ h, np.eye(2) / 2,
                                   atol=1e-12)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError):
            encode_repetition(1.0, 0.0, 4)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            encode_repetition(1.0, 1.0, 3)

    @pytest.mark.parametrize("n, configs, amps, momenta, match", [
        (3, [0, 0, 0], [1.0], (0, 0, 0), "shape"),
        (3, [[0, 0]], [1.0], (0, 0, 0), "shape"),
        (3, [[0, 2, 0]], [1.0], (0, 0, 0), "0 or 1"),
        (3, [[0, 0, 0], [1, 1, 1]], [1.0], (0, 0, 0), "one amplitude"),
        (2, [[0, 0]], [1.0], (0, 0), "odd"),
        (3, [[0, 0, 0]], [1.0], (0, 0), "momentum"),
    ])
    def test_constructor_rejects_malformed_input(self, n, configs, amps, momenta,
                                                 match):
        with pytest.raises(ValueError, match=match):
            RepetitionState(n, np.array(configs), amps, momenta)

    def test_duplicate_rows_add(self):
        state = RepetitionState(
            3, [[1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 1]],
            [0.5, 0.25, 0.5j, 0.3, -0.3], (0, 0, 0))
        # rows come out sorted; rows whose amplitudes cancel are dropped
        np.testing.assert_array_equal(state.configs, [[0, 0, 0], [1, 0, 0]])
        np.testing.assert_array_equal(state.amps, [0.25, 0.5 + 0.5j])


class TestScatteringChannel:
    def test_identity_channel_preserves_state_on_every_branch(self):
        table = toy_amplitude_table(0.0, 0.0, MomentumGrid(2))
        st = encode_repetition(0.6, 0.8, 3)
        for b in apply_scattering_error(st, 0, table, "phi1", 1):
            if b.weight == 0:
                continue
            assert logical_overlap(b.state, 0.6, 0.8) == pytest.approx(1.0)

    def test_forward_branch_expansion(self):
        table = toy_amplitude_table(0.2, 0.0, MomentumGrid(0))
        st = encode_repetition(1.0, 0.0, 3)
        (branch,) = apply_scattering_error(st, 0, table, "phi1", 0)
        psi = dense_psi(branch.state)
        assert psi[0] == pytest.approx(0.99)       # |+++>
        assert psi[4] == pytest.approx(-0.01)      # |-++>
        assert branch.env_momentum == 0

    def test_branch_weights_bounded_by_one(self):
        table = toy_amplitude_table(0.4, 0.2, MomentumGrid(2))
        st = encode_repetition(0.6, 0.8, 3)
        total = sum(b.weight
                    for b in apply_scattering_error(st, 1, table, "phi1", 0))
        assert total <= 1.0 + 1e-9

    def test_post_boost_state_matches_branch_algebra(self):
        table = toy_amplitude_table(0.3, 0.0, MomentumGrid(1))
        st = encode_repetition(0.6, 0.8, 3)
        branches = apply_scattering_error(st, 0, table, "phi1", 0)
        a1, a2 = alpha_decomposition(table, "phi1", 0, 0)
        kp, post, _ = momentum_project_and_boost(branches, 0, outcome=0)
        expect = np.zeros(8, dtype=complex)
        expect[0] = a1 * 0.6   # |+++>
        expect[7] = a1 * 0.8   # |--->
        expect[4] = a2 * 0.6   # |-++>
        expect[3] = a2 * 0.8   # |+-->
        expect /= np.linalg.norm(expect)
        np.testing.assert_allclose(dense_psi(post), expect, atol=1e-12)
        assert post.momenta == (0, 0, 0)

    def test_branch_probabilities_normalized(self):
        table = toy_amplitude_table(0.3, 0.1, MomentumGrid(2))
        st = encode_repetition(0.6, 0.8, 5)
        branches = apply_scattering_error(st, 2, table, "phi2", 1)
        probs = [momentum_project_and_boost(branches, 2, outcome=b.k_out)[2]
                 for b in branches]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_branch_rejected(self):
        table = toy_amplitude_table(0.0, 0.0, MomentumGrid(1))
        st = encode_repetition(1.0, 0.0, 3)
        branches = apply_scattering_error(st, 0, table, "phi1", 0)
        with pytest.raises(ValueError):
            momentum_project_and_boost(branches, 0, outcome=1)


class TestSyndromeAndDecode:
    def test_clean_state_trivial_syndrome(self):
        st = encode_repetition(0.6, 0.8, 3)
        outcomes = syndrome_outcomes(st)
        assert len(outcomes) == 1
        syn, p, _ = outcomes[0]
        assert syn.pattern == (1, 1)
        assert p == pytest.approx(1.0)

    def test_single_flip_patterns(self):
        st = encode_repetition(0.6, 0.8, 3)
        expected = {0: (-1, 1), 1: (-1, -1), 2: (1, -1)}
        for particle, pattern in expected.items():
            ((syn, p, _),) = syndrome_outcomes(flip(st, particle))
            assert syn.pattern == pattern

    def test_decode_restores_single_flip(self):
        st = encode_repetition(0.6, 0.8, 3)
        for particle in range(3):
            ((syn, _, coll),) = syndrome_outcomes(flip(st, particle))
            dec = decode_phase_flip(coll, syn)
            assert logical_overlap(dec, 0.6, 0.8) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_two_flips_cause_logical_exchange(self):
        st = encode_repetition(0.6, 0.8, 3)
        ((syn, _, coll),) = syndrome_outcomes(flip(st, 0, 1))
        dec = decode_phase_flip(coll, syn)
        assert logical_overlap(dec, 0.8, 0.6) == pytest.approx(1.0, abs=1e-12)

    def test_measure_syndrome_collapses(self):
        table = toy_amplitude_table(0.4, 0.0, MomentumGrid(0))
        st = encode_repetition(0.6, 0.8, 3)
        branches = apply_scattering_error(st, 1, table, "phi1", 0)
        _, post, _ = momentum_project_and_boost(branches, 1, outcome=0)
        syn, coll = measure_syndrome(post, rng=np.random.default_rng(0))
        assert len(syn.pattern) == 2
        assert coll.norm() == pytest.approx(1.0, abs=1e-12)

    def test_single_particle_has_one_empty_outcome(self):
        st = encode_repetition(0.6, 0.8, 1)
        ((syn, p, coll),) = syndrome_outcomes(st)
        assert syn.pattern == ()
        assert p == pytest.approx(1.0)
        assert decode_phase_flip(coll, syn).logical_amplitudes() == (0.6, 0.8)

    def test_syndrome_requires_common_momentum(self):
        st = encode_repetition(0.6, 0.8, 3)
        mixed = RepetitionState(3, st.configs, st.amps, (0, 1, 0))
        with pytest.raises(ValueError):
            syndrome_outcomes(mixed)


class TestEndToEnd:
    @pytest.mark.parametrize("n", [3, 5, 101])
    def test_every_branch_every_particle_recovers(self, n):
        table = toy_amplitude_table(0.3, 0.2, MomentumGrid(1))
        st = encode_repetition(0.6, 0.8, n)
        for s in ("phi1", "phi2"):
            for particle in range(n):
                branches = apply_scattering_error(st, particle, table, s, 0)
                for b in branches:
                    _, post, _ = momentum_project_and_boost(
                        branches, particle, outcome=b.k_out)
                    for syn, _, coll in syndrome_outcomes(post):
                        dec = decode_phase_flip(coll, syn)
                        assert logical_overlap(dec, 0.6, 0.8) == pytest.approx(
                            1.0, abs=1e-12)

    def test_recovery_cycle_at_n_1001_is_small(self):
        table = toy_amplitude_table(0.3, 0.2, MomentumGrid(1))
        st = encode_repetition(0.6, 0.8, 1001)
        tracemalloc.start()
        try:
            # on this k' = 1 branch both syndromes have probability 1/2; seed 2
            # draws the one that fires the two checks beside particle 500
            _, syn, dec = recovery_cycle(st, 500, table, "phi2", 0, branch_outcome=1,
                                         rng=np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert [i for i, c in enumerate(syn.pattern) if c == -1] == [499, 500]
        assert logical_overlap(dec, 0.6, 0.8) == pytest.approx(1.0, abs=1e-12)

    def test_recovery_cycle_wrapper(self):
        table = toy_amplitude_table(0.3, 0.2, MomentumGrid(1))
        st = encode_repetition(INV_SQRT2, INV_SQRT2, 3)
        kp, syn, dec = recovery_cycle(st, 0, table, "phi1", 0,
                                      rng=np.random.default_rng(5))
        assert logical_overlap(dec, INV_SQRT2, INV_SQRT2) == pytest.approx(
            1.0, abs=1e-12)


class TestDenseOracle:
    """The configuration-list cycle against the dense 2^n code in helpers."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cycle_matches_dense_oracle(self, data):
        n = data.draw(st.sampled_from([1, 3, 5, 7, 9, 11]), label="n")
        theta = data.draw(st.floats(0.0, math.pi / 2), label="theta")
        phase = data.draw(st.floats(0.0, 2 * math.pi), label="phase")
        c_plus, c_minus = math.cos(theta), complex(np.exp(1j * phase) * math.sin(theta))
        grid = MomentumGrid(data.draw(st.integers(0, 2), label="k_max"))
        couplings = data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                              label="couplings")
        table = toy_amplitude_table(*couplings, grid,
                                    data.draw(st.floats(0.1, 0.9), label="tail"))
        state = encode_repetition(c_plus, c_minus, n)
        psi = np.zeros(2 ** n, dtype=complex)
        psi[0], psi[-1] = c_plus, c_minus
        dense = helpers.DenseRepetitionState(n, psi, (0,) * n)
        np.testing.assert_array_equal(dense_psi(state), psi)

        for _ in range(data.draw(st.integers(1, 2), label="errors")):
            s = data.draw(st.sampled_from(qcdcode.SPECIES), label="species")
            particle = data.draw(st.integers(0, n - 1), label="particle")
            k = data.draw(st.integers(-grid.k_max, grid.k_max), label="k")
            branches = apply_scattering_error(state, particle, table, s, k)
            want = helpers.scattering_branches(dense, particle, table, s, k)
            assert [b.k_out for b in branches] == [kp for kp, _, _ in want]
            weights = np.array([w for _, w, _ in want])
            np.testing.assert_allclose([b.weight for b in branches], weights,
                                       rtol=0, atol=1e-12)
            probs = weights / weights.sum()
            i = data.draw(st.sampled_from(np.flatnonzero(probs > 1e-9).tolist()),
                          label="branch")
            kp, state, prob = momentum_project_and_boost(branches, particle,
                                                         outcome=want[i][0])
            assert prob == pytest.approx(probs[i], abs=1e-12)
            momenta = list(want[i][2].momenta)
            momenta[particle] = 0
            dense = helpers.DenseRepetitionState(n, want[i][2].psi, momenta).normalized()
            np.testing.assert_allclose(dense_psi(state), dense.psi, rtol=0, atol=1e-12)
            assert state.momenta == dense.momenta

        outcomes = syndrome_outcomes(state)
        want = helpers.syndrome_outcomes(dense)
        assert [syn for syn, _, _ in outcomes] == [syn for syn, _, _ in want]
        probs = np.array([p for _, p, _ in want])
        np.testing.assert_allclose([p for _, p, _ in outcomes], probs, rtol=0, atol=1e-12)
        for (syn, _, post), (_, _, dense_post) in zip(outcomes, want):
            np.testing.assert_allclose(dense_psi(post), dense_post.psi,
                                       rtol=0, atol=1e-12)
            dec = decode_phase_flip(post, syn)
            dense_dec = helpers.decode_phase_flip(dense_post, syn)
            np.testing.assert_allclose(dense_psi(dec), dense_dec.psi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dec.logical_amplitudes(),
                                       dense_dec.logical_amplitudes(), rtol=0, atol=1e-12)
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        pick = np.random.default_rng(seed).choice(len(want), p=probs / probs.sum())
        syn, _ = measure_syndrome(state, rng=np.random.default_rng(seed))
        assert syn == want[pick][0]


class TestMonteCarlo:
    def test_binomial_tail_values(self):
        assert binomial_tail(3, 0.1) == pytest.approx(0.028, abs=1e-12)
        assert binomial_tail(5, 0.05) == pytest.approx(1.1581e-3, rel=1e-3)

    def test_estimate_matches_tail(self):
        est, se = logical_error_rate(3, 0.1, 40000, seed=99)
        assert abs(est - binomial_tail(3, 0.1)) < 3 * se + 1e-12

    def test_n_equals_one_is_unprotected(self):
        est, se = logical_error_rate(1, 0.3, 40000, seed=7)
        assert abs(est - 0.3) < 4 * se

    def test_seeds_above_2_63_are_distinct(self):
        # a list key [seed, block] went through float64 above 2**63, so these
        # three seeds all gave 0.207; 2**64 - 1 warned on the cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = [logical_error_rate(3, 0.3, 2000, seed=s)[0]
                    for s in (2 ** 63 + 5, 2 ** 63 + 6, 2 ** 63 + 1000, 2 ** 64 - 1)]
        assert len(set(ests)) == len(ests)

    def test_seeds_below_2_63_unchanged(self):
        assert logical_error_rate(7, 0.2, 5000, seed=1) == (0.0306, 0.002435719195638118)
        assert logical_error_rate(3, 0.3, 2000, seed=2 ** 63 - 1)[0] == 0.2085

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            logical_error_rate(4, 0.1, 10, seed=0)
        with pytest.raises(ValueError):
            logical_error_rate(3, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            logical_error_rate(3, 0.1, 0, seed=0)


def decode_failure_oracle(flips):
    """Per-pattern syndrome + majority decode, one flip pattern at a time."""
    n = flips.shape[0]
    signs = 1 - 2 * flips.astype(int)
    syndrome = signs[:-1] * signs[1:]
    chain = np.empty(n, dtype=int)
    chain[0] = 1
    np.cumprod(syndrome, out=chain[1:])
    minus = chain == -1
    correction = minus if int(minus.sum()) <= n // 2 else ~minus
    residual = flips ^ correction
    return bool(residual.all())


def oracle_failures(flips):
    """decode_failure_oracle on each distinct row, spread back to every row."""
    patterns, inverse = np.unique(flips, axis=0, return_inverse=True)
    per_pattern = np.array([decode_failure_oracle(row) for row in patterns],
                           dtype=bool)
    return per_pattern[inverse.reshape(-1)]


def odd(lo, hi):
    return st.integers(lo // 2, hi // 2).map(lambda k: 2 * k + 1)


@st.composite
def flip_blocks(draw):
    """Small blocks cell by cell; tall (n <= 7) and wide (n > 7) blocks of
    up to BLOCK_BITS cells from a seeded generator; in C or Fortran order,
    as a strided slice, with negative strides or as a .T.T view."""
    kind = draw(st.sampled_from(["small", "tall", "wide"]))
    if kind == "small":
        flips = draw(arrays(np.bool_, (draw(st.integers(1, 40)), draw(odd(1, 41)))))
    else:
        n = draw(odd(1, 7) if kind == "tall" else odd(9, qcdcode.BLOCK_BITS + 1))
        rows = draw(st.integers(1, qcdcode._block_rows(n)))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        flips = rng.random((rows, n)) < draw(st.sampled_from([0.05, 0.5, 0.95]))
    layout = draw(st.sampled_from(["c", "fortran", "slice", "reversed", "tt"]))
    if layout == "fortran":
        return np.asfortranarray(flips)
    if layout == "slice":
        rows, n = flips.shape
        base = np.zeros((2 * rows, 2 * n + 1), dtype=bool)
        base[::2, 1::2] = flips
        return base[::2, 1::2]
    if layout == "reversed":
        return flips[::-1, ::-1].copy()[::-1, ::-1]
    if layout == "tt":
        return flips.T.T
    return flips


class TestBlockDecoder:
    @settings(max_examples=200, deadline=None)
    @given(flip_blocks())
    def test_matches_per_pattern_oracle(self, flips):
        got = qcdcode._decode_failures(flips)
        assert got.tolist() == oracle_failures(flips).tolist()

    @settings(max_examples=200, deadline=None)
    @given(flip_blocks())
    def test_matches_majority_closed_form(self, flips):
        n = flips.shape[1]
        got = qcdcode._decode_failures(flips)
        assert np.array_equal(got, flips.sum(axis=1) > n // 2)


def float_flip_oracle(seed, block, rows, n, p):
    """The float64 draw random((rows, n)) < p on the block's Philox stream."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((rows, n)) < p


_SEEDS = st.one_of(st.integers(0, 2 ** 20), st.integers(2 ** 63, 2 ** 64 - 1))
_EDGE_P = st.sampled_from([5e-324, float(np.nextafter(0.1, 1.0)), 1.0 - 2.0 ** -53])


@st.composite
def block_shapes(draw):
    """(rows, n): n up to BLOCK_BITS + 1, full, one-row or partial blocks."""
    n = draw(st.one_of(st.integers(1, 9), st.integers(1, qcdcode.BLOCK_BITS + 1)))
    full = qcdcode._block_rows(n)
    return draw(st.sampled_from([full, 1]) | st.integers(1, full)), n


class TestFlipDraw:
    @settings(max_examples=150, deadline=None)
    @given(seed=_SEEDS, block=st.integers(0, 2 ** 20), shape=block_shapes(),
           p=_EDGE_P | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_matches_float_draw(self, seed, block, shape, p):
        rows, n = shape
        got = qcdcode._block_flips(seed, block, rows, n, p)
        assert got.dtype == np.bool_ and got.shape == (rows, n)
        assert np.array_equal(got, float_flip_oracle(seed, block, rows, n, p))

    @settings(max_examples=100, deadline=None)
    @given(seed=_SEEDS, shape=block_shapes(), data=st.data())
    def test_threshold_at_a_drawn_value(self, seed, shape, data):
        # p equal to one of the block's own uniforms, or the next double up,
        # puts that draw on the threshold.  A raw word whose low 11 bits are
        # zero then equals the integer threshold itself, so such words are
        # picked when the block has any.
        rows, n = shape
        key = np.array([seed, 0], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(rows * n)
        exact = np.flatnonzero(np.random.Philox(key=key).random_raw(rows * n) % 2048 == 0)
        k = data.draw(st.sampled_from(exact.tolist()) if exact.size
                      else st.integers(0, rows * n - 1))
        p = float(u[k]) if data.draw(st.booleans()) else float(np.nextafter(u[k], 1.0))
        if not 0.0 < p < 1.0:
            return
        got = qcdcode._block_flips(seed, 0, rows, n, p)
        assert np.array_equal(got.ravel(), u < p)


class TestBlockBoundaries:
    @staticmethod
    def estimate(n, p, trials, seed):
        return logical_error_rate(n, p, trials, seed=seed)

    def test_partial_last_block(self):
        n = 5
        rows = qcdcode._block_rows(n)
        trials = 2 * rows + 17
        est, _ = self.estimate(n, 0.2, trials, seed=11)
        failures = sum(
            int(qcdcode._decode_failures(
                qcdcode._block_flips(11, b, min(rows, trials - b * rows),
                                     n, 0.2)).sum())
            for b in range(3))
        assert est == failures / trials

    def test_more_workers_than_blocks(self):
        n = 3
        assert 100 < qcdcode._block_rows(n)
        est, _ = self.estimate(n, 0.3, 100, seed=5)
        assert est == qcdcode._decode_failures(
            qcdcode._block_flips(5, 0, 100, n, 0.3)).sum() / 100

    def test_one_trial_per_block(self):
        n = qcdcode.BLOCK_BITS + 1
        assert qcdcode._block_rows(n) == 1
        est, _ = self.estimate(n, 0.5, 5, seed=2)
        want = sum(int(qcdcode._block_flips(2, b, 1, n, 0.5).sum() > n // 2)
                   for b in range(5))
        assert est == want / 5

    @pytest.mark.parametrize("k", [1, 17, 1000])
    def test_leading_trials_independent_of_trial_count(self, k):
        n, p, seed = 7, 0.3, 21
        full = qcdcode._block_flips(seed, 0, qcdcode._block_rows(n), n, p)
        assert np.array_equal(qcdcode._block_flips(seed, 0, k, n, p), full[:k])
        est, _ = logical_error_rate(n, p, k, seed=seed)
        assert est == qcdcode._decode_failures(full[:k]).sum() / k
