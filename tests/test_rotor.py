"""Truncated rotor: codewords, recovery protocol, invariant simulation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssrqec.hilbert import (Operator, ProductSpace, apply, basis_state,
                            identity, inner, tensor_product)
from ssrqec.rotor import (ChargeState, GroupDiscretization, RotorSpace,
                          apply_phase_flip, build_codeword,
                          enumerate_recovery, logical_fidelity, m_inv,
                          prepare_simulated_superposition,
                          wrong_guess_error_probability)

import helpers
from helpers import (charge_operator, charge_state, from_dense, phase_flip,
                     phase_state, recover_by_measuring_B, shift_up,
                     total_charge_operator)

INV_SQRT2 = 1 / np.sqrt(2)


def superpose(space, charges, profile, window):
    q1, q2 = charges
    w1 = build_codeword(space, space, q1, profile, window)
    w2 = build_codeword(space, space, q2, profile, window)
    return w1.combine(INV_SQRT2, w2, INV_SQRT2)


def assert_recovery_matches_dense(psi, charges):
    """Outcomes and probabilities equal the dense oracle's bitwise; the dense
    oracle sums each outcome's norm pairwise over the spectators, so the
    logical pair agrees to rounding, not bitwise."""
    outcomes, probs, alphas, betas = enumerate_recovery(psi, charges)
    want = list(helpers.enumerate_recovery(psi.dense(), charges))
    assert outcomes.tolist() == [w.outcome for w in want]
    assert probs.tolist() == [w.probability for w in want]
    assert np.all(np.abs(alphas - np.array([w.alpha for w in want], complex)) < 1e-15)
    assert np.all(np.abs(betas - np.array([w.beta for w in want], complex)) < 1e-15)


class TestChargeBasis:
    def test_charge_zero_is_center_index(self):
        space = RotorSpace(2)
        np.testing.assert_allclose(charge_state(space, 0).amplitudes,
                                   np.eye(5)[2])

    def test_orthonormality(self):
        space = RotorSpace(2)
        for q, qp in itertools.product(range(-2, 3), repeat=2):
            val = inner(charge_state(space, q), charge_state(space, qp))
            assert val == (1.0 if q == qp else 0.0)

    def test_charge_operator_eigenrelation(self):
        space = RotorSpace(3)
        q_op = charge_operator(space)
        for q in range(-3, 4):
            out = apply(q_op, charge_state(space, q))
            np.testing.assert_allclose(
                out.amplitudes, q * charge_state(space, q).amplitudes)

    def test_out_of_range_charge_rejected(self):
        with pytest.raises(ValueError):
            charge_state(RotorSpace(2), 3)


class TestShiftUp:
    def test_raises_charge_by_one(self):
        space = RotorSpace(2)
        out = apply(shift_up(space), charge_state(space, 0))
        np.testing.assert_allclose(out.amplitudes,
                                   charge_state(space, 1).amplitudes)

    def test_top_charge_annihilated(self):
        space = RotorSpace(2)
        out = apply(shift_up(space), charge_state(space, 2))
        assert out.norm() == 0.0


class TestPhaseFlip:
    def test_flips_target_charge_only(self):
        space = RotorSpace(2)
        z = phase_flip(space, 1)
        out = apply(z, charge_state(space, 1))
        np.testing.assert_allclose(out.amplitudes,
                                   -charge_state(space, 1).amplitudes)
        out2 = apply(z, charge_state(space, -1))
        np.testing.assert_allclose(out2.amplitudes,
                                   charge_state(space, -1).amplitudes)

    def test_involution(self):
        space = RotorSpace(3)
        z = phase_flip(space, -2)
        np.testing.assert_allclose((z @ z).dense(), np.eye(space.dim))


class TestBuildCodeword:
    def test_window_zero_is_product_state(self):
        space = RotorSpace(2)
        psi = build_codeword(space, space, 0, "uniform", 0)
        expect = tensor_product(charge_state(space, 0), charge_state(space, 0))
        np.testing.assert_allclose(psi.dense().amplitudes, expect.amplitudes)
        assert psi.charges.tolist() == [[0, 0]]
        assert psi.amplitudes[0] == pytest.approx(1.0)

    def test_uniform_window_one_expansion(self):
        space = RotorSpace(3)
        psi = build_codeword(space, space, 1, "uniform", 1)
        expect = np.zeros(space.dim ** 2, dtype=complex)
        for qa, qb in ((2, -1), (1, 0), (0, 1)):
            expect[space.index(qa) * space.dim + space.index(qb)] = INV_SQRT2 * np.sqrt(2 / 3)
        np.testing.assert_allclose(psi.dense().amplitudes, expect, atol=1e-12)

    def test_total_charge_eigenstate(self):
        space = RotorSpace(4)
        for q in (-1, 0, 2):
            psi = build_codeword(space, space, q, "gaussian", 2)
            q_tot = total_charge_operator(space, 2)
            out = apply(q_tot, psi.dense())
            np.testing.assert_allclose(out.amplitudes, q * psi.dense().amplitudes,
                                       atol=1e-12)

    def test_window_overflow_rejected(self):
        space = RotorSpace(2)
        with pytest.raises(ValueError):
            build_codeword(space, space, 2, "uniform", 1)


class TestRecovery:
    @pytest.mark.parametrize("window", [1, 2, 4])
    @pytest.mark.parametrize("profile", ["uniform", "gaussian"])
    def test_no_error_every_outcome_faithful(self, window, profile):
        space = RotorSpace(6)
        psi = superpose(space, (0, 1), profile, window)
        _, _, alphas, betas = enumerate_recovery(psi, (0, 1))
        fids = logical_fidelity(alphas, betas, INV_SQRT2, INV_SQRT2)
        assert fids.tolist() == pytest.approx([1.0] * len(alphas), abs=1e-10)

    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_b_side_flips_every_outcome_faithful(self, window):
        space = RotorSpace(6)
        psi = superpose(space, (0, 1), "gaussian", window)
        ident_a = identity(space.product_space())
        for charges in itertools.combinations(range(-3, 4), 2):
            err = ident_a
            z = phase_flip(space, charges[0]) @ phase_flip(space, charges[1])
            corrupted = apply(tensor_product(ident_a, z), psi.dense())
            _, _, alphas, betas = enumerate_recovery(from_dense(corrupted), (0, 1))
            fids = logical_fidelity(alphas, betas, INV_SQRT2, INV_SQRT2)
            assert fids.tolist() == pytest.approx([1.0] * len(alphas), abs=1e-10)

    def test_probabilities_sum_to_one(self):
        space = RotorSpace(5)
        psi = superpose(space, (0, 1), "uniform", 2)
        total = sum(enumerate_recovery(psi, (0, 1))[1].tolist())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_outcome_selection(self):
        space = RotorSpace(5)
        psi = superpose(space, (0, 1), "uniform", 2)
        outcome, probability, _, _ = recover_by_measuring_B(psi, (0, 1), outcome=1)
        assert outcome == 1 and probability == pytest.approx(1 / 5)

    def test_impossible_outcome_rejected(self):
        space = RotorSpace(5)
        psi = superpose(space, (0, 1), "uniform", 1)
        with pytest.raises(ValueError):
            recover_by_measuring_B(psi, (0, 1), outcome=4)

    def test_sampled_outcome_reproducible(self):
        space = RotorSpace(5)
        psi = superpose(space, (0, 1), "uniform", 2)
        a = recover_by_measuring_B(psi, (0, 1), rng=np.random.default_rng(1))
        b = recover_by_measuring_B(psi, (0, 1), rng=np.random.default_rng(1))
        assert a[0] == b[0]

    def test_fidelity_of_arrays_is_the_scalar_formula_bitwise(self):
        rng = np.random.default_rng(7)
        alphas, betas = (rng.normal(size=(4000, 2)) @ [1, 1j] for _ in range(2))
        got = logical_fidelity(alphas, betas, 0.6, 0.8j).tolist()
        want = [float(abs(np.conj(0.6) * a + np.conj(0.8j) * b) ** 2)
                for a, b in zip(alphas, betas)]
        assert got == want


class TestWrongGuessBound:
    def test_uniform_profile_error_bound(self):
        space = RotorSpace(10)
        for window in (1, 2, 4, 8):
            p_err = wrong_guess_error_probability(space, space, (0, 1), 0,
                                                  "uniform", window)
            assert p_err <= 2.0 / (2 * window + 1) + 1e-12

    def test_monotone_nonincreasing_in_window(self):
        space = RotorSpace(10)
        probs = [wrong_guess_error_probability(space, space, (0, 1), 0,
                                               "uniform", w)
                 for w in (1, 2, 4, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


class TestMInv:
    def setup_method(self):
        self.space = RotorSpace(2)
        self.d = self.space.dim
        self.disc = GroupDiscretization(self.d)

    def random_op(self, rng):
        m = rng.normal(size=(self.d, self.d)) + 1j * rng.normal(
            size=(self.d, self.d))
        return Operator(self.space.product_space(), m)

    def random_density(self, rng):
        a = rng.normal(size=(self.d, self.d)) + 1j * rng.normal(
            size=(self.d, self.d))
        rho = a @ a.conj().T
        return rho / np.trace(rho)

    def charge_diagonal_density(self, rng):
        w = rng.random(self.d)
        return np.diag(w / w.sum()).astype(complex)

    def test_trace_property_sector_respecting_states(self):
        # the invariant holds exactly for system states diagonal in charge
        # (SSR-respecting); the reference register state is unrestricted
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = self.random_op(rng)
            rho_r = self.random_density(rng)
            rho_s = self.charge_diagonal_density(rng)
            lhs = np.trace(m_inv(m, self.disc).dense() @ np.kron(rho_r, rho_s))
            rhs = np.trace(m.dense() @ rho_s)
            assert abs(lhs - rhs) < 1e-9

    def test_homomorphism(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m1, m2 = self.random_op(rng), self.random_op(rng)
            lhs = (m_inv(m1, self.disc) @ m_inv(m2, self.disc)).dense()
            rhs = m_inv(m1 @ m2, self.disc).dense()
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_shift_example(self):
        # M = U+ acting on |0>_R |0>_S lands on |-1>_R |1>_S
        out = apply(m_inv(shift_up(self.space), self.disc),
                    tensor_product(charge_state(self.space, 0),
                                   charge_state(self.space, 0)))
        expect = tensor_product(charge_state(self.space, -1),
                                charge_state(self.space, 1))
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes,
                                   atol=1e-12)

    def test_trace_property_exact_for_larger_n_g(self):
        rng = np.random.default_rng(44)
        m = self.random_op(rng)
        rho_r = self.random_density(rng)
        rho_s = self.charge_diagonal_density(rng)
        rhs = np.trace(m.dense() @ rho_s)
        for n_g in (self.d, self.d + 3, 2 * self.d):
            disc = GroupDiscretization(n_g)
            lhs = np.trace(m_inv(m, disc).dense() @ np.kron(rho_r, rho_s))
            assert abs(lhs - rhs) < 1e-12

    def test_small_n_g_rejected(self):
        rng = np.random.default_rng(45)
        with pytest.raises(ValueError):
            m_inv(self.random_op(rng), GroupDiscretization(self.d - 1))

    def test_phase_states_orthonormal_at_matching_n_g(self):
        states = [phase_state(self.space, self.disc, m) for m in range(self.d)]
        g = np.array([[inner(a, b) for b in states] for a in states])
        np.testing.assert_allclose(g, np.eye(self.d), atol=1e-12)


def m_inv_group_average(m: np.ndarray, n_g: int) -> np.ndarray:
    """Reference M^inv: the explicit sum over the n_g phase points."""
    d = m.shape[0]
    qs = np.arange(d) - (d - 1) // 2
    out = np.zeros((d * d, d * d), dtype=complex)
    for mm in range(n_g):
        u = np.exp(-2j * np.pi * qs * mm / n_g)
        out += np.kron(np.outer(u, u.conj()) / n_g, (u[:, None] * m) * u.conj())
    return out


def m_inv_charge_mask(m: np.ndarray, n_g: int) -> np.ndarray:
    """Reference M^inv: a charge-conservation mask on ones (x) M."""
    d = m.shape[0]
    qs = np.arange(d) - (d - 1) // 2
    tot = (qs[:, None] + qs[None, :]).reshape(-1)  # q_r + q_s at index r*d + s
    mask = (tot[:, None] - tot[None, :]) % n_g == 0
    return np.where(mask, np.tile(m, (d, d)), 0)


class TestClosedForms:
    @settings(max_examples=60, deadline=None)
    @given(q_max=st.integers(1, 4), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_m_inv_matches_group_average(self, q_max, data, seed):
        d = 2 * q_max + 1
        n_g = data.draw(st.integers(d, 3 * d + 2), label="n_g")
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        space = RotorSpace(q_max)
        out = m_inv(Operator(space.product_space(), m), GroupDiscretization(n_g))
        assert out.space == ProductSpace((d, d), ("R", "S"))
        np.testing.assert_allclose(out.dense(), m_inv_group_average(m, n_g),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(q_max=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_m_inv_blocks_bitwise_equal_charge_mask(self, q_max, data, seed):
        # n_g up to 3d + 2 covers classes that wrap around mod n_g
        d = 2 * q_max + 1
        n_g = data.draw(st.integers(d, 3 * d + 2), label="n_g")
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out = m_inv(Operator(RotorSpace(q_max).product_space(), m),
                    GroupDiscretization(n_g)).dense()
        want = m_inv_charge_mask(m, n_g)
        assert out.dtype == want.dtype
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_total_charge_matches_kronecker_sum(self, n):
        space = RotorSpace(2)
        q, ident = charge_operator(space), identity(space.product_space())
        expect = None
        for pos in range(n):
            term = q if pos == 0 else ident
            for j in range(1, n):
                term = tensor_product(term, q if j == pos else ident)
            expect = term if expect is None else expect + term
        out = total_charge_operator(space, n)
        assert out.space == expect.space
        np.testing.assert_array_equal(out.dense(), expect.dense())

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_phase_flip_slice_matches_dense_operator(self, side):
        space = RotorSpace(3)
        psi = superpose(space, (0, 1), "gaussian", 2)
        ident = identity(space.product_space())
        for q in (-1, 0, 2):
            z = phase_flip(space, q)
            op = tensor_product(z, ident) if side == "A" else tensor_product(ident, z)
            np.testing.assert_array_equal(apply_phase_flip(psi, q, side).dense().amplitudes,
                                          apply(op, psi.dense()).amplitudes)

    def test_phase_flip_rejects_bad_side_and_charge(self):
        space = RotorSpace(2)
        psi = superpose(space, (0, 1), "uniform", 1)
        with pytest.raises(ValueError):
            apply_phase_flip(psi, 0, "C")
        with pytest.raises(ValueError):
            apply_phase_flip(psi, 3, "A")


class TestSimulatedSuperposition:
    def test_single_charge_window_zero(self):
        space = RotorSpace(3)
        psi = prepare_simulated_superposition({2: 1.0}, space, "uniform", 0)
        d = space.dim
        expect = np.zeros(d ** 3, dtype=complex)
        ir, ia, ib = space.index(-2), space.index(2), space.index(0)
        expect[(ir * d + ia) * d + ib] = 1.0
        np.testing.assert_allclose(psi.dense().amplitudes, expect)

    def test_total_charge_zero(self):
        space = RotorSpace(4)
        alphas = {0: INV_SQRT2, 1: INV_SQRT2}
        psi = prepare_simulated_superposition(alphas, space, "gaussian", 2)
        out = apply(total_charge_operator(space, 3), psi.dense())
        assert out.norm() < 1e-12

    def test_recovery_rides_along_with_reference(self):
        # B-only phase flips on the simulated R (x) A (x) B state still
        # recover the logical pair on every outcome
        space = RotorSpace(4)
        alphas = {0: 0.6, 1: 0.8}
        psi = prepare_simulated_superposition(alphas, space, "uniform", 2)
        ident = identity(space.product_space())
        err = tensor_product(tensor_product(ident, ident),
                             phase_flip(space, 1) @ phase_flip(space, -2))
        corrupted = apply(err, psi.dense())
        outcomes, _, alphas, betas = enumerate_recovery(from_dense(corrupted), (0, 1))
        assert len(outcomes)
        fids = logical_fidelity(alphas, betas, 0.6, 0.8)
        assert fids.tolist() == pytest.approx([1.0] * len(outcomes), abs=1e-10)

    def test_unnormalized_alphas_rejected(self):
        with pytest.raises(ValueError):
            prepare_simulated_superposition({0: 1.0, 1: 1.0}, RotorSpace(3))


class TestChargeState:
    @settings(max_examples=60, deadline=None)
    @given(q_max_a=st.integers(1, 8), q_max_b=st.integers(1, 8), data=st.data(),
           profile=st.sampled_from(["uniform", "gaussian"]),
           sigma=st.one_of(st.none(), st.floats(0.3, 5.0)))
    def test_codeword_dense_bitwise_equals_dense_build(self, q_max_a, q_max_b, data,
                                                        profile, sigma):
        window = data.draw(st.integers(0, min(q_max_a, q_max_b)), label="window")
        q = data.draw(st.integers(window - q_max_a, q_max_a - window), label="q")
        space_a, space_b = RotorSpace(q_max_a), RotorSpace(q_max_b)
        psi = build_codeword(space_a, space_b, q, profile, window, sigma)
        want = helpers.build_codeword(space_a, space_b, q, profile, window, sigma)
        assert psi.dense().space == want.space
        assert psi.dense().amplitudes.tobytes() == want.amplitudes.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(q_max=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           profile=st.sampled_from(["uniform", "gaussian"]), complex_alphas=st.booleans())
    def test_simulated_superposition_dense_bitwise(self, q_max, data, seed, profile,
                                                   complex_alphas):
        window = data.draw(st.integers(0, q_max), label="window")
        charges = data.draw(st.lists(st.integers(window - q_max, q_max - window),
                                     min_size=1, max_size=4, unique=True), label="charges")
        rng = np.random.default_rng(seed)
        a = rng.normal(size=len(charges)) + 1j * rng.normal(size=len(charges)) * complex_alphas
        alphas = dict(zip(charges, (a / np.linalg.norm(a)).tolist()))
        space = RotorSpace(q_max)
        psi = prepare_simulated_superposition(alphas, space, profile, window)
        want = helpers.prepare_simulated_superposition(alphas, space, profile, window)
        assert psi.dense().space == want.space
        assert psi.dense().amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_combine_adds_shared_rows(self):
        space = RotorSpace(4)
        w0 = build_codeword(space, space, 0, "gaussian", 2)
        w1 = build_codeword(space, space, 1, "uniform", 3)
        shared = build_codeword(space, space, 0, "uniform", 1)
        psi = w0.combine(0.6, w1, -0.8j).combine(1.0, shared, 0.25)
        d0, d1, ds = w0.dense(), w1.dense(), shared.dense()
        want = 1.0 * (0.6 * d0.amplitudes + -0.8j * d1.amplitudes) + 0.25 * ds.amplitudes
        assert len(psi.amplitudes) == 5 + 7  # the window-1 rows all lie in w0's
        np.testing.assert_array_equal(psi.dense().amplitudes, want)
        with pytest.raises(ValueError):
            w0.combine(1.0, build_codeword(space, RotorSpace(3), 0, "uniform", 1), 1.0)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_phase_flip_matches_dense_slice_negation(self, side):
        space = RotorSpace(5)
        psi = superpose(space, (-1, 2), "gaussian", 3)
        for q in (-4, -1, 0, 3, 5):
            np.testing.assert_array_equal(
                apply_phase_flip(psi, q, side).dense().amplitudes,
                helpers.apply_phase_flip(psi.dense(), q, side).amplitudes)

    def test_recovery_with_reference_matches_dense(self):
        # spectator register R: the dense oracle sums each outcome's norm
        # pairwise over R, so agreement is to rounding, not bitwise
        space = RotorSpace(4)
        psi = prepare_simulated_superposition({0: 0.6, 1: 0.8j}, space, "gaussian", 2)
        for q in (1, -2):
            psi = apply_phase_flip(psi, q, "B")
        psi = apply_phase_flip(psi, 0, "A")
        assert_recovery_matches_dense(psi, (0, 1))

    @settings(max_examples=80, deadline=None)
    @given(q_max=st.integers(1, 3), c=st.floats(0.05, 20.0), data=st.data())
    def test_recovery_tie_breaking_matches_dense(self, q_max, c, data):
        # amplitudes c * {1, -1, i, -i}: every entry of a branch ties in modulus,
        # so alpha and beta show which of the tied entries carries the phase
        grid = list(itertools.product(range(-q_max, q_max + 1), repeat=3))
        mask = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid))
                         .filter(any), label="mask")
        rows = data.draw(st.permutations([g for g, m in zip(grid, mask) if m]), label="rows")
        phases = data.draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=len(rows),
                                    max_size=len(rows)), label="phases")
        charges = data.draw(st.lists(st.integers(-q_max, q_max), min_size=2, max_size=2,
                                     unique=True), label="charges")
        space = RotorSpace(q_max)
        psi = ChargeState(np.array(rows), c * np.array(phases, dtype=complex),
                          (space,) * 3, ("R", "A", "B"))
        assert_recovery_matches_dense(psi, tuple(charges))

    def test_zero_state_rejected(self):
        space = RotorSpace(2)
        empty = ChargeState(np.zeros((0, 2), dtype=np.int64), np.zeros(0, complex),
                            (space, space), ("A", "B"))
        with pytest.raises(ValueError):
            enumerate_recovery(empty, (0, 1))
