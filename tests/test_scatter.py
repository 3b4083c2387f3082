"""Dirac algebra, kinematics, amplitude, and cross-section checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssrqec.scatter import (GAMMA, GRID_CHUNK_ROWS, CrossSectionResult,
                            FourMomentum, PropagatorPoleError,
                            amplitude_p_to_n, check_energies, cm_kinematics,
                            cm_momentum, dirac_u, make_amp2, sigma_tot,
                            sigma_tot_grid, spin_summed_amp2,
                            spin_summed_amp2_grid, threshold_incident_energy,
                            u_bar)

M_P, M_PHI, M_N, M_PI = 938.3, 500.0, 939.6, 139.6
MASSES = (M_P, M_PHI, M_N, M_PI)


def random_onshell(rng, m):
    p = rng.normal(size=3) * 300.0
    return FourMomentum.on_shell(m, *p)


def trace_amp2(k1, k2, k3, k4, g1, g2, lam, m_p, m_n):
    """Independent spin-sum via the trace technique.

    (1/2) sum_spins |A|^2 = (lam^2/2) Tr[(k3_slash + m_n) V (k1_slash + m_p)
    Vbar] with V the vertex-times-propagator matrix and Vbar = g0 V^dag g0.
    """
    k = k1 + k2
    den = k.dot(k) - m_p * m_p
    vertex = (-1j * g1) * (GAMMA.slash(k4) @ GAMMA.g5) - g2 * GAMMA.g5
    v = vertex @ (1j * (GAMMA.slash(k) + m_p * np.eye(4)) / den)
    vbar = GAMMA.g0 @ v.conj().T @ GAMMA.g0
    tr = np.trace((GAMMA.slash(k3) + m_n * np.eye(4)) @ v
                  @ (GAMMA.slash(k1) + m_p * np.eye(4)) @ vbar)
    return 0.5 * (lam ** 2) * tr.real


class TestGammaAlgebra:
    def test_clifford_relations(self):
        g = GAMMA.gammas()
        metric = GAMMA.metric
        for mu in range(4):
            for nu in range(4):
                anti = g[mu] @ g[nu] + g[nu] @ g[mu]
                np.testing.assert_allclose(anti, 2 * metric[mu, nu] * np.eye(4),
                                           atol=1e-12)

    def test_gamma5_squares_to_identity(self):
        np.testing.assert_allclose(GAMMA.g5 @ GAMMA.g5, np.eye(4), atol=1e-12)

    def test_gamma5_anticommutes(self):
        for g in GAMMA.gammas():
            np.testing.assert_allclose(GAMMA.g5 @ g + g @ GAMMA.g5,
                                       np.zeros((4, 4)), atol=1e-12)


class TestSpinors:
    def test_rest_frame_spin_up(self):
        m = 938.3
        u = dirac_u(FourMomentum.on_shell(m), m, +1)
        np.testing.assert_allclose(u, [math.sqrt(2 * m), 0, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("spin", [+1, -1])
    def test_normalization_ubar_u(self, spin):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = random_onshell(rng, M_P)
            u = dirac_u(p, M_P, spin)
            assert (u_bar(u) @ u).real == pytest.approx(2 * M_P, rel=1e-9)

    def test_dirac_equation_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = random_onshell(rng, M_N)
            u = dirac_u(p, M_N, -1)
            residual = (GAMMA.slash(p) - M_N * np.eye(4)) @ u
            assert np.max(np.abs(residual)) < 1e-9 * M_N

    def test_off_shell_rejected(self):
        p = FourMomentum(1000.0, 0, 0, 0)
        with pytest.raises(ValueError):
            dirac_u(p, 500.0, +1)


class TestKinematics:
    def test_threshold_momentum_zero(self):
        assert cm_momentum(M_P + M_PHI, M_P, M_PHI) == 0.0

    def test_massless_back_to_back(self):
        assert cm_momentum(10.0, 0.0, 0.0) == pytest.approx(5.0)

    def test_on_shell_closure(self):
        e_cm = 2000.0
        k = cm_momentum(e_cm, M_P, M_PHI)
        rebuilt = math.sqrt(M_P ** 2 + k ** 2) + math.sqrt(M_PHI ** 2 + k ** 2)
        assert rebuilt == pytest.approx(e_cm, abs=1e-9)

    def test_cm_kinematics_conserves_momentum(self):
        k1, k2, k3, k4 = cm_kinematics(2000.0, *MASSES, cos_theta=0.3)
        total = (k1 + k2) - (k3 + k4)
        assert np.max(np.abs(total.as_array())) < 1e-9


class TestThreshold:
    def test_reference_value(self):
        th = threshold_incident_energy(938.3, 139.6, 0.0)
        assert th.exact == pytest.approx(149.98, abs=0.01)
        assert th.exact == pytest.approx(th.approximate, abs=1e-9)

    def test_massive_scalar_lowers_exact_threshold(self):
        th = threshold_incident_energy(938.3, 139.6, 100.0)
        assert th.exact < th.approximate

    def test_chiral_limit(self):
        th = threshold_incident_energy(938.3, 1e-9, 0.0)
        assert th.exact < 1e-6


class TestAmplitude:
    def kinematic_point(self, cos_theta=0.2, e_cm=2200.0):
        return cm_kinematics(e_cm, *MASSES, cos_theta=cos_theta)

    def test_zero_couplings_zero_amplitude(self):
        ks = self.kinematic_point()
        assert amplitude_p_to_n(*ks, 0.0, 0.0, 1.0) == 0.0

    def test_linear_in_lambda(self):
        ks = self.kinematic_point()
        a1 = amplitude_p_to_n(*ks, 1.0, 0.5, 1.0)
        a2 = amplitude_p_to_n(*ks, 1.0, 0.5, 2.0)
        assert a2 == pytest.approx(2 * a1, rel=1e-12)

    def test_propagator_identity_matches_matrix_inverse(self):
        k1, k2, k3, k4 = self.kinematic_point(0.37)
        lam, g1, g2 = 1.3, 0.8, 0.4
        via_identity = amplitude_p_to_n(k1, k2, k3, k4, g1, g2, lam,
                                        m_p=M_P, m_n=M_N)
        k = k1 + k2
        inv = np.linalg.inv(GAMMA.slash(k) - M_P * np.eye(4))
        u1 = dirac_u(k1, M_P, +1)
        u3 = dirac_u(k3, M_N, +1)
        vertex = (-1j * g1) * (GAMMA.slash(k4) @ GAMMA.g5) - g2 * GAMMA.g5
        direct = (-1j * lam) * (u_bar(u3) @ vertex @ (1j * inv) @ u1)
        assert via_identity == pytest.approx(complex(direct), abs=1e-9)

    def test_nonconserving_momenta_rejected(self):
        k1, k2, k3, k4 = self.kinematic_point()
        bad = FourMomentum(k4.e + 1.0, k4.px, k4.py, k4.pz)
        with pytest.raises(ValueError):
            amplitude_p_to_n(k1, k2, k3, bad, 1.0, 1.0, 1.0)

    def test_pole_guard(self):
        # s tuned within 1 MeV^2 of m_p^2 cannot happen for physical 2->2
        # kinematics above threshold, so drive the guard directly
        m = 10.0
        k1 = FourMomentum.on_shell(m)
        k2 = FourMomentum(1e-4, 0, 0, 0)  # nearly-on-pole composite
        with pytest.raises((PropagatorPoleError, ValueError)):
            amplitude_p_to_n(k1, k2, k1, k2, 1.0, 1.0, 1.0, m_p=m, m_n=m,
                             conservation_tol=1.0)

    def test_spin_summed_nonnegative(self):
        ks = self.kinematic_point(-0.6)
        assert spin_summed_amp2(*ks, 0.9, 0.2, 1.1, m_p=M_P, m_n=M_N) >= 0.0

    def test_boost_invariance_along_z(self):
        ks = self.kinematic_point(0.45)
        base = spin_summed_amp2(*ks, 0.9, 0.2, 1.1, m_p=M_P, m_n=M_N)
        boosted = [k.boost_z(0.7) for k in ks]
        moved = spin_summed_amp2(*boosted, 0.9, 0.2, 1.1, m_p=M_P, m_n=M_N)
        assert moved == pytest.approx(base, rel=1e-8)

    def test_rotation_invariance(self):
        ks = self.kinematic_point(0.45)
        base = spin_summed_amp2(*ks, 0.9, 0.2, 1.1, m_p=M_P, m_n=M_N)
        ang = 0.83
        r = np.array([[math.cos(ang), -math.sin(ang), 0],
                      [math.sin(ang), math.cos(ang), 0],
                      [0, 0, 1.0]])
        rotated = [k.rotate(r) for k in ks]
        moved = spin_summed_amp2(*rotated, 0.9, 0.2, 1.1, m_p=M_P, m_n=M_N)
        assert moved == pytest.approx(base, rel=1e-8)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_trace_technique_oracle(self, seed):
        rng = np.random.default_rng(seed)
        e_cm = float(rng.uniform(1600.0, 2600.0))
        cos_theta = float(rng.uniform(-0.95, 0.95))
        g1, g2, lam = rng.uniform(0.1, 1.5, size=3)
        ks = cm_kinematics(e_cm, *MASSES, cos_theta=cos_theta)
        direct = spin_summed_amp2(*ks, g1, g2, lam, m_p=M_P, m_n=M_N)
        oracle = trace_amp2(*ks, g1, g2, lam, M_P, M_N)
        assert direct == pytest.approx(oracle, rel=1e-6)

    def test_trace_oracle_g2_only(self):
        ks = cm_kinematics(1900.0, *MASSES, cos_theta=0.1)
        direct = spin_summed_amp2(*ks, 0.0, 0.7, 1.0, m_p=M_P, m_n=M_N)
        oracle = trace_amp2(*ks, 0.0, 0.7, 1.0, M_P, M_N)
        assert direct == pytest.approx(oracle, rel=1e-6)


class TestCrossSection:
    LIGHT = (938.3, 1.0, 939.6, 139.6)  # initial state lighter than final

    def test_below_threshold_exactly_zero(self):
        res = sigma_tot(1000.0, self.LIGHT, lambda c: 1.0)
        assert res.sigma == 0.0
        assert not res.above_threshold

    def test_at_threshold_exactly_zero(self):
        e_th = self.LIGHT[2] + self.LIGHT[3]
        res = sigma_tot(e_th, self.LIGHT, lambda c: 1.0)
        assert res.sigma == 0.0 and not res.above_threshold

    def test_constant_amplitude_closed_form(self):
        e_cm = 2000.0
        res = sigma_tot(e_cm, self.LIGHT, lambda c: 1.0)
        k1 = cm_momentum(e_cm, *self.LIGHT[:2])
        k3 = cm_momentum(e_cm, *self.LIGHT[2:])
        closed = (k3 / k1) * 4 * math.pi / (64 * math.pi ** 2 * e_cm ** 2)
        assert res.sigma == pytest.approx(closed, rel=1e-10)

    def test_quadrature_convergence(self):
        amp2 = make_amp2(2000.0, MASSES, 0.9, 0.3, 1.0)
        s64 = sigma_tot(2000.0, MASSES, amp2, n_theta=64).sigma
        s128 = sigma_tot(2000.0, MASSES, amp2, n_theta=128).sigma
        assert abs(s128 - s64) / s64 < 1e-8

    def test_threshold_scaling_of_outgoing_momentum(self):
        # sigma tracks |k3| near threshold, so halving the distance to
        # threshold scales sigma by 1/sqrt(2) in the small-offset limit
        e_th = self.LIGHT[2] + self.LIGHT[3]
        for delta in (0.1, 0.01, 0.001):
            s1 = sigma_tot(e_th + delta, self.LIGHT, lambda c: 1.0).sigma
            s2 = sigma_tot(e_th + 2 * delta, self.LIGHT, lambda c: 1.0).sigma
            assert s1 / s2 == pytest.approx(1 / math.sqrt(2),
                                            rel=20 * delta + 1e-4)

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(ValueError):
            sigma_tot(100.0, self.LIGHT, lambda c: 1.0)

    def test_result_invariant_enforced(self):
        with pytest.raises(ValueError):
            CrossSectionResult(sigma=1.0, above_threshold=False, e_cm=900.0)

    def test_full_pipeline_positive_sigma(self):
        amp2 = make_amp2(2200.0, MASSES, 1.0, 0.5, 2.0)
        res = sigma_tot(2200.0, MASSES, amp2)
        assert res.above_threshold and res.sigma > 0.0


# Mass sets for the batched kernel: physical, a light scalar, the sweep's
# masses, then three with m2 = 0, where the s-channel pole E = m1 lies
# above threshold (two) or below it (last).
MASS_SETS = [MASSES, (938.3, 1.0, 939.6, 139.6), (938.3, 10.0, 939.6, 139.6),
             (938.3, 0.0, 1.0, 1.0), (1.0, 0.0, 1.0, 0.0),
             (938.3, 0.0, 939.6, 139.6)]
COS_THETA = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)
COUPLING = st.just(0.0) | st.floats(-2.0, 2.0).filter(lambda g: abs(g) >= 1e-3)


def scalar_amp2(e_cm, masses, cos_theta, g1, g2, lam):
    ks = cm_kinematics(e_cm, *masses, cos_theta=cos_theta)
    return spin_summed_amp2(*ks, g1, g2, lam, m_p=masses[0], m_n=masses[2])


def outcome(fn):
    try:
        fn()
    except PropagatorPoleError as exc:
        return ("pole", str(exc))
    except ValueError as exc:
        return ("value", str(exc))
    return None


class TestBatchedKernel:
    @settings(max_examples=80, deadline=None)
    @given(masses=st.sampled_from(MASS_SETS[:3]), offset=st.floats(1e-3, 3000.0),
           cos_theta=COS_THETA, g1=COUPLING, g2=COUPLING, lam=COUPLING)
    def test_matches_scalar_path_and_trace_oracle(self, masses, offset, cos_theta,
                                                  g1, g2, lam):
        e_cm = max(masses[0] + masses[1], masses[2] + masses[3]) + offset
        grid = spin_summed_amp2_grid([e_cm], [cos_theta], masses, g1, g2, lam)
        assert grid.shape == (1, 1)
        ref = scalar_amp2(e_cm, masses, cos_theta, g1, g2, lam)
        assert grid[0, 0] == pytest.approx(ref, rel=1e-12, abs=0.0)
        ks = cm_kinematics(e_cm, *masses, cos_theta=cos_theta)
        oracle = trace_amp2(*ks, g1, g2, lam, masses[0], masses[2])
        assert grid[0, 0] == pytest.approx(oracle, rel=1e-6, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(masses=st.sampled_from(MASS_SETS), anchor=st.integers(0, 2),
           offset=st.floats(-1e-3, 1e-3) | st.floats(-50.0, 1e8),
           cos_theta=COS_THETA)
    @example(MASS_SETS[3], 2, 1e-4, 0.5)    # pole guard
    @example(MASS_SETS[5], 2, 1e-4, 0.0)    # below threshold: conservation first
    @example(MASS_SETS[4], 0, 1e6, 0.3)     # rounding puts k1 off shell
    def test_raises_where_scalar_path_raises(self, masses, anchor, offset,
                                             cos_theta):
        # anchors: initial-state threshold, final-state threshold, the pole
        m1, m2, m3, m4 = masses
        e_cm = (m1 + m2, m3 + m4, m1)[anchor] + offset
        if e_cm <= 0.0:
            return
        want = outcome(lambda: scalar_amp2(e_cm, masses, cos_theta, 0.7, 0.3, 1.0))
        got = outcome(lambda: spin_summed_amp2_grid([e_cm], [cos_theta], masses,
                                                    0.7, 0.3, 1.0))
        assert got == want

    def test_grid_rows_match_scalar_loop(self):
        e = np.linspace(1500.0, 2600.0, 7)
        nodes = np.array([-1.0, -0.4, 0.0, 0.3, 1.0])
        grid = spin_summed_amp2_grid(e, nodes, MASSES, 0.9, 0.2, 1.1)
        ref = [[scalar_amp2(x, MASSES, c, 0.9, 0.2, 1.1) for c in nodes] for x in e]
        np.testing.assert_allclose(grid, ref, rtol=1e-12, atol=0.0)

    def test_any_bad_row_raises(self):
        light = MASS_SETS[1]
        with pytest.raises(ValueError, match="not conserved"):  # below threshold
            spin_summed_amp2_grid([1200.0, 1000.0], [0.0, 0.5], light, 1.0, 1.0, 1.0)
        with pytest.raises(PropagatorPoleError, match="pole guard"):
            spin_summed_amp2_grid([2000.0, 938.3001], [0.1], MASS_SETS[3], 1.0, 1.0, 1.0)

    def test_make_amp2_is_one_point_of_the_grid(self):
        amp2 = make_amp2(2000.0, MASSES, 0.9, 0.3, 1.0)
        assert amp2(0.25) == spin_summed_amp2_grid([2000.0], [0.25], MASSES,
                                                   0.9, 0.3, 1.0)[0, 0]


class TestCrossSectionGrid:
    LIGHT = (938.3, 10.0, 939.6, 139.6)

    def test_refuses_invalid_initial_state(self):
        with pytest.raises(ValueError, match="initial state"):
            sigma_tot_grid([1000.0, 940.0], self.LIGHT, 1.0, 1.0, 1.0)

    def test_chunk_invariance(self):
        # 64 nodes: 256 energies a chunk, so 600 energies take 3 chunks
        n_theta = 64
        assert -(-600 // (GRID_CHUNK_ROWS // n_theta)) == 3
        e = np.linspace(1100.0, 1400.0, 600)
        grid, _ = sigma_tot_grid(e, self.LIGHT, 0.6, 0.9, 1.1, n_theta)
        for x, sigma in zip(e, grid):
            alone, _ = sigma_tot_grid([x], self.LIGHT, 0.6, 0.9, 1.1, n_theta)
            assert sigma == alone[0]

    # energies on both sides of the initial (948.3) and final (1079.2 MeV)
    # thresholds, and exactly at each
    EDGES = (LIGHT[0] + LIGHT[1], LIGHT[2] + LIGHT[3],
             math.nextafter(LIGHT[2] + LIGHT[3], math.inf))

    @settings(max_examples=30, deadline=None)
    @given(e=st.lists(st.floats(940.0, 1400.0) | st.sampled_from(EDGES),
                      min_size=1, max_size=6),
           couplings=st.tuples(*[st.just(0.0) | st.floats(-2.0, 2.0)] * 3),
           n_theta=st.sampled_from([2, 7, 16]))
    def test_columns_match_scalar_oracle(self, e, couplings, n_theta):
        m1, m2, m3, m4 = self.LIGHT
        e = np.array(e)
        if np.any(e <= m1 + m2):
            with pytest.raises(ValueError, match="initial state"):
                sigma_tot_grid(e, self.LIGHT, *couplings, n_theta)
            return
        sigma, above = sigma_tot_grid(e, self.LIGHT, *couplings, n_theta)
        assert sigma.dtype == np.float64 and above.dtype == np.bool_
        np.testing.assert_array_equal(above, e > m3 + m4)
        assert sigma[~above].tobytes() == bytes(8 * np.count_nonzero(~above))
        for x, s in zip(e.tolist(), sigma.tolist()):
            amp2 = make_amp2(x, self.LIGHT, *couplings)
            ref = sigma_tot(x, self.LIGHT, amp2, n_theta).sigma
            assert s == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_peak_memory_bounded_by_chunking(self):
        bound = 64 * 2 ** 20
        steps, n_theta = 2000, 512
        e = np.linspace(1100.0, 1400.0, steps)
        nodes = np.polynomial.legendre.leggauss(n_theta)[0]
        tracemalloc.start()
        try:
            spin_summed_amp2_grid(e[:64], nodes, self.LIGHT, 0.6, 0.9, 1.1)
            per_row = tracemalloc.get_traced_memory()[1] / (64 * n_theta)
            tracemalloc.reset_peak()
            sigma_tot_grid(e, self.LIGHT, 0.6, 0.9, 1.1, n_theta)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            check_energies(e, self.LIGHT, n_theta)
            check_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert per_row * steps * n_theta > bound     # one unchunked call would not fit
        assert peak <= bound and check_peak <= bound

    def test_check_energies_matches_grid_refusals(self):
        check_energies([950.0, 1500.0], self.LIGHT)
        with pytest.raises(ValueError, match="initial state"):
            check_energies([900.0, 1500.0], self.LIGHT)
        pole = MASS_SETS[3]
        e = [938.3001, 938.3002]
        with pytest.raises(PropagatorPoleError) as exc:
            check_energies(e, pole)
        with pytest.raises(PropagatorPoleError) as grid_exc:
            sigma_tot_grid(e, pole, 1.0, 1.0, 1.0)
        assert str(exc.value) == str(grid_exc.value)
        # below the final-state threshold the pole is never reached
        check_energies([938.3001], (938.3, 0.0, 939.6, 139.6))
        # k1 off shell by rounding at E = 10^6, seen only at the nodes
        shell = (1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="off shell") as exc:
            check_energies([1e6], shell)
        with pytest.raises(ValueError) as grid_exc:
            sigma_tot_grid([1e6], shell, 1.0, 1.0, 1.0)
        assert str(exc.value) == str(grid_exc.value)

    def test_check_energies_finds_pole_in_last_chunk(self):
        pole = MASS_SETS[3]
        e = np.full(GRID_CHUNK_ROWS + 1, 1500.0)
        check_energies(e, pole)
        e[-1] = 938.3001
        with pytest.raises(PropagatorPoleError):
            check_energies(e, pole)
