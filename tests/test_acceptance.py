"""Acceptance suite: one test per release criterion, with timing budgets.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in captured output); a failure raises in the usual pytest way.
"""

import itertools
import math
import time

import numpy as np
import pytest

from ssrqec import cli
from ssrqec.hilbert import (Operator, ProductSpace, StateVector, apply,
                            basis_state, identity, tensor_product)
from ssrqec.klcore import CodeSpace, ErrorSet, kl_check
from ssrqec.qcdcode import (LAMBDA_QCD, M_PI, M_W, MomentumGrid,
                            apply_scattering_error,
                            binomial_tail, decode_phase_flip, encode_repetition,
                            logical_error_rate, momentum_project_and_boost,
                            pion_mass, sm_flip_suppression, syndrome_outcomes,
                            thermal_flip_suppression, toy_amplitude_table)
from ssrqec.rotor import (GroupDiscretization, RotorSpace, build_codeword,
                          enumerate_recovery, logical_fidelity, m_inv,
                          wrong_guess_error_probability)
from ssrqec.scatter import (cm_kinematics, cm_momentum, sigma_tot,
                            spin_summed_amp2, threshold_incident_energy)
from ssrqec.toriccode import (TorusLattice, apply_pauli,
                              enumerate_pauli_errors, ground_space,
                              kl_check_paulis, kl_check_toric, sector_basis,
                              ssr_exact_zero_check, wilson_loop)

from helpers import from_dense, phase_flip
from test_scatter import trace_amp2
from toric_oracles import (as_pauli, pauli_array, pauli_identity, pauli_list,
                           ssr_certificate)

INV_SQRT2 = 1 / math.sqrt(2)


def report(number, description, elapsed, budget):
    assert elapsed < budget, (
        f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {number}: PASS ({description}) [{elapsed:.2f}s]")


def test_criterion_1_sector_respecting_errors_zero_off_diagonal():
    start = time.perf_counter()
    # truncated rotor: codewords in distinct total-charge sectors with
    # charge-conserving (diagonal) error operators
    space = RotorSpace(4)
    w0 = build_codeword(space, space, 0, "uniform", 1)
    w1 = build_codeword(space, space, 1, "uniform", 1)
    code = CodeSpace((w0.dense(), w1.dense()))
    cw = code.matrix()
    ident = identity(space.product_space())
    rotor_ops = [tensor_product(phase_flip(space, q), ident)
                 for q in (-1, 0, 1)]
    rotor_ops += [tensor_product(ident, phase_flip(space, q))
                  for q in (-1, 0, 1)]
    for a in rotor_ops:
        for b in rotor_ops:
            m = cw.conj().T @ (b.dense().conj().T @ a.dense()) @ cw
            assert m[0, 1] == 0 and m[1, 0] == 0

    # two-dimensional p/n code with species-diagonal channels
    sp2 = ProductSpace((2,))
    pn = CodeSpace((basis_state(sp2, 0), basis_state(sp2, 1)))
    table = toy_amplitude_table(0.3, 0.1, MomentumGrid(1))
    from ssrqec.qcdcode import error_operator_pn
    chans = [error_operator_pn(table, s, 0, kp)
             for s in ("phi1", "phi2")
             for kp in table.row_kprimes(s, "p", 0)]
    cw = pn.matrix()
    for a in chans:
        for b in chans:
            m = cw.conj().T @ (b.conj().T @ a) @ cw
            assert m[0, 1] == 0 and m[1, 0] == 0
    report(1, "SSR forces exactly-zero off-diagonal KL elements",
           time.perf_counter() - start, 1.0)


def test_criterion_2_naive_code_phase_vulnerability():
    start = time.perf_counter()
    sp2 = ProductSpace((2,))
    code = CodeSpace((basis_state(sp2, 0), basis_state(sp2, 1)))
    z = Operator(sp2, np.diag([1.0, -1.0]).astype(complex))
    result = kl_check(code, ErrorSet((identity(sp2), z)))
    assert not result.satisfied
    assert abs(result.max_violation - 1.0) <= 1e-12
    report(2, "undetectable phase error on the bare p/n code",
           time.perf_counter() - start, 1.0)


def test_criterion_3_rotor_recovery_and_wrong_guess_bound():
    start = time.perf_counter()
    space = RotorSpace(6)
    for window in (1, 2, 4):
        w1 = build_codeword(space, space, 0, "gaussian", window).dense()
        w2 = build_codeword(space, space, 1, "gaussian", window).dense()
        psi = StateVector(w1.space,
                          (w1.amplitudes + w2.amplitudes) * INV_SQRT2)
        ident = identity(space.product_space())
        charges = range(-2, 3)
        flip_sets = itertools.chain.from_iterable(
            itertools.combinations(charges, r) for r in range(4))
        for flips in flip_sets:
            z = ident
            for q in flips:
                z = z @ phase_flip(space, q)
            corrupted = apply(tensor_product(ident, z), psi)
            outcomes, _, alphas, betas = enumerate_recovery(from_dense(corrupted), (0, 1))
            assert len(outcomes)
            fids = logical_fidelity(alphas, betas, INV_SQRT2, INV_SQRT2)
            assert all(abs(fid - 1.0) <= 1e-10 for fid in fids.tolist())
    for window in (1, 2, 4):
        p_err = wrong_guess_error_probability(space, space, (0, 1), 0,
                                              "uniform", window)
        assert p_err <= 2.0 / (2 * window + 1) + 1e-12
    report(3, "perfect recovery from B-side flips; bounded wrong-guess error",
           time.perf_counter() - start, 10.0)


def test_criterion_4_invariant_simulation_contract():
    start = time.perf_counter()
    space = RotorSpace(2)
    d = space.dim
    disc = GroupDiscretization(d)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m1 = Operator(space.product_space(),
                      rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        m2 = Operator(space.product_space(),
                      rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho_r = a @ a.conj().T
        rho_r /= np.trace(rho_r)
        w = rng.random(d)
        rho_s = np.diag(w / w.sum()).astype(complex)  # sector-respecting
        lhs = np.trace(m_inv(m1, disc).dense() @ np.kron(rho_r, rho_s))
        assert abs(lhs - np.trace(m1.dense() @ rho_s)) < 1e-9
        prod = (m_inv(m1, disc) @ m_inv(m2, disc)).dense()
        assert np.max(np.abs(prod - m_inv(m1 @ m2, disc).dense())) < 1e-9
    report(4, "trace and homomorphism contract of the invariant simulation",
           time.perf_counter() - start, 30.0)


def test_criterion_5_repetition_pipeline_and_monte_carlo():
    start = time.perf_counter()
    table = toy_amplitude_table(0.3, 0.2, MomentumGrid(1))
    for n in (3, 5):
        state = encode_repetition(0.6, 0.8, n)
        for s in ("phi1", "phi2"):
            for particle in range(n):
                branches = apply_scattering_error(state, particle, table, s, 0)
                for b in branches:
                    _, post, _ = momentum_project_and_boost(
                        branches, particle, outcome=b.k_out)
                    for syn, _, coll in syndrome_outcomes(post):
                        dec = decode_phase_flip(coll, syn).normalized()
                        cp, cm = dec.logical_amplitudes()
                        fid = abs(np.conj(0.6) * cp + np.conj(0.8) * cm) ** 2
                        assert abs(fid - 1.0) <= 1e-12
    for n in (3, 5):
        for p in (0.2, 0.1, 0.05):
            est, se = logical_error_rate(n, p, 100_000, seed=2718)
            assert abs(est - binomial_tail(n, p)) <= 3 * se + 1e-12
    report(5, "repetition pipeline exact on every branch; MC matches tail",
           time.perf_counter() - start, 120.0)


def test_criterion_6_rate_models():
    start = time.perf_counter()
    assert abs(thermal_flip_suppression(M_PI / 10)
               - math.exp(-10)) <= 1e-15
    e = 0.05 * LAMBDA_QCD
    assert (e / M_W) ** 2 > math.exp(-LAMBDA_QCD / e)
    t, eps = 23.0, 3.0
    lhs = math.exp(-eps / t) ** (LAMBDA_QCD / eps)
    assert abs(lhs - math.exp(-LAMBDA_QCD / t)) <= 1e-12 * lhs
    assert abs(pion_mass(3, 3, 3000) - 134.16) <= 0.01
    assert abs(pion_mass(3, 3, 3000) - 140.0) / 140.0 < 0.05
    report(6, "thermal, electroweak, and pion-mass rate models",
           time.perf_counter() - start, 1.0)


def test_criterion_7_cross_section():
    start = time.perf_counter()
    masses = (938.3, 1.0, 939.6, 139.6)
    assert sigma_tot(1000.0, masses, lambda c: 1.0).sigma == 0.0
    th = threshold_incident_energy(938.3, 139.6, 0.0)
    assert abs(th.exact - 149.98) <= 0.01
    assert abs(th.exact - th.approximate) <= 1e-9
    e_cm = 2000.0
    res = sigma_tot(e_cm, masses, lambda c: 1.0)
    closed = (cm_momentum(e_cm, *masses[2:]) / cm_momentum(e_cm, *masses[:2])
              ) * 4 * math.pi / (64 * math.pi ** 2 * e_cm ** 2)
    assert abs(res.sigma - closed) <= 1e-10 * closed
    rng = np.random.default_rng(31)
    phys = (938.3, 500.0, 939.6, 139.6)
    for _ in range(3):
        e = float(rng.uniform(1700.0, 2500.0))
        ct = float(rng.uniform(-0.9, 0.9))
        g1, g2, lam = rng.uniform(0.2, 1.2, size=3)
        ks = cm_kinematics(e, *phys, cos_theta=ct)
        direct = spin_summed_amp2(*ks, g1, g2, lam, m_p=phys[0], m_n=phys[2])
        oracle = trace_amp2(*ks, g1, g2, lam, phys[0], phys[2])
        assert abs(direct - oracle) <= 1e-6 * abs(oracle)
    report(7, "threshold behavior, closed form, and trace-technique oracle",
           time.perf_counter() - start, 30.0)


def test_criterion_8_toric_sectors():
    start = time.perf_counter()
    for (n, l) in ((2, 2), (3, 2), (2, 3)):
        assert ground_space(TorusLattice(l, n)).dimension == n ** 2
    lat = TorusLattice(3, 2)
    assert kl_check_toric(lat, 1, tol=1e-9).satisfied
    sb = sector_basis(ground_space(TorusLattice(2, 2)))
    loop = wilson_loop(TorusLattice(2, 2), "x", 1, "magnetic")
    bad = kl_check_paulis(sb, pauli_array([pauli_identity(8, 2), as_pauli(loop, 2)], 2))
    assert not bad.satisfied
    # exact-zero SSR statement: symbolic certificate plus numeric cross-check
    assert ssr_exact_zero_check(lat)
    sb22 = sector_basis(ground_space(TorusLattice(2, 2)))
    for p in pauli_list(enumerate_pauli_errors(TorusLattice(2, 2), 1)):
        if p.is_identity_up_to_phase():
            continue
        assert ssr_certificate(TorusLattice(2, 2), p) != "logical"
        m = sb22.basis.conj().T @ apply_pauli(TorusLattice(2, 2), p.xz, p.phase,
                                              sb22.basis)
        assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-12
    report(8, "sector counts, weight-1 KL, loop violation, exact zeros",
           time.perf_counter() - start, 300.0)


def test_criterion_9_reproducibility(tmp_path):
    start = time.perf_counter()
    config = {"experiment": "qcd-code", "seed": 11,
              "params": {"n": 5, "p": 0.1, "trials": 20000}}
    blobs = set()
    for workers in (1, 2, 8):
        cfg = {**config, "params": {**config["params"], "workers": workers}}
        out = tmp_path / f"w{workers}"
        cli.run(cfg, str(out))
        blobs.add((out / "logical_error_rate.csv").read_bytes())
    assert len(blobs) == 1
    report(9, "bitwise-identical outputs across 1, 2, and 8 workers",
           time.perf_counter() - start, 60.0)
