"""Knill-Laflamme checks, sector checks, Kraus extraction."""

import tracemalloc

import numpy as np
import pytest

from ssrqec.hilbert import (Operator, ProductSpace, StateVector, basis_state,
                            identity, tensor_product)
from ssrqec.klcore import (CodeSpace, ErrorSet, kl_check, kraus_extract,
                           report_from_elements, ssr_sector_check)
from ssrqec.rotor import RotorSpace

from helpers import charge_operator, charge_state, shift_up

SP2 = ProductSpace((2,))
X = Operator(SP2, np.array([[0, 1], [1, 0]], dtype=complex))
Z = Operator(SP2, np.diag([1.0, -1.0]).astype(complex))
I2 = identity(SP2)


def three_qubit_bitflip_code():
    sp8 = ProductSpace((2, 2, 2))
    return CodeSpace((basis_state(sp8, 0), basis_state(sp8, 7)))


def single_site(op, site):
    ops = [I2, I2, I2]
    ops[site] = op
    return tensor_product(tensor_product(ops[0], ops[1]), ops[2])


class TestKlCheck:
    def test_bitflip_code_corrects_single_x(self):
        code = three_qubit_bitflip_code()
        errors = ErrorSet((identity(code.space), single_site(X, 0),
                           single_site(X, 1), single_site(X, 2)))
        report = kl_check(code, errors)
        assert report.satisfied
        np.testing.assert_allclose(report.c_matrix, np.eye(4), atol=1e-12)

    def test_pn_code_fails_on_phase_error(self):
        # <p|Z|p> = +1, <n|Z|n> = -1, so the diagonal cannot be scalar
        code = CodeSpace((basis_state(SP2, 0), basis_state(SP2, 1)))
        report = kl_check(code, ErrorSet((I2, Z)))
        assert not report.satisfied
        assert report.max_violation == pytest.approx(1.0, abs=1e-12)

    def test_identity_only_always_satisfied(self):
        code = three_qubit_bitflip_code()
        report = kl_check(code, ErrorSet((identity(code.space),)))
        assert report.satisfied
        np.testing.assert_allclose(report.c_matrix, [[1.0]], atol=1e-12)

    def test_c_matrix_hermitian_when_satisfied(self):
        code = three_qubit_bitflip_code()
        errors = ErrorSet((identity(code.space), single_site(X, 1)))
        report = kl_check(code, errors)
        assert report.satisfied
        np.testing.assert_allclose(report.c_matrix,
                                   report.c_matrix.conj().T, atol=1e-9)

    def test_report_json_fields(self):
        code = CodeSpace((basis_state(SP2, 0), basis_state(SP2, 1)))
        obj = kl_check(code, ErrorSet((I2, Z))).to_json()
        assert obj["verdict"] == "violated"
        assert obj["max_violation"] == pytest.approx(1.0)
        assert obj["violations"]


class TestKlInvariances:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitary_mixing_preserves_verdict(self, seed):
        rng = np.random.default_rng(seed)
        code = three_qubit_bitflip_code()
        base = [single_site(X, i) for i in range(3)]
        u, _ = np.linalg.qr(rng.normal(size=(3, 3))
                            + 1j * rng.normal(size=(3, 3)))
        mixed = [Operator(code.space,
                          sum(u[b, a] * base[a].dense() for a in range(3)))
                 for b in range(3)]
        r0 = kl_check(code, ErrorSet(tuple(base)))
        r1 = kl_check(code, ErrorSet(tuple(mixed)), tol=1e-9)
        assert r0.satisfied and r1.satisfied

    def test_unitary_mixing_preserves_violation(self):
        rng = np.random.default_rng(4)
        code = CodeSpace((basis_state(SP2, 0), basis_state(SP2, 1)))
        u, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        base = [I2, Z]
        mixed = [Operator(SP2, sum(u[b, a] * base[a].dense() for a in range(2)))
                 for b in range(2)]
        assert not kl_check(code, ErrorSet(tuple(mixed))).satisfied

    def test_codeword_global_phase_irrelevant(self):
        code = three_qubit_bitflip_code()
        w0, w1 = code.codewords
        phased = CodeSpace((StateVector(w0.space,
                                        np.exp(1j * 0.7) * w0.amplitudes), w1))
        errors = ErrorSet((identity(code.space), single_site(X, 2)))
        assert kl_check(code, errors).satisfied
        assert kl_check(phased, errors).satisfied

    def test_sector_respecting_errors_zero_off_diagonal(self):
        # codewords in distinct charge sectors + block-diagonal errors:
        # every i != j element vanishes exactly, not just within tolerance
        space = RotorSpace(3)
        code = CodeSpace((charge_state(space, 0), charge_state(space, 1)))
        rng = np.random.default_rng(8)
        diags = [Operator(space.product_space(),
                          np.diag(rng.normal(size=space.dim)
                                  + 1j * rng.normal(size=space.dim)))
                 for _ in range(3)]
        report = kl_check(code, ErrorSet(tuple(diags)), tol=1e300)
        k = code.n_codewords
        cw = code.matrix()
        for a in diags:
            for b in diags:
                m = cw.conj().T @ b.dense().conj().T @ a.dense() @ cw
                assert m[0, 1] == 0 and m[1, 0] == 0
        assert report.satisfied or all(
            i == j for (_, _, i, j, _) in report.violations)


def test_report_from_elements_allocates_under_1_7_m():
    # dev (one M) plus its magnitudes (half an M); no (E, E, k, k) scalar part
    from ssrqec.toriccode import TorusLattice, enumerate_pauli_errors
    from toric_oracles import kl_elements
    lat = TorusLattice(2, 2)
    m = kl_elements(lat, enumerate_pauli_errors(lat, 2))
    tracemalloc.start()
    try:
        report_from_elements(m, 1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * m.nbytes


class TestSectorCheck:
    def setup_method(self):
        self.space = RotorSpace(2)
        self.sectors = [CodeSpace((charge_state(self.space, q),))
                        for q in range(-2, 3)]

    def test_charge_diagonal_operators_respect_sectors(self):
        q = charge_operator(self.space)
        res = ssr_sector_check(self.sectors, ErrorSet((q, q @ q)))
        assert res.respects_ssr
        assert res.worst_element == 0.0

    def test_shift_operator_breaks_sectors(self):
        res = ssr_sector_check(self.sectors, ErrorSet((shift_up(self.space),)))
        assert not res.respects_ssr
        assert res.worst_element == pytest.approx(1.0)

    def test_requires_two_sectors(self):
        with pytest.raises(ValueError):
            ssr_sector_check(self.sectors[:1], ErrorSet((shift_up(self.space),)))


class TestKrausExtract:
    def test_identity_unitary(self):
        sp4 = ProductSpace((2, 2))
        ks = kraus_extract(identity(sp4), basis_state(SP2, 0),
                           [basis_state(SP2, 0), basis_state(SP2, 1)])
        assert len(ks) == 1
        np.testing.assert_allclose(ks.operators[0].dense(), np.eye(2))

    def test_cnot_gives_projectors(self):
        cnot = np.eye(4)[[0, 1, 3, 2]]
        u = Operator(ProductSpace((2, 2)), cnot)
        ks = kraus_extract(u, basis_state(SP2, 0),
                           [basis_state(SP2, 0), basis_state(SP2, 1)])
        mats = sorted((k.dense() for k in ks.operators),
                      key=lambda m: abs(m[1, 1]))
        np.testing.assert_allclose(mats[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(mats[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_completeness_for_random_unitary(self):
        rng = np.random.default_rng(17)
        d_sys, d_env = 3, 4
        u, _ = np.linalg.qr(rng.normal(size=(12, 12))
                            + 1j * rng.normal(size=(12, 12)))
        env_sp = ProductSpace((d_env,))
        phi = StateVector(env_sp, rng.normal(size=d_env)
                          + 1j * rng.normal(size=d_env)).normalized()
        ks = kraus_extract(Operator(ProductSpace((d_sys, d_env)), u), phi,
                           [basis_state(env_sp, k) for k in range(d_env)])
        total = sum(k.dense().conj().T @ k.dense() for k in ks.operators)
        np.testing.assert_allclose(total, np.eye(d_sys), atol=1e-9)

    def test_non_unitary_rejected(self):
        bad = Operator(ProductSpace((2, 2)), np.eye(4) * 2.0)
        with pytest.raises(ValueError):
            kraus_extract(bad, basis_state(SP2, 0), [basis_state(SP2, 0)])


class TestValidation:
    def test_non_orthonormal_codewords_rejected(self):
        plus = StateVector(SP2, np.array([1, 1]) / np.sqrt(2))
        with pytest.raises(ValueError):
            CodeSpace((basis_state(SP2, 0), plus))

    def test_empty_error_set_rejected(self):
        with pytest.raises(ValueError):
            ErrorSet(())

    def test_dimension_mismatch_between_code_and_errors(self):
        code = CodeSpace((basis_state(SP2, 0),))
        big = identity(ProductSpace((3,)))
        with pytest.raises(Exception):
            kl_check(code, ErrorSet((big,)))
