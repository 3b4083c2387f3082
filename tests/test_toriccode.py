"""Z_N toric code: symbolic Paulis, ground space, sectors, KL brute force."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssrqec import cli, toriccode
from ssrqec._rowkeys import class_ids
from ssrqec.klcore import (MAX_RECORDED_VIOLATIONS, CodeSpace, ErrorSet,
                           ssr_sector_check)
from ssrqec.hilbert import Operator, ProductSpace, StateVector
from ssrqec.toriccode import (GroundSpace, GuardExceededError, PauliArray,
                              TorusLattice, _logical_probes,
                              _stabilizer_rows, _weight_chunks, apply_pauli,
                              commutation_exponents, enumerate_pauli_errors,
                              enumeration_bytes, error_count,
                              ground_space, ground_space_bytes, kl_check_bytes,
                              kl_check_errors, kl_check_paulis,
                              kl_check_paulis_bytes, kl_check_toric, kl_guard,
                              pair_phases, sector_basis,
                              sector_labels, ssr_check_bytes,
                              ssr_exact_zero_check, wilson_loop)
from toric_oracles import (QuditPauli, _rank_mod_p, apply_by_permutation,
                           as_pauli, commutation_exponent, dense_c,
                           kl_elements, logical_mask, loop_by_edge,
                           oracle_report, pauli_adjoint, pauli_array,
                           pauli_dense, pauli_identity, pauli_list, pauli_mul,
                           root_table_json, single_qudit_pauli, ssr_certificate,
                           stabilizer_paulis, stabilizers_by_vertex)

LAT22 = TorusLattice(2, 2)   # l = 2, N = 2 (dim 2^8)
LAT23 = TorusLattice(2, 3)   # l = 2, N = 3 (dim 3^8)
LAT32 = TorusLattice(3, 2)   # l = 3, N = 2 (dim 2^18)


def random_pauli(lat, rng, with_phase=True):
    return QuditPauli(tuple(rng.integers(0, lat.n, lat.n_edges)),
                      tuple(rng.integers(0, lat.n, lat.n_edges)), lat.n,
                      int(rng.integers(0, 2 * lat.n)) if with_phase else 0)


def random_vec(lat, rng):
    return rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)


class TestPauliAlgebra:
    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_mul_matches_composition_on_vectors(self, lat):
        rng = np.random.default_rng(lat.n)
        for _ in range(10):
            a, b = random_pauli(lat, rng), random_pauli(lat, rng)
            v = random_vec(lat, rng)
            ab = pauli_mul(a, b)
            np.testing.assert_allclose(
                apply_pauli(lat, ab.xz, ab.phase, v),
                apply_pauli(lat, a.xz, a.phase, apply_pauli(lat, b.xz, b.phase, v)),
                atol=1e-10)

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_adjoint_reverses_inner_product(self, lat):
        rng = np.random.default_rng(10 + lat.n)
        for _ in range(10):
            a = random_pauli(lat, rng)
            u, v = random_vec(lat, rng), random_vec(lat, rng)
            lhs = np.vdot(u, apply_pauli(lat, a.xz, a.phase, v))
            a_dag = pauli_adjoint(a)
            rhs = np.vdot(apply_pauli(lat, a_dag.xz, a_dag.phase, u), v)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_commutation_exponent_matches_vectors(self, lat):
        rng = np.random.default_rng(20 + lat.n)
        omega = np.exp(2j * np.pi / lat.n)
        for _ in range(6):
            a = random_pauli(lat, rng, with_phase=False)
            b = random_pauli(lat, rng, with_phase=False)
            c = commutation_exponent(a, b)
            v = random_vec(lat, rng)
            ab = apply_pauli(lat, a.xz, a.phase, apply_pauli(lat, b.xz, b.phase, v))
            ba = apply_pauli(lat, b.xz, b.phase, apply_pauli(lat, a.xz, a.phase, v))
            np.testing.assert_allclose(ab, omega ** c * ba, atol=1e-9)

    def test_dense_matches_apply_small(self):
        rng = np.random.default_rng(5)
        p = random_pauli(LAT22, rng)
        v = random_vec(LAT22, rng)
        np.testing.assert_allclose(apply_pauli(LAT22, p.xz, p.phase, v),
                                   pauli_dense(LAT22, p) @ v, atol=1e-11)

    def test_weight_counts_support(self):
        p = single_qudit_pauli(LAT22, 3, 1, 1)
        assert p.weight == 1 and p.support() == (3,)
        assert pauli_identity(LAT22.n_edges, 2).weight == 0


class TestStabilizers:
    @pytest.mark.parametrize("lat", [LAT22, LAT23, LAT32])
    def test_pairwise_commuting(self, lat):
        stabs = stabilizer_paulis(lat)
        assert len(stabs) == 2 * lat.l ** 2
        for a in stabs:
            for b in stabs:
                assert commutation_exponent(a, b) == 0

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_global_products_are_identity(self, lat):
        half = lat.l ** 2
        stabs = stabilizer_paulis(lat)
        for group in (stabs[:half], stabs[half:]):
            acc = pauli_identity(lat.n_edges, lat.n)
            for s in group:
                acc = pauli_mul(acc, s)
            assert acc.is_identity_up_to_phase()
            assert acc.phase == 0

    def test_symplectic_rank_n2_l2(self):
        stabs = stabilizer_paulis(LAT22)
        rows = np.array([list(s.x_powers) + list(s.z_powers) for s in stabs])
        assert _rank_mod_p(rows, 2) == 6

    @pytest.mark.parametrize("l", range(2, 6))
    def test_rows_match_per_vertex_oracle(self, l):
        for n in range(2, 8):
            lat = TorusLattice(l, n)
            oracle = stabilizers_by_vertex(lat)
            np.testing.assert_array_equal(_stabilizer_rows(lat),
                                          pauli_array(oracle, n).xz)
            assert stabilizer_paulis(lat) == oracle


@st.composite
def paulis_on_states(draw):
    """(lattice, xz row, phase, state): any powers and phase, unreduced, on
    a real or complex state with no column axis or 1 to 3 columns."""
    lat = draw(st.sampled_from([LAT22, LAT23, TorusLattice(2, 4), LAT32]))
    n, m = lat.n, lat.n_edges
    xz = draw(arrays(np.int64, 2 * m, elements=st.integers(-n, 2 * n - 1)))
    phase = draw(st.integers(-4 * n, 4 * n))
    shape = (lat.dim,) + draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vec = rng.normal(size=shape)
    if draw(st.booleans()):
        vec = vec + 1j * rng.normal(size=shape)
    return lat, xz, phase, vec


@given(paulis_on_states())
@settings(max_examples=60, deadline=None)
def test_apply_pauli_equals_permutation_oracle_bitwise(case):
    lat, xz, phase, vec = case
    got = apply_pauli(lat, xz, phase, vec)
    assert got.dtype == np.complex128 and got.shape == vec.shape
    np.testing.assert_array_equal(got, apply_by_permutation(lat, xz, phase, vec))


class TestGroundSpace:
    @pytest.mark.parametrize("lat", [LAT22, LAT23, LAT32])
    def test_dimension_is_n_squared(self, lat):
        assert ground_space(lat).dimension == lat.n ** 2

    def test_basis_orthonormal_and_stabilized(self):
        gs = ground_space(LAT22)
        b = gs.basis
        np.testing.assert_allclose(b.conj().T @ b, np.eye(4), atol=1e-9)
        for s in stabilizer_paulis(LAT22):
            np.testing.assert_allclose(apply_pauli(LAT22, s.xz, 0, b), b, atol=1e-9)

    def test_guard_on_oversized_lattice(self):
        with pytest.raises(GuardExceededError):
            ground_space(TorusLattice(3, 3))


class TestWilsonLoops:
    def test_charge_zero_is_identity(self):
        assert as_pauli(wilson_loop(LAT22, "x", 0, "electric"),
                        2).is_identity_up_to_phase()

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_transverse_loops_braid_with_omega_phase(self, lat):
        for a in range(1, lat.n):
            for b in range(1, lat.n):
                we = as_pauli(wilson_loop(lat, "x", a, "electric"), lat.n)
                wm = as_pauli(wilson_loop(lat, "y", b, "magnetic"), lat.n)
                assert commutation_exponent(we, wm) == (a * b) % lat.n

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_loops_commute_with_all_stabilizers(self, lat):
        stabs = stabilizer_paulis(lat)
        for cycle in ("x", "y"):
            for kind in ("electric", "magnetic"):
                w = as_pauli(wilson_loop(lat, cycle, 1, kind), lat.n)
                assert all(commutation_exponent(w, s) == 0 for s in stabs)

    def test_loop_weight_is_l(self):
        assert as_pauli(wilson_loop(LAT32, "x", 1, "electric"), 2).weight == 3

    @pytest.mark.parametrize("l", range(2, 6))
    def test_logical_probes_are_the_charge_one_loops(self, l):
        for n in range(2, 8):
            lat = TorusLattice(l, n)
            loops = [wilson_loop(lat, "y", 1, "magnetic"),
                     wilson_loop(lat, "x", 1, "magnetic"),
                     wilson_loop(lat, "x", -1, "electric"),
                     wilson_loop(lat, "y", -1, "electric")]
            np.testing.assert_array_equal(_logical_probes(lat), np.stack(loops))

    @pytest.mark.parametrize("l", range(2, 6))
    def test_rows_match_edge_by_edge_oracle(self, l):
        for n in range(2, 6):
            lat = TorusLattice(l, n)
            for cycle in ("x", "y"):
                for kind in ("electric", "magnetic"):
                    for charge in range(-n, 2 * n + 1):
                        np.testing.assert_array_equal(
                            wilson_loop(lat, cycle, charge, kind),
                            loop_by_edge(lat, cycle, charge, kind).xz)

    def test_unknown_cycle_or_kind_refused(self):
        for cycle, kind in (("z", "electric"), ("x", "dyonic")):
            with pytest.raises(ValueError):
                wilson_loop(LAT22, cycle, 1, kind)


class TestSectorBasis:
    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_labels_exhaust_all_sectors(self, lat):
        sb = sector_basis(ground_space(lat))
        assert sb.dimension == len(sector_labels(lat))
        assert sorted(sector_labels(lat)) == [(a, b) for a in range(lat.n)
                                              for b in range(lat.n)]

    def test_sector_states_are_loop_eigenvectors(self):
        sb = sector_basis(ground_space(LAT23))
        we = wilson_loop(LAT23, "x", 1, "electric")
        wm = wilson_loop(LAT23, "x", 1, "magnetic")
        for idx, (a, b) in enumerate(sector_labels(LAT23)):
            v = sb.basis[:, idx]
            np.testing.assert_allclose(apply_pauli(LAT23, we, 0, v),
                                       np.exp(2j * np.pi * a / 3) * v,
                                       atol=1e-8)
            np.testing.assert_allclose(apply_pauli(LAT23, wm, 0, v),
                                       np.exp(2j * np.pi * b / 3) * v,
                                       atol=1e-8)

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_is_the_closed_form_basis(self, lat):
        gs = ground_space(lat)
        assert sector_basis(gs) is gs

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    @pytest.mark.parametrize("change", ["swap", "mix", "scale"])
    def test_other_bases_raise(self, lat, change):
        gs = ground_space(lat)
        basis = gs.basis.copy()
        if change == "swap":
            basis[:, [1, 2]] = basis[:, [2, 1]]
        elif change == "scale":
            basis[:, 1] *= 2        # still an eigenvector, but not normalised
        else:
            # column 1 becomes a combination of two sectors: still orthonormal
            # to the rest, but no eigenvector of the x-cycle loops
            basis[:, 1] = (gs.basis[:, 1] + gs.basis[:, 2]) / np.sqrt(2)
            basis[:, 2] = (gs.basis[:, 1] - gs.basis[:, 2]) / np.sqrt(2)
        with pytest.raises(RuntimeError):
            sector_basis(GroundSpace(lat, basis))

    def test_sector_basis_still_stabilized(self):
        sb = sector_basis(ground_space(LAT22))
        for s in stabilizer_paulis(LAT22):
            np.testing.assert_allclose(apply_pauli(LAT22, s.xz, 0, sb.basis),
                                       sb.basis, atol=1e-9)


class TestKlChecks:
    def test_l2_weight1_off_diagonal_zero_but_correction_fails(self):
        # distance-2 code: single errors are detected (scalar single-error
        # elements) yet some pair products are logicals, so full KL fails
        sb = sector_basis(ground_space(LAT22))
        report = kl_check_toric(LAT22, 1)
        assert not report.satisfied
        b = sb.basis
        for p in pauli_list(enumerate_pauli_errors(LAT22, 1)):
            # exactness is certified symbolically; the numeric basis carries
            # only float-level residue
            if not p.is_identity_up_to_phase():
                assert ssr_certificate(LAT22, p) != "logical"
            m = b.conj().T @ apply_pauli(LAT22, p.xz, p.phase, b)
            off = m - np.diag(np.diag(m))
            assert np.max(np.abs(off)) <= 1e-12

    def test_l2_detection_only_passes(self):
        sb = sector_basis(ground_space(LAT22))
        b = sb.basis
        for p in pauli_list(enumerate_pauli_errors(LAT22, 1)):
            m = b.conj().T @ apply_pauli(LAT22, p.xz, p.phase, b)
            diag = np.diag(m)
            assert np.max(np.abs(diag - diag[0])) < 1e-9

    def test_l3_weight1_satisfies_full_kl(self):
        report = kl_check_toric(LAT32, 1, tol=1e-9)
        assert report.satisfied

    def test_wilson_loop_in_error_set_violates(self):
        sb = sector_basis(ground_space(LAT22))
        errors = pauli_array([pauli_identity(LAT22.n_edges, 2),
                              as_pauli(wilson_loop(LAT22, "x", 1, "magnetic"), 2)], 2)
        report = kl_check_paulis(sb, errors)
        assert not report.satisfied

    def test_weight_guard(self, monkeypatch):
        with pytest.raises(GuardExceededError):
            enumerate_pauli_errors(LAT22, 3)
        monkeypatch.setattr("ssrqec.errors.MEMORY_BUDGET", enumeration_bytes(LAT32, 2) - 1)
        with pytest.raises(GuardExceededError, match="budget"):
            enumerate_pauli_errors(LAT32, 2)


class TestSsrCertificates:
    def test_single_qudit_errors_detected(self):
        stabs = stabilizer_paulis(LAT22)
        for e in range(LAT22.n_edges):
            for (x, z) in ((1, 0), (0, 1), (1, 1)):
                cert = ssr_certificate(LAT22, single_qudit_pauli(LAT22, e, x, z),
                                       stabs)
                assert cert == "detected"

    def test_stabilizer_membership(self):
        stabs = stabilizer_paulis(LAT22)
        assert ssr_certificate(LAT22, stabs[0], stabs) == "stabilizer"
        combo = pauli_mul(stabs[0], stabs[1])
        assert ssr_certificate(LAT22, combo, stabs) == "stabilizer"

    def test_wilson_loops_are_logical(self):
        for kind in ("electric", "magnetic"):
            w = as_pauli(wilson_loop(LAT32, "x", 1, kind), 2)
            assert ssr_certificate(LAT32, w) == "logical"

    def test_exact_zero_check_below_distance(self):
        assert ssr_exact_zero_check(LAT32)          # weight <= 2 < l = 3
        assert ssr_exact_zero_check(LAT22, 1)       # weight <= 1 < l = 2

    def test_numeric_cross_check_of_exact_zeros(self):
        sb = sector_basis(ground_space(LAT22))
        b = sb.basis
        for p in pauli_list(enumerate_pauli_errors(LAT22, 1)):
            if p.is_identity_up_to_phase():
                continue
            assert ssr_certificate(LAT22, p) == "detected"
            m = b.conj().T @ apply_pauli(LAT22, p.xz, p.phase, b)
            assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-12

    def test_sector_check_interface_with_weight1_paulis(self):
        sb = sector_basis(ground_space(LAT22))
        space = ProductSpace((LAT22.n,) * LAT22.n_edges)
        sectors = [CodeSpace((StateVector(space, sb.basis[:, i]),))
                   for i in range(sb.dimension)]
        ops = [Operator(space, pauli_dense(LAT22,
                                           single_qudit_pauli(LAT22, e, 1, 0)))
               for e in range(3)]
        res = ssr_sector_check(sectors, ErrorSet(tuple(ops)), tol=1e-10)
        assert res.respects_ssr


@st.composite
def pauli_arrays(draw, rows=st.integers(1, 5)):
    """(PauliArray, PauliArray) on the same edges, N in {2, 3, 4}."""
    n = draw(st.sampled_from([2, 3, 4]))
    width = 2 * draw(st.integers(1, 5))

    def one():
        e = draw(rows)
        xz = draw(arrays(np.int64, (e, width), elements=st.integers(0, n - 1)))
        phase = draw(arrays(np.int64, (e,), elements=st.integers(0, 2 * n - 1)))
        return PauliArray(xz, phase, n)

    return one(), one()


class TestPauliArrayAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(pauli_arrays())
    def test_pair_products_match_pauli_mul(self, sets):
        errors, _ = sets
        phi = pair_phases(errors, *np.indices((len(errors),) * 2))
        for a, ea in enumerate(pauli_list(errors)):
            for b, eb in enumerate(pauli_list(errors)):
                want = pauli_mul(pauli_adjoint(eb), ea)
                diff = errors.xz[a] - errors.xz[b]
                half = diff.size // 2
                got = QuditPauli(tuple(diff[:half]), tuple(diff[half:]),
                                 errors.n, int(phi[a, b]))
                assert got == want

    @settings(max_examples=60, deadline=None)
    @given(pauli_arrays())
    def test_commutation_exponents_match_scalar(self, sets):
        a_set, b_set = sets
        c = commutation_exponents(a_set.xz, b_set.xz, a_set.n)
        assert c.shape == (len(a_set), len(b_set))
        for i, pa in enumerate(pauli_list(a_set)):
            for j, pb in enumerate(pauli_list(b_set)):
                assert c[i, j] == commutation_exponent(pa, pb)

    @settings(max_examples=30, deadline=None)
    @given(pauli_arrays())
    def test_round_trip_through_quditpauli(self, sets):
        errors, _ = sets
        back = pauli_array(pauli_list(errors), errors.n)
        np.testing.assert_array_equal(back.xz, errors.xz)
        np.testing.assert_array_equal(back.phase, errors.phase)


def old_enumeration(lat, max_weight):
    """The per-Pauli enumeration loop the array enumeration replaced."""
    n = lat.n
    singles = [(x, z) for x in range(n) for z in range(n) if (x, z) != (0, 0)]
    errors = [pauli_identity(lat.n_edges, n)]
    errors += [single_qudit_pauli(lat, e, x, z)
               for e in range(lat.n_edges) for x, z in singles]
    if max_weight >= 2:
        errors += [pauli_mul(single_qudit_pauli(lat, e1, x1, z1),
                             single_qudit_pauli(lat, e2, x2, z2))
                   for e1 in range(lat.n_edges)
                   for e2 in range(e1 + 1, lat.n_edges)
                   for x1, z1 in singles for x2, z2 in singles]
    return errors


class TestErrorEnumeration:
    @pytest.mark.parametrize("lat,w", [(LAT22, 1), (LAT22, 2), (LAT23, 2),
                                       (LAT32, 1)])
    def test_matches_loop_enumeration_and_closed_form(self, lat, w):
        errors = enumerate_pauli_errors(lat, w)
        assert pauli_list(errors) == old_enumeration(lat, w)
        assert len(errors) == error_count(lat, w)


def dense_elements(gs, errors):
    """M[a, b, i, j] = <j|E_b^dag E_a|i> from state vectors and one Gram."""
    k = gs.dimension
    flat = np.concatenate([apply_pauli(gs.lattice, xz, phase, gs.basis).T
                           for xz, phase in zip(errors.xz, errors.phase)])
    gram = flat @ flat.conj().T
    return gram.reshape(len(errors), k, len(errors), k).transpose(0, 2, 1, 3)


def loaded_errors(lat, rng, count=12):
    """Identity, loops, stabilizer-times-loop products and random Paulis,
    with random phases: every block type of M appears."""
    n = lat.n
    stabs = pauli_array(stabilizer_paulis(lat), n).xz
    loops = np.stack([wilson_loop(lat, c, 1, k) for c in "xy"
                      for k in ("electric", "magnetic")])
    xz = [np.zeros(2 * lat.n_edges, dtype=np.int64)]
    for _ in range(count):
        row = rng.integers(0, n, len(stabs)) @ stabs + rng.integers(0, n, 4) @ loops
        if rng.random() < 0.3:
            row[rng.integers(2 * lat.n_edges)] += 1
        xz.append(row % n)
    return PauliArray(np.array(xz), rng.integers(0, 2 * n, len(xz)), n)


ORACLE_CASES = [(2, 2, 1), (2, 2, 2), (3, 2, 1)]


class TestSymbolicKl:
    @pytest.mark.parametrize("n,l,w", ORACLE_CASES)
    def test_elements_match_dense_coset_basis(self, n, l, w):
        lat = TorusLattice(l, n)
        errors = enumerate_pauli_errors(lat, w)
        np.testing.assert_allclose(kl_elements(lat, errors),
                                   dense_elements(ground_space(lat), errors),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,l,w", ORACLE_CASES)
    def test_report_matches_eigensolver_path(self, n, l, w):
        lat = TorusLattice(l, n)
        report = kl_check_toric(lat, w)
        ref = kl_check_paulis(sector_basis(ground_space(lat)),
                              enumerate_pauli_errors(lat, w))
        assert report.verdict == ref.verdict
        np.testing.assert_allclose(dense_c(report), ref.c_matrix, rtol=0,
                                   atol=1e-9)
        assert report.max_violation == pytest.approx(ref.max_violation, abs=1e-9)

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_phased_logicals_match_dense(self, lat):
        errors = loaded_errors(lat, np.random.default_rng(40 + lat.n))
        np.testing.assert_allclose(kl_elements(lat, errors),
                                   dense_elements(ground_space(lat), errors),
                                   rtol=0, atol=1e-12)

    def test_satisfied_check_is_exactly_zero(self):
        report = kl_check_toric(LAT32, 1)
        assert report.satisfied and report.max_violation == 0.0

    def test_guard_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="budget"):
                kl_check_toric(TorusLattice(3, 3), 2)
            with pytest.raises(GuardExceededError, match="budget"):
                kl_check_toric(TorusLattice(5, 2), 2)
            with pytest.raises(GuardExceededError, match="budget"):
                kl_check_toric(TorusLattice(3, 4), 2)
            with pytest.raises(GuardExceededError, match="weight"):
                kl_check_toric(LAT22, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@st.composite
def syndromes(draw):
    """(syndrome rows with repeats, N); N crosses the 1-, 2-, 4- and 8-byte
    digit widths, and rows run from no entries to past 64 bits."""
    n = draw(st.one_of(st.integers(2, 9), st.sampled_from(
        [255, 256, 257, 65535, 65536, 65537, 2 ** 32, 2 ** 32 + 1, 2 ** 62])))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    shape = (draw(st.integers(1, 30)), draw(st.integers(0, 24)))
    return draw(arrays(np.int64, shape, elements=st.sampled_from(pool))), n


@given(syndromes())
@settings(max_examples=200, deadline=None)
def test_byte_key_class_ids_match_row_unique(case):
    rows, n = case
    _, want = np.unique(rows, axis=0, return_inverse=True)
    np.testing.assert_array_equal(class_ids(rows, n), want.reshape(-1))


def violating_pairs_from_blocks(report):
    """(a, b) of one syndrome class whose C entry is 0: their logical powers
    differ."""
    pairs = set()
    for errors, block in report.c_blocks:
        rows, cols = np.nonzero(block == 0)
        pairs |= set(zip(errors[rows].tolist(), errors[cols].tolist()))
    return pairs


def assert_matches_oracle(lat, errors, tol=1e-9):
    report = kl_check_errors(lat, errors, tol)
    ref, dev = oracle_report(lat, errors, tol)
    assert report.verdict == ref.verdict
    assert report.n_errors == len(errors)
    np.testing.assert_allclose(dense_c(report), ref.c_matrix, rtol=0, atol=1e-12)
    assert report.max_violation == pytest.approx(ref.max_violation, abs=1e-12)
    over = np.abs(dev) > tol
    assert violating_pairs_from_blocks(report) == \
        set(zip(*(x.tolist() for x in np.nonzero(over.any(axis=(2, 3))))))
    # the first recorded entries in (a, b, i, j) order, equal to the oracle's
    first = [tuple(x) for x in np.argwhere(over)[:MAX_RECORDED_VIOLATIONS].tolist()]
    assert [v[:4] for v in report.violations] == first
    for a, b, i, j, value in report.violations:
        assert abs(value - dev[a, b, i, j]) <= 1e-12
    return report


class TestSyndromeClassKl:
    @pytest.mark.parametrize("n,l,w", ORACLE_CASES + [(2, 3, 1)])
    def test_matches_dense_oracle(self, n, l, w):
        lat = TorusLattice(l, n)
        assert_matches_oracle(lat, enumerate_pauli_errors(lat, w))

    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_phased_logicals_match_oracle(self, lat):
        report = assert_matches_oracle(
            lat, loaded_errors(lat, np.random.default_rng(40 + lat.n)))
        assert not report.satisfied

    def test_pair_chunks_do_not_change_c(self, monkeypatch):
        errors = enumerate_pauli_errors(LAT22, 2)
        whole = kl_check_errors(LAT22, errors)
        monkeypatch.setattr(toriccode, "KL_PAIR_CHUNK", 7)
        chunked = kl_check_errors(LAT22, errors)
        assert len(whole.c_blocks) == len(chunked.c_blocks)
        for (e1, c1), (e2, c2) in zip(whole.c_blocks, chunked.c_blocks):
            np.testing.assert_array_equal(e1, e2)
            np.testing.assert_array_equal(c1, c2)

    @pytest.mark.parametrize("n", [2, 4])
    def test_errors_on_another_n_refused(self, n):
        # enumerated at (l, N) = (2, 3) but labelled N = n; unchecked, N = 2
        # changes 12 of 545 C blocks and N = 4 indexes past the phase roots
        errors = enumerate_pauli_errors(LAT23, 2)
        relabelled = PauliArray(errors.xz, errors.phase, n)
        with pytest.raises(ValueError, match="do not act on"):
            kl_check_errors(LAT23, relabelled)
        with pytest.raises(ValueError, match="do not act on"):
            kl_check_paulis(ground_space(LAT23), relabelled)

    def test_rows_of_another_lattice_refused(self):
        errors = enumerate_pauli_errors(LAT32, 1)   # N = 2, but 2 * 18 columns
        with pytest.raises(ValueError, match="do not act on"):
            kl_check_errors(LAT22, errors)
        with pytest.raises(ValueError, match="do not act on"):
            kl_check_paulis(ground_space(LAT22), errors)

    @pytest.mark.parametrize("with_loop", [False, True])
    def test_qudits_past_int64_logical_codes(self, with_loop):
        # at N = 2^22 a pair has N^2 = 2^44 deviation entries, of which only
        # MAX_RECORDED_VIOLATIONS are kept; N^3 = 2^66 would wrap int64 to 0
        # and give M_x, with logical powers (0, 0, 0, 1), the identity's code
        lat = TorusLattice(2, 2 ** 22)
        xz = np.zeros((1 + with_loop, 2 * lat.n_edges), dtype=np.int64)
        xz[1:] = wilson_loop(lat, "x", 1, "magnetic")
        report = kl_check_errors(lat, PauliArray(xz, np.zeros(len(xz), dtype=np.int64),
                                                 lat.n))
        assert report.satisfied is not with_loop
        assert report.max_violation == float(with_loop)
        assert [v[:3] for v in report.violations] == \
            [(0, 1, i) for i in range(MAX_RECORDED_VIOLATIONS * with_loop)]
        assert all(abs(abs(v[4]) - 1) < 1e-12 for v in report.violations)

    @pytest.mark.parametrize("second", ["x0", "loop"])
    def test_large_n_holds_no_root_table(self, second):
        # the roots are computed for the phases that occur: a table of all
        # 2N of them would take 128 MiB at N = 2^22
        lat = TorusLattice(2, 2 ** 22)
        xz = np.zeros((2, 2 * lat.n_edges), dtype=np.int64)
        if second == "x0":
            xz[1, 0] = 1
        else:
            xz[1] = wilson_loop(lat, "x", 1, "magnetic")
        errors = PauliArray(xz, np.zeros(2, dtype=np.int64), lat.n)
        tracemalloc.start()
        try:
            report = kl_check_errors(lat, errors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert report.satisfied is (second == "x0")
        assert len(report.violations) == (second == "loop") * MAX_RECORDED_VIOLATIONS

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 257, 1021, 4096, 65537])
    def test_roots_match_root_table(self, n):
        lat = TorusLattice(2, n)
        errors = loaded_errors(lat, np.random.default_rng(n), count=40)
        report = kl_check_errors(lat, errors)
        assert report.violations and any(len(e) > 1 for e, _ in report.c_blocks)
        assert cli._json_bytes(report.to_json()) == \
            cli._json_bytes(root_table_json(lat, errors, report))

    def test_loose_tolerance_records_nothing(self):
        report = kl_check_toric(LAT22, 1, tol=1.0)
        assert report.satisfied and report.max_violation == 1.0
        assert report.violations == ()

    @pytest.mark.parametrize("n,l,w", [(2, 2, 2), (3, 2, 2), (2, 3, 2)])
    def test_peak_within_guard_prediction(self, n, l, w):
        lat = TorusLattice(l, n)
        tracemalloc.start()
        try:
            kl_check_toric(lat, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= kl_check_bytes(lat, w)


class TestCosetBasis:
    @pytest.mark.parametrize("lat", [LAT22, LAT23])
    def test_phase_convention(self, lat):
        # |a, b> = M_y^a E_y^-b |0, 0>: x-loops diagonal, y-loops shift
        gs = ground_space(lat)
        n = lat.n
        col = {ab: gs.basis[:, i] for i, ab in enumerate(sector_labels(lat))}
        w = np.exp(2j * np.pi / n)
        for (a, b), v in col.items():
            np.testing.assert_allclose(
                apply_pauli(lat, wilson_loop(lat, "x", 1, "electric"), 0, v),
                w ** a * v, atol=1e-12)
            np.testing.assert_allclose(
                apply_pauli(lat, wilson_loop(lat, "x", 1, "magnetic"), 0, v),
                w ** b * v, atol=1e-12)
            np.testing.assert_allclose(
                apply_pauli(lat, wilson_loop(lat, "y", 1, "magnetic"), 0, v),
                col[((a + 1) % n, b)], atol=1e-12)
            np.testing.assert_allclose(
                apply_pauli(lat, wilson_loop(lat, "y", -1, "electric"), 0, v),
                col[(a, (b + 1) % n)], atol=1e-12)


class TestSymbolicSsr:
    def test_certifies_l4_n2(self):
        assert ssr_exact_zero_check(TorusLattice(4, 2))

    def test_fails_at_weight_l(self):
        assert ssr_exact_zero_check(LAT32, 3) is False
        assert ssr_exact_zero_check(LAT22, 2) is False

    @pytest.mark.parametrize("lat", [LAT22, LAT23, LAT32])
    def test_logical_iff_x_or_z_part_is(self, lat):
        # the CSS split of a Pauli into its X and Z parts: P is undetected iff
        # both parts are, and then logical iff one of them is
        xz = loaded_errors(lat, np.random.default_rng(70 + lat.l), 150).xz
        x_part, z_part = xz.copy(), xz.copy()
        x_part[:, lat.n_edges:] = 0
        z_part[:, :lat.n_edges] = 0
        stabs = pauli_array(stabilizer_paulis(lat), lat.n).xz
        undetected = ~commutation_exponents(xz, stabs, lat.n).any(axis=1)
        mask = logical_mask(lat, xz)
        assert mask.any() and not mask[undetected].all()
        np.testing.assert_array_equal(
            mask, undetected & (logical_mask(lat, x_part) | logical_mask(lat, z_part)))

    @pytest.mark.parametrize("l,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_certificate_matches_full_enumeration(self, l, n):
        lat = TorusLattice(l, n)

        def full(w):
            return not any(logical_mask(lat, xz).any() for weight in range(1, w + 1)
                           for xz in _weight_chunks(lat, weight, 2 ** 14))

        assert ssr_exact_zero_check(lat, l - 1) is full(l - 1) is True
        assert ssr_exact_zero_check(lat, l) is full(l) is False

    @pytest.mark.parametrize("lat", [LAT22, LAT23, LAT32])
    def test_agrees_with_rank_certificate(self, lat):
        errors = loaded_errors(lat, np.random.default_rng(60 + lat.l), 150)
        mask = logical_mask(lat, errors.xz)
        stabs = stabilizer_paulis(lat)
        certs = [ssr_certificate(lat, p, stabs) for p in pauli_list(errors)]
        assert len(set(certs)) == 3
        assert mask.tolist() == [c == "logical" for c in certs]


def enumerated_distance(lat):
    """Least weight of a logical Pauli, by enumerating every Pauli weight by
    weight with the ``logical_mask`` oracle; stops at the first logical, and
    gives None if there is none up to weight l + 1."""
    return next((weight for weight in range(1, lat.l + 2)
                 if any(logical_mask(lat, xz).any()
                        for xz in _weight_chunks(lat, weight, 2 ** 14))), None)


class TestDistanceCertificate:
    @pytest.mark.parametrize("l,n", [(l, n) for l in (2, 3) for n in (2, 3, 4, 5)]
                             + [(4, 2)])
    def test_matches_full_enumeration_at_every_weight(self, l, n):
        lat = TorusLattice(l, n)
        distance = enumerated_distance(lat)
        assert distance == l
        for w in range(l + 2):
            assert ssr_exact_zero_check(lat, w) is (w < distance)

    @pytest.mark.parametrize("l,n", [(6, 2), (8, 3)])
    def test_certifies_past_enumeration_reach(self, l, n):
        lat = TorusLattice(l, n)
        assert ssr_exact_zero_check(lat) is True
        assert ssr_exact_zero_check(lat, l - 1) is True
        assert ssr_exact_zero_check(lat, l) is False

    def test_negative_weight_refused(self):
        with pytest.raises(ValueError):
            ssr_exact_zero_check(LAT32, -1)

    def test_guard_refuses_before_allocating(self):
        # (l, N) = (60, 2): the stabilizer rows alone would be 830 MB
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="budget"):
                ssr_exact_zero_check(TorusLattice(60, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_peak_within_prediction(self):
        lat = TorusLattice(20, 5)
        tracemalloc.start()
        try:
            ssr_exact_zero_check(lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ssr_check_bytes(lat)

    @pytest.mark.parametrize("change,match", [
        ("overlap", "overlap"), ("detected", "commute"), ("other logical", "powers")])
    def test_broken_translates_raise(self, monkeypatch, change, match):
        good = toriccode._probe_translates

        def broken(lat):
            rows = good(lat)
            if change == "overlap":
                rows[0, 1] = rows[0, 0]
            elif change == "detected":
                rows[2, 1, lat.l ** 2] = 1      # an extra X on v(0, 0)
            else:
                rows[0, 1] = rows[1, 0]         # M_x in place of an M_y translate
            return rows

        monkeypatch.setattr(toriccode, "_probe_translates", broken)
        with pytest.raises(RuntimeError, match=match):
            ssr_exact_zero_check(LAT32)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_logicals_are_logical_and_at_least_l_long(self, data):
        l = data.draw(st.integers(2, 8))
        n = data.draw(st.integers(2, 5))
        lat = TorusLattice(l, n)
        stabs = _stabilizer_rows(lat)
        probe_c = data.draw(arrays(np.int64, 4, elements=st.integers(0, n - 1))
                            .filter(lambda c: c.any()))
        stab_c = data.draw(arrays(np.int64, len(stabs),
                                  elements=st.integers(0, n - 1)))
        xz = (probe_c @ _logical_probes(lat) + stab_c @ stabs) % n
        assert logical_mask(lat, xz[None]).all()
        m = lat.n_edges
        assert np.count_nonzero(xz[:m] | xz[m:]) >= l


class TestCommutationExponentsExact:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_float_product_matches_int64(self, data):
        n = data.draw(st.integers(2, 64))
        width = 2 * data.draw(st.integers(1, 40))
        a = data.draw(arrays(np.int64, (data.draw(st.integers(1, 6)), width),
                             elements=st.integers(0, n - 1)))
        b = data.draw(arrays(np.int64, (data.draw(st.integers(1, 6)), width),
                             elements=st.integers(0, n - 1)))
        half = width // 2
        want = (a @ np.concatenate([-b[:, half:], b[:, :half]], axis=1).T) % n
        got = commutation_exponents(a, b, n)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [10 ** 9 + 7, 2 ** 31 - 1])
    def test_inexact_n_refused(self, n):
        # 36 columns times (N - 1)^2 passes 2^53: the float64 sums would round
        with pytest.raises(ValueError, match="too large"):
            ssr_exact_zero_check(TorusLattice(3, n))

    def test_large_exact_n_certifies(self):
        lat = TorusLattice(3, 10 ** 7)          # 36 (N - 1)^2 < 2^53
        assert ssr_exact_zero_check(lat, 2) is True
        assert ssr_exact_zero_check(lat, 3) is False


def kl_fits(lat, w):
    try:
        kl_guard(lat, w)
    except GuardExceededError:
        return False
    return True


KL_DISTANCE_CASES = [(n, l, w) for n in (2, 3, 4) for l in (2, 3, 4) for w in (1, 2)
                     if kl_fits(TorusLattice(l, n), w)]


@pytest.mark.parametrize("n,l,w", KL_DISTANCE_CASES)
def test_kl_verdict_matches_distance(n, l, w):
    # errors of weight <= w are correctable iff every pair product, of weight
    # <= 2 w, lies below the distance l
    report = kl_check_toric(TorusLattice(l, n), w)
    assert (report.verdict == "satisfied") is (2 * w < l)


class TestDenseGuard:
    def test_refusals_allocate_nothing(self):
        gs42, gs32 = ground_space(TorusLattice(2, 4)), ground_space(LAT32)
        errors42 = enumerate_pauli_errors(TorusLattice(2, 4), 1)
        errors32 = enumerate_pauli_errors(LAT32, 1)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="budget"):
                ground_space(TorusLattice(3, 3))
            with pytest.raises(GuardExceededError, match="budget"):
                kl_check_paulis(gs42, errors42)           # (N, l, w) = (4, 2, 1)
            with pytest.raises(GuardExceededError, match="budget"):
                kl_check_paulis(gs32, errors32)           # (2, 3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("n,l,w", ORACLE_CASES)
    def test_peaks_within_prediction(self, n, l, w):
        lat = TorusLattice(l, n)
        errors = enumerate_pauli_errors(lat, w)
        tracemalloc.start()
        try:
            gs = ground_space(lat)
            gs_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            kl_check_paulis(gs, errors)
            kl_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gs_peak <= ground_space_bytes(lat)
        assert kl_peak <= gs.basis.nbytes + kl_check_paulis_bytes(lat, len(errors))

    def test_enumeration_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="budget"):
                enumerate_pauli_errors(TorusLattice(2, 60), 2)   # (N, l, w) = (60, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("n,l,w", ORACLE_CASES)
    def test_enumeration_peak_within_prediction(self, n, l, w):
        lat = TorusLattice(l, n)
        tracemalloc.start()
        try:
            enumerate_pauli_errors(lat, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= enumeration_bytes(lat, w)
