"""Runner layer: config validation, dispatch, reproducibility, exit codes."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssrqec import cli, klcore, rotor, scatter, toriccode
from ssrqec.errors import MEMORY_BUDGET
from ssrqec.hilbert import (ProductSpace, StateVector, apply, basis_state,
                            identity, operator_to_json, tensor_product,
                            vector_to_json)
from ssrqec.qcdcode import binomial_tail

import helpers


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def qcd_config(**overrides):
    cfg = {"experiment": "qcd-code", "seed": 7,
           "params": {"n": 3, "p": 0.1, "trials": 2000}}
    cfg["params"].update(overrides)
    return cfg


def xsec_config(**overrides):
    cfg = {"experiment": "xsec",
           "params": {"masses": [938.3, 10.0, 939.6, 139.6],
                      "g1": 0.8, "g2": 0.5, "lam": 1.2,
                      "e_cm_min": 950.0, "e_cm_max": 1400.0, "steps": 25,
                      "n_theta": 16}}
    cfg["params"].update(overrides)
    return cfg


def rotor_config(**overrides):
    cfg = {"experiment": "rotor",
           "params": {"q_max": 4, "w": 1, "profile": "uniform",
                      "logical_charges": [0, 1], "error_side": "B",
                      "error_charges": [1]}}
    cfg["params"].update(overrides)
    return cfg


# Configs that run would refuse inside sigma_tot_grid: an initial state
# below m1 + m2, an energy above threshold within the pole guard, and k1
# off shell by rounding at E = 10^6 MeV; and an energy range the plan
# refuses because it runs backwards.
XSEC_REFUSED = {
    "e_cm_min must not exceed e_cm_max": xsec_config(e_cm_min=1500.0),
    "initial state": xsec_config(e_cm_min=900.0),
    "pole guard": xsec_config(masses=[938.3, 0.0, 1.0, 1.0], e_cm_min=938.3001,
                              e_cm_max=938.3002, steps=3),
    "momentum off shell": xsec_config(masses=[1.0, 0.0, 1.0, 0.0], e_cm_min=1e6,
                                      e_cm_max=1e6, steps=1),
}


def kl_config(codewords, errors):
    return {"experiment": "kl-check",
            "params": {"codewords": codewords, "errors": errors}}


def interchange(dims, re, im=None):
    return {"dims": dims, "re": re, "im": [0.0] * len(re) if im is None else im}


E0, E1 = interchange([2], [1.0, 0.0]), interchange([2], [0.0, 1.0])
ID2 = interchange([2], [1.0, 0.0, 0.0, 1.0])
# Configs a size guard refuses before anything is parsed or built: 3 000
# 1 x 1 errors on one codeword, and 10^7 cross-section energies.
SIZE_REFUSED = {
    "kl-check": kl_config([interchange([1], [1.0])], [interchange([1], [1.0])] * 3000),
    "xsec": xsec_config(steps=10 ** 7),
}
REFUSED_BEFORE_RUN = {
    **XSEC_REFUSED,
    "rotor charge": rotor_config(q_max=4, error_charges=[7]),
    "rotor equal logical charges": rotor_config(logical_charges=[1, 1]),
    "kl re longer than dims": kl_config([interchange([2], [1.0, 0.0, 0.0]), E1], [ID2]),
    "kl re/im lengths differ": kl_config([interchange([2], [1.0, 0.0], [0.0]), E1],
                                         [ID2]),
    "kl error dims differ": kl_config([E0, E1], [interchange([3], [1.0] + [0.0] * 8)]),
    "kl codewords on different spaces": kl_config(
        [E0, interchange([3], [0.0, 1.0, 0.0])], [ID2]),
    "kl zero codeword": kl_config([E0, interchange([2], [0.0, 0.0])], [ID2]),
}


# Each integer field, the seed included, as an integral float in a config
# that is valid with an int there: JSON "3.0" reads as a float, which no
# integer field takes.
def _toric(**params):
    return {"experiment": "toric", "params": {"n": 2, "l": 2, **params}}


INTEGER_AS_FLOAT = {
    "seed": {**qcd_config(), "seed": 7.0},
    "rotor q_max": rotor_config(q_max=4.0),
    "rotor w": rotor_config(w=1.0),
    "rotor logical_charges": rotor_config(logical_charges=[0, 1.0]),
    "rotor error_charges": rotor_config(error_charges=[1.0]),
    "qcd-code n": qcd_config(n=3.0),
    "qcd-code trials": qcd_config(trials=2000.0),
    "qcd-code workers": qcd_config(workers=1.0),
    "xsec steps": xsec_config(steps=3.0),
    "xsec n_theta": xsec_config(n_theta=16.0),
    "toric n": _toric(n=2.0),
    "toric l": _toric(l=2.0),
    "toric max_weight": _toric(max_weight=1.0),
}


def integral_floats_as_ints(obj):
    if isinstance(obj, dict):
        return {k: integral_floats_as_ints(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [integral_floats_as_ints(v) for v in obj]
    return int(obj) if isinstance(obj, float) and obj.is_integer() else obj


# Non-finite numbers and an int beyond the double range, as a Python caller
# can pass them; the file reader of main refuses the first two before planning.
_TORIC_TOL_INF = {"experiment": "toric", "params": {"n": 2, "l": 2, "tol": math.inf}}
NOT_FINITE = {
    "xsec g1 NaN": xsec_config(g1=math.nan),
    "toric tol inf": _TORIC_TOL_INF,
    "xsec g1 10**400": xsec_config(g1=10 ** 400),
}


# Config files that stdlib json.loads reads but that are not strict JSON
# (RFC 8259) or not UTF-8; each would otherwise run on a NaN or an infinity.
_TOL_INF = kl_config([E0, E1], [ID2])
_TOL_INF["params"]["tol"] = math.inf
NOT_STRICT_JSON = {
    "xsec g1 NaN": json.dumps(xsec_config(g1=math.nan)).encode(),
    "qcd-rates temperature Infinity": json.dumps(
        {"experiment": "qcd-rates", "params": {"temperatures": [math.inf]}}).encode(),
    "kl-check tol Infinity": json.dumps(_TOL_INF).encode(),
    "xsec lam -1e999": json.dumps(xsec_config(lam=-0.25)).replace(
        "-0.25", "-1e999").encode(),
    "not UTF-8": b"\xff\xfe{}",
}


class TestValidate:
    def test_valid_config_no_diagnostics(self):
        assert cli.validate(qcd_config()) == []

    def test_unknown_key_rejected(self):
        cfg = qcd_config()
        cfg["params"]["bogus"] = 1
        diags = cli.validate(cfg)
        assert diags and "bogus" in diags[0]

    def test_even_n_diagnostic(self):
        diags = cli.validate(qcd_config(n=4))
        assert any("odd" in d for d in diags)

    def test_missing_seed_for_stochastic(self):
        cfg = qcd_config()
        del cfg["seed"]
        assert any("seed" in d for d in cli.validate(cfg))

    def test_rotor_window_overflow_rejected(self):
        diags = cli.validate(rotor_config(q_max=2, w=2, logical_charges=[0, 1]))
        assert len(diags) == 1 and "charge 1" in diags[0]
        assert cli.validate(rotor_config(q_max=2, w=1, logical_charges=[-1, 1])) == []

    def test_rotor_error_charge_outside_truncation_rejected(self):
        diags = cli.validate(rotor_config(q_max=4, error_charges=[1, 7]))
        assert len(diags) == 1 and "charge 7" in diags[0]
        assert cli.validate(rotor_config(q_max=4, error_charges=[-4, 4])) == []

    @pytest.mark.parametrize("reason", sorted(XSEC_REFUSED))
    def test_xsec_grid_refusals(self, reason):
        diags = cli.validate(XSEC_REFUSED[reason])
        assert len(diags) == 1 and reason in diags[0]

    def test_toric_guard_diagnostic(self):
        # guard on the bytes the KL check holds (at 16 E^2 bytes or more, it
        # refuses every count above 8 192 errors) and on the weight
        for params in ({"n": 3, "l": 3, "max_weight": 2},
                       {"n": 2, "l": 5, "max_weight": 2},
                       {"n": 4, "l": 3, "max_weight": 2},
                       {"n": 2, "l": 2, "max_weight": 3}):
            cfg = {"experiment": "toric", "params": params}
            assert any("guard" in d for d in cli.validate(cfg)), params

    def test_toric_refusals_match_count_and_bytes_rule(self):
        # the guard refuses exactly what the weight cap, a 10 000-error cap and
        # the bytes bound refuse together: the bytes bound implies the count cap
        refused = 0
        for n, l, w in itertools.product(range(2, 9), range(2, 11), range(1, 4)):
            lat = toriccode.TorusLattice(l, n)
            rule = (w > 2 or toriccode.error_count(lat, w) > 10_000
                    or toriccode.kl_check_bytes(lat, w) > MEMORY_BUDGET)
            cfg = {"experiment": "toric", "params": {"n": n, "l": l, "max_weight": w}}
            assert bool(cli.validate(cfg)) is rule, (n, l, w)
            refused += rule
        assert refused == 126

    def test_toric_guard_admits_large_lattice(self):
        cfg = {"experiment": "toric", "params": {"n": 3, "l": 3}}
        assert cli.validate(cfg) == []

    def test_unknown_experiment_rejected(self):
        diags = cli.validate({"experiment": "nope", "params": {}})
        assert diags and diags[0].startswith("schema")

    def test_schema_subcommand_structure(self):
        schema = cli.config_schema()
        assert set(schema["param_schemas"]) == {
            "kl-check", "rotor", "qcd-rates", "qcd-code", "xsec", "toric"}


class TestRun:
    def test_qcd_code_outputs_and_manifest(self, tmp_path):
        report = cli.run(qcd_config(trials=20000), str(tmp_path))
        csv_path = tmp_path / "logical_error_rate.csv"
        assert csv_path.exists()
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert report["outputs"]["logical_error_rate.csv"] == digest
        rate = float(csv_path.read_text().splitlines()[1].split(",")[2])
        tail = binomial_tail(3, 0.1)
        assert abs(rate - tail) < 5 * np.sqrt(tail / 20000)
        saved = json.loads((tmp_path / "run_report.json").read_text())
        assert saved["assumption_notes"]

    @pytest.mark.parametrize("n,trials,seed,digest", [
        (3, 20000, 7,
         "8f78b7c885e3f0e75a639d9a7c3395fb660116037f07a3b73de899ec0a4b4013"),
        (101, 5000, 3,
         "27ab4b17177a04d8496cad015b41390e8aa8f7ae11d701289ced768c012e89bd")])
    def test_qcd_code_csv_bytes_pinned(self, tmp_path, n, trials, seed, digest):
        # digests recorded with the row-major cumprod decoder; any decoder
        # must reproduce these bytes for these seeds
        cfg = {"experiment": "qcd-code", "seed": seed,
               "params": {"n": n, "p": 0.1, "trials": trials}}
        cli.run(cfg, str(tmp_path))
        data = (tmp_path / "logical_error_rate.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_toric_n3_l3_runs_satisfied(self, tmp_path):
        cfg = {"experiment": "toric", "params": {"n": 3, "l": 3}}
        cli.run(cfg, str(tmp_path))
        rows = (tmp_path / "sectors.csv").read_text().splitlines()
        assert len(rows) == 10  # header + nine sectors
        report = json.loads((tmp_path / "kl_report.json").read_text())
        assert report["verdict"] == "satisfied"
        assert report["max_violation"] == 0.0

    @pytest.mark.parametrize("n,l,w", [(3, 2, 2), (2, 3, 2), (2, 4, 2), (2, 5, 1)])
    def test_toric_verdict_follows_distance(self, tmp_path, n, l, w):
        cfg = {"experiment": "toric", "params": {"n": n, "l": l, "max_weight": w}}
        assert cli.validate(cfg) == []
        cli.run(cfg, str(tmp_path))
        report = json.loads((tmp_path / "kl_report.json").read_text())
        assert (report["verdict"] == "satisfied") is (2 * w < l)
        blocks = report["c_blocks"]
        assert sorted(e for b in blocks for e in b["errors"]) == \
            list(range(report["n_errors"]))

    def test_toric_report_bytes_reproducible(self, tmp_path):
        cfg = {"experiment": "toric", "params": {"n": 2, "l": 2, "max_weight": 2}}
        blobs = set()
        for name in ("a", "b"):
            cli.run(cfg, str(tmp_path / name))
            blobs.add((tmp_path / name / "kl_report.json").read_bytes())
        assert len(blobs) == 1

    def test_toric_sector_table(self, tmp_path):
        cfg = {"experiment": "toric", "params": {"n": 2, "l": 2}}
        cli.run(cfg, str(tmp_path))
        rows = (tmp_path / "sectors.csv").read_text().splitlines()
        assert len(rows) == 5  # header + four sectors
        report = json.loads((tmp_path / "kl_report.json").read_text())
        assert report["verdict"] == "violated"

    def test_kl_check_experiment(self, tmp_path):
        sp2 = ProductSpace((2,))
        z = operator_to_json(identity(sp2))
        z["re"][3] = -1.0
        cfg = {"experiment": "kl-check",
               "params": {"codewords": [vector_to_json(basis_state(sp2, 0)),
                                        vector_to_json(basis_state(sp2, 1))],
                          "errors": [operator_to_json(identity(sp2)), z]}}
        cli.run(cfg, str(tmp_path))
        report = json.loads((tmp_path / "kl_report.json").read_text())
        assert report["verdict"] == "violated"
        assert report["max_violation"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("q_max, w, profile, flips", [
        (4, 1, "uniform", [1]), (4, 1, "uniform", [0, 0]),
        (6, 3, "gaussian", [1, -2, 1]), (9, 4, "uniform", [-3, 2, 5, 2])])
    def test_rotor_rows_match_dense_operators(self, tmp_path, side, q_max, w,
                                              profile, flips):
        # reference: the dense Z_q (x) I / I (x) Z_q operators applied in turn
        space = rotor.RotorSpace(q_max)
        alpha = beta = 1.0 / np.sqrt(2.0)
        w1 = helpers.build_codeword(space, space, 0, profile, w)
        w2 = helpers.build_codeword(space, space, 1, profile, w)
        psi = StateVector(w1.space, alpha * w1.amplitudes + beta * w2.amplitudes)
        ident = identity(space.product_space())
        for q in flips:
            z = helpers.phase_flip(space, q)
            psi = apply(tensor_product(z, ident) if side == "A"
                        else tensor_product(ident, z), psi)
        expect = [[helpers.csv_cell(oc.outcome), helpers.csv_cell(oc.probability),
                   helpers.csv_cell(rotor.logical_fidelity(oc.alpha, oc.beta, alpha, beta))]
                  for oc in helpers.enumerate_recovery(psi, (0, 1))]
        cli.run(rotor_config(q_max=q_max, w=w, profile=profile, error_side=side,
                             error_charges=flips), str(tmp_path))
        with open(tmp_path / "rotor_recovery.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == expect

    def test_rotor_experiment_fidelities(self, tmp_path):
        cfg = {"experiment": "rotor", "seed": 1,
               "params": {"q_max": 4, "w": 1, "profile": "uniform",
                          "logical_charges": [0, 1], "error_side": "B",
                          "error_charges": [1]}}
        cli.run(cfg, str(tmp_path))
        rows = (tmp_path / "rotor_recovery.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            assert float(row.split(",")[2]) == pytest.approx(1.0, abs=1e-10)

    def test_rotor_runs_without_seed(self, tmp_path):
        cfg = rotor_config()
        assert cli.validate(cfg) == []
        cli.run(cfg, str(tmp_path))
        assert (tmp_path / "rotor_recovery.csv").exists()

    def test_xsec_experiment_threshold_column(self, tmp_path):
        cfg = {"experiment": "xsec",
               "params": {"masses": [938.3, 1.0, 939.6, 139.6],
                          "g1": 0.0, "g2": 0.0, "lam": 0.0,
                          "e_cm_min": 1000.0, "e_cm_max": 1150.0, "steps": 3}}
        cli.run(cfg, str(tmp_path))
        rows = (tmp_path / "cross_section.csv").read_text().splitlines()[1:]
        flags = [row.split(",")[2] for row in rows]
        assert flags == ["False", "False", "True"]

    @pytest.mark.parametrize("e_cm_min", [950.0, 939.6 + 139.6])
    def test_xsec_csv_matches_scalar_loop(self, tmp_path, e_cm_min):
        cfg = xsec_config(e_cm_min=e_cm_min)
        p = cfg["params"]
        masses = tuple(p["masses"])
        cli.run(cfg, str(tmp_path))
        with open(tmp_path / "cross_section.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["e_cm_mev", "sigma_mev^-2", "above_threshold"]
        energies = np.linspace(p["e_cm_min"], p["e_cm_max"], p["steps"])
        assert len(rows) == len(energies)
        for row, e in zip(rows, energies):
            e = float(e)

            def amp2(c):
                ks = scatter.cm_kinematics(e, *masses, cos_theta=c)
                return scatter.spin_summed_amp2(*ks, p["g1"], p["g2"], p["lam"],
                                                m_p=masses[0], m_n=masses[2])

            ref = scatter.sigma_tot(e, masses, amp2, p["n_theta"])
            assert [row[0], row[2]] == [repr(e), str(ref.above_threshold)]
            if e <= masses[2] + masses[3]:
                assert row[1] == "0.0"
            else:
                assert float(row[1]) == pytest.approx(ref.sigma, rel=1e-12, abs=0.0)
        assert rows[0][2] == "False" and rows[-1][2] == "True"

    def test_xsec_solves_quadrature_once(self, tmp_path, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        scatter._gauss_legendre.cache_clear()
        cfg = xsec_config(n_theta=257)
        assert cli.validate(cfg) == []
        report = cli.run(cfg, str(tmp_path))
        assert calls == [257]
        # bytes recorded when validate and run each solved for the nodes
        assert report["outputs"]["cross_section.csv"] == \
            "d3d75a9f1c810e5e128370e30872f9a6afa3863b143a1d0c5387323b3626c669"

    def test_qcd_rates_experiment(self, tmp_path):
        cfg = {"experiment": "qcd-rates",
               "params": {"temperatures": [14.0], "energies": [16.5]}}
        cli.run(cfg, str(tmp_path))
        t_row = (tmp_path / "thermal_suppression.csv").read_text().splitlines()[1]
        assert float(t_row.split(",")[1]) == pytest.approx(np.exp(-10))

    def test_invalid_config_raises_before_output(self, tmp_path):
        cfg = qcd_config()
        cfg["params"]["bogus"] = True
        with pytest.raises(cli.ConfigError):
            cli.run(cfg, str(tmp_path / "sub"))
        assert not (tmp_path / "sub").exists()


class TestReproducibility:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_bitwise_identical_across_worker_counts(self, tmp_path, workers):
        out = tmp_path / f"w{workers}"
        cli.run(qcd_config(trials=4000, workers=workers), str(out))
        data = (out / "logical_error_rate.csv").read_bytes()
        ref_dir = tmp_path / "ref"
        if not ref_dir.exists():
            cli.run(qcd_config(trials=4000, workers=1), str(ref_dir))
        assert data == (ref_dir / "logical_error_rate.csv").read_bytes()

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        r1 = cli.run(qcd_config(), str(a))
        r2 = cli.run(qcd_config(), str(b))
        assert r1["outputs"] == r2["outputs"]


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, qcd_config(trials=500))
        rc = cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 0
        assert "outputs" in capsys.readouterr().out

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        bad = qcd_config()
        bad["params"]["bogus"] = 1
        cfg = write_config(tmp_path, bad)
        assert cli.main(["run", str(cfg)]) == cli.EXIT_SCHEMA

    def test_guard_exceeded_exit_3(self, tmp_path, capsys):
        def toric(n, l, w):
            return {"experiment": "toric", "params": {"n": n, "l": l, "max_weight": w}}
        for name, config in (("a", toric(2, 5, 2)), ("b", toric(4, 3, 2)),
                             ("c", xsec_config(n_theta=2 ** 14)),
                             ("d", rotor_config(q_max=10 ** 8)),
                             ("e", SIZE_REFUSED["kl-check"]), ("f", SIZE_REFUSED["xsec"])):
            cfg = write_config(tmp_path, config, f"{name}.json")
            assert cli.main(["validate", str(cfg)]) == cli.EXIT_GUARD
            assert cli.main(["run", str(cfg), "--output-dir",
                             str(tmp_path / name)]) == cli.EXIT_GUARD
            assert not (tmp_path / name).exists()

    def test_rotor_guard_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            diags = cli.validate(rotor_config(q_max=10 ** 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(diags) == 1 and "guard" in diags[0]
        assert peak < 2 ** 20
        assert cli.validate(rotor_config(q_max=400, w=3)) == []

    def test_rotor_guard_counts_the_window(self):
        # entries, not only q_max: a window near q_max outgrows the budget
        assert cli.validate(rotor_config(q_max=10 ** 6, w=3)) == []
        diags = cli.validate(rotor_config(q_max=3 * 10 ** 6, w=3 * 10 ** 6 - 1))
        assert len(diags) == 1 and "guard" in diags[0]

    @pytest.mark.parametrize("name", sorted(NOT_FINITE))
    def test_not_finite_refused_for_python_callers(self, tmp_path, capsys, name):
        config = NOT_FINITE[name]
        assert len(cli.validate(config)) == 1
        with pytest.raises(cli.ConfigError):
            cli.run(config, str(tmp_path / "o"))
        assert not (tmp_path / "o").exists()
        path = write_config(tmp_path, config)
        assert cli.main(["validate", str(path)]) == cli.EXIT_SCHEMA
        assert cli.main(["run", str(path), "--output-dir",
                         str(tmp_path / "o")]) == cli.EXIT_SCHEMA
        assert not (tmp_path / "o").exists()

    def test_integer_fields_all_listed(self):
        fields = {"seed"} | {
            f"{name} {key}" for name, e in cli.EXPERIMENTS.items()
            for key, sub in e.schema["properties"].items()
            if "integer" in (sub["type"], sub.get("items", {}).get("type"))}
        assert set(INTEGER_AS_FLOAT) == fields

    @pytest.mark.parametrize("name", sorted(INTEGER_AS_FLOAT))
    def test_integral_float_refused_for_integer_field(self, tmp_path, capsys, name):
        config = INTEGER_AS_FLOAT[name]
        assert cli.validate(integral_floats_as_ints(config)) == []
        path = write_config(tmp_path, config)
        assert cli.main(["validate", str(path)]) == cli.EXIT_SCHEMA
        assert cli.main(["run", str(path), "--output-dir",
                         str(tmp_path / "o")]) == cli.EXIT_SCHEMA
        assert not (tmp_path / "o").exists()

    def test_largest_seed_runs(self, tmp_path, capsys):
        cfg = qcd_config(trials=500)
        cfg["seed"] = 2 ** 64 - 1
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 0

    def test_validate_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, qcd_config())
        assert cli.main(["validate", str(cfg)]) == 0
        bad = write_config(tmp_path, qcd_config(n=4), "bad.json")
        assert cli.main(["validate", str(bad)]) == cli.EXIT_SCHEMA

    def test_rotor_window_overflow_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rotor_config(q_max=2, w=3))
        assert cli.main(["validate", str(cfg)]) == cli.EXIT_SCHEMA
        assert cli.main(["run", str(cfg), "--output-dir",
                         str(tmp_path / "o")]) == cli.EXIT_SCHEMA
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", sorted(REFUSED_BEFORE_RUN))
    def test_refused_before_run_exit_2(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, REFUSED_BEFORE_RUN[name])
        assert cli.main(["validate", str(cfg)]) == cli.EXIT_SCHEMA
        assert cli.main(["run", str(cfg), "--output-dir",
                         str(tmp_path / "o")]) == cli.EXIT_SCHEMA
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("exc, code", [(MemoryError, cli.EXIT_GUARD),
                                           (RuntimeError, cli.EXIT_INVARIANT)])
    def test_runner_failure_exit_code(self, tmp_path, capsys, monkeypatch, exc, code):
        def fail(planned, outdir, seed):
            raise exc("boom")
        monkeypatch.setattr(cli.EXPERIMENTS["rotor"], "run", fail)
        cfg = write_config(tmp_path, rotor_config())
        assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "o")]) == code

    def test_validate_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        def fail(e_values, masses, n_theta):
            raise MemoryError("boom")
        monkeypatch.setattr(scatter, "check_energies", fail)
        cfg = write_config(tmp_path, xsec_config())
        assert cli.main(["validate", str(cfg)]) == cli.EXIT_GUARD
        assert "out of memory" in capsys.readouterr().err

    def test_schema_subcommand(self, capsys):
        assert cli.main(["schema"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["required"] == ["experiment", "params"]
        # digest recorded with print(json.dumps(schema, indent=2, sort_keys=True))
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
            "e2e9c245afaeed11f0865cc7c41ef230085e8ab56d8d8501144b19bd8cca0ec0"

    def test_unreadable_config(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.json")]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("name", sorted(NOT_STRICT_JSON))
    def test_config_file_must_be_strict_json(self, tmp_path, capsys, name):
        path = tmp_path / "config.json"
        path.write_bytes(NOT_STRICT_JSON[name])
        for command in (["validate", str(path)],
                        ["run", str(path), "--output-dir", str(tmp_path / "o")]):
            assert cli.main(command) == cli.EXIT_SCHEMA
            assert "error: cannot read config:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


CHECKED_KEYWORDS = {
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
    "items", "minItems", "maxItems", "uniqueItems", "properties", "required",
    "additionalProperties"}
_BOUNDS = {"type", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
KEYWORDS = {"string": {"type", "enum"}, "integer": _BOUNDS, "number": _BOUNDS,
            "array": {"type", "items", "minItems", "maxItems", "uniqueItems"},
            "object": {"type", "properties", "required", "additionalProperties"}}


def subschemas(schema: dict):
    """``schema`` and every schema under it, through properties and items."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


class TestRegistry:
    def test_every_schema_is_valid_against_its_metaschema(self):
        jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)
        for experiment in cli.EXPERIMENTS.values():
            jsonschema.Draft202012Validator.check_schema(experiment.schema)

    def test_checker_handles_every_schema_keyword(self):
        # what cli._violation relies on: each schema names one type and uses
        # only that type's keywords among the 13 it handles, enums hold strings,
        # additionalProperties is false, numeric bounds are finite doubles and
        # unique items are numbers, so hashable and never bools once checked
        # (then a set counts 1 and 1.0 as one item, as Draft 2020-12 does)
        assert set().union(*KEYWORDS.values()) == CHECKED_KEYWORDS
        for schema in [cli.CONFIG_SCHEMA, *(e.schema for e in cli.EXPERIMENTS.values())]:
            for sub in subschemas(schema):
                assert set(sub) <= KEYWORDS[sub["type"]], sub
                assert all(isinstance(v, str) for v in sub.get("enum", []))
                assert sub.get("additionalProperties", False) is False
                assert all(abs(sub[k]) <= sys.float_info.max
                           for k in KEYWORDS["number"] - {"type"} if k in sub)
                if sub.get("uniqueItems"):
                    assert sub["items"]["type"] in ("integer", "number")

    def test_schema_subcommand_lists_the_registry(self):
        names = cli.CONFIG_SCHEMA["properties"]["experiment"]["enum"]
        assert names == list(cli.EXPERIMENTS)
        assert cli.config_schema()["param_schemas"] == {
            name: e.schema for name, e in cli.EXPERIMENTS.items()}


# One small valid config per experiment, and the domain modules each one loads.
SMALL_CONFIGS = {
    "kl-check": kl_config([E0, E1], [ID2]),
    "rotor": rotor_config(),
    "qcd-rates": {"experiment": "qcd-rates",
                  "params": {"temperatures": [14.0], "energies": [16.5]}},
    "qcd-code": qcd_config(),
    "xsec": xsec_config(),
    "toric": {"experiment": "toric", "params": {"n": 2, "l": 2}},
}
DOMAIN_MODULES = {"hilbert", "klcore", "qcdcode", "rotor", "scatter", "toriccode"}
CHAINS = {
    "kl-check": {"klcore", "hilbert"},
    "rotor": {"rotor"},
    "qcd-rates": {"qcdcode"},
    "qcd-code": {"qcdcode"},
    "xsec": {"scatter"},
    "toric": {"toriccode"},
}


def fresh_interpreter(script: str) -> list:
    """Run script in a new interpreter that imports ssrqec from the same
    place as this process; returns the JSON values it prints, one a line.
    The script may call ``loaded()``: the domain modules imported so far."""
    prelude = ("import json, sys\n"
               "def loaded():\n"
               "    return sorted(m[7:] for m in sys.modules if m.startswith('ssrqec.')\n"
               f"                  and m[7:] in {sorted(DOMAIN_MODULES)!r})\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", prelude + script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


class TestLazyImports:
    def test_package_and_cli_load_no_domain_module(self):
        assert fresh_interpreter(
            "import ssrqec, ssrqec.cli\nprint(json.dumps(loaded()))") == [[]]

    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_experiment_loads_only_its_chain(self, tmp_path, name):
        validated, ran = fresh_interpreter(
            "from ssrqec import cli\n"
            f"config = {SMALL_CONFIGS[name]!r}\n"
            "assert cli.validate(config) == []\n"
            "print(json.dumps(loaded()))\n"
            f"cli.run(config, {str(tmp_path)!r})\n"
            "print(json.dumps(loaded()))\n")
        assert set(validated) <= CHAINS[name]
        assert set(ran) == CHAINS[name]

    def test_library_chains_load_the_dense_layer_on_demand(self):
        # the symbolic toric and rotor paths run without hilbert and klcore;
        # the dense objects load them when called
        symbolic, dense, m_inv, oracle = fresh_interpreter(
            "import numpy as np\n"
            "from ssrqec import rotor, toriccode as tc\n"
            "lat = tc.TorusLattice(2, 2)\n"
            "tc.kl_check_toric(lat, 1).to_json()\n"
            "assert tc.ssr_exact_zero_check(lat)\n"
            "space = rotor.RotorSpace(3)\n"
            "w0, w1 = (rotor.build_codeword(space, space, q) for q in (0, 1))\n"
            "psi = rotor.apply_phase_flip(w0.combine(0.6, w1, 0.8), 1, 'B')\n"
            "assert len(rotor.enumerate_recovery(psi, (0, 1))[0])\n"
            "print(json.dumps(loaded()))\n"
            "assert psi.dense().space.factor_dims == (7, 7)\n"
            "print(json.dumps(loaded()))\n"
            "from ssrqec.hilbert import Operator\n"
            "out = rotor.m_inv(Operator(space.product_space(), np.eye(7)),\n"
            "                  rotor.GroupDiscretization(7))\n"
            "print(json.dumps(out.space.factor_dims))\n"
            "gs = tc.ground_space(lat)\n"
            "tc.kl_check_paulis(gs, tc.enumerate_pauli_errors(lat, 1))\n"
            "print(json.dumps(loaded()))\n")
        assert symbolic == ["rotor", "toriccode"]
        assert dense == ["hilbert", "rotor", "toriccode"]
        assert m_inv == [7, 7]
        assert oracle == ["hilbert", "klcore", "rotor", "toriccode"]

    def test_cli_does_not_load_jsonschema(self):
        # jsonschema is a test-only oracle, not a runtime dependency
        assert fresh_interpreter("import ssrqec.cli\n"
                                 "print(json.dumps('jsonschema' in sys.modules))") == [False]

    def test_every_submodule_resolves(self):
        names, same_errors = fresh_interpreter(
            "import importlib, ssrqec\n"
            "subs = sorted(set(ssrqec.__all__) - {'__version__'})\n"
            "assert set(subs) <= set(dir(ssrqec))\n"
            "print(json.dumps([n for n in subs if getattr(ssrqec, n) is\n"
            "                  importlib.import_module('ssrqec.' + n)]))\n"
            "from ssrqec import errors, scatter, toriccode\n"
            "print(json.dumps([toriccode.GuardExceededError is errors.GuardExceededError,\n"
            "                  scatter.PropagatorPoleError is errors.PropagatorPoleError]))\n")
        assert names == sorted(DOMAIN_MODULES | {"cli", "errors"})
        assert same_errors == [True, True]

    def test_dir_lists_all_and_loads_nothing(self):
        import ssrqec
        loaded = set(sys.modules)
        assert set(ssrqec.__all__) <= set(dir(ssrqec))
        assert set(sys.modules) == loaded

    def test_unknown_attribute_raises_attribute_error(self):
        import ssrqec
        with pytest.raises(AttributeError, match="no_such_module"):
            ssrqec.no_such_module


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
def test_outputs_hash_the_files_on_disk(tmp_path, name):
    # a second run into the same directory replaces the files with equal bytes
    first = cli.run(SMALL_CONFIGS[name], str(tmp_path))
    kept = {file_name: (tmp_path / file_name).read_bytes() for file_name in first["outputs"]}
    report = cli.run(SMALL_CONFIGS[name], str(tmp_path))
    assert first["outputs"]
    assert report["outputs"] == first["outputs"]
    for file_name, digest in report["outputs"].items():
        data = (tmp_path / file_name).read_bytes()
        assert data == kept[file_name]
        assert hashlib.sha256(data).hexdigest() == digest
    saved = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
    assert saved["outputs"] == report["outputs"]


def test_outputs_replace_links_not_write_through_them(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    target, sibling = tmp_path / "target", tmp_path / "sibling"
    target.write_bytes(b"target")
    sibling.write_bytes(b"sibling")
    (out / "logical_error_rate.csv").symlink_to(target)
    os.link(sibling, out / "run_report.json")
    report = cli.run(qcd_config(trials=500), str(out))
    for name in ("logical_error_rate.csv", "run_report.json"):
        path = out / name
        assert not path.is_symlink() and path.is_file() and path.stat().st_nlink == 1
    assert target.read_bytes() == b"target" and sibling.read_bytes() == b"sibling"
    assert hashlib.sha256((out / "logical_error_rate.csv").read_bytes()).hexdigest() \
        == report["outputs"]["logical_error_rate.csv"]


# --- the schema checker against jsonschema ------------------------------------
# Valid configs with a part replaced, dropped or added; the values straddle
# each type, bound and uniqueness rule, and the numbers no double holds.

def finite_outside_payloads(obj) -> bool:
    """Every number in ``obj`` outside interchange payloads (keys exactly dims,
    re, im) is a finite double: the rule the checker folds into its types."""
    if isinstance(obj, dict) and obj.keys() != {"dims", "re", "im"}:
        obj = list(obj.values())
    if isinstance(obj, list):
        return all(map(finite_outside_payloads, obj))
    return not isinstance(obj, (int, float)) or abs(obj) <= sys.float_info.max


def ints_where_integer(value, schema: dict) -> bool:
    """No float where ``schema`` asks for an integer: the checker's rule on
    top of Draft 2020-12, which counts 1.0 as an integer."""
    if schema.get("type") == "integer":
        return not isinstance(value, float)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return all(ints_where_integer(v, props[k]) for k, v in value.items() if k in props)
    if isinstance(value, list) and "items" in schema:
        return all(ints_where_integer(v, schema["items"]) for v in value)
    return True


_ODD = [True, False, None, 0, 1, -1, 2, 3, 1.0, 2.0, 0.5, 2.5, -0.0, 1e-300, 1e308,
        math.nan, math.inf, -math.inf, 2 ** 53 + 1, 2 ** 64 - 1, 2 ** 64, 1.8e19,
        10 ** 400, -10 ** 400, "", "uniform", "A", "qcd-code", "toric",
        [], [1, 1.0], [1, True], [0, 1], [0.0, 1.0], [1, 1], [math.nan], {}]
_VALUES = st.recursive(
    st.one_of(st.sampled_from(_ODD), st.integers(-3, 5), st.floats(), st.text(max_size=2)),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["dims", "re", "im", "n", "p", "bogus", 1]), kids, max_size=3),
    max_leaves=6)


@st.composite
def _mutated(draw, value):
    """``value`` as is, replaced, or a copy with one part mutated, dropped or added."""
    action = draw(st.sampled_from(["keep", "replace", "replace", "part", "part"]))
    if action == "replace":
        return draw(_VALUES)
    if action == "part" and isinstance(value, dict):
        value = dict(value)
        key = draw(st.sampled_from(sorted(value, key=repr) + ["bogus"]))
        if key in value and draw(st.booleans()):
            del value[key]
        else:
            value[key] = draw(_mutated(value.get(key)))
    elif action == "part" and isinstance(value, list) and value:
        value = list(value)
        i = draw(st.integers(0, len(value)))
        value[i:i + 1] = [draw(_mutated(value[min(i, len(value) - 1)]))]
    return value


@st.composite
def mutated_configs(draw):
    """A small config mutated at its top level (one draw in four) or in its params."""
    config = dict(SMALL_CONFIGS[draw(st.sampled_from(sorted(SMALL_CONFIGS)))])
    if draw(st.integers(0, 3)) == 0:
        return draw(_mutated(config))
    for _ in range(draw(st.integers(1, 2))):
        params = dict(config["params"])
        key = draw(st.sampled_from(sorted(params) + ["bogus"]))
        params[key] = draw(st.sampled_from(_ODD) | _mutated(params.get(key)))
        config["params"] = params
    return config


@settings(max_examples=600, deadline=None)
@given(mutated_configs())
@example(rotor_config(logical_charges=[1, 1.0]))
@example(rotor_config(logical_charges=[1, True]))
@example(rotor_config(q_max=4.0, w=True))
@example(qcd_config(n=2.5))
@example(xsec_config(g1=math.nan, lam=-math.inf))
@example(xsec_config(g1=10 ** 400))
@example(xsec_config(g2=-10 ** 400))
@example({**qcd_config(), "seed": 2 ** 64})
@example({**qcd_config(), "seed": 7.0})
@example(qcd_config(n=3.0))
@example(rotor_config(error_charges=[1, 2.0]))
def test_checker_agrees_with_jsonschema(config):
    accepted = cli._violation(config, cli.CONFIG_SCHEMA, "config") is None
    assert accepted == (jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA).is_valid(config)
                        and ints_where_integer(config, cli.CONFIG_SCHEMA))
    if accepted:
        schema, params = cli.EXPERIMENTS[config["experiment"]].schema, config["params"]
        assert (cli._violation(params, schema, "params") is None) == (
            jsonschema.Draft202012Validator(schema).is_valid(params)
            and finite_outside_payloads(params) and ints_where_integer(params, schema))


# --- config echo: interchange payloads as dims + SHA-256 -----------------------

def payload_sha256(re, im) -> str:
    """SHA-256 of re then im as little-endian doubles, packed without numpy."""
    return hashlib.sha256(struct.pack(f"<{len(re) + len(im)}d", *re, *im)).hexdigest()


def without_payloads(obj):
    """obj with each interchange payload, or its echo, cut down to its dims."""
    if isinstance(obj, list):
        return [without_payloads(item) for item in obj]
    if not isinstance(obj, dict):
        return obj
    if set(obj) in ({"dims", "re", "im"}, {"dims", "sha256"}):
        return {"dims": obj["dims"]}
    return {k: without_payloads(v) for k, v in obj.items()}


def dense_kl_config_49():
    """Two orthonormal codewords and six dense errors on a 7 x 7 space, as
    the largest kl-check configs look: about 29 k floats."""
    rng = np.random.default_rng(0)
    words, _ = np.linalg.qr(rng.normal(size=(49, 2)) + 1j * rng.normal(size=(49, 2)))
    errors = rng.normal(size=(6, 49 * 49)) + 1j * rng.normal(size=(6, 49 * 49))
    return kl_config([interchange([7, 7], w.real.tolist(), w.imag.tolist())
                      for w in words.T],
                     [interchange([7, 7], e.real.tolist(), e.imag.tolist())
                      for e in errors])


class TestConfigEcho:
    def test_payload_digest_is_its_doubles(self, tmp_path):
        config = dense_kl_config()
        report = cli.run(config, str(tmp_path))
        for key in ("codewords", "errors"):
            for payload, echoed in zip(config["params"][key],
                                       report["config"]["params"][key]):
                assert echoed == {"dims": payload["dims"], "sha256": payload_sha256(
                    payload["re"], payload["im"])}

    def test_digest_sees_one_ulp_not_int_vs_float(self, tmp_path):
        def codeword_digest(config, name):
            return cli.run(config, str(tmp_path / name))["config"]["params"][
                "codewords"][0]["sha256"]
        base = codeword_digest(kl_config([E0, E1], [ID2]), "base")
        ulp = interchange([2], [math.nextafter(1.0, 2.0), 0.0])
        assert codeword_digest(kl_config([ulp, E1], [ID2]), "ulp") != base
        ints = interchange([2], [1, 0], [0, 0])
        assert codeword_digest(kl_config([ints, E1], [ID2]), "ints") == base

    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_echo_is_the_config_apart_from_payloads(self, tmp_path, name):
        config = SMALL_CONFIGS[name]
        before = json.loads(json.dumps(config))
        report = cli.run(config, str(tmp_path))
        assert config == before
        saved = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
        assert saved["config"] == report["config"]
        assert without_payloads(report["config"]) == without_payloads(config)
        if name != "kl-check":
            assert report["config"] == config

    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_config_sha256_is_the_echo_json(self, tmp_path, name):
        report = cli.run(SMALL_CONFIGS[name], str(tmp_path))
        saved = json.loads((tmp_path / "run_report.json").read_text(encoding="utf-8"))
        digest = hashlib.sha256(cli._json_bytes(saved["config"])).hexdigest()
        assert report["config_sha256"] == saved["config_sha256"] == digest

    def test_dense_report_stays_small(self, tmp_path):
        config = dense_kl_config_49()
        assert len(cli._json_bytes(config)) > 800_000  # about 0.9 MB echoed in full
        cli.run(config, str(tmp_path))
        assert (tmp_path / "run_report.json").stat().st_size < 8 * 1024


# --- JSON writer: the bytes of json.dumps(indent=2, sort_keys=True) -----------

def stdlib_json(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7,
                1e308, 0.1]
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.sampled_from(_EDGE_FLOATS), st.floats().map(np.float64),
    st.text(st.characters(codec=None)))
# flat homogeneous lists take the writer's joined path, mixed ones do not
_flat_lists = st.one_of(
    st.lists(st.floats(), min_size=1), st.lists(st.sampled_from(_EDGE_FLOATS)),
    st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1),
    st.lists(st.one_of(st.integers(), st.booleans(), st.floats())))
# lists of non-empty rows that are all ints or all finite floats take the
# writer's row-joined path; empty, ragged, mixed-kind and non-finite rows
# and finite rows whose sum overflows do not
_rows = st.one_of(
    st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=4),
             min_size=1, max_size=4),
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=4), min_size=1, max_size=4),
    st.lists(st.lists(st.sampled_from([1e308, -1e308, 1.5]), min_size=1, max_size=3),
             min_size=1, max_size=3),
    st.lists(st.lists(st.one_of(st.integers(), st.booleans(), st.floats(),
                                st.sampled_from(_EDGE_FLOATS),
                                st.floats().map(np.float64)), max_size=3),
             max_size=4))
# dicts take the writer's inline path for int, str and finite float values
_keys = st.one_of(st.text(st.characters(codec=None)), st.sampled_from(["%s", "%", "a%%"]))
_scalar_dicts = st.dictionaries(_keys, _json_scalars, max_size=6)


@st.composite
def _records(draw, values):
    """Lists of dicts that share their keys, which the writer renders a key at a time."""
    keys = draw(st.lists(_keys, unique=True, max_size=3))
    return draw(st.lists(st.fixed_dictionaries({key: values for key in keys}),
                         max_size=4))


_json_trees = st.recursive(
    st.one_of(_json_scalars, _flat_lists, _rows, _scalar_dicts, _records(_json_scalars)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.tuples(children, children),
        st.dictionaries(_keys, children, max_size=4), _records(children)),
    max_leaves=20)


def dense_kl_config():
    """Dense kl-check on two qubits with dyadic entries, so every product
    and sum in the check is exact and the report bytes are portable."""
    def entries(k, a, b, scale):
        return [float((i * a + k * b) % 5 - 2) / scale for i in range(16)]
    return kl_config(
        [interchange([2, 2], [0.5] * 4),
         interchange([2, 2], [0.5, -0.5, 0.0, 0.0], [0.0, 0.0, 0.5, -0.5])],
        [interchange([2, 2], entries(k, 7, 3, 4), [v / 2 for v in entries(k, 3, 1, 4)])
         for k in range(3)])


class TestJsonWriter:
    @given(_json_trees)
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_stdlib(self, obj):
        assert cli._json_bytes(obj) == stdlib_json(obj)

    @pytest.mark.parametrize("obj", [
        [1, True], [1.0, True], [1, 1.0], [True, False], [None], [2 ** 64 + 1, -2 ** 70],
        _EDGE_FLOATS, [[], {}, [[]], {"a": {}}], (1.5, 2.5), [np.float64(0.1)] * 3,
        {"é\x00\n\"\\": ["\ud800", "\x1f"]}, {"b": 1, "a": [2.0], "A": None},
        "plain", 3, -0.0, math.nan, None, [], {},
        [[1, 2], [3, 4]], [[1.5, -0.0], [5e-324, 1e16]], [[1, 2], []], [[]],
        [[1], [2, 3]], [[1], [1.0]], [[1.0, math.nan]], [[math.inf], [1.0]],
        [[-math.inf, 0.5]], [[True]], [[1, True]], [[np.float64(0.5)]],
        [[1e308, 1e308]], [[1e308], [1e308]], [[1e308], [-1e308]], ([1, 2], [3]),
        [(1, 2)], [[[1]]], [[1, [2]]], [[1.0], {}], [[1.0], None],
        {"i": 1, "f": 0.5, "s": "x\n", "b": True, "n": None, "nan": math.nan,
         "inf": -math.inf, "z": -0.0, "np": np.float64(0.25), "big": 2 ** 70,
         "e": [], "d": {}},
        [{"a": 1, "b": [1.0]}, {"a": 2, "b": [2.0]}], [{"a": 1}, {"b": 1}],
        [{"a": 1}, {}], [{}, {}], [{"%s": 1, "a%": 2.5}, {"%s": 3, "a%": 0.5}],
        [{"a": math.nan}, {"a": 1.0}], [{"a": "x"}, {"a": None}],
        [[{"a": 1}], [{"a": 2}, {"a": 3}]], [[[1.0], [2.0]], [[3.0]]],
        [[1, 2], [3.0]], [["a", "b"], ["c"]]])
    def test_edge_cases_match_stdlib(self, obj):
        assert cli._json_bytes(obj) == stdlib_json(obj)

    @pytest.mark.parametrize("bad", [np.int64(1), np.float32(1.0), np.bool_(True),
                                     {1, 2}, b"bytes"])
    def test_refuses_what_stdlib_refuses(self, bad):
        for obj in (bad, [bad], [1.0, bad], {"a": bad}):
            with pytest.raises(TypeError):
                stdlib_json(obj)
            with pytest.raises(TypeError):
                cli._json_bytes(obj)

    @pytest.mark.parametrize("config,digest", [
        ({"experiment": "toric", "params": {"n": 2, "l": 3, "max_weight": 1}},
         "66aed6fd6b1e6e27c7d2a52c2826108c47165738c8bf5becb0c8bb5d5735597a"),
        ({"experiment": "toric", "params": {"n": 2, "l": 2, "max_weight": 2}},
         "1744b9adb6af8fd6a437bc65c6d85b509010a76ec6b287aae1eff927af5f252f"),
        ({"experiment": "toric", "params": {"n": 3, "l": 2, "max_weight": 1}},
         "a7dfe460a38d4de695e931d634f3cc5e45b165c5e627ef0adf6762e77b40cd26"),
        (dense_kl_config(),
         "d482c64c644b686ee421148001901ae7b99e93664883423b9417bb3ed4b0c0cf")],
        ids=["toric-2-3-1", "toric-2-2-2", "toric-3-2-1", "kl-check-dense"])
    def test_kl_report_bytes_pinned(self, tmp_path, config, digest):
        # digests recorded with the stdlib json.dumps(indent=2, sort_keys=True) writer
        report = cli.run(config, str(tmp_path))
        data = (tmp_path / "kl_report.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert report["outputs"]["kl_report.json"] == digest
        assert (tmp_path / "run_report.json").read_bytes() == stdlib_json(report)

    @pytest.mark.parametrize("n,l,w,file_name,digest", [
        (2, 4, 2, "kl_report.json",
         "19fc9e67972f9b21935c1926cbc2f9b80b8a27a50714e24a6008bdd7f0adc42f"),
        (2, 3, 1, "sectors.csv",
         "0d1bf544a1cead84eab733bd0e9275e085e0fa0a2ad693a05f56421292979dc4"),
        (2, 2, 2, "sectors.csv",
         "0d1bf544a1cead84eab733bd0e9275e085e0fa0a2ad693a05f56421292979dc4"),
        (3, 2, 1, "sectors.csv",
         "8274cac7afbca41449643acc7c85fdaee28c0ca2fa7b364be1059ef578fa8e7d")])
    def test_toric_output_bytes_pinned(self, tmp_path, n, l, w, file_name, digest):
        # digests recorded before the toric rows, syndrome keys and C blocks
        # were rewritten in array form
        config = {"experiment": "toric", "params": {"n": n, "l": l, "max_weight": w}}
        report = cli.run(config, str(tmp_path))
        assert hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest() == digest
        assert report["outputs"][file_name] == digest


# --- differential fuzz: validate and run agree --------------------------------
# Small generated configs of every experiment, valid and not; the ranges
# straddle each schema bound and each refusal of the plans.

_floats = st.floats(-0.5, 2.0)


@st.composite
def _mostly(draw, valid, invalid):
    """Mostly valid values, so that most configs reach the plans."""
    return draw(invalid if draw(st.integers(0, 5)) == 5 else valid)


def _basis(d, i):
    return interchange([d], [1.0 if k == i % d else 0.0 for k in range(d)])


@st.composite
def _kl_params(draw):
    d = draw(st.integers(1, 3))
    words = [_basis(d, i) for i in draw(st.lists(st.integers(0, 2), min_size=1,
                                                   max_size=2))]
    errors = [interchange([d], draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                                             min_size=d * d, max_size=d * d)))
              for _ in range(draw(st.integers(1, 2)))]
    fault = draw(_mostly(st.none(), st.sampled_from(
        ["long", "im", "error dims", "word dims", "zero", "bool", "null"])))
    w, e = words[0], errors[0]
    if fault == "long":
        w["re"].append(0.0)
    elif fault == "im":
        w["im"].pop()
    elif fault == "error dims":
        errors[0] = interchange([d + 1], [0.0] * (d + 1) ** 2)
    elif fault == "word dims":
        words.append(_basis(d + 1, 0))
    elif fault == "zero":
        w["re"] = [0.0] * d
    elif fault in ("bool", "null"):
        e["re"][0] = True if fault == "bool" else None
    params = {"codewords": words, "errors": errors}
    if draw(st.booleans()):
        params["tol"] = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    return params


def _positive(hi):
    return _mostly(st.floats(0.5, hi), st.sampled_from([0.0, -1.0]))


_XSEC_MASSES = [938.3, 10.0, 939.6, 139.6]
_PARAMS = {
    "kl-check": _kl_params(),
    "rotor": st.fixed_dictionaries({
        "q_max": _mostly(st.integers(1, 4), st.just(0)),
        "w": _mostly(st.integers(0, 3), st.just(-1)),
        "profile": _mostly(st.sampled_from(["uniform", "gaussian"]), st.just("flat")),
        "logical_charges": _mostly(st.lists(st.integers(-3, 3), min_size=2, max_size=2,
                                            unique=True),
                                   st.lists(st.integers(-3, 3), max_size=3)),
        "error_side": _mostly(st.sampled_from(["A", "B"]), st.just("C")),
        "error_charges": st.lists(st.integers(-5, 5), max_size=3),
    }, optional={"n_g": _mostly(st.integers(1, 5), st.just(0))}),
    "qcd-rates": st.fixed_dictionaries({}, optional={
        "temperatures": st.lists(_positive(300.0), max_size=3),
        "energies": st.lists(_positive(1e3), max_size=3),
        "m_pi": _positive(500.0), "lambda_qcd": _positive(500.0),
        "m_w": _positive(1e5), "epsilon": _positive(5.0)}),
    "qcd-code": st.fixed_dictionaries({
        "n": _mostly(st.integers(1, 7), st.just(0)),
        "p": _mostly(st.floats(0.01, 0.99), st.sampled_from([0.0, 1.0])),
        "trials": _mostly(st.integers(1, 300), st.just(0)),
    }, optional={"workers": _mostly(st.integers(1, 4), st.just(0))}),
    "xsec": st.fixed_dictionaries({
        "masses": _mostly(st.just(_XSEC_MASSES), st.lists(
            st.sampled_from([0.0, 1.0, 10.0, 139.6, 938.3, 939.6]), min_size=3,
            max_size=5)),
        "g1": _floats, "g2": _floats, "lam": _floats,
        "e_cm_min": _mostly(st.sampled_from([950.0, 1079.2, 1100.0]),
                            st.sampled_from([0.0, 1.0, 900.0, 938.3001, 1e6])),
        "e_cm_max": _mostly(st.sampled_from([1079.2, 1400.0]),
                            st.sampled_from([938.3002, 1e6])),
        "steps": _mostly(st.integers(1, 5), st.just(0)),
    }, optional={"n_theta": _mostly(st.sampled_from([2, 3, 16]),
                                    st.sampled_from([1, 2 ** 14]))}),
    "toric": st.fixed_dictionaries({
        "n": _mostly(st.integers(2, 3), st.just(1)),
        "l": _mostly(st.integers(2, 3), st.just(1)),
    }, optional={"max_weight": _mostly(st.integers(1, 2), st.sampled_from([0, 3])),
                 "tol": st.sampled_from([0.0, 1e-9])}),
}


@st.composite
def configs(draw):
    name = draw(st.sampled_from(sorted(_PARAMS)))
    config = {"experiment": name, "params": draw(_PARAMS[name])}
    seed = draw(_mostly(st.one_of(st.integers(0, 10), st.just(2 ** 64 - 1)),
                        st.sampled_from([None, -1, 2 ** 64])))
    if seed is not None:
        config["seed"] = seed
    return config


@settings(max_examples=300, deadline=None)
@given(configs())
def test_validate_and_run_agree(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            checked = cli.main(["validate", str(path)])
            ran = cli.main(["run", str(path), "--output-dir", str(out)])
        assert checked in (0, cli.EXIT_SCHEMA, cli.EXIT_GUARD), err.getvalue()
        if checked == 0:
            assert ran in (0, cli.EXIT_GUARD), err.getvalue()
        else:
            assert ran == checked and not out.exists(), err.getvalue()


# --- rotor on charge lists ------------------------------------------------


def dense_rotor_rows(params: dict) -> list[list[str]]:
    """``rotor_recovery.csv`` rows as the dense joint-vector run computed them."""
    space = rotor.RotorSpace(params["q_max"])
    charges = tuple(params["logical_charges"])
    amp = rotor.LOGICAL_AMP
    w1 = helpers.build_codeword(space, space, charges[0], params["profile"], params["w"])
    w2 = helpers.build_codeword(space, space, charges[1], params["profile"], params["w"])
    psi = StateVector(w1.space, amp * w1.amplitudes + amp * w2.amplitudes)
    for q in params["error_charges"]:
        psi = helpers.apply_phase_flip(psi, q, params["error_side"])
    return [[helpers.csv_cell(oc.outcome), helpers.csv_cell(oc.probability),
             helpers.csv_cell(rotor.logical_fidelity(oc.alpha, oc.beta, amp, amp))]
            for oc in helpers.enumerate_recovery(psi, charges)]


@st.composite
def rotor_params(draw):
    q_max = draw(st.integers(1, 40))
    charges = draw(st.lists(st.integers(-q_max, q_max), min_size=2, max_size=2,
                            unique=True))
    w = draw(st.integers(0, q_max - max(map(abs, charges))))
    # any charge in the truncation: inside or outside the window, repeated
    flips = draw(st.lists(st.integers(-q_max, q_max), max_size=6))
    flips += draw(st.lists(st.sampled_from(flips), max_size=2)) if flips else []
    return {"q_max": q_max, "w": w,
            "profile": draw(st.sampled_from(["uniform", "gaussian"])),
            "logical_charges": charges,
            "error_side": draw(st.sampled_from(["A", "B"])),
            "error_charges": flips}


@settings(max_examples=150, deadline=None)
@given(rotor_params())
def test_rotor_rows_string_equal_dense_oracle(params):
    with tempfile.TemporaryDirectory() as tmp:
        cli.run({"experiment": "rotor", "params": params}, tmp)
        with open(Path(tmp) / "rotor_recovery.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    assert rows == dense_rotor_rows(params)


def traced_peak(config: dict, outdir: Path) -> int:
    tracemalloc.start()
    try:
        cli.run(config, str(outdir))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRotorGuard:
    @pytest.mark.parametrize("q_max, w", [(10 ** 6, 3), (3 * 10 ** 4, 3 * 10 ** 4 - 1)])
    def test_large_q_max_runs_fast_within_prediction(self, tmp_path, q_max, w):
        config = rotor_config(q_max=q_max, w=w, error_side="A", error_charges=[0, 2])
        start = time.perf_counter()
        cli.run(config, str(tmp_path))
        assert time.perf_counter() - start < 1.0
        assert traced_peak(config, tmp_path) <= cli._rotor_bytes(q_max, w)

    @pytest.mark.parametrize("q_max, w, side, flips", [
        (4, 1, "B", [1]), (40, 39, "A", [0, 3, -7]), (1000, 999, "B", [5, 5, -999]),
        (10 ** 5, 300, "A", list(range(-20, 21))),
        (3 * 10 ** 4, 3 * 10 ** 4 - 1, "B", [0, 2, -29999])])
    def test_peak_within_prediction(self, tmp_path, q_max, w, side, flips):
        config = rotor_config(q_max=q_max, w=w, error_side=side, error_charges=flips)
        cli.run(config, str(tmp_path))  # first call: imports and caches
        assert traced_peak(config, tmp_path) <= cli._rotor_bytes(q_max, w)


def random_kl_config(n_errors: int, dim: int, n_codewords: int) -> dict:
    """Basis codewords and random real operators: with two or more codewords
    the off-diagonal M entries deviate, so the check also records violations."""
    rng = np.random.default_rng(n_errors + dim)
    words = [interchange([dim], np.eye(dim)[k].tolist()) for k in range(n_codewords)]
    errors = [interchange([dim], rng.normal(size=dim * dim).tolist())
              for _ in range(n_errors)]
    return kl_config(words, errors)


class TestSizeGuards:
    @pytest.mark.parametrize("name", sorted(SIZE_REFUSED))
    def test_refuses_before_allocating(self, name):
        tracemalloc.start()
        try:
            diags = cli.validate(SIZE_REFUSED[name])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(diags) == 1 and "guard" in diags[0] and "budget" in diags[0]
        assert peak < 2 ** 20

    @pytest.mark.parametrize("n_errors, dim, n_codewords", [(200, 1, 1), (40, 8, 2),
                                                            (12, 16, 4), (200, 16, 4)])
    def test_kl_check_peak_within_prediction(self, tmp_path, n_errors, dim, n_codewords):
        config = random_kl_config(n_errors, dim, n_codewords)
        cli.run(config, str(tmp_path))  # first call: imports
        assert traced_peak(config, tmp_path) <= klcore.kl_check_bytes(
            n_codewords, n_errors, dim)

    @pytest.mark.parametrize("steps, n_theta", [(1, 2048), (3000, 16), (30000, 2),
                                                (100_000, 2)])
    def test_xsec_peak_within_prediction(self, tmp_path, steps, n_theta):
        config = xsec_config(steps=steps, n_theta=n_theta)
        assert traced_peak(config, tmp_path) <= scatter.sweep_bytes(steps, n_theta)

    def test_xsec_guard_admits_what_fits(self):
        # 4 10^6 energies fit the budget at 256 B each; 10^7 (SIZE_REFUSED) do not
        assert cli.validate(xsec_config(steps=4 * 10 ** 6, n_theta=2)) == []
