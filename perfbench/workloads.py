"""The four benchmark workloads, each a fixed list of ops run as one pass.

An op is one ``cli.run(config)``, one ``cli.validate(config)`` or one
direct call to a public entry point.  ``run`` is timed; ``check`` is not,
and compares the op's output with an oracle from ``oracles``.  Every
input is generated from the workload seed while the workload is built,
so the library receives only those inputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles

# Bytes a single config may need before the benchmark calls it oversize.
MEMORY_BUDGET = 4 * 2 ** 30

XSEC_MASSES = [938.3, 10.0, 939.6, 139.6]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    work: float = 1.0      # units of work_per_s done by one run; 0 leaves it out
    counters: Optional[Callable[[object], dict]] = None


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cli_op(lib, name: str, config: dict, outdir: Path,
            check: Callable[[Path], bool]) -> Op:
    path = outdir / name.replace(" ", "_")
    return Op(name, lambda: lib.cli.run(config, str(path)),
              lambda report: check(path))


def _validate_op(lib, name: str, config: dict) -> Op:
    return Op(name, lambda: lib.cli.validate(config), lambda diags: diags == [])


# --- per-experiment ops, shared by the workloads ---------------------------


def _qcd_code(lib, outdir, mc_seed, n, p, trials, workers, shas) -> tuple[dict, Op]:
    """qcd-code op; every run of (n, p) must hash the same at any worker count."""
    config = {"experiment": "qcd-code", "seed": mc_seed,
              "params": {"n": n, "p": p, "trials": trials, "workers": workers}}

    def check(path: Path) -> bool:
        sha = json.loads((path / "run_report.json").read_text())["outputs"][
            "logical_error_rate.csv"]
        if shas.setdefault((n, p), sha) != sha:
            return False
        row = _csv_rows(path / "logical_error_rate.csv")[0]
        return oracles.mc_within_4_sigma(float(row["logical_rate"]), n, p, trials)

    name = f"qcd-code n={n} p={p} workers={workers}"
    return config, _cli_op(lib, name, config, outdir, check)


def _xsec(lib, rng, outdir, lo, hi, steps, n_theta, name) -> tuple[dict, Op]:
    g1, g2, lam = (float(x) for x in rng.uniform(0.2, 1.2, size=3))
    config = {"experiment": "xsec",
              "params": {"masses": XSEC_MASSES, "g1": g1, "g2": g2, "lam": lam,
                         "e_cm_min": lo, "e_cm_max": hi, "steps": steps,
                         "n_theta": n_theta}}

    def check(path: Path) -> bool:
        rows = [(float(r["e_cm_mev"]), float(r["sigma_mev^-2"]),
                 r["above_threshold"] == "True")
                for r in _csv_rows(path / "cross_section.csv")]
        return len(rows) == steps and oracles.xsec_rows_ok(
            rows, XSEC_MASSES, g1, g2, lam, n_theta)

    return config, _cli_op(lib, name, config, outdir, check)


def _rotor(lib, rng, outdir, q_max, window, n_flips, name) -> tuple[dict, Op]:
    charges = (0, 1)
    flips = [int(q) for q in rng.choice(np.arange(-window, window + 2), n_flips,
                                        replace=False)]
    config = {"experiment": "rotor", "seed": int(rng.integers(2 ** 63)),
              "params": {"q_max": q_max, "w": window, "profile": "uniform",
                         "logical_charges": list(charges), "error_side": "A",
                         "error_charges": flips}}

    def check(path: Path) -> bool:
        rows = [(int(r["outcome_q_tilde"]), float(r["probability"]),
                 float(r["recovered_fidelity"]))
                for r in _csv_rows(path / "rotor_recovery.csv")]
        return oracles.rotor_rows_ok(rows, window, charges, flips)

    return config, _cli_op(lib, name, config, outdir, check)


def _interchange(a: np.ndarray, dims: list[int]) -> dict:
    flat = a.reshape(-1)
    return {"dims": dims, "re": flat.real.tolist(), "im": flat.imag.tolist()}


def _kl_check(lib, rng, outdir, q_max, window, n_errors, name) -> tuple[dict, Op]:
    """Two rotor codewords (charges 0, 1) and diagonal errors, in a random basis.

    Diagonal errors on register B satisfy the KL conditions; one diagonal
    error on register A violates them.  A random unitary U rotates the
    codewords (U c) and errors (U E U^dag) into dense form without changing
    any KL matrix element, so the expected verdict is known by construction.
    """
    d = 2 * q_max + 1
    words = np.zeros((2, d * d), dtype=complex)
    for i, q in enumerate((0, 1)):
        for qt in range(-window, window + 1):
            words[i, (q - qt + q_max) * d + qt + q_max] = 1.0
    words /= np.sqrt(2 * window + 1)
    u, _ = np.linalg.qr(rng.normal(size=(d * d, d * d))
                        + 1j * rng.normal(size=(d * d, d * d)))
    violated = bool(rng.random() < 0.5)
    errors = []
    for k in range(n_errors):
        diag = rng.normal(size=d) + 1j * rng.normal(size=d)
        a_side = violated and k == n_errors - 1
        full = np.kron(diag, np.ones(d)) if a_side else np.kron(np.ones(d), diag)
        errors.append((u * full) @ u.conj().T)
    dims = [d, d]
    config = {"experiment": "kl-check",
              "params": {"codewords": [_interchange(u @ w, dims) for w in words],
                         "errors": [_interchange(e, dims) for e in errors],
                         "tol": 1e-9}}
    expected = "violated" if violated else "satisfied"

    def check(path: Path) -> bool:
        report = json.loads((path / "kl_report.json").read_text())
        return report["verdict"] == expected

    return config, _cli_op(lib, name, config, outdir, check)


def _toric(lib, outdir, n, l, w, name) -> tuple[dict, Op]:
    config = {"experiment": "toric", "params": {"n": n, "l": l, "max_weight": w}}

    def check(path: Path) -> bool:
        labels = {(int(r["charge_a"]), int(r["charge_b"]))
                  for r in _csv_rows(path / "sectors.csv")}
        report = json.loads((path / "kl_report.json").read_text())
        return (labels == {(a, b) for a in range(n) for b in range(n)}
                and report["verdict"] == oracles.toric_kl_expected(l, w))

    return config, _cli_op(lib, name, config, outdir, check)


# --- workloads ----------------------------------------------------------------

MC_GRID = [(3, 0.05), (3, 0.1), (3, 0.2), (5, 0.05), (5, 0.1), (5, 0.2), (101, 0.1)]
MC_TRIALS = 5_000


def build_mc(lib, seed: int, outdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    shas: dict = {}
    ops = []
    for n, p in MC_GRID:
        mc_seed = int(rng.integers(2 ** 63))
        ops += [_qcd_code(lib, outdir, mc_seed, n, p, MC_TRIALS, workers, shas)[1]
                for workers in (1, 2)]
    for op in ops:
        op.work = MC_TRIALS
    return ops


TORIC_CASES = [(2, 3, 1), (2, 2, 2), (3, 2, 1)]


def build_toric(lib, seed: int, outdir: Path) -> list[Op]:
    """Fixed lattices; the inputs do not depend on the seed."""
    tc = lib.toriccode
    ops = [_toric(lib, outdir, n, l, w, f"toric N={n} l={l} w={w}")[1]
           for n, l, w in TORIC_CASES]
    ops.append(Op("ssr_exact_zero_check N=2 l=3",
                  lambda: tc.ssr_exact_zero_check(tc.TorusLattice(3, 2)),
                  lambda certified: certified is True))
    return ops


# Sized so that a pass takes about 1.8 s and a 30-s run times each op about
# 14 times; at three samples an op, host noise swamped the run-to-run spread.
XSEC_STEPS, XSEC_N_THETA = 50, 64
ROTOR_Q_MAX, ROTOR_W = 24, 10
M_INV_Q_MAX, M_INV_N_G = 16, 41
KL_Q_MAX = 3


def build_sweep(lib, seed: int, outdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    _, xsec = _xsec(lib, rng, outdir, 950.0, 1400.0, XSEC_STEPS, XSEC_N_THETA, "xsec")
    xsec.work = XSEC_STEPS
    _, rotor = _rotor(lib, rng, outdir, ROTOR_Q_MAX, ROTOR_W, 4, "rotor")
    _, kl = _kl_check(lib, rng, outdir, KL_Q_MAX, 2, 6, "kl-check")
    rotor.work = kl.work = 0.0

    d = 2 * M_INV_Q_MAX + 1
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho_r = a @ a.conj().T
    rho_r /= np.trace(rho_r)
    wts = rng.random(d)
    rho_s = np.diag(wts / wts.sum()).astype(complex)
    space = lib.rotor.RotorSpace(M_INV_Q_MAX)
    m_op = lib.hilbert.Operator(space.product_space(), m)
    disc = lib.rotor.GroupDiscretization(M_INV_N_G)
    m_inv = Op("rotor.m_inv",
               lambda: lib.rotor.m_inv(m_op, disc),
               lambda out: oracles.m_inv_trace_ok(out.dense(), m, rho_r, rho_s),
               work=0.0)
    return [xsec, rotor, m_inv, kl]


def build_small(lib, seed: int, outdir: Path) -> list[Op]:
    """Six test-sized experiments, each validated first, then refusal probes."""
    rng = np.random.default_rng(seed)
    temps = [float(t) for t in rng.uniform(5.0, 200.0, size=4)]
    energies = [float(e) for e in rng.uniform(5.0, 1000.0, size=4)]
    m_pi, lam_qcd, m_w = 140.0, 330.0, 80400.0
    rates_cfg = {"experiment": "qcd-rates",
                 "params": {"temperatures": temps, "energies": energies,
                            "m_pi": m_pi, "lambda_qcd": lam_qcd, "m_w": m_w}}

    def rates_ok(path: Path) -> bool:
        thermal = [float(r["suppression"])
                   for r in _csv_rows(path / "thermal_suppression.csv")]
        sm = [float(r["suppression"]) for r in _csv_rows(path / "sm_suppression.csv")]
        want_t = [np.exp(-m_pi / t) for t in temps]
        want_s = [max(np.exp(-lam_qcd / e), (e / m_w) ** 2) for e in energies]
        return np.allclose(thermal, want_t, rtol=1e-12, atol=0) and \
            np.allclose(sm, want_s, rtol=1e-12, atol=0)

    experiments = [
        _kl_check(lib, rng, outdir, 1, 0, 3, "kl-check"),
        _rotor(lib, rng, outdir, 4, 1, 2, "rotor"),
        (rates_cfg, _cli_op(lib, "qcd-rates", rates_cfg, outdir, rates_ok)),
        _qcd_code(lib, outdir, int(rng.integers(2 ** 63)), 3, 0.3, 200, 1, {}),
        _xsec(lib, rng, outdir, 1000.0, 1200.0, 4, 8, "xsec"),
        _toric(lib, outdir, 2, 2, 1, "toric"),
    ]
    ops = []
    for config, op in experiments:
        ops += [_validate_op(lib, f"validate {op.name}", config), op]
    return ops + _refusal_probes(lib, outdir)


def _refusal_probes(lib, outdir: Path) -> list[Op]:
    """Configs that ``validate`` accepts; a refusal after that is a mismatch.

    The rotor probe (w > q_max) is run.  The toric probe (N=3, l=2, w=2) is
    only validated: its KL check would allocate more than MEMORY_BUDGET,
    computed from the array shapes, so it is never run.
    """
    accepted: dict = {}
    rotor_cfg = {"experiment": "rotor", "seed": 0,
                 "params": {"q_max": 2, "w": 3, "profile": "uniform",
                            "logical_charges": [0, 1], "error_side": "A",
                            "error_charges": [0]}}

    def validate_rotor():
        accepted["rotor"] = lib.cli.validate(rotor_cfg) == []
        return accepted["rotor"]

    def run_rotor():
        try:
            lib.cli.run(rotor_cfg, str(outdir / "probe_rotor"))
        except (ValueError, lib.toriccode.GuardExceededError):
            return False
        return True

    n, l, w = 3, 2, 2
    toric_cfg = {"experiment": "toric", "params": {"n": n, "l": l, "max_weight": w}}
    fits = oracles.toric_kl_bytes(n, l, w) <= MEMORY_BUDGET

    def mismatch(ran: bool) -> dict:
        return {"cli.refusal_mismatch": int(accepted["rotor"] != ran)}

    # Either outcome of a probe is valid; a disagreement is counted, not failed.
    return [
        Op("probe validate rotor w>q_max", validate_rotor, lambda ok: True),
        Op("probe run rotor w>q_max", run_rotor, lambda ran: True, counters=mismatch),
        Op("probe validate toric N=3 l=2 w=2", lambda: lib.cli.validate(toric_cfg),
           lambda diags: True,
           counters=lambda diags: {"cli.refusal_mismatch": int((diags == []) != fits)}),
    ]
