"""Experiment runner: strict JSON configs, seeded runs, hashed outputs.

Subcommands:
  run <config.json>       execute an experiment, write CSV/JSON outputs
  validate <config.json>  schema and guard checks without execution
  schema                  print the JSON schema for configs

Exit codes: 0 success, 2 schema violation, 3 resource limit (a numeric
guard refused the config or the run ran out of memory), 4 internal
invariant breach.  CSV numbers use the shortest round-trip
decimal representation of the underlying doubles, so reruns with the
same seed are bitwise identical regardless of worker count
(SSRQEC_THREADS caps parallelism).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import __version__
from . import klcore, qcdcode, rotor, scatter, toriccode
from .hilbert import StateVector, operator_from_json, vector_from_json
from .toriccode import GuardExceededError

EXIT_SCHEMA = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4

_COMMON = {
    "experiment": {"type": "string",
                   "enum": ["kl-check", "rotor", "qcd-rates", "qcd-code",
                            "xsec", "toric"]},
    "seed": {"type": "integer", "minimum": 0, "maximum": 2 ** 64 - 1},
    "output_dir": {"type": "string"},
}

_INTERCHANGE = {
    "type": "object",
    "properties": {
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "re": {"type": "array", "items": {"type": "number"}},
        "im": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["dims", "re", "im"],
    "additionalProperties": False,
}

_PARAM_SCHEMAS = {
    "kl-check": {
        "type": "object",
        "properties": {
            "codewords": {"type": "array", "items": _INTERCHANGE, "minItems": 1},
            "errors": {"type": "array", "items": _INTERCHANGE, "minItems": 1},
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["codewords", "errors"],
        "additionalProperties": False,
    },
    "rotor": {
        "type": "object",
        "properties": {
            "q_max": {"type": "integer", "minimum": 1},
            "w": {"type": "integer", "minimum": 0},
            "profile": {"type": "string", "enum": ["uniform", "gaussian"]},
            "n_g": {"type": "integer", "minimum": 1},
            "logical_charges": {"type": "array",
                                "items": {"type": "integer"},
                                "minItems": 2, "maxItems": 2},
            "error_side": {"type": "string", "enum": ["A", "B"]},
            "error_charges": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["q_max", "w", "profile", "logical_charges",
                     "error_side", "error_charges"],
        "additionalProperties": False,
    },
    "qcd-rates": {
        "type": "object",
        "properties": {
            "temperatures": {"type": "array",
                             "items": {"type": "number", "exclusiveMinimum": 0}},
            "energies": {"type": "array",
                         "items": {"type": "number", "exclusiveMinimum": 0}},
            "m_pi": {"type": "number", "exclusiveMinimum": 0},
            "lambda_qcd": {"type": "number", "exclusiveMinimum": 0},
            "m_w": {"type": "number", "exclusiveMinimum": 0},
            "epsilon": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
    "qcd-code": {
        "type": "object",
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "p": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "trials": {"type": "integer", "minimum": 1},
            "workers": {"type": "integer", "minimum": 1},
        },
        "required": ["n", "p", "trials"],
        "additionalProperties": False,
    },
    "xsec": {
        "type": "object",
        "properties": {
            "masses": {"type": "array", "items": {"type": "number", "minimum": 0},
                       "minItems": 4, "maxItems": 4},
            "g1": {"type": "number"},
            "g2": {"type": "number"},
            "lam": {"type": "number"},
            "e_cm_min": {"type": "number", "exclusiveMinimum": 0},
            "e_cm_max": {"type": "number", "exclusiveMinimum": 0},
            "steps": {"type": "integer", "minimum": 1},
            "n_theta": {"type": "integer", "minimum": 2},
        },
        "required": ["masses", "g1", "g2", "lam", "e_cm_min", "e_cm_max", "steps"],
        "additionalProperties": False,
    },
    "toric": {
        "type": "object",
        "properties": {
            "n": {"type": "integer", "minimum": 2},
            "l": {"type": "integer", "minimum": 2},
            "max_weight": {"type": "integer", "minimum": 1},
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["n", "l"],
        "additionalProperties": False,
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {**_COMMON, "params": {"type": "object"}},
    "required": ["experiment", "params"],
    "additionalProperties": False,
}

_STOCHASTIC = {"qcd-code"}


def config_schema() -> dict:
    return {**CONFIG_SCHEMA, "param_schemas": _PARAM_SCHEMAS}


def _schema_diags(config: dict) -> list[str]:
    diags = []
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    exp = config["experiment"]
    try:
        jsonschema.validate(config["params"], _PARAM_SCHEMAS[exp])
    except jsonschema.ValidationError as exc:
        return [f"schema ({exp} params): {exc.message}"]
    if exp in _STOCHASTIC and "seed" not in config:
        diags.append(f"seed required for stochastic experiment {exp!r}")
    p = config["params"]
    if exp == "qcd-code" and p["n"] % 2 == 0:
        diags.append("qcd-code requires odd n (even-n majority ties are rejected "
                     "at encode time by design)")
    if exp == "xsec":
        if p["e_cm_min"] > p["e_cm_max"]:
            diags.append("e_cm_min must not exceed e_cm_max")
        try:
            scatter.check_energies(_xsec_energies(p), tuple(p["masses"]))
        except (ValueError, scatter.PropagatorPoleError) as exc:
            diags.append(f"xsec energy grid: {exc}")
    if exp == "rotor":
        for q in p["logical_charges"]:
            if abs(q) + p["w"] > p["q_max"]:
                diags.append(f"rotor window w={p['w']} around logical charge {q} "
                             f"exceeds q_max={p['q_max']} (needs |q| + w <= q_max)")
        for q in p["error_charges"]:
            if abs(q) > p["q_max"]:
                diags.append(f"rotor error charge {q} outside truncation "
                             f"|q| <= q_max={p['q_max']}")
    return diags


def _guard_diags(config: dict) -> list[str]:
    p = config["params"]
    if config["experiment"] == "toric":
        refusal = toriccode.kl_guard(toriccode.TorusLattice(p["l"], p["n"]),
                                     p.get("max_weight", 1))
        if refusal:
            return [f"guard: {refusal}"]
    return []


def validate(config: dict) -> list[str]:
    """Schema plus guard checks without execution, as diagnostics.

    Raises nothing but MemoryError (an ``xsec`` grid too large to hold)."""
    diags = _schema_diags(config)
    if diags and diags[0].startswith("schema"):
        return diags
    return diags + _guard_diags(config)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # shortest round-trip decimal of the double
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Experiment implementations


def _run_kl_check(params: dict, outdir: Path, seed: Optional[int]) -> tuple[list, list]:
    codewords = tuple(vector_from_json(v) for v in params["codewords"])
    ops = tuple(operator_from_json(m) for m in params["errors"])
    tol = params.get("tol", klcore.DEFAULT_KL_TOL)
    report = klcore.kl_check(klcore.CodeSpace(codewords),
                             klcore.ErrorSet(ops), tol)
    path = outdir / "kl_report.json"
    _write_json(path, report.to_json())
    return [path], []


def _run_rotor(params: dict, outdir: Path, seed: Optional[int]) -> tuple[list, list]:
    q_max, w = params["q_max"], params["w"]
    space = rotor.RotorSpace(q_max)
    q1, q2 = params["logical_charges"]
    alpha = beta = 1.0 / np.sqrt(2.0)
    w1, _ = rotor.build_codeword(space, space, q1, params["profile"], w)
    w2, _ = rotor.build_codeword(space, space, q2, params["profile"], w)
    psi = StateVector(w1.space, alpha * w1.amplitudes + beta * w2.amplitudes)
    for q in params["error_charges"]:
        psi = rotor.apply_phase_flip(psi, q, params["error_side"])
    rows = []
    for oc in rotor.enumerate_recovery(psi, (q1, q2)):
        fid = rotor.logical_fidelity(oc.alpha, oc.beta, alpha, beta)
        rows.append([oc.outcome, oc.probability, fid])
    path = outdir / "rotor_recovery.csv"
    _write_csv(path, ["outcome_q_tilde", "probability", "recovered_fidelity"], rows)
    return [path], ["measurement relabeling: outcome-conditioned reinterpretation "
                    "of the A register"]


def _run_qcd_rates(params: dict, outdir: Path, seed: Optional[int]) -> tuple[list, list]:
    m_pi = params.get("m_pi", qcdcode.DEFAULTS.m_pi)
    lam = params.get("lambda_qcd", qcdcode.DEFAULTS.lambda_qcd)
    m_w = params.get("m_w", qcdcode.DEFAULTS.m_w)
    files = []
    if params.get("temperatures"):
        rows = [[t, qcdcode.thermal_flip_suppression(t, m_pi)]
                for t in params["temperatures"]]
        path = outdir / "thermal_suppression.csv"
        _write_csv(path, ["temperature_mev", "suppression"], rows)
        files.append(path)
    if params.get("energies"):
        rows = [[e, qcdcode.sm_flip_suppression(e, lam, m_w)]
                for e in params["energies"]]
        path = outdir / "sm_suppression.csv"
        _write_csv(path, ["energy_mev", "suppression"], rows)
        files.append(path)
    return files, []


def _run_qcd_code(params: dict, outdir: Path, seed: Optional[int]) -> tuple[list, list]:
    workers = params.get("workers", 1)
    cap = os.environ.get("SSRQEC_THREADS")
    if cap:
        workers = min(workers, max(1, int(cap)))
    est, stderr = qcdcode.logical_error_rate(
        params["n"], params["p"], params["trials"], seed, workers=workers)
    path = outdir / "logical_error_rate.csv"
    _write_csv(path, ["p", "n", "logical_rate", "stderr"],
               [[params["p"], params["n"], est, stderr]])
    return [path], ["environment label discarded after momentum projection "
                    "(separability assumption)",
                    "neutron spontaneous decay (~15 min lifetime) treated as a "
                    "coherence budget, not a simulated channel"]


def _xsec_energies(params: dict) -> np.ndarray:
    return np.linspace(params["e_cm_min"], params["e_cm_max"], params["steps"])


def _run_xsec(params: dict, outdir: Path, seed: Optional[int]) -> tuple[list, list]:
    results = scatter.sigma_tot_grid(_xsec_energies(params), tuple(params["masses"]),
                                     params["g1"], params["g2"], params["lam"],
                                     params.get("n_theta", 64))
    rows = [[res.e_cm, res.sigma, res.above_threshold] for res in results]
    path = outdir / "cross_section.csv"
    _write_csv(path, ["e_cm_mev", "sigma_mev^-2", "above_threshold"], rows)
    return [path], []


def _run_toric(params: dict, outdir: Path, seed: Optional[int]) -> tuple[list, list]:
    lat = toriccode.TorusLattice(params["l"], params["n"])
    rows = [[a, b, _fmt_complex(np.exp(2j * np.pi * a / lat.n)),
             _fmt_complex(np.exp(2j * np.pi * b / lat.n))]
            for (a, b) in toriccode.sector_labels(lat)]
    sector_path = outdir / "sectors.csv"
    _write_csv(sector_path, ["charge_a", "charge_b",
                             "wilson_electric_eigenvalue",
                             "wilson_magnetic_eigenvalue"], rows)
    report = toriccode.kl_check_toric(lat, params.get("max_weight", 1),
                                      params.get("tol", 1e-9))
    report_path = outdir / "kl_report.json"
    _write_json(report_path, report.to_json())
    return [sector_path, report_path], []


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"


_RUNNERS = {
    "kl-check": _run_kl_check,
    "rotor": _run_rotor,
    "qcd-rates": _run_qcd_rates,
    "qcd-code": _run_qcd_code,
    "xsec": _run_xsec,
    "toric": _run_toric,
}


def run(config: dict, output_dir: Optional[str] = None) -> dict:
    """Execute a validated config; returns the RunReport dictionary."""
    diags = _schema_diags(config)
    if diags:
        raise ConfigError("; ".join(diags))
    guard = _guard_diags(config)
    if guard:
        raise GuardExceededError("; ".join(guard))
    outdir = Path(output_dir or config.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files, notes = _RUNNERS[config["experiment"]](
        config["params"], outdir, config.get("seed"))
    wall = time.perf_counter() - start
    report = {
        "config": config,
        "artifact_version": __version__,
        "wall_time_seconds": wall,
        "assumption_notes": notes,
        "outputs": {p.name: _sha256(p) for p in files},
    }
    _write_json(outdir / "run_report.json", report)
    return report


class ConfigError(ValueError):
    pass


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="ssrqec",
                                     description="superselection/QEC experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output-dir", type=Path, default=None)
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", type=Path)
    sub.add_parser("schema", help="print the config JSON schema")
    args = parser.parse_args(argv)

    if args.command == "schema":
        print(json.dumps(config_schema(), indent=2, sort_keys=True))
        return 0

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.command == "validate":
        try:
            diags = validate(config)
        except MemoryError as exc:
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return EXIT_GUARD
        for d in diags:
            print(d)
        return 0 if not diags else EXIT_SCHEMA

    try:
        report = run(config, str(args.output_dir) if args.output_dir else None)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except GuardExceededError as exc:
        print(f"error: guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except Exception as exc:  # invariant breach or internal failure
        print(f"error: internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(json.dumps({"outputs": report["outputs"],
                      "wall_time_seconds": report["wall_time_seconds"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
