"""Experiment runner: strict JSON configs, seeded runs, hashed outputs.

Subcommands:
  run <config.json>       execute an experiment, write CSV/JSON outputs
  validate <config.json>  every check of ``run``, without executing it
  schema                  print the JSON schema for configs

Each experiment is one ``Experiment`` record in ``EXPERIMENTS``.  Its
``plan`` builds the typed inputs, and the domain code does the refusing.
``validate`` is the schema check plus ``plan``; ``run`` adds the record's
``run``, so the two agree on what is valid and exit with the same code.

Exit codes: 0 success, 2 config error (schema, or a value the domain code
refuses), 3 resource limit (a guard refused the config or the run ran out
of memory), 4 internal invariant breach.  CSV numbers use the shortest
round-trip decimal representation of the underlying doubles, so reruns with
the same seed are bitwise identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from . import __version__
from .errors import GuardExceededError, PropagatorPoleError, check_budget

_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json.dumps
# the sets of item types that ``_column`` renders in bulk
_INT, _FLOAT, _STR, _LIST, _DICT = (frozenset({kind})
                                    for kind in (int, float, str, list, dict))

EXIT_SCHEMA = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"


def _write(path: Path, data: bytes) -> tuple[str, str]:
    """Replace ``path`` by a new file of the bytes, so a link there is not written
    through; returns (file name, SHA-256 of the bytes).  Over an existing file, ext4
    flushes on close after a truncate (120 µs a file), not after an unlink (25 µs)."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    return path.name, hashlib.sha256(data).hexdigest()


def _write_csv(path: Path, header: list[str], rows: Iterable) -> tuple[str, str]:
    """Rows of Python int, float, bool and str cells; ``csv`` writes ``str`` of
    each, which for a float is its shortest round-trip decimal."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return _write(path, buf.getvalue().encode("utf-8"))


def _json_bytes(obj) -> bytes:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte, for
    str-keyed documents.  The stdlib encoder formats each leaf in a Python
    call when indenting; here the common shapes are rendered in bulk:
    - a dict's ``int``, ``str`` and finite ``float`` values inline with their
      keys;
    - the items of a list together (``_column``): all ints or all finite
      floats in one join, all strings in one map, non-empty lists (rows of a
      number matrix, say) through the items of all rows at once, and dicts
      that share their keys (records) one key at a time.
    Everything else (bools, None, NaN and infinities, float subclasses, empty
    or mixed items) is rendered one value at a time."""
    return (_text(obj, "\n") + "\n").encode("ascii")


def _text(obj, nl: str) -> str:
    """``obj`` rendered at the indentation ``nl``."""
    inner = nl + "  "
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            value = obj[key]
            kind = type(value)
            parts.append(inner + _ESCAPE(key) + ": " + (
                int.__repr__(value) if kind is int else
                _ESCAPE(value) if kind is str else
                float.__repr__(value) if kind is float and math.isfinite(value) else
                _text(value, inner)))
        return "{" + ",".join(parts) + nl + "}" if parts else "{}"
    if isinstance(obj, (list, tuple)):
        return "[" + inner + ("," + inner).join(_column(obj, inner)) + nl + "]" \
            if obj else "[]"
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if isinstance(obj, float):
        return _FLOAT_WORDS.get(text := float.__repr__(obj), text)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _column(values, nl: str) -> list[str]:
    """The texts of ``values``, each rendered at the indentation ``nl``."""
    kinds = set(map(type, values))
    if kinds == _INT or kinds == _FLOAT and math.isfinite(sum(values)):
        return list(map(repr, values))
    if kinds == _STR:
        return list(map(_ESCAPE, values))
    inner = nl + "  "
    if kinds == _LIST and all(values):
        items = _column(list(itertools.chain.from_iterable(values)), inner)
        ends, sep = list(itertools.accumulate(map(len, values))), "," + inner
        return [f"[{inner}{sep.join(items[start:end])}{nl}]"
                for start, end in zip([0] + ends, ends)]
    if kinds == _DICT and values[0] and all(
            value.keys() == values[0].keys() for value in values):
        keys = sorted(values[0])
        form = "{" + ",".join(inner + _ESCAPE(key).replace("%", "%%") + ": %s"
                              for key in keys) + nl + "}"
        return [form % texts for texts in
                zip(*(_column([value[key] for value in values], inner) for key in keys))]
    return [_text(value, nl) for value in values]


# ---------------------------------------------------------------------------
# Experiments: plan(params) -> planned inputs; run(planned, outdir, seed) ->
# (file name, SHA-256) of each output.  A plan raises ValueError (or
# PropagatorPoleError) for a config error and GuardExceededError for a
# resource limit.  Each plan and run imports its domain modules when called,
# so a CLI run loads only the modules of its experiment.


def _plan_kl_check(params: dict):
    from . import hilbert, klcore
    words, ops = params["codewords"], params["errors"]
    check_budget(klcore.kl_check_bytes(len(words), len(ops), len(words[0]["re"])),
                 "the kl-check run")
    code = klcore.CodeSpace(tuple(hilbert.vector_from_json(v) for v in words))
    errors = klcore.ErrorSet(tuple(hilbert.operator_from_json(m) for m in ops))
    klcore.require_same_space(code, errors)
    return code, errors, params.get("tol", klcore.DEFAULT_KL_TOL)


def _run_kl_check(planned, outdir: Path, seed: Optional[int]) -> list[tuple[str, str]]:
    from . import klcore
    report = klcore.kl_check(*planned).to_json()
    return [_write(outdir / "kl_report.json", _json_bytes(report))]


# Tracemalloc peaks of a rotor cli.run grow by about 193 B per nonzero
# amplitude (rows, sorted copies, CSV rows) over a fixed 140 KB.
ROTOR_BASE_BYTES, ROTOR_ENTRY_BYTES = 2 ** 18, 256


def _rotor_bytes(q_max: int, w: int) -> int:
    """2 (2W + 1) entries (building refuses W > q_max) and a Born weight per B charge."""
    entries = 2 * (2 * min(w, q_max) + 1)
    return ROTOR_BASE_BYTES + ROTOR_ENTRY_BYTES * entries + 8 * (2 * q_max + 1)


def _plan_rotor(params: dict):
    q_max, w = params["q_max"], params["w"]
    check_budget(_rotor_bytes(q_max, w), "the rotor run")
    from . import rotor
    space = rotor.RotorSpace(q_max)
    q1, q2 = params["logical_charges"]
    w1, w2 = (rotor.build_codeword(space, space, q, params["profile"], w)
              for q in (q1, q2))
    psi = w1.combine(rotor.LOGICAL_AMP, w2, rotor.LOGICAL_AMP)
    for q in params["error_charges"]:
        psi = rotor.apply_phase_flip(psi, q, params["error_side"])
    return psi, (q1, q2)


def _run_rotor(planned, outdir: Path, seed: Optional[int]) -> list[tuple[str, str]]:
    from . import rotor
    outcomes, probs, alphas, betas = rotor.enumerate_recovery(*planned)
    fids = rotor.logical_fidelity(alphas, betas, rotor.LOGICAL_AMP, rotor.LOGICAL_AMP)
    rows = zip(outcomes.tolist(), probs.tolist(), fids.tolist())
    return [_write_csv(outdir / "rotor_recovery.csv",
                       ["outcome_q_tilde", "probability", "recovered_fidelity"], rows)]


def _run_qcd_rates(params: dict, outdir: Path,
                   seed: Optional[int]) -> list[tuple[str, str]]:
    from . import qcdcode
    m_pi = params.get("m_pi", qcdcode.M_PI)
    lam = params.get("lambda_qcd", qcdcode.LAMBDA_QCD)
    m_w = params.get("m_w", qcdcode.M_W)
    files = []
    if params.get("temperatures"):
        rows = [[t, qcdcode.thermal_flip_suppression(t, m_pi)]
                for t in params["temperatures"]]
        files.append(_write_csv(outdir / "thermal_suppression.csv",
                                ["temperature_mev", "suppression"], rows))
    if params.get("energies"):
        rows = [[e, qcdcode.sm_flip_suppression(e, lam, m_w)]
                for e in params["energies"]]
        files.append(_write_csv(outdir / "sm_suppression.csv",
                                ["energy_mev", "suppression"], rows))
    return files


def _plan_qcd_code(params: dict) -> dict:
    if params["n"] % 2 == 0:
        raise ValueError("n must be odd (even-n majority ties are rejected "
                         "at encode time by design)")
    return params


def _run_qcd_code(params: dict, outdir: Path,
                  seed: Optional[int]) -> list[tuple[str, str]]:
    from . import qcdcode
    est, stderr = qcdcode.logical_error_rate(params["n"], params["p"],
                                             params["trials"], seed)
    return [_write_csv(outdir / "logical_error_rate.csv",
                       ["p", "n", "logical_rate", "stderr"],
                       [[params["p"], params["n"], est, stderr]])]


def _plan_xsec(params: dict):
    if params["e_cm_min"] > params["e_cm_max"]:
        raise ValueError("e_cm_min must not exceed e_cm_max")
    from . import scatter
    n_theta = params.get("n_theta", 64)
    if n_theta > scatter.MAX_N_THETA:
        raise GuardExceededError(
            f"n_theta = {n_theta} exceeds {scatter.MAX_N_THETA}: the quadrature "
            f"nodes need an n_theta x n_theta eigenproblem")
    check_budget(scatter.sweep_bytes(params["steps"], n_theta), "the xsec sweep")
    energies = np.linspace(params["e_cm_min"], params["e_cm_max"], params["steps"])
    masses = tuple(params["masses"])
    scatter.check_energies(energies, masses, n_theta)
    return energies, masses, params["g1"], params["g2"], params["lam"], n_theta


def _run_xsec(planned, outdir: Path, seed: Optional[int]) -> list[tuple[str, str]]:
    from . import scatter
    sigma, above = scatter.sigma_tot_grid(*planned)
    rows = zip(planned[0].tolist(), sigma.tolist(), above.tolist())
    return [_write_csv(outdir / "cross_section.csv",
                       ["e_cm_mev", "sigma_mev^-2", "above_threshold"], rows)]


def _plan_toric(params: dict):
    from . import toriccode
    lat = toriccode.TorusLattice(params["l"], params["n"])
    max_weight = params.get("max_weight", 1)
    refusal = toriccode.kl_guard(lat, max_weight)
    if refusal:
        raise GuardExceededError(refusal)
    return lat, max_weight, params.get("tol", toriccode.KL_TOL)


def _run_toric(planned, outdir: Path, seed: Optional[int]) -> list[tuple[str, str]]:
    from . import toriccode
    lat, max_weight, tol = planned
    rows = [[a, b, _fmt_complex(np.exp(2j * np.pi * a / lat.n)),
             _fmt_complex(np.exp(2j * np.pi * b / lat.n))]
            for (a, b) in toriccode.sector_labels(lat)]
    sectors = _write_csv(outdir / "sectors.csv",
                         ["charge_a", "charge_b", "wilson_electric_eigenvalue",
                          "wilson_magnetic_eigenvalue"], rows)
    report = toriccode.kl_check_toric(lat, max_weight, tol).to_json()
    return [sectors, _write(outdir / "kl_report.json", _json_bytes(report))]


class Experiment:
    """One experiment: params schema, plan, run, seed requirement, notes."""

    def __init__(self, schema: dict, plan: Callable[[dict], object],
                 run: Callable[[object, Path, Optional[int]], list],
                 stochastic: bool = False, notes: tuple[str, ...] = ()):
        self.schema, self.plan, self.run = schema, plan, run
        self.stochastic, self.notes = stochastic, notes


def _object_schema(properties: dict, required: tuple[str, ...] = ()) -> dict:
    schema = {"type": "object", "properties": properties,
              "additionalProperties": False}
    if required:
        schema["required"] = list(required)
    return schema


# The envelope only: hilbert's parser checks dims and the re/im entries.
_INTERCHANGE = _object_schema({"dims": {"type": "array"}, "re": {"type": "array"},
                               "im": {"type": "array"}}, ("dims", "re", "im"))
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

EXPERIMENTS = {
    "kl-check": Experiment(_object_schema({
        "codewords": {"type": "array", "items": _INTERCHANGE, "minItems": 1},
        "errors": {"type": "array", "items": _INTERCHANGE, "minItems": 1},
        "tol": _POSITIVE,
    }, ("codewords", "errors")), _plan_kl_check, _run_kl_check),
    "rotor": Experiment(_object_schema({
        "q_max": {"type": "integer", "minimum": 1},
        "w": {"type": "integer", "minimum": 0},
        "profile": {"type": "string", "enum": ["uniform", "gaussian"]},
        "logical_charges": {"type": "array", "items": {"type": "integer"},
                            "minItems": 2, "maxItems": 2, "uniqueItems": True},
        "error_side": {"type": "string", "enum": ["A", "B"]},
        "error_charges": {"type": "array", "items": {"type": "integer"}},
    }, ("q_max", "w", "profile", "logical_charges", "error_side", "error_charges")),
        _plan_rotor, _run_rotor,
        notes=("measurement relabeling: outcome-conditioned reinterpretation "
               "of the A register",)),
    "qcd-rates": Experiment(_object_schema({
        "temperatures": {"type": "array", "items": _POSITIVE},
        "energies": {"type": "array", "items": _POSITIVE},
        "m_pi": _POSITIVE, "lambda_qcd": _POSITIVE, "m_w": _POSITIVE,
    }), lambda params: params, _run_qcd_rates),
    "qcd-code": Experiment(_object_schema({
        "n": {"type": "integer", "minimum": 1},
        "p": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "workers": {"type": "integer", "minimum": 1},  # accepted; has no effect
    }, ("n", "p", "trials")), _plan_qcd_code, _run_qcd_code, stochastic=True,
        notes=("environment label discarded after momentum projection "
               "(separability assumption)",
               "neutron spontaneous decay (~15 min lifetime) treated as a "
               "coherence budget, not a simulated channel")),
    "xsec": Experiment(_object_schema({
        "masses": {"type": "array", "items": {"type": "number", "minimum": 0},
                   "minItems": 4, "maxItems": 4},
        "g1": {"type": "number"},
        "g2": {"type": "number"},
        "lam": {"type": "number"},
        "e_cm_min": _POSITIVE,
        "e_cm_max": _POSITIVE,
        "steps": {"type": "integer", "minimum": 1},
        "n_theta": {"type": "integer", "minimum": 2},
    }, ("masses", "g1", "g2", "lam", "e_cm_min", "e_cm_max", "steps")),
        _plan_xsec, _run_xsec),
    "toric": Experiment(_object_schema({
        "n": {"type": "integer", "minimum": 2},
        "l": {"type": "integer", "minimum": 2},
        "max_weight": {"type": "integer", "minimum": 1},
        "tol": _POSITIVE,
    }, ("n", "l")), _plan_toric, _run_toric),
}

CONFIG_SCHEMA = _object_schema({
    "experiment": {"type": "string", "enum": list(EXPERIMENTS)},
    "seed": {"type": "integer", "minimum": 0, "maximum": 2 ** 64 - 1},
    "output_dir": {"type": "string"},
    "params": {"type": "object"},
}, ("experiment", "params"))
_TYPES = {"string": str, "array": list, "object": dict, "integer": int,
          "number": (int, float)}


def config_schema() -> dict:
    return {**CONFIG_SCHEMA,
            "param_schemas": {name: e.schema for name, e in EXPERIMENTS.items()}}


def _violation(value, schema: dict, where: str) -> Optional[str]:
    """How ``value`` (named ``where``) breaks ``schema``, or None: Draft 2020-12 for
    the keywords used here, in schemas that each name a type.  Numbers must also
    be finite doubles, and integers Python ints, so 3.0 is no integer here;
    ``hilbert`` checks the numbers in interchange payloads."""
    kind, get, big = schema["type"], schema.get, sys.float_info.max
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        return f"{where} is not of type {kind!r}"
    if value not in get("enum", (value,)) or kind in ("integer", "number") and not (
            get("minimum", -big) <= value <= get("maximum", big)
            and get("exclusiveMinimum", -math.inf) < value < get("exclusiveMaximum", math.inf)):
        return f"{where} = {value!r} is outside {schema}"
    for i, item in enumerate(value if "items" in schema else ()):
        if error := _violation(item, schema["items"], f"{where}[{i}]"):
            return error
    if kind == "array" and not get("minItems", 0) <= len(value) <= get("maxItems", math.inf) or (
            get("uniqueItems") and len(set(value)) < len(value)):
        return f"{where} has {len(value)} items: too few, too many or a repeat"
    if kind == "object" and (missing := set(get("required", ())) - value.keys()):
        return f"{where} lacks {', '.join(map(repr, sorted(missing)))}"
    if get("additionalProperties") is False and (extra := value.keys() - get("properties", {})):
        return f"{where} has the unexpected {', '.join(sorted(map(repr, extra)))}"
    for key, sub in get("properties", {}).items():
        if key in value and (error := _violation(value[key], sub, f"{where}.{key}")):
            return error


def _plan(config: dict) -> tuple[Experiment, object]:
    """The config's experiment and planned inputs.

    ConfigError for a schema violation, a non-finite number, a missing seed
    or a value the plan refuses; GuardExceededError when a guard refuses the config.
    """
    if error := _violation(config, CONFIG_SCHEMA, "config"):
        raise ConfigError(f"schema: {error}")
    name = config["experiment"]
    experiment = EXPERIMENTS[name]
    if error := _violation(config["params"], experiment.schema, "params"):
        raise ConfigError(f"schema ({name}): {error}")
    if experiment.stochastic and "seed" not in config:
        raise ConfigError(f"seed required for stochastic experiment {name!r}")
    try:
        return experiment, experiment.plan(config["params"])
    except (ValueError, PropagatorPoleError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def validate(config: dict) -> list[str]:
    """Every check of ``run`` without executing the experiment.

    Returns the refusal as a one-item list of diagnostics, or [] when
    ``run`` would start.  A MemoryError while planning propagates."""
    try:
        _plan(config)
    except ConfigError as exc:
        return [str(exc)]
    except GuardExceededError as exc:
        return [f"guard: {exc}"]
    return []


def _echo(obj):
    """``obj`` with each interchange payload (keys exactly dims, re, im) as its
    dims and the SHA-256 of ``[re, im]`` as little-endian doubles."""
    if isinstance(obj, list):
        return [_echo(item) for item in obj]
    if isinstance(obj, dict) and obj.keys() == {"dims", "re", "im"}:
        data = np.array([obj["re"], obj["im"]], dtype="<f8").tobytes()
        return {"dims": obj["dims"], "sha256": hashlib.sha256(data).hexdigest()}
    return {k: _echo(v) for k, v in obj.items()} if isinstance(obj, dict) else obj


def run(config: dict, output_dir: Optional[str] = None) -> dict:
    """Plan and execute a config; returns the report in run_report.json: the
    config as ``_echo`` gives it, and its SHA-256 as ``config_sha256``.
    Every refusal is raised before the output directory is created."""
    experiment, planned = _plan(config)
    outdir = Path(output_dir or config.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files = experiment.run(planned, outdir, config.get("seed"))
    wall = time.perf_counter() - start
    report = {
        "config": (echo := _echo(config)),
        "config_sha256": hashlib.sha256(_json_bytes(echo)).hexdigest(),
        "artifact_version": __version__,
        "wall_time_seconds": wall,
        "assumption_notes": list(experiment.notes),
        "outputs": dict(files),
    }
    _write(outdir / "run_report.json", _json_bytes(report))  # lists no hash of itself
    return report


def _finite(text: str) -> float:
    """A config number as a double; ValueError for NaN, Infinity or overflow."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite number")
    return value


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
        sys.stdout.write(_json_bytes(config_schema()).decode("ascii"))
        return 0

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"),
                            parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:  # ValueError: not strict JSON or UTF-8
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        if args.command == "validate":
            _plan(config)
        else:
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
    if args.command == "run":
        print(json.dumps({"outputs": report["outputs"],
                          "wall_time_seconds": report["wall_time_seconds"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
