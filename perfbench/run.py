"""ssrqec benchmark: closed-loop workloads over the CLI and public entry points.

    python3 perfbench/run.py --workload {mc,toric,sweep,small} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seconds S

Run from the repository root; the library is imported from ``src/``.  One
client runs the workload's ops in passes, each op after the previous one
returns, and starts a new pass only while it is predicted to end within
``--seconds``.  The first pass is a warm-up: it is checked but not timed.
Every op's output is checked against an oracle.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics from a
span trace (``--trace 1``) named in BENCHMARK.json.  ``--workload all``
runs every workload untraced and traced, each in a child process so that
peak RSS is per workload, and prints a table.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The caps must be in place before numpy loads its BLAS.
for _var in THREAD_VARS:
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC)) if _cur.isdigit() and int(_cur) > 0 \
        else str(NPROC)
os.environ.pop("SSRQEC_THREADS", None)   # the mc workload sets workers itself

import argparse
import importlib
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = {"mc": workloads.build_mc, "toric": workloads.build_toric,
             "sweep": workloads.build_sweep, "small": workloads.build_small}
SETUP_REPS = 9
WARMUP_PASSES = 1      # checked and counted, but left out of every timing
HARNESS_COUNTERS = ("cli.refusal_mismatch",)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:          # numpy without mode="dicts"
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "jsonschema": importlib.metadata.version("jsonschema"),
            "blas": blas, "cpu_count": os.cpu_count(), "nproc": NPROC,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


def _library_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items()
            if m == "ssrqec" or m.startswith("ssrqec.")}


def load_library():
    """Import ssrqec from src/ afresh; earlier imports are dropped first."""
    for name in _library_modules():
        del sys.modules[name]
    lib = importlib.import_module("ssrqec")
    importlib.import_module("ssrqec.cli")
    if Path(lib.__file__).resolve().parent != SRC / "ssrqec":
        raise ImportError(f"ssrqec imported from {lib.__file__}, not from {SRC}")
    return lib


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    outdir = OUT / f"{name}-{os.getpid()}"
    try:
        return _measure(name, seed, seconds, trace, spec, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _setup(name, seed, outdir):
    """A fresh import of the library plus building every input from the seed."""
    t0 = perf_counter()
    lib = load_library()
    ops = WORKLOADS[name](lib, seed, outdir)
    return perf_counter() - t0, lib, ops


def _measure(name, seed, seconds, trace, spec, outdir) -> dict:
    load_library()   # untimed: the first import also loads scipy.sparse, jsonschema
    setup_s, lib, ops = _setup(name, seed, outdir)
    setups = [setup_s]

    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(lib, tracer)

    samples = {op.name: [] for op in ops}
    counters = {c: [] for c in HARNESS_COUNTERS}
    attempted = failed = 0
    passes = 0
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        for c in counters.values():
            c.append(0.0)
        for op in ops:
            attempted += 1
            t0 = perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:   # a failed op is counted, not fatal
                error = exc
            elapsed = perf_counter() - t0
            if passes >= WARMUP_PASSES:
                samples[op.name].append(elapsed)
            ok = error is None
            if ok:
                try:
                    ok = bool(op.check(result))
                except Exception as exc:
                    ok, error = False, exc
            if ok and op.counters is not None:
                for c, value in op.counters(result).items():
                    counters[c][-1] += value
            if not ok:
                failed += 1
                reason = repr(error) if error else "output check"
                print(f"FAILED {name} pass {passes} op {op.name!r}: {reason}",
                      file=sys.stderr)
        passes += 1
        # Further set-ups are spread over the run, between passes, so that
        # their median sees the same machine as the ops.  The modules in use
        # are put back afterwards: the CLI imports some names lazily.
        if len(setups) < SETUP_REPS and \
                perf_counter() - start >= len(setups) * seconds / SETUP_REPS:
            in_use = _library_modules()
            setups.append(_setup(name, seed, outdir)[0])
            for m in _library_modules():
                del sys.modules[m]
            sys.modules.update(in_use)
        elapsed = perf_counter() - start
        if passes > WARMUP_PASSES and elapsed + elapsed / passes > seconds:
            break

    # Per-op medians keep a rare host stall from moving a pass-level figure;
    # the op-time percentiles are taken over the ops of a pass at those medians.
    median = {op.name: statistics.median(samples[op.name]) for op in ops}
    for op in ops:
        print(f"op {op.name!r}: median {median[op.name]:.6f} s over "
              f"{len(samples[op.name])} runs", file=sys.stderr)
    wall = sum(median.values())
    if trace:
        table = tracer.per_pass()
        table.update((c, np.array(v)) for c, v in counters.items())
        table = {k: v[WARMUP_PASSES:] for k, v in table.items()}
        values = {m["name"]: float(np.median(table[m["name"]]))
                  if m["name"] != "traced.wall_s" else wall
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tracer.dump(OUT / f"spans-{name}.json", environment())
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_s.p50": statistics.median(median.values()),
            "op_s.p90": float(np.percentile(list(median.values()), 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_per_s": sum(op.work for op in ops)
                          / sum(median[op.name] for op in ops if op.work),
        }
        values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(args, spec: dict) -> int:
    """Every workload untraced then traced, one child process per run."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) exited with {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        plain, traced = results
        rows = dict(plain["metrics"])
        rows["fail_ratio"] = {"value": plain["failed"] / plain["attempted"],
                              "unit": "failed/attempted"}
        rows["trace_overhead_s"] = {
            "value": traced["metrics"]["traced.wall_s"]["value"] - rows["wall_s"]["value"],
            "unit": "s"}
        for metric, v in {**rows, **traced["metrics"]}.items():
            print(f"{name:6s} {metric:40s} {v['value']:14.6g} {v['unit']}")
            total["metrics"][f"{name}/{metric}"] = v
        for r in results:
            total["correct"] &= r["correct"]
            total["attempted"] += r["attempted"]
            total["failed"] += r["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ssrqec" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/ssrqec and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps({"env": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
