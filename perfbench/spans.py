"""Span recorder for the traced benchmark run.

``install`` replaces every public function of the ssrqec modules with a
wrapper that records one span per call: name, parent span, pass index,
start, end and busy time.  Calls to the hot leaf functions in
``COUNT_ONLY`` are counted instead.  The wrappers live here, in the benchmark, so
the library itself is not edited.  Spans stay in flat in-memory arrays
and are written out once, by ``dump``, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("cli", "hilbert", "klcore", "qcdcode", "rotor", "scatter", "toriccode")

COMPLEX_BYTES = 16


def _array_bytes(value) -> int:
    """Bytes of a StateVector/Operator result, computed from its shape."""
    arr = getattr(value, "amplitudes", None)
    if arr is None:
        arr = value.matrix
    if hasattr(arr, "nnz"):  # sparse operator: stored entries only
        return int(arr.nnz) * COMPLEX_BYTES
    return int(np.prod(arr.shape)) * COMPLEX_BYTES


def _gram_shape(args, kwargs, result) -> dict:
    n_err, _, k, _ = args[0].shape
    rows = n_err * k
    return {"klcore.gram.rows": rows,
            "klcore.gram.bytes": rows * rows * COMPLEX_BYTES}


def _output_bytes(args, kwargs, result) -> dict:
    outdir = Path(args[1] if len(args) > 1 else kwargs["output_dir"])
    names = list(result["outputs"]) + ["run_report.json"]
    return {"cli.output_bytes": sum(os.path.getsize(outdir / n) for n in names)}


# Counters recorded at a call boundary, computed from its arguments or
# result: function -> (counter names, hook).  Every "bytes" counter here is
# computed from array shapes, not measured from the allocator.
HOOKS = {
    "cli.run": (("cli.output_bytes",), _output_bytes),
    "hilbert.tensor_product": (("hilbert.tensor_product.bytes",), lambda a, k, r: {
        "hilbert.tensor_product.bytes": _array_bytes(r)}),
    "klcore.report_from_elements": (("klcore.gram.rows", "klcore.gram.bytes"),
                                    _gram_shape),
    "toriccode.enumerate_pauli_errors": (
        ("toriccode.enumerate_pauli_errors.count",),
        lambda a, k, r: {"toriccode.enumerate_pauli_errors.count": len(r)}),
    "qcdcode.logical_error_rate": (("qcdcode.trials",), lambda a, k, r: {
        "qcdcode.trials": a[2] if len(a) > 2 else k["trials"]}),
}


# Leaf functions called once per quadrature node or per Pauli pair, tens of
# thousands of times a pass.  A span around each would cost more than the
# call itself, so these calls are counted, not timed.
COUNT_ONLY = frozenset({
    "scatter.amplitude_p_to_n", "scatter.spin_summed_amp2", "scatter.dirac_u",
    "scatter.u_bar", "scatter.cm_kinematics", "scatter.cm_momentum",
    "toriccode.commutation_exponent", "toriccode.pauli_mul",
    "toriccode.single_qudit_pauli", "toriccode.pauli_identity",
})


class Tracer:
    """Flat span store; span ids are indices into the arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name_id = array("q")
        self.pass_id = array("q")
        self.outer = array("b")    # 1 unless an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.counters: list[tuple[int, dict]] = []   # (span id, counters)
        self.tallies: list[list[int]] = []           # calls per pass, COUNT_ONLY
        self.tally: list[int] = []
        self.stack = [-1]
        self.depth: list[int] = []
        self.pass_index = -1

    def begin_pass(self) -> None:
        self.pass_index += 1
        self.tally = [0] * len(self.names)
        self.tallies.append(self.tally)

    def _open(self, nid: int) -> int:
        sid = len(self.parent)
        self.parent.append(self.stack[-1])
        self.name_id.append(nid)
        self.pass_id.append(self.pass_index)
        self.outer.append(1 if self.depth[nid] == 0 else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        return sid

    def wrap(self, name: str, fn):
        self.names.append(name)
        self.depth.append(0)
        nid = len(self.names) - 1
        hook = HOOKS[name][1] if name in HOOKS else None
        stack, depth = self.stack, self.depth

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                self.tally[nid] += 1
                return fn(*args, **kwargs)
            return counter

        if inspect.isgeneratorfunction(fn):
            # busy time is the time spent inside the generator's resumptions
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                sid = self._open(nid)
                inner = fn(*args, **kwargs)
                first = last = None
                busy = 0.0
                try:
                    while True:
                        stack.append(sid)
                        depth[nid] += 1
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            t1 = perf_counter()
                            depth[nid] -= 1
                            stack.pop()
                            busy += t1 - t0
                            first = t0 if first is None else first
                            last = t1
                        yield item
                finally:
                    inner.close()
                    if first is not None:
                        self.start[sid], self.end[sid], self.busy[sid] = first, last, busy
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            stack.append(sid)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[nid] -= 1
                stack.pop()
                self.start[sid], self.end[sid], self.busy[sid] = t0, t1, t1 - t0
            if hook is not None:
                self.counters.append((sid, hook(args, kwargs, result)))
            return result
        return wrapper

    def per_pass(self) -> dict[str, np.ndarray]:
        """Per-pass totals: '<fn>.s', '<fn>.self_s', '<fn>.calls', counters.

        '.s' adds the spans of a function not nested in a span of the same
        function; '.self_s' subtracts from each span its direct children.
        COUNT_ONLY functions have '.calls' only.
        """
        n_passes, n_names = len(self.tallies), len(self.names)
        name_id = np.frombuffer(self.name_id, dtype=np.int64)
        pass_id = np.frombuffer(self.pass_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        busy = np.frombuffer(self.busy, dtype=np.float64)
        child = np.zeros(len(busy))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], busy[has_parent])
        key = pass_id * n_names + name_id

        def table(weights, mask):
            return np.bincount(key[mask], weights=weights[mask],
                               minlength=n_passes * n_names).reshape(n_passes, n_names)

        everything = np.ones(len(busy), dtype=bool)
        totals = {"s": table(busy, outer), "self_s": table(busy - child, everything),
                  "calls": table(np.ones(len(busy)), everything)}
        tallies = np.array(self.tallies, dtype=float).reshape(n_passes, n_names)
        out = {c: np.zeros(n_passes) for name in self.names
               for c in HOOKS.get(name, ((), None))[0]}
        for i, name in enumerate(self.names):
            if name in COUNT_ONLY:
                out[f"{name}.calls"] = tallies[:, i]
                continue
            for suffix, tab in totals.items():
                out[f"{name}.{suffix}"] = tab[:, i]
        for sid, counts in self.counters:
            for cname, value in counts.items():
                out[cname][self.pass_id[sid]] += value
        return out

    def dump(self, path: Path, env: dict) -> None:
        """Write every span once, as one JSON document, at the end of a run."""
        cols = {"parent": self.parent, "name": self.name_id, "pass": self.pass_id,
                "start": self.start, "end": self.end, "busy": self.busy}
        doc = {"env": env, "names": self.names,
               "spans": {k: list(v) for k, v in cols.items()},
               "counters": [[sid, c] for sid, c in self.counters],
               "calls_per_pass": {name: [t[i] for t in self.tallies]
                                  for i, name in enumerate(self.names)
                                  if name in COUNT_ONLY}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def install(lib, tracer: Tracer) -> None:
    """Wrap every public function of each ssrqec module, in place.

    A function imported by name into another ssrqec module (for example
    ``cli.operator_from_json``) is replaced there too, so cross-module
    calls go through the same wrapper.
    """
    mods = [getattr(lib, m) for m in MODULES]
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{short}.{name}", obj)
            for other in mods:
                for alias, ref in list(vars(other).items()):
                    if ref is obj:
                        setattr(other, alias, wrapped)
