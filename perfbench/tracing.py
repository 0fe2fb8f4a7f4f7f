"""Run-time spans around the public functions of each `qimgload` module.

`install` replaces each traced function with a wrapper under every name
that a `qimgload` module binds it to, so `from .x import y` call sites are
covered; `uninstall` puts the originals back.  Nothing is changed on disk.
Spans (name, start, end, parent) stay in memory until the run ends; a
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, function) -> span name.  The span name is the layer's metric prefix.
TRACED = {
    ("simulator", "apply_gate_dense"): "simulator.apply_gate_dense",
    ("simulator", "run"): "simulator.run",
    ("simulator", "sample"): "simulator.sample",
    ("simulator", "state_to_csv"): "simulator.state_to_csv",
    ("simulator", "histogram_to_csv"): "simulator.histogram_to_csv",
    ("compiler", "sweep_optimize"): "compiler.sweep_optimize",
    ("compiler", "grow_and_optimize"): "compiler.grow_and_optimize",
    ("compiler", "iterative_construct"): "compiler.iterative_construct",
    ("mps", "apply_two_qubit_gate"): "mps.apply_two_qubit_gate",
    ("mps", "left_canonicalize"): "mps.left_canonicalize",
    ("mps", "truncate"): "mps.truncate",
    ("mps", "from_dense"): "mps.from_dense",
    ("circuit", "layer_from_chi2_mps"): "circuit.layer_from_chi2_mps",
    ("circuit", "circuit_to_dict"): "circuit.circuit_to_dict",
    ("image_codec", "load_image"): "image_codec.load_image",
    ("image_codec", "encode_amplitudes"): "image_codec.encode_amplitudes",
    ("image_codec", "decode_probabilities"): "image_codec.decode_probabilities",
    ("image_codec", "write_pgm"): "image_codec.write_pgm",
    ("analysis", "infidelity"): "analysis.infidelity",
    ("cli", "cmd_compile"): "cli.compile",
    ("cli", "cmd_simulate"): "cli.simulate",
}


class Tracer:
    def __init__(self):
        self.names = list(TRACED.values())
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._patched = []  # (module, attribute, original)
        # counters recorded at the same boundaries as the spans
        self.bytes_computed = 0
        self.sweeps = 0
        self.gate_updates = 0

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        hook = {
            "simulator.apply_gate_dense": self._count_dense,
            "compiler.sweep_optimize": self._count_sweeps,
        }.get(name)

        def traced(*args, **kwargs):
            after = hook(args, kwargs) if hook is not None else None
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_dense(self, args, kwargs):
        # apply_gate_dense(vec, matrix, site, n_qubits) reads and writes 2^N amplitudes
        vec = args[0] if args else kwargs["vec"]
        n_qubits = args[3] if len(args) > 3 else kwargs["n_qubits"]
        self.bytes_computed += 2 * vec.dtype.itemsize * 2**n_qubits

    def _count_sweeps(self, args, kwargs):
        # sweep_optimize(circuit, target, n_sweeps, trace=None, ...) -> (circuit, trace);
        # it appends one record per sweep to `trace`
        trace = args[3] if len(args) > 3 else kwargs.get("trace")
        before = len(trace.records) if trace is not None else 0

        def after(result):
            swept = len(result[1].records) - before
            self.sweeps += swept
            self.gate_updates += swept * len(result[0].all_gates())

        return after

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qimgload"]
        for (module, attr), name in TRACED.items():
            original = getattr(sys.modules[f"qimgload.{module}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, binding, original))
                        setattr(m, binding, wrapper)

    def uninstall(self):
        for m, binding, original in reversed(self._patched):
            setattr(m, binding, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to `totals` for the spans and counts recorded after it."""
        return len(self.start), self.bytes_computed, self.sweeps, self.gate_updates

    def totals(self, since: tuple) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)} plus counters, since `since`."""
        lo = since[0]
        nid = np.array(self.name_id[lo:])
        parent = np.array(self.parent[lo:])
        duration = np.array(self.end[lo:]) - np.array(self.start[lo:])
        own = duration.copy()
        nested = parent >= lo
        np.subtract.at(own, parent[nested] - lo, duration[nested])
        spans = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            spans[name] = (int(sel.sum()), float(duration[sel].sum()), float(own[sel].sum()))
        counters = {
            "bytes_computed": self.bytes_computed - since[1],
            "sweeps": self.sweeps - since[2],
            "gate_updates": self.gate_updates - since[3],
        }
        return {"spans": spans, "counters": counters}
