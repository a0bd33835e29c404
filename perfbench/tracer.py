"""In-memory span and counter tracing around orbitlab's public functions.

The tracer wraps functions from outside the package: each wrapped name is
rebound in every ``orbitlab`` module that holds the same object, because the
package imports names with ``from .x import name`` and a call through such a
copy would otherwise go unseen.  Properties (``BasisMap.F_csc``) and methods
(``BasisMap.e_to_f``) are replaced on the class.

Spans record (name, start, end, parent, info) and stay in memory until the
caller aggregates them; counters record only a call count, for functions
called once per basis index.
"""

from __future__ import annotations

import os
import sys
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []          # [name, t0, t1, parent, info]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def span_wrapper(self, name: str, fn, annotate=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if annotate is not None:
                tracer.spans[idx][4] = annotate(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def rebind(self, module, attr: str, wrapper) -> None:
        """Replace module.attr everywhere in orbitlab it is the same object."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "orbitlab"
                                   or mod_name.startswith("orbitlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def wrap_function(self, module, attr: str, name: str, annotate=None):
        fn = getattr(module, attr)
        self.rebind(module, attr, self.span_wrapper(name, fn, annotate))

    def count_function(self, module, attr: str, name: str):
        fn = getattr(module, attr)
        self.rebind(module, attr, self.count_wrapper(name, fn))

    def wrap_method(self, cls, attr: str, name: str):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self.span_wrapper(name, fn))
        self._undo.append((cls, attr, fn))

    def wrap_property(self, cls, attr: str, name: str):
        prop = cls.__dict__[attr]
        setattr(cls, attr, property(self.span_wrapper(name, prop.fget)))
        self._undo.append((cls, attr, prop))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------

    def durations(self) -> list[float]:
        return [s[2] - s[1] for s in self.spans]

    def self_times(self) -> list[float]:
        """Span duration minus the part its direct children cover."""
        durations = self.durations()
        selfs = list(durations)
        for s, d in zip(self.spans, durations):
            if s[3] >= 0:
                selfs[s[3]] -= d
        return selfs

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def outermost(self, name: str) -> list[int]:
        """Indices of spans called `name` with no ancestor of the same name."""
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and name not in self.ancestors(i)]


def install_orbitlab_probes(tracer: Tracer) -> None:
    """Wrap the public functions whose per-layer metrics the benchmark reports."""
    from orbitlab import (basis, geometry, hypercyclic, operators, polynet,
                          reflexivity, report, schedule, unicell)

    def basis_info(args, kwargs, b):
        nnz = sum(len(c) for c in b.F_cols) + sum(len(c) for c in b.E_cols)
        return {"mode": b.mode, "n_trunc": b.n_trunc, "nnz": nnz}

    def norm_info(args, kwargs, res):
        return {"method": res.method, "converged": res.converged,
                "iterations": res.iterations}

    def file_info(args, kwargs, _result):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}

    t = tracer
    t.wrap_function(schedule, "load_config", "schedule.load_config")
    t.count_function(geometry, "classify", "geometry.classify")
    t.count_function(geometry, "stage_table", "geometry.stage_table")
    for fn in ("nearest_member", "b_damped", "generate_net"):
        t.wrap_function(polynet, fn, "polynet")
    t.wrap_function(basis, "assemble", "basis.assemble", basis_info)
    t.wrap_function(basis, "export_matrix_market",
                    "basis.export_matrix_market", file_info)
    t.wrap_property(basis.BasisMap, "F_csc", "basis.csc")
    t.wrap_property(basis.BasisMap, "E_csc", "basis.csc")
    t.wrap_method(basis.BasisMap, "e_to_f", "basis.frame_conversion")
    t.wrap_method(basis.BasisMap, "f_to_e", "basis.frame_conversion")
    t.wrap_function(basis, "solve_F", "basis.solve_F")
    t.wrap_function(basis, "roundtrip_exact", "basis.roundtrip_exact")
    t.wrap_function(operators, "op_norm", "operators.op_norm", norm_info)
    for fn in ("conjugated_power", "sigma_max_block", "block_estimates",
               "full_norm_entry", "tail_bound_entry"):
        t.wrap_function(operators, fn, f"operators.{fn}")
    for fn in ("frame_constant", "certify_hypercyclic_step", "fan_entries",
               "bfan_entries", "modulus_reduction_chain"):
        t.wrap_function(hypercyclic, fn, f"hypercyclic.{fn}")
    t.wrap_function(unicell, "unicell_entries", "unicell.unicell_entries")
    for fn in ("reflexivity_entries", "build_A"):
        t.wrap_function(reflexivity, fn, f"reflexivity.{fn}")
    t.wrap_method(report.VerificationReport, "to_csv", "report.write")
    t.wrap_method(report.VerificationReport, "to_json", "report.write")
