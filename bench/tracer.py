"""Outside-in tracing of siltengine's layer entry points.

Every engine layer calls the others through module attributes
(``linalg.rref``, ``cx.HomSpace``, ``mod.hom_space``, ...), and methods are
looked up on their class, so replacing an attribute with a timing wrapper
also sees the calls the engine makes internally.  The wrappers record one
span per call (entry point, parent span, start, end) in memory; the
per-layer metrics are computed from the spans when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Its inclusive time counts only outermost spans of the same entry
point, so recursion is not counted twice.
"""

import functools
import time

import numpy as np

# layer -> entry points; "Class.method" wraps a method on the class.
ENTRY_POINTS = {
    "linalg": ("rref", "solve_matrix", "coords_in_basis", "complement"),
    "algebra": ("build_algebra", "Algebra.radical",
                "Algebra.decompose_identity", "split_by_min_poly",
                "Algebra.gabriel_quiver_report"),
    "modules": ("hom_space", "end_algebra", "decompose_module", "ext_space",
                "ar_sequence", "modules_isomorphic"),
    "complexes": ("HomSpace.__init__", "minimize", "decompose_complex",
                  "chain_end_algebra", "complexes_isomorphic"),
    "silting": ("is_presilting", "SiltingContext.__init__", "module_battery",
                "torsion_resolution", "verify_theorem", "bongartz_complete"),
    "ar": ("connecting_sequence", "splitting_check", "separating_check",
           "split_ar_report"),
    "cli": ("parse_algebra", "parse_complex"),
    "report": ("emit_text", "emit_json"),
}

# Upper bounds (rows * cols) of the rref shape buckets; larger is "large".
RREF_BUCKETS = (("tiny", 64), ("small", 512), ("mid", 4096))


def metric_name(layer, entry):
    """'complexes', 'HomSpace.__init__' -> 'complexes.HomSpace'."""
    return "%s.%s" % (layer, entry.replace(".__init__", ""))


def metric_names():
    """(name, unit) of the per-layer metrics a traced run reports as JSON.

    Every entry point's calls, the rref shape counters, the isomorphism
    search hit ratio and each layer's self time.  Per-entry self and
    inclusive times go to the human-readable table only: many entry points
    are never called on some workload, and a time that reads 0 on every run
    is not a measurement.  For the same reason the `ar` layer, which only
    the modules and rational workloads reach, has no layer time.
    """
    names = [(metric_name(layer, entry) + ".calls", "count")
             for layer, entries in ENTRY_POINTS.items()
             for entry in entries]
    names.append(("linalg.rref.cells", "count"))
    names += [("linalg.rref.calls.%s" % b, "count") for b, _ in RREF_BUCKETS]
    names.append(("linalg.rref.calls.large", "count"))
    names.append(("modules.modules_isomorphic.hit_ratio", "ratio"))
    names += [(layer + ".self_s", "s") for layer in ENTRY_POINTS
              if layer != "ar"]
    return names


class Tracer:
    """Wraps the entry points of the imported `siltengine` package."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self.spans = []  # (entry index, parent span, start, end, outermost)
        self._stack = []
        self._active = []
        self._undo = []
        self.rref_cells = 0
        self.rref_buckets = {b: 0 for b, _ in RREF_BUCKETS}
        self.rref_buckets["large"] = 0
        self.iso_hits = 0

    def install(self):
        for layer, entries in ENTRY_POINTS.items():
            module = getattr(self.package, layer)
            for entry in entries:
                owner = module
                attr = entry
                if "." in entry:
                    cls, attr = entry.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                name = metric_name(layer, entry)
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _observe(self, name, args, result):
        if name == "linalg.rref":
            rows, cols = np.shape(args[1])[:2]
            cells = int(rows) * int(cols)
            self.rref_cells += cells
            for bucket, bound in RREF_BUCKETS:
                if cells <= bound:
                    self.rref_buckets[bucket] += 1
                    break
            else:
                self.rref_buckets["large"] += 1
        elif name == "modules.modules_isomorphic" and result is not None:
            self.iso_hits += 1

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self._active.append(0)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        observe = name in ("linalg.rref", "modules.modules_isomorphic")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            outermost = active[index] == 0
            active[index] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[index] -= 1
                stack.pop()
                spans[me] = (index, parent, start, end, outermost)
            if observe:
                self._observe(name, args, result)
            return result

        return wrapper

    def metrics(self):
        """Per-entry calls, self and inclusive seconds, per-layer self
        seconds and the counters."""
        covered = [0.0] * len(self.spans)
        for index, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        for k, (index, _, start, end, outermost) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - covered[k]
            if outermost:
                incl_s[index] += end - start
        out = {layer + ".self_s": 0.0 for layer in ENTRY_POINTS}
        for index, name in enumerate(self.names):
            out[name + ".calls"] = calls[index]
            out[name + ".self_s"] = self_s[index]
            out[name + ".incl_s"] = incl_s[index]
            out[name.split(".")[0] + ".self_s"] += self_s[index]
        out["linalg.rref.cells"] = self.rref_cells
        for bucket, count in self.rref_buckets.items():
            out["linalg.rref.calls." + bucket] = count
        iso_calls = out["modules.modules_isomorphic.calls"]
        out["modules.modules_isomorphic.hit_ratio"] = (
            self.iso_hits / iso_calls if iso_calls else 0.0)
        return out
