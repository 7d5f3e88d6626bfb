"""Span tracing of berklip from outside the program.

``Tracer.install`` replaces each listed public function with a wrapper
and rebinds every module attribute that refers to it, since functions
such as ``gpr`` and ``int_val`` are imported by name into other modules.
``uninstall`` restores the originals.  Spans stay in memory until
``write``.  Leaf kernels called about a million times per run get
count-only wrappers: a span there would mostly time the tracer.

A span's self time is its duration minus the durations of its direct
child spans; work in count-only leaves is charged to the caller.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter_ns

# (layer, attribute path inside berklip.<layer>, counter or None); a counter
# is (suffix, f(args, kwargs, result)) and adds f's value to <name>.<suffix>
SPANNED = [
    ("valued", "ppow_compare", None),
    ("polynomials", "taylor_shift", None),
    ("polynomials", "sylvester_det_ord", None),
    ("piecewise", "lower_envelope", ("pieces_out", lambda a, kw, r: len(r.pieces))),
    ("piecewise", "PWLinear.max_with", None),
    ("berk", "push_forward", None),
    ("ratmap", "normalize", None),
    ("ratmap", "resultant_ord", None),
    ("ratmap", "gir_minors", None),
    ("ratmap", "from_factored", None),
    ("invariants", "hull", ("edges_out", lambda a, kw, r: len(r.edges))),
    ("invariants", "gpr", None),
    ("invariants", "rp_ord", None),
    ("invariants", "bundle", None),
    ("lipschitz", "bound_report", None),
    ("lipschitz", "gpr_witness", None),
    ("lipschitz", "sample_ratios", ("pairs", lambda a, kw, r: a[1] if len(a) > 1 else kw["n"])),
    ("lipschitz", "radial_profile", None),
    ("lipschitz", "segment_lip", None),
    ("serialize", "parse_map_data", None),
    ("serialize", "bundle_json", None),
    ("serialize", "report_json", None),
    ("serialize", "profile_json", None),
    ("serialize", "ppow_json", None),
    ("cli", "main", None),
]
COUNTED = [("valued", "int_val")]
JSON_OUT = ("bundle_json", "report_json", "profile_json", "ppow_json")


def _resolve(layer: str, path: str):
    """(owner object, attribute name, current value) for berklip.<layer>.<path>."""
    owner = sys.modules[f"berklip.{layer}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _bindings(fn):
    """Every (module, name) in berklip whose attribute is ``fn``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "berklip" or mod_name.startswith("berklip.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, name))
    return out


class Tracer:
    """Collects spans, per-span-name totals and counters for one run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self.op_id = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0, 0]
        return self._name_ids[name]

    def span(self, name: str, fn, out_counter=None):
        """``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        totals = self.totals[name]
        stack = self._stack
        spans = self.spans

        def wrapped(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((span_id, parent, self.op_id, nid, start, end))
            if out_counter is not None:
                key, count = out_counter
                key = f"{name}.{key}"
                self.counters[key] = self.counters.get(key, 0) + count(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def counted(self, name: str, fn):
        """``fn`` wrapped to count calls only."""
        counters = self.counters
        key = f"{name}.calls"
        counters.setdefault(key, 0)

        def wrapped(*args):
            counters[key] += 1
            return fn(*args)

        wrapped.__wrapped__ = fn
        return wrapped

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a new operation under a root span."""
        self.op_id += 1
        return self.span(name, fn)(*args)

    def _patch(self, layer: str, path: str, make):
        owner, attr, fn = _resolve(layer, path)
        wrapped = make(f"{layer}.{path}", fn)
        targets = [(owner, attr)] if isinstance(owner, type) else _bindings(fn)
        for obj, name in targets:
            self._patched.append((obj, name, fn))
            setattr(obj, name, wrapped)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, path, out_counter in SPANNED:
            self._patch(layer, path, lambda n, f, oc=out_counter: self.span(n, f, oc))
        for layer, path in COUNTED:
            self._patch(layer, path, self.counted)

    def uninstall(self):
        for obj, name, fn in reversed(self._patched):
            setattr(obj, name, fn)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[2] / 1e9

    def write(self, path):
        """Write all spans as gzipped JSON: a name table and one
        [id, parent, op, name index, start ns, end ns] row per span."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
