"""Spans and counters for the traced run, recorded from outside lekit.

Tracer.install() replaces every module-level binding of each traced
function in the loaded lekit modules, including copies imported by name,
with a wrapper; methods are replaced on their class.  Functions that other
modules import inside a function body are looked up on their home module
at call time, so patching that binding covers them.

A span (name, start, end, parent) is recorded for each call to a traced
function while an op runs.  Spans are kept in compact arrays and written
out at the end.  eval_fo and eval_formula count every call but open a span
only at the outermost one; Polarity.up/down and section_zero, the hot
kernels, are counted without spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" for methods.
SPANNED = (
    ("polarity", "enumerate_concepts"),
    ("algebra", "build_complex_algebra"),
    ("algebra", "verify_normality"),
    ("algebra", "find_isomorphism"),
    ("frame", "check_compatibility"),
    ("frame", "frame_from_dict"),
    ("semantics", "frame_validates"),
    ("semantics", "Model.__init__"),
    ("semantics", "algebra_validates"),
    ("syntax", "parse_sequent"),
    ("fol", "translate_sequent"),
    ("morphism", "check_pmorphism"),
    ("morphism", "dual_hom"),
    ("morphism", "dual_pmorphism"),
    ("morphism", "is_injective"),
    ("morphism", "is_surjective"),
    ("constructions", "coproduct"),
    ("constructions", "filter_ideal_frame"),
    ("constructions", "product_algebra"),
    ("definability", "falsify"),
    ("cli", "main"),
)
RECURSIVE = (("semantics", "eval_formula"), ("fol", "eval_fo"))
COUNTED = (
    ("polarity", "Polarity.up", "polarity.closures"),
    ("polarity", "Polarity.down", "polarity.closures"),
    ("frame", "section_zero", "frame.sections"),
)
MARK = "__bench_wrapper__"


def span_name(module, attr):
    return f"{module}.{attr.split('.')[0]}"


def _lekit_modules():
    return [m for name, m in sys.modules.items() if name == "lekit" or name.startswith("lekit.")]


def assert_untraced():
    """Raise if any lekit function or method is a tracing wrapper."""
    for mod in _lekit_modules():
        for name, value in vars(mod).items():
            found = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            if any(getattr(v, MARK, False) for v in found):
                raise RuntimeError(f"tracing wrapper installed at {mod.__name__}.{name}")


class Tracer:
    def __init__(self, lk):
        self.lk = lk
        self.active = False
        self.names = []
        self.name_ids = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []  # [span index, time covered by child spans]
        self.calls = Counter()
        self.self_time = defaultdict(float)
        self.incl = defaultdict(float)  # (op label, name id) -> inclusive time
        self.counts = Counter()
        self.op_label = None
        self.op_count = -1
        self.last_concepts = 0
        self._patches = []

    # -- spans

    def intern(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid):
        self.stack.append([len(self.name), 0.0])
        self.name.append(nid)
        self.parent.append(self.stack[-2][0] if len(self.stack) > 1 else -1)
        self.op.append(self.op_count)
        self.end.append(0.0)
        self.start.append(perf_counter())

    def close(self):
        t = perf_counter()
        idx, child = self.stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        nid = self.name[idx]
        self.calls[nid] += 1
        self.self_time[nid] += dur - child
        self.incl[(self.op_label, nid)] += dur
        if self.stack:
            self.stack[-1][1] += dur

    def begin_op(self, kind, label):
        self.op_count += 1
        self.op_label = label
        self.open(self.intern(f"op.{kind}"))
        self.active = True

    def end_op(self):
        self.active = False
        self.close()

    # -- wrappers

    def _spanned(self, nid, fn, after):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close()
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def _recursive(self, nid, fn, key):
        tr = self
        depth = [0]

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr.counts[key] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            tr.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close()
                depth[0] = 0

        return wrapper

    def _counted(self, key, fn):
        tr = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if tr.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_enumerate(self, out, args):
        self.last_concepts = len(out)
        self.counts["polarity.concepts"] += len(out)

    def _after_build(self, out, args):
        self.counts["algebra.elements"] += out.size

    def _after_frame_validates(self, out, args):
        self.counts["semantics.valuations"] += out.valuations_checked
        props = len(self.lk.syntax.props_of(args[1]))
        self.counts["semantics.possible_valuations"] += self.last_concepts**props

    def _wrappers(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        after = {
            "polarity.enumerate_concepts": self._after_enumerate,
            "algebra.build_complex_algebra": self._after_build,
            "semantics.frame_validates": self._after_frame_validates,
        }
        targets = [
            (m, a, lambda fn, n=span_name(m, a): self._spanned(self.intern(n), fn, after.get(n)))
            for m, a in SPANNED
        ]
        targets += [
            (m, a, lambda fn, n=span_name(m, a): self._recursive(self.intern(n), fn, n + ".nodes"))
            for m, a in RECURSIVE
        ]
        targets += [(m, a, lambda fn, k=key: self._counted(k, fn)) for m, a, key in COUNTED]
        out = []
        for module, attr, make in targets:
            mod = getattr(self.lk, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [(getattr(mod, cls_name), meth)]
                original = vars(owners[0][0])[meth]
            else:
                original = getattr(mod, attr)
                owners = [
                    (m, name)
                    for m in _lekit_modules()
                    for name, value in vars(m).items()
                    if value is original
                ]
            wrapper = make(original)
            setattr(wrapper, MARK, True)
            out += [(owner, name, original, wrapper) for owner, name in owners]
        return out

    def install(self):
        if not self._patches:
            self._patches = self._wrappers()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # -- results

    def total(self, name, table):
        nid = self.name_ids.get(name)
        return 0 if nid is None else table[nid]

    def write(self, path):
        """Write the spans as JSON columns; times are µs from the first span."""
        t0 = self.start[0] if self.start else 0.0
        columns = {
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start_us": self.start,
            "end_us": self.end,
        }
        with open(path, "w") as fh:
            fh.write('{"names":' + json.dumps(self.names))
            for key, values in columns.items():
                fmt = str if values.typecode != "d" else lambda t: str(round((t - t0) * 1e6))
                fh.write(f',"{key}":[')
                for i in range(0, len(values), 1 << 16):
                    fh.write(("," if i else "") + ",".join(map(fmt, values[i : i + (1 << 16)])))
                fh.write("]")
            fh.write("}")
