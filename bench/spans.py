"""Spans around the public entry points of each kmaut layer, installed from
the benchmark's own files; nothing inside kmaut changes.

A span is (function, parent span, start, end).  Self time is a span's
duration minus the time of its child spans.  The two kernel functions are
leaves called millions of times per batch: their calls, self time and
computed multiply-add counts are added to the parent span instead of being
kept one by one, so that memory stays small.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

# (module, class or None, function) per layer, as in BENCHMARK.json
TRACED = [
    ("kernel", None, "matmul"), ("kernel", None, "conv_reduce"),
    ("cyclo", "CycloMatrix", "__mul__"), ("cyclo", "CycloMatrix", "promote"),
    ("cyclo", "CycloMatrix", "inverse"), ("cyclo", "CycloMatrix", "det"),
    ("cyclo", "CycloScalar", "inverse"),
    ("cyclo", None, "finite_order_eigenprojectors"), ("cyclo", None, "pfaffian"),
    ("linalg", None, "rref"), ("linalg", None, "solve_in_span"),
    ("linalg", None, "nullspace"),
    ("algebra", None, "sigma_eigenspace"),
    ("algebra", "SimpleAlgebra", "bracket_matrix"),
    ("autg", None, "involution_int_class"), ("autg", "Automorphism", "order"),
    ("autg", "Automorphism", "compose"), ("autg", "Automorphism", "inverse"),
    ("pi0", None, "component_signature"), ("pi0", None, "pi0_row"),
    ("loop", None, "affine_bracket"), ("loop", None, "affine_form"),
    ("loop", None, "loop_bracket"),
    ("loopaut", "StandardLoopAutomorphism", "__init__"),
    ("loopaut", "StandardLoopAutomorphism", "from_json"),
    ("loopaut", None, "normalize_to_constant"),
    ("loopaut", None, "invariant_first_kind"),
    ("loopaut", None, "invariant_second_kind"),
    ("loopaut", None, "conjugacy_test"),
    ("tables", None, "realize"), ("tables", None, "enumerate_first_kind"),
    ("tables", None, "enumerate_second_kind"),
    ("realforms", None, "real_form_basis"),
    ("realforms", "RealFormBasis", "closed_under_bracket"),
    ("realforms", None, "cartan_decomposition"),
]
LEAVES = {"kernel.matmul", "kernel.conv_reduce"}


def metric_name(module, cls, fn):
    return ".".join(x for x in (module, cls, fn) if x)


def per_layer_names():
    """Every per-layer metric, with its unit, in report order."""
    out = []
    for mod, cls, fn in TRACED:
        name = metric_name(mod, cls, fn)
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
    out += [("kernel.matmul.madds", "count"),
            ("kernel.conv_reduce.madds", "count"),
            ("cyclo.CycloMatrix.promote.lift_frac", "frac"),
            ("cyclo.CycloScalar.inverse.n1.calls", "count"),
            ("trace.overhead", "x")]
    return out


class Tracer:
    """Collects spans while `enabled`; wrappers stay installed for the life
    of the process, and cost one attribute test when disabled."""

    def __init__(self):
        self.enabled = False
        self.names = []
        self.calls = []
        self.self_s = []
        self.madds = {"kernel.matmul": 0, "kernel.conv_reduce": 0}
        self.promote_lifts = 0
        self.inverse_n1 = 0
        # open spans: [span index, time of child spans]
        self.stack = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _register(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name, fn):
        nid = self._register(name)
        if name in LEAVES:
            return self._wrap_leaf(nid, name, fn)
        stack = self.stack
        calls, self_s = self.calls, self.self_s
        sname, sparent = self.span_name, self.span_parent
        sstart, send = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._count_extra(name, args)
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            sstart.append(t0)
            send.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                send[idx] = t1
                calls[nid] += 1
                self_s[nid] += d - frame[1]
                if stack:
                    stack[-1][1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, nid, name, fn):
        stack = self.stack
        calls, self_s = self.calls, self.self_s
        madds = self.madds
        tracer = self
        matmul = name == "kernel.matmul"

        def leaf(*args):
            if not tracer.enabled:
                return fn(*args)
            t0 = perf_counter()
            out = fn(*args)
            d = perf_counter() - t0
            calls[nid] += 1
            self_s[nid] += d
            phi = args[3]
            madds[name] += (args[4] ** 3 * phi * phi) if matmul else phi * phi
            if stack:
                stack[-1][1] += d
            return out

        leaf.__wrapped__ = fn
        return leaf

    def _count_extra(self, name, args):
        if name == "cyclo.CycloMatrix.promote":
            if args[1] != args[0].N:
                self.promote_lifts += 1
        elif name == "cyclo.CycloScalar.inverse":
            if args[0].N == 1:
                self.inverse_n1 += 1

    def install(self):
        """Wrap every traced function on its class, or in every loaded
        module namespace that bound it."""
        import kmaut  # noqa: F401  (loads every layer)
        for mod, cls, fn in TRACED:
            module = sys.modules["kmaut." + mod]
            name = metric_name(mod, cls, fn)
            if cls is not None:
                owner = getattr(module, cls)
                raw = inspect.getattr_static(owner, fn)
                if isinstance(raw, staticmethod):
                    setattr(owner, fn, staticmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, fn, self.wrap(name, raw))
                continue
            orig = getattr(module, fn)
            wrapped = self.wrap(name, orig)
            for mname, m in list(sys.modules.items()):
                if (mname == "kmaut" or mname.startswith("kmaut.")) \
                        and getattr(m, fn, None) is orig:
                    setattr(m, fn, wrapped)

    def metrics(self, overhead, scale=1.0):
        """Per-layer metrics as {name: (value, unit)}; self times are
        multiplied by `scale`."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[nid], "count")
            out[name + ".self_s"] = (self.self_s[nid] * scale, "s")
        out["kernel.matmul.madds"] = (self.madds["kernel.matmul"], "count")
        out["kernel.conv_reduce.madds"] = (self.madds["kernel.conv_reduce"],
                                           "count")
        ncalls = out["cyclo.CycloMatrix.promote.calls"][0]
        out["cyclo.CycloMatrix.promote.lift_frac"] = (
            self.promote_lifts / ncalls if ncalls else 0.0, "frac")
        out["cyclo.CycloScalar.inverse.n1.calls"] = (self.inverse_n1, "count")
        out["trace.overhead"] = (overhead, "x")
        return {k: out[k] for k, _ in per_layer_names()}

    def write_spans(self, path):
        """One line per span: index, parent index, function, start, end (s,
        perf_counter clock)."""
        with open(path, "w") as fh:
            fh.write("index,parent,function,start,end\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write("%d,%d,%s,%.9f,%.9f\n" % (
                    i, self.span_parent[i], names[self.span_name[i]],
                    self.span_start[i], self.span_end[i]))
        return len(self.span_name)
