"""Outside-in tracing of the diffmod layers.

`install` wraps every public function of the layer modules and re-binds
each name that another diffmod module imported with `from .x import y`,
so calls between layers are recorded too.  Spans stay in memory as
[name, start, end, parent index, outermost] and are summarised at the
end: a span's self time is its duration minus the part of it that its
children cover.  Counters are read in spans of their own, named
trace.hook.  `poly` and `orders` get no spans: their leaf functions
run millions of times per pass, so their cost shows in the self time of
the layers that call them.
"""

import functools
import inspect
import sys
import time

LAYERS = ("cli", "manifest", "pipeline", "operators", "vanishing",
          "realroots", "quasimonic", "groebner")

# CLOCK_MONOTONIC is system-wide on Linux, so spans recorded by a child
# process nest correctly inside the parent's span around that process.
clock = time.monotonic


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = {}
        self.counters = {}
        self.maxima = {}

    def open(self, name):
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, depth == 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        span = self.spans[idx]
        span[2] = clock()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def current(self):
        """Index of the innermost open span."""
        return self._stack[-1]

    def inside(self, name):
        return self._depth.get(name, 0) > 0

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def adopt(self, spans, parent, counters, maxima):
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, outer in spans:
            self.spans.append([name, start, end, parent if par is None else base + par,
                               outer and not self.inside(name)])
        for key, value in counters.items():
            self.count(key, value)
        for key, value in maxima.items():
            self.maximum(key, value)

    def dump(self):
        return {"spans": self.spans, "counters": self.counters, "maxima": self.maxima}


def _coeff_bits(vec):
    bits = 0
    for p in vec.comps:
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _hook(name, site):
    """Counters read at a layer boundary, after the call returned."""
    if name == "groebner.critical_l":
        def hook(tr, args, res):
            tr.count("groebner.critical_l.l0_sum", res[0])
            if site == "diffmod.pipeline":
                a_matrix, b_matrix = args[0], args[1]
                tr.count("pipeline.system_rows", len(b_matrix))
                tr.count("pipeline.system_cols", len(b_matrix[0]) + len(a_matrix[0]))
                tr.count("pipeline.system_nonzeros",
                         sum(not p.is_zero() for m in (a_matrix, b_matrix)
                             for row in m for p in row))
        return hook
    if name == "groebner.syzygy_module":
        def hook(tr, args, res):
            if tr.inside("groebner.critical_l"):
                tr.count("groebner.syzygy_module.in_critical_l")
        return hook
    if name == "groebner.buchberger":
        def hook(tr, args, res):
            tr.count("groebner.buchberger.basis_size", len(res.gens))
            tr.maximum("groebner.buchberger.max_coeff_bits",
                       max((_coeff_bits(g) for g in res.gens), default=0))
        return hook
    if name == "groebner.normal_form":
        def hook(tr, args, res):
            tr.count("groebner.normal_form.zero", int(res.is_zero()))
        return hook
    if name == "operators.eliminate_x_derivatives":
        def hook(tr, args, res):
            tr.count("operators.rewrite_pieces", len(res[1]))
        return hook
    return None


def _wrap(tracer, fn, name, site):
    hook = _hook(name, site)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            # its own span, so that counting is not charged to the caller
            idx = tracer.open("trace.hook")
            try:
                hook(tracer, args, res)
            finally:
                tracer.close(idx)
        return res
    return wrapper


def install(tracer):
    """Wrap the layers' public functions in every diffmod module that binds them.

    Returns the names left unwrapped because they are generators, whose
    work happens after the call returns.
    """
    import diffmod.cli  # noqa: F401  (imports every layer)
    names = {}
    skipped = []
    for layer in LAYERS:
        mod = sys.modules["diffmod." + layer]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            if inspect.isgeneratorfunction(obj):
                skipped.append("%s.%s" % (layer, attr))
                continue
            names[obj] = "%s.%s" % (layer, attr)
    for modname, mod in list(sys.modules.items()):
        if modname != "diffmod" and not modname.startswith("diffmod."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in names:
                setattr(mod, attr, _wrap(tracer, obj, names[obj], modname))
            elif isinstance(obj, dict):
                # dispatch tables such as the CLI's subcommand map
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in names:
                        obj[key] = _wrap(tracer, value, names[value], modname)
    return sorted(skipped)


def _union(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per-span-name inclusive time (outermost spans only), self time and
    calls, and per-layer self time.  Layer of a span is its name's prefix."""
    children = {}
    for name, start, end, parent, outer in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    per_name = {}
    per_layer = {}
    for idx, (name, start, end, parent, outer) in enumerate(spans):
        pstart, pend = start, end
        covered = _union([(max(lo, pstart), min(hi, pend))
                          for lo, hi in children.get(idx, []) if hi > pstart and lo < pend])
        self_s = (end - start) - covered
        entry = per_name.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        if outer:
            entry["s"] += end - start
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + self_s
    return per_name, per_layer
