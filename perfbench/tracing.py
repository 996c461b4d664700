"""Per-layer spans and counters, recorded from outside the program.

``install`` replaces each traced function of ``moyal`` by a wrapper at every
module attribute that holds it (``moyal.negativity.laguerre_pair``,
``moyal.models.polygauss_star``, ...) and, for methods, on the class.  It is
called only in a traced benchmark process; nothing under ``src/`` changes.

While a pass runs, a wrapper records a span (name, start, end, parent span)
in memory, or only bumps a counter for functions too small to time.  Outside
passes (set-up and checks) the wrappers pass straight through.
``per_layer`` turns the spans of the timed passes into per-pass figures.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _points(q, p):
    return int(np.broadcast(np.asarray(q), np.asarray(p)).size)


def _file_bytes(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _star_numeric_name(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "direct")
    return f"grid.star_numeric.{method}.{args[0].spec.nq}"


# (module, attribute, span name or None for a counter only, counters)
# A span name may be a function of the call's arguments.  Each counter is
# (key, function of (args, kwargs) -> amount), taken before the call, or
# after it when the key ends in "bytes".
TARGETS = (
    ("moyal.star", "polygauss_star", "star.polygauss_star",
     (("star.polygauss_star.calls", lambda a, k: 1),)),
    ("moyal.symbols", "PolynomialSymbol.__mul__", "symbols.mul", ()),
    ("moyal.symbols", "PolynomialSymbol.__rmul__", "symbols.mul", ()),
    ("moyal.polygauss", "PolyGauss.mul_symbol", "polygauss.mul_symbol", ()),
    ("moyal.polygauss", "PolyGauss.as_float", None,
     (("polygauss.as_float.calls", lambda a, k: 1),)),
    ("moyal.polygauss", "PolyGauss.evaluate", "polygauss.evaluate",
     (("polygauss.evaluate.mp_points",
       lambda a, k: _points(a[1], a[2]) if a[0].has_extended_precision()
       else 0),)),
    ("moyal.polygauss", "integrate", "polygauss.integrate", ()),
    ("moyal.polygauss", "marginal", "polygauss.marginal", ()),
    ("moyal.bopp", "apply", "bopp.apply", ()),
    ("moyal.residual", "eigen_residual", "residual.eigen_residual", ()),
    ("moyal.grid", "star_numeric", _star_numeric_name, ()),
    ("moyal.grid", "sample", "grid.sample", ()),
    ("moyal.grid", "tapered_sample", "grid.tapered_sample", ()),
    ("moyal.grid", "moyal_bracket_numeric", "grid.moyal_bracket_numeric", ()),
    ("moyal.grid", "wigner_from_wavefunction", "grid.wigner_from_wavefunction",
     ()),
    ("moyal.negativity", "laguerre_roots", "negativity.laguerre_roots", ()),
    ("moyal.negativity", "eta_radial", "negativity.eta_radial", ()),
    ("moyal.negativity", "eta_grid_damped", "negativity.eta_grid_damped", ()),
    ("moyal.models", "laguerre_pair", None,
     (("models.laguerre_pair.calls", lambda a, k: 1),)),
    ("moyal.models", "damped_wigner_values", "models.damped_wigner_values",
     (("models.damped_wigner_values.points",
       lambda a, k: _points(a[1], a[2])),)),
    ("moyal.models", "harmonic_wigner_values", "models.harmonic_wigner_values",
     ()),
    ("moyal.formats", "write_grid_csv", "formats.write_grid_csv",
     (("formats.write_grid_csv.bytes", lambda a, k: _file_bytes(a[1])),)),
    ("moyal.formats", "read_grid_csv", "formats.read_grid_csv",
     (("formats.read_grid_csv.bytes", lambda a, k: _file_bytes(a[0])),)),
    ("moyal.cli", "main", "cli.main", ()),
)

# Every per-layer metric, with its unit.  A layer a workload does not reach
# reads 0 there.
PER_LAYER = (
    [(f"{name}.ms", "ms") for name in (
        "star.polygauss_star", "symbols.mul", "polygauss.mul_symbol",
        "bopp.apply", "polygauss.integrate", "polygauss.marginal",
        "residual.eigen_residual", "polygauss.evaluate")]
    + [("star.polygauss_star.calls", "count"),
       ("polygauss.as_float.calls", "count"),
       ("polygauss.evaluate.mp_points", "count")]
    + [(f"grid.star_numeric.fft.{n}.ms", "ms") for n in (128, 192, 256)]
    + [(f"grid.star_numeric.direct.{n}.ms", "ms") for n in (48, 64)]
    + [(f"{name}.ms", "ms") for name in (
        "grid.sample", "grid.tapered_sample", "grid.moyal_bracket_numeric",
        "grid.wigner_from_wavefunction", "negativity.laguerre_roots",
        "negativity.eta_radial", "negativity.eta_grid_damped",
        "models.damped_wigner_values", "models.harmonic_wigner_values",
        "formats.write_grid_csv", "formats.read_grid_csv", "cli.main")]
    + [("models.laguerre_pair.calls", "count"),
       ("models.damped_wigner_values.points", "count"),
       ("formats.write_grid_csv.mb_per_s", "MB/s"),
       ("formats.read_grid_csv.mb_per_s", "MB/s"),
       ("cli.main.self_ms", "ms"),
       ("trace.round_s", "s"),
       ("trace.self_share", "%")]
)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, pass]
        self.counts = []         # one Counter per pass
        self.walls = []          # wall time of each pass
        self.stack = []
        self.active = False

    def begin_pass(self):
        self.counts.append(Counter())
        self.active = True

    def end_pass(self, wall: float):
        self.active = False
        self.walls.append(wall)

    def wrap(self, fn, name, counters):
        pre = [(key, f) for key, f in counters if not key.endswith("bytes")]
        post = [(key, f) for key, f in counters if key.endswith("bytes")]
        namer = name if callable(name) else (lambda a, k: name)

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    for key, f in pre:
                        self.counts[-1][key] += f(args, kwargs)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts = self.counts[-1]
            for key, f in pre:
                counts[key] += f(args, kwargs)
            span = [namer(args, kwargs), 0.0, 0.0,
                    self.stack[-1] if self.stack else -1, len(self.walls)]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
                for key, f in post:
                    counts[key] += f(args, kwargs)
        return traced

    def dump(self, path):
        """Write the spans as JSON lines (name, start, end, parent, pass)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, extra_modules=()):
    """Wrap every target wherever the program (or ``extra_modules``) holds it."""
    import importlib

    for modname, attr, name, counters in TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name, counters))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, counters)
        holders = [m for n, m in list(sys.modules.items())
                   if n == "moyal" or n.startswith("moyal.")]
        for holder in holders + list(extra_modules):
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)


def per_layer(tracer: Tracer) -> dict:
    """Median over the timed passes (all but the first) of per-pass figures."""
    spans = tracer.spans
    passes = range(1, len(tracer.walls))
    inclusive = {p: Counter() for p in passes}
    self_time = {p: Counter() for p in passes}
    child = Counter()
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for i, (name, t0, t1, parent, p) in enumerate(spans):
        if p == 0:
            continue
        self_time[p][name] += t1 - t0 - child[i]
        # an inner call of the same function is already inside the outer span
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            inclusive[p][name] += t1 - t0

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    out = {}
    for metric, unit in PER_LAYER:
        base, _, quantity = metric.rpartition(".")
        if metric == "trace.round_s":
            value = median([tracer.walls[p] for p in passes])
        elif metric == "trace.self_share":
            value = median([100.0 * sum(self_time[p].values()) / tracer.walls[p]
                            for p in passes])
        elif quantity == "ms":
            value = median([1e3 * inclusive[p][base] for p in passes])
        elif quantity == "self_ms":
            value = median([1e3 * self_time[p][base] for p in passes])
        elif quantity == "mb_per_s":
            value = median([tracer.counts[p][base + ".bytes"] / 1e6
                            / inclusive[p][base]
                            for p in passes if inclusive[p][base] > 0])
        else:
            value = median([tracer.counts[p][metric] for p in passes])
        out[metric] = {"value": value, "unit": unit}
    return out
