"""Traced replay: spans around the program's public stage calls, plus call
counts and per-module self time from cProfile.

The tracer replaces each stage function listed in ``SPANS`` by a wrapper in
every ``blowuplab`` module that refers to it, so the commands run their real
code path while each call to a stage records a span (name, start, end,
parent).  The wrappers are removed when the replay ends.  A stage's time is
the summed duration of its spans, counting a span only when no enclosing
span has the same name.  Counts and self times come from one cProfile
profile over the whole replay; they are exact and repeat run to run, while
the times include the profiler's own overhead.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import os
import pstats
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) -> span name
SPANS = {
    ("blowuplab.model_io", "parse_algebra"): "model_io.parse",
    ("blowuplab.classify", "classify_constant_height"): "classify.classify",
    ("blowuplab.poisson_spinor", "spinor"): "poisson_spinor.spinor",
    ("blowuplab.poisson_spinor", "blowup_pullback"): "charts.pullback",
    ("blowuplab.poisson_spinor", "vanishing_order"): "poisson_spinor.vanishing_order",
    ("blowuplab.classify", "sample_height_spectrum"): "classify.spectrum",
    ("blowuplab.blowup_geometry", "orbit_rank_crosscheck"): "blowup_geometry.orbit_rank",
    ("blowuplab.poisson_spinor", "check_line_orders"): "poisson_spinor.line_orders",
    ("blowuplab.model_io", "emit_report"): "model_io.emit",
    ("blowuplab.model_io", "certificate_to_dict"): "model_io.emit",
}

# per-layer metric -> (module, dotted attribute) whose calls are counted
CALL_COUNTS = {
    "liealg.height_calls": ("blowuplab.liealg", "height"),
    "liealg.ce_differential_calls": ("blowuplab.liealg", "ce_differential"),
    "poisson_spinor.linear_poisson_calls": ("blowuplab.poisson_spinor", "linear_poisson"),
    "charts.lift_vector_field_calls": ("blowuplab.charts", "BlowupChart.lift_vector_field"),
    "linalg.rank_calls": ("blowuplab.linalg", "rank"),
    "exterior.wedge_calls": ("blowuplab.exterior", "GradedForm.wedge"),
    "rings.polynomial_init_calls": ("blowuplab.rings", "Polynomial.__init__"),
    "fractions.new_calls": ("fractions", "Fraction.__new__"),
}

SELF_TIME_MODULES = ("liealg", "linalg", "rings", "exterior", "charts", "fractions")

SPAN_METRICS = {
    "classify.classify_s": "classify.classify",
    "classify.spectrum_s": "classify.spectrum",
    "blowup_geometry.orbit_rank_s": "blowup_geometry.orbit_rank",
    "poisson_spinor.spinor_s": "poisson_spinor.spinor",
    "charts.pullback_s": "charts.pullback",
    "poisson_spinor.vanishing_order_s": "poisson_spinor.vanishing_order",
    "poisson_spinor.line_orders_s": "poisson_spinor.line_orders",
    "model_io.parse_s": "model_io.parse",
    "model_io.emit_s": "model_io.emit",
}


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0


def _within(span: "Span | None", name: str) -> bool:
    """Whether `span` or one of its ancestors is named `name`."""
    while span is not None:
        if span.name == name:
            return True
        span = span.parent
    return False


def _monomials(form) -> int:
    return sum(len(poly.terms) for poly in form.terms.values())


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _open: "Span | None" = None
    _patched: list = field(default_factory=list)

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._open, time.perf_counter())
            self._open = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open = span.parent
                self.spans.append(span)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount


    def _on_certificate(self, cert):
        self._count("certificates")
        if cert.status == "certified":
            self._count("certified")

    def _counted_height(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _within(self._open, "classify.classify"):
                self._count("witness_candidates")
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "blowuplab" or mod_name.startswith("blowuplab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        self._patched.append((mod, attr, original))

    def install(self):
        hooks = {
            "poisson_spinor.spinor": lambda form: self._count("spinor_terms", _monomials(form)),
            "charts.pullback": lambda cf: self._count("pullback_terms", _monomials(cf.form)),
            "poisson_spinor.vanishing_order": self._on_certificate,
        }
        for (mod_name, attr), name in SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            self._patch(original, self._wrap(name, original, hooks.get(name)))
        height = sys.modules["blowuplab.liealg"].height
        self._patch(height, self._counted_height(height))

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- results ---------------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed duration of outermost spans of that name)."""
        out: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            count, total = out.get(span.name, (0, 0.0))
            nested = _within(span.parent, span.name)
            out[span.name] = (count + 1, total + (0.0 if nested else span.end - span.start))
        return out


def _resolve(mod_name: str, dotted: str):
    obj = sys.modules[mod_name]
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)


def _profile_metrics(profile: cProfile.Profile) -> dict[str, float]:
    raw = pstats.Stats(profile).stats
    stats = {
        (os.path.realpath(filename), line, name): value
        for (filename, line, name), value in raw.items()
    }
    metrics: dict[str, float] = {}
    for metric, (mod_name, dotted) in CALL_COUNTS.items():
        entry = stats.get(_code_key(_resolve(mod_name, dotted)))
        metrics[metric] = entry[1] if entry else 0
    files = {
        name: os.path.realpath(
            fractions.__file__ if name == "fractions" else sys.modules[f"blowuplab.{name}"].__file__
        )
        for name in SELF_TIME_MODULES
    }
    for name, path in files.items():
        metrics[f"{name}.self_s"] = sum(v[2] for k, v in stats.items() if k[0] == path)
    return metrics


def traced(run_pass):
    """Run `run_pass()` under the tracer and the profiler; returns
    (its result, per-layer metrics, span totals)."""
    tracer = Tracer()
    tracer.install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        try:
            result = run_pass()
        finally:
            profile.disable()
    finally:
        tracer.uninstall()
    metrics = _profile_metrics(profile)
    totals = tracer.span_totals()
    for metric, span_name in SPAN_METRICS.items():
        metrics[metric] = totals.get(span_name, (0, 0.0))[1]
    c = tracer.counters
    metrics["exterior.spinor_terms"] = c.get("spinor_terms", 0)
    metrics["charts.pullback_terms"] = c.get("pullback_terms", 0)
    metrics["classify.witness_candidates"] = c.get("witness_candidates", 0)
    certs = c.get("certificates", 0)
    metrics["poisson_spinor.certified_frac"] = c.get("certified", 0) / certs if certs else 0.0
    return result, metrics, totals
