"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` replaces, for the life of a traced pass, the module-level
names each layer calls across (the names in ``SPANS``) with wrappers that
open a span around the call, and the body classes' ``_support`` and
``_gradient`` with wrappers that only add a call count and a duration to the
innermost open span: an lp classification makes hundreds of thousands of
those calls, far too many for one span each.  ``uninstall`` puts the
original names back.

Every span carries the ID of the request it belongs to.  The classify sweep
fans out over a ThreadPoolExecutor, and Python does not carry a thread's
context into pool threads, so the executor in the cli module is swapped for
one whose ``submit`` hands the submitting thread's open span to the worker.

Self time is a span's duration minus the parts its child spans and its hot
calls cover.  Where worker threads run at once, each instant is shared out
equally among the threads running their own innermost span at that instant,
so the self times of one request add up to at most its wall time even when
a sweep runs eight threads under one interpreter lock.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

# Span name -> the (module, attribute) bindings patched for it.  A span is
# named after the module that does the work, whichever module calls it.
# _solve and _assemble_vertical are imported by name into lift, so each
# binding is patched on its own; lift's _solve gets a span of its own so the
# coupled-system solve stays apart from the period search.
SPANS = {
    "config.load_config": [("cli", "load_config")],
    "flow.classify_k3": [("cli", "classify_k3")],
    "lift.integrate_horizontal": [("cli", "integrate_horizontal")],
    "reporting.write_csv": [("cli", "write_csv")],
    "reporting.write_report": [("cli", "write_report")],
    "flow.detect_period": [("flow", "detect_period")],
    "flow._bisect_crossing": [("flow", "_bisect_crossing")],
    "flow._assemble_vertical": [("flow", "_assemble_vertical"), ("lift", "_assemble_vertical")],
    "flow._solve": [("flow", "_solve")],
    "lift._solve": [("lift", "_solve")],
    "algebra.kernel_basis": [("cli", "kernel_basis"), ("flow", "kernel_basis"),
                             ("lift", "kernel_basis")],
}
ROOT = "cli.main"
HOT = ("_support", "_gradient")
BODY_CLASSES = ("Ellipsoid", "LpBall", "TranslatedEllipsoid")


@dataclass(eq=False)
class Span:
    name: str
    request: int
    start: float
    parent: "Span | None"
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    hot: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))


class Tracer:
    """Spans of the traced requests, kept in memory until the run ends."""

    def __init__(self, modules: dict):
        self.modules = modules        # short name -> imported module
        self.spans: list[Span] = []
        self.request = -1
        self._local = threading.local()
        self._restore: list = []

    def current(self) -> Span | None:
        return getattr(self._local, "span", None)

    def open(self, name: str) -> Span:
        span = Span(name, self.request, time.perf_counter(), self.current())
        self._local.span = span
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.span = span.parent

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, bindings in SPANS.items():
            for module, attr in bindings:
                owner = self.modules[module]
                self._set(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for cls_name in BODY_CLASSES:
            cls = getattr(self.modules["bodies"], cls_name)
            for attr in HOT:
                self._set(cls, attr, self._hot_wrapper(attr.lstrip("_"), cls.__dict__[attr]))
        self._set(self.modules["cli"], "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _span_wrapper(self, name, fn):
        record = _RECORDERS.get(name)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            result = err = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                self.close(span)
                if record is not None:
                    record(span, args, result, err)

        return wrapper

    def _hot_wrapper(self, name, fn):
        local = self._local
        clock = time.perf_counter

        def wrapper(body, h):
            t0 = clock()
            value = fn(body, h)
            elapsed = clock() - t0
            span = getattr(local, "span", None)
            if span is not None:
                entry = span.hot[name]
                entry[0] += 1
                entry[1] += elapsed
            return value

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **kw):
                    tracer._local.span = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.span = None

                return super().submit(run, *args, **kwargs)

        return TracedPool


# -- per-span counters taken from arguments and results ---------------------

def _record_solve(span, args, result, err):
    if result is not None:
        span.counts["nfev"] = int(result.nfev)
        span.counts["steps"] = int(result.t.size - 1)
        span.counts["span_t"] = float(args[2] - args[1])


def _record_detect(span, args, result, err):
    if result is not None:
        span.counts["period"] = float(result.period)


def _record_assemble(span, args, result, err):
    span.counts["rows"] = int(len(args[0]))


def _record_integrate(span, args, result, err):
    # A drift abort raises DriftExceededError, which carries the abort time.
    abort_time = getattr(err, "time", None)
    if abort_time:
        span.counts["abort_overrun"] = float(args[3]) / abort_time


def _record_csv(span, args, result, err):
    span.counts["bytes"] = int(args[0].stat().st_size)


def _record_report(span, args, result, err):
    # wall_time_s is the one field of a report that changes from run to run,
    # and its rendering changes length with its magnitude, so its text is
    # left out of the byte count.
    size = len(result.encode())
    wall = args[1].get("wall_time_s")
    if wall is not None:
        size -= len("%.17g" % wall)
    span.counts["bytes"] = size


_RECORDERS = {
    "flow._solve": _record_solve,
    "lift._solve": _record_solve,
    "flow.detect_period": _record_detect,
    "flow._assemble_vertical": _record_assemble,
    "lift.integrate_horizontal": _record_integrate,
    "reporting.write_csv": _record_csv,
    "reporting.write_report": _record_report,
}


# -- self time ------------------------------------------------------------

def _minus(interval, holes):
    """Parts of interval (a, b) not covered by the sorted list of holes."""
    a, b = interval
    out = []
    for lo, hi in holes:
        if hi <= a or lo >= b:
            continue
        if lo > a:
            out.append((a, lo))
        a = max(a, hi)
    if a < b:
        out.append((a, b))
    return out


def self_times(spans: list[Span]) -> dict:
    """Self seconds per span, with concurrent threads sharing each instant.

    Returns {span: (self_s, {hot_name: hot_s})}, where self_s excludes the
    hot-call time, which is returned beside it at the same share.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    exclusive = []
    for span in spans:
        holes = sorted((c.start, c.end) for c in children[span])
        for lo, hi in _minus((span.start, span.end), holes):
            exclusive.append((lo, hi, span))
    # Sweep over the segments between consecutive interval ends: an interval
    # that is open at the start of a segment covers all of it.
    exclusive.sort(key=lambda e: e[0])
    events = sorted({t for lo, hi, _ in exclusive for t in (lo, hi)})
    shared = defaultdict(float)
    plain = defaultdict(float)
    active, j = [], 0
    for t0, t1 in zip(events, events[1:]):
        while j < len(exclusive) and exclusive[j][0] <= t0:
            active.append(exclusive[j])
            j += 1
        active = [e for e in active if e[1] > t0]
        for _, _, span in active:
            shared[span] += (t1 - t0) / len(active)
            plain[span] += t1 - t0
    out = {}
    for span in spans:
        share = shared[span] / plain[span] if plain[span] > 0.0 else 1.0
        hot = {name: entry[1] * share for name, entry in span.hot.items()}
        out[span] = (max(shared[span] - sum(hot.values()), 0.0), hot)
    return out


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(spans: list[Span], walls: list, sweeps: list) -> tuple[dict, dict]:
    """Per-request means of every layer metric, and the raw counter totals.

    ``walls`` and ``sweeps`` give, per traced request, the client-side wall
    time and whether the request carried a sweep.
    """
    n = len(walls)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    self_s = defaultdict(float)
    hot_s = defaultdict(float)
    hot_calls = defaultdict(int)
    for span, (own, hot) in self_times(spans).items():
        self_s[span.name] += own
        for name, seconds in hot.items():
            hot_s[name] += seconds
        for name, (calls, _) in span.hot.items():
            hot_calls[name] += calls

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    totals = {
        "flow.nfev": total("flow._solve", "nfev"),
        "flow.steps": total("flow._solve", "steps"),
        "flow.crossings_tested": len(by_name["flow._bisect_crossing"]),
        "bodies.gradient_calls": hot_calls["gradient"],
        "reporting.csv_bytes": total("reporting.write_csv", "bytes"),
        "reporting.report_bytes": total("reporting.write_report", "bytes"),
        "lift.nfev": total("lift._solve", "nfev"),
        "lift.steps": total("lift._solve", "steps"),
    }
    searched = sum(s.counts.get("span_t", 0.0) for s in by_name["flow._solve"]
                   if s.parent is not None and s.parent.name == "flow.detect_period")
    periods = total("flow.detect_period", "period")
    sweep_wall = sum(w for w, sweep in zip(walls, sweeps) if sweep)
    sweep_classify = sum(s.end - s.start for s in by_name["flow.classify_k3"] if sweeps[s.request])
    overruns = [s.counts["abort_overrun"] for s in by_name["lift.integrate_horizontal"]
                if "abort_overrun" in s.counts]
    covered = sum(self_s.values()) + sum(hot_s.values())

    def mean(value):
        return value / n

    layers = {
        "flow.nfev": (mean(totals["flow.nfev"]), "count"),
        "flow.steps": (mean(totals["flow.steps"]), "count"),
        "flow.nfev_per_step": (totals["flow.nfev"] / max(totals["flow.steps"], 1), "ratio"),
        "flow.solve_calls": (mean(len(by_name["flow._solve"])), "count"),
        "flow.solve_s": (mean(self_s["flow._solve"]), "s"),
        "flow.span_per_period": (searched / periods if periods else 0.0, "ratio"),
        "flow.crossings_tested": (mean(totals["flow.crossings_tested"]), "count"),
        "flow.bisect_s": (mean(self_s["flow._bisect_crossing"]), "s"),
        "flow.detect_period_s": (mean(self_s["flow.detect_period"]), "s"),
        "flow.classify_s": (mean(self_s["flow.classify_k3"]), "s"),
        "flow.assemble_s": (mean(self_s["flow._assemble_vertical"]), "s"),
        "flow.assemble_rows": (mean(total("flow._assemble_vertical", "rows")), "count"),
        "bodies.gradient_calls": (mean(hot_calls["gradient"]), "count"),
        "bodies.gradient_s": (mean(hot_s["gradient"]), "s"),
        "bodies.support_calls": (mean(hot_calls["support"]), "count"),
        "bodies.support_s": (mean(hot_s["support"]), "s"),
        "cli.self_s": (mean(self_s[ROOT]), "s"),
        "cli.sweep_pool_ratio": (sweep_classify / sweep_wall if sweep_wall else 0.0, "ratio"),
        "config.load_s": (mean(self_s["config.load_config"]), "s"),
        "algebra.kernel_basis_calls": (mean(len(by_name["algebra.kernel_basis"])), "count"),
        "algebra.kernel_basis_s": (mean(self_s["algebra.kernel_basis"]), "s"),
        "reporting.csv_s": (mean(self_s["reporting.write_csv"]), "s"),
        "reporting.csv_bytes": (mean(totals["reporting.csv_bytes"]), "bytes"),
        "reporting.report_s": (mean(self_s["reporting.write_report"]), "s"),
        "reporting.report_bytes": (mean(totals["reporting.report_bytes"]), "bytes"),
        "lift.integrate_s": (mean(self_s["lift.integrate_horizontal"]), "s"),
        "lift.solve_s": (mean(self_s["lift._solve"]), "s"),
        "lift.nfev": (mean(totals["lift.nfev"]), "count"),
        "lift.steps": (mean(totals["lift.steps"]), "count"),
        "lift.abort_overrun": (sum(overruns) / len(overruns) if overruns else 0.0, "ratio"),
        "trace.wall_s": (mean(sum(walls)), "s"),
        "trace.uncovered_s": (mean(sum(walls) - covered), "s"),
    }
    return layers, totals
