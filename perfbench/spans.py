"""Spans around capstrip's layers, recorded from outside the program.

`Tracer.installed` replaces the names capstrip looks up at call time
(module functions such as `capstrip.bachelier.price_vector`, the
`VolCurve` class that `stripping` and `cli` build curves from, and the
`from_csv` loaders) with wrappers that record a span per call, and puts
the originals back afterwards. Spans carry a name, start, end and parent,
are held in memory, and are written out by `write`. A span's self time is
its duration minus the time its child spans cover. A name that capstrip
no longer has is reported as absent, and the metrics built on it are
left out rather than read as zero.
"""

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median_low

import numpy as np

import workloads


def _engine_note(engine):
    def note(args, kwargs, result):
        config = args[2] if len(args) > 2 else kwargs.get("config")
        config = config if config is not None else result.config
        return {
            "label": workloads.config_label(engine, config),
            "iterations": result.iterations,
            "max_iter_hit": int(result.iterations >= config.max_iter and not result.converged),
            "max_residual_bp": result.max_abs_residual_bp,
        }

    return note


def _caplets_note(args, kwargs, result):
    return {"caplets": int(np.size(result))}


def _bytes_note(args, kwargs, result):
    out = Path(args[0].out_dir)
    return {"bytes": sum(path.stat().st_size for path in out.iterdir() if path.is_file())}


# (module, attribute, span name, note): every place capstrip looks a layer up
FUNCTIONS = (
    ("bachelier", "price_vector", "bachelier.price_vector", _caplets_note),
    ("bachelier", "implied_vol", "bachelier.implied_vol", None),
    ("stripping", "brentq", "stripping.brentq", None),
    ("stripping", "_bootstrap", "stripping.bootstrap", None),
    ("stripping", "build_monotone_c2", "vol_interpolation.build", None),
    ("stripping", "strip_time_value", "stripping.tv", _engine_note("tv")),
    ("cli", "strip_time_value", "stripping.tv", _engine_note("tv")),
    ("stripping", "bootstrap_sequential", "stripping.bootstrap_sequential", _engine_note("bootstrap")),
    ("cli", "bootstrap_sequential", "stripping.bootstrap_sequential", _engine_note("bootstrap")),
    ("stripping", "strip_global", "stripping.global", _engine_note("global")),
    ("cli", "strip_global", "stripping.global", _engine_note("global")),
    ("diagnostics", "cap_prices", "diagnostics.cap_prices", None),
    ("diagnostics", "decompose", "diagnostics.decompose", None),
    ("cli", "decompose", "diagnostics.decompose", None),
    ("diagnostics", "detect_outliers", "diagnostics.detect_outliers", None),
    ("cli", "detect_outliers", "diagnostics.detect_outliers", None),
    ("term_structures", "build_schedule", "term_structures.build_schedule", None),
    ("cli", "build_schedule", "term_structures.build_schedule", None),
    ("cli", "run_pipeline", "cli.run_pipeline", _bytes_note),
    ("cli", "compare_methods", "cli.compare_methods", None),
)
LOADERS = (("term_structures", "ZeroCurve"), ("diagnostics", "CapQuoteSet"))
CURVE_CLASSES = (("stripping", "VolCurve"), ("cli", "VolCurve"))


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index, phase, self_ns, note]
        self.spans = []
        self._open = []  # [span index, ns covered by children]
        self.phase = None  # pass number while recording (-1 for set-up), None when off
        self.absent = set()
        self.present = set()

    def call(self, name, fn, args, kwargs, note=None):
        if self.phase is None:
            return fn(*args, **kwargs)
        parent = self._open[-1][0] if self._open else -1
        span = [name, 0, 0, parent, self.phase, 0, None]
        self.spans.append(span)
        self._open.append([len(self.spans) - 1, 0])
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            _, covered = self._open.pop()
            duration = span[2] - span[1]
            span[5] = duration - covered
            if self._open:
                self._open[-1][1] += duration
        if note is not None:
            span[6] = note(args, kwargs, result)
        return result

    @contextmanager
    def recording(self, phase):
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None

    @contextmanager
    def installed(self, capstrip):
        undo = []
        try:
            for module_name, attr, name, note in FUNCTIONS:
                module = getattr(capstrip, module_name, None)
                if self._check(module, attr, f"{module_name}.{attr}", name):
                    original = getattr(module, attr)
                    undo.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, note))
            for module_name, cls_name in LOADERS:
                cls = getattr(getattr(capstrip, module_name, None), cls_name, None)
                label = f"{module_name}.{cls_name}.from_csv"
                if self._check(cls, "from_csv", label, "term_structures.load"):
                    original = cls.__dict__["from_csv"]
                    undo.append((cls, "from_csv", original))
                    setattr(cls, "from_csv", self._wrap_classmethod(original.__func__))
            for module_name, cls_name in CURVE_CLASSES:
                module = getattr(capstrip, module_name, None)
                label = f"{module_name}.{cls_name}"
                if self._check(module, cls_name, label, "vol_interpolation.eval"):
                    self.present.add("vol_interpolation.build")
                    original = getattr(module, cls_name)
                    undo.append((module, cls_name, original))
                    setattr(module, cls_name, self._traced_class(original))
            self.absent -= self.present
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _check(self, owner, attr, label, name):
        if owner is not None and hasattr(owner, attr):
            self.present.add(name)
            return True
        self.absent.add(name)
        print(f"trace: capstrip.{label} is absent", flush=True)
        return False

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return traced

    def _wrap_classmethod(self, fn):
        def traced(cls, *args, **kwargs):
            return self.call("term_structures.load", fn, (cls,) + args, kwargs)

        return classmethod(traced)

    def _traced_class(self, cls):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                tracer.call("vol_interpolation.build", super().__init__, args, kwargs)

            def __call__(self, t):
                return tracer.call("vol_interpolation.eval", super().__call__, (t,), {})

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("name,start_ns,end_ns,parent,phase,self_ns,label\n")
            for name, start, end, parent, phase, self_ns, note in self.spans:
                label = note.get("label", "") if note else ""
                handle.write(f"{name},{start},{end},{parent},{phase},{self_ns},{label}\n")


def _self_s(*names):
    return ("s", names, lambda a: sum(a[f"{n}.self_ns"] for n in names) * 1e-9)


def _calls(name):
    return ("count", (name,), lambda a: a[f"{name}.calls"])


def _duration_s(name):
    return ("s", (name,), lambda a: a[f"{name}.ns"] * 1e-9)


# metric -> (unit, span names it is built from, value from one phase's aggregates)
LAYER_METRICS = {
    "stripping.global.iterations": ("count", ("stripping.global",), lambda a: a["global.iterations"]),
    "stripping.global.max_iter_hits": ("count", ("stripping.global",), lambda a: a["global.max_iter_hits"]),
    "bachelier.price_vector.calls": _calls("bachelier.price_vector"),
    "bachelier.price_vector.caplets": ("count", ("bachelier.price_vector",), lambda a: a["caplets"]),
    "vol_interpolation.curve_builds": _calls("vol_interpolation.build"),
    "vol_interpolation.curve_evals": _calls("vol_interpolation.eval"),
    "vol_interpolation.self_s": _self_s("vol_interpolation.build", "vol_interpolation.eval"),
    "stripping.global.self_s": _self_s("stripping.global"),
    "bachelier.implied_vol.calls": _calls("bachelier.implied_vol"),
    "bachelier.implied_vol.self_s": _self_s("bachelier.implied_vol"),
    "stripping.tv.self_s": _self_s("stripping.tv"),
    "stripping.brentq.calls": _calls("stripping.brentq"),
    "stripping.bootstrap.self_s": _self_s("stripping.bootstrap", "stripping.bootstrap_sequential"),
    "bachelier.price_vector.self_s": _self_s("bachelier.price_vector"),
    "diagnostics.cap_prices.calls": _calls("diagnostics.cap_prices"),
    "diagnostics.cap_prices.self_s": _self_s("diagnostics.cap_prices"),
    "diagnostics.decompose.self_s": _self_s("diagnostics.decompose"),
    "diagnostics.detect_outliers.self_s": _self_s("diagnostics.detect_outliers"),
    "term_structures.load_s": _duration_s("term_structures.load"),
    "term_structures.build_schedule_s": _duration_s("term_structures.build_schedule"),
    "cli.run_pipeline.self_s": _self_s("cli.run_pipeline"),
    "cli.bytes_written": ("bytes", ("cli.run_pipeline",), lambda a: a["bytes"]),
    "cli.compare_methods.self_s": _self_s("cli.compare_methods"),
}
ENGINE_SPANS = {"tv": "stripping.tv", "bootstrap": "stripping.bootstrap_sequential", "global": "stripping.global"}


def _config_metrics():
    """Time of every clean-grid configuration; iterations and residual of the global ones."""
    metrics = {}
    for label, engine, _ in workloads.CLEAN_CONFIGS:
        sources = (ENGINE_SPANS[engine],)
        metrics[f"stripping.{label}.s"] = ("s", sources, lambda a, k=f"{label}.ns": a[k] * 1e-9)
        if engine == "global":
            for field, unit in (("iterations", "count"), ("max_residual_bp", "bp")):
                key = f"{label}.{field}"
                metrics[f"stripping.{key}"] = (unit, sources, lambda a, k=key: a[k])
    return metrics


LAYER_METRICS.update(_config_metrics())
# set-up loads the fixtures and builds the schedules once; passes may repeat it
INCLUDES_SETUP = ("term_structures.load_s", "term_structures.build_schedule_s")
OVERHEAD = "trace.overhead_s"


def _aggregate(spans):
    """Per phase: call counts, self and total ns per span name, and note totals."""
    phases = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, phase, self_ns, note in spans:
        agg = phases[phase]
        agg[f"{name}.calls"] += 1
        agg[f"{name}.self_ns"] += self_ns
        agg[f"{name}.ns"] += end - start
        if not note:
            continue
        agg["caplets"] += note.get("caplets", 0)
        agg["bytes"] += note.get("bytes", 0)
        if "label" in note:
            label = note["label"]
            agg[f"{label}.ns"] += end - start
            agg[f"{label}.iterations"] += note["iterations"]
            agg[f"{label}.max_residual_bp"] = max(
                agg[f"{label}.max_residual_bp"], note["max_residual_bp"]
            )
            if name == "stripping.global":
                agg["global.iterations"] += note["iterations"]
                agg["global.max_iter_hits"] += note["max_iter_hit"]
    return phases


def layer_metrics(tracer, summarize):
    """Every layer metric whose spans exist: times summarized over the
    traced passes by `summarize`, counts as the median pass (an observed one)."""
    phases = _aggregate(tracer.spans)
    setup = phases.pop(-1, defaultdict(float))
    passes = list(phases.values())
    metrics = {}
    for name, (unit, sources, value) in LAYER_METRICS.items():
        if any(source in tracer.absent for source in sources):
            continue
        values = [value(agg) for agg in passes]
        if unit == "s":
            figure = summarize(values) + (value(setup) if name in INCLUDES_SETUP else 0.0)
        elif unit == "bp":
            figure = median_low(values)
        else:
            figure = int(median_low(values))
        metrics[name] = {"value": figure, "unit": unit}
    return metrics
