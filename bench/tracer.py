"""Outside-in tracer for carleson_kit.

While installed, every public function and method of the layer modules
(except the methods of the geometry classes in ``disk``) is replaced by a
wrapper that either records a span (name, start, end, parent span, report
id) or only counts calls.  Functions imported by name into
other modules (``carleson_norm`` lives in ``carleson`` but is called from
``contour`` and ``cli``) are rebound wherever the same function object is
bound, and methods are patched on their classes.  ``uninstall`` puts every
original object back, so code run outside the traced region is exactly the
library's.

Spans stay in memory and are written once, by the caller, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "carleson_kit"

# ``rendering`` is left out: no workload passes --svg.  ``cli`` is not
# wrapped; the benchmark opens one root span named "cli" per report.
LAYERS = ("contour", "carleson", "riesz", "blaschke", "construction",
          "hardy", "model_space", "disk", "weights")

# Hot predicates and small accessors are counted, not timed: a span costs a
# few microseconds.  The functions of the primitive module ``disk`` are
# counted only, and the methods of its classes (Arc, CarlesonSquare, ...)
# are left unwrapped: CarlesonSquare.contains alone runs ~4e5 times per
# contour, and even a counting wrapper there made a traced blaschke-contour
# run about 45% slower instead of about 6%.
PRIMITIVES = "disk"
COUNTED = frozenset({
    "contour.RepresentingMeasure.mass_in_square",
    "contour.RepresentingMeasure.total_mass",
    "contour.Region.contains_many",
    "contour.Region.contains",
    "contour.RegionPiece.contains_many",
    "contour.DiskSpec.contains_many",
    "contour.DiskSpec.around",
    "contour.ContourResult.contains_many",
    "carleson.DiscreteMeasure.mass_in_square",
    "carleson.DiscreteMeasure.total_mass",
    "carleson.CurveMeasure.mass_in_square",
    "carleson.CurveMeasure.total_mass",
    "riesz.SubspaceSystem.stacked",
    "riesz.SubspaceSystem.block_slices",
    "riesz.SubspaceSystem.gram",
    "riesz.SubspaceSystem.subsystem",
    "hardy.BoundaryGrid.coefficients",
    "hardy.BoundaryGrid.from_coefficients",
    "weights.Weight.samples",
    "construction.canonical_phase",
})

# Methods are public names plus __call__, reported as "call".
_DUNDERS = {"__call__": "call"}


def _size(z) -> int:
    size = getattr(z, "size", None)
    if size is not None:
        return int(size)
    return len(z) if isinstance(z, (list, tuple)) else 1


def _carleson_norm_name(args, kwargs) -> str:
    measure = args[0] if args else kwargs["measure"]
    kind = "curve" if type(measure).__name__ == "CurveMeasure" else "discrete"
    return f"carleson.carleson_norm.{kind}"


def _count_curve_segments(counts, args, kwargs, result):
    measure = args[0] if args else kwargs["measure"]
    if type(measure).__name__ == "CurveMeasure":
        counts["carleson.curve_segments"] += sum(len(c) - 1 for c in measure.polylines)


def _count_log_abs_points(counts, args, kwargs, result):
    counts["contour.log_abs.points"] += _size(args[1] if len(args) > 1 else kwargs["z"])


def _count_net_points(counts, args, kwargs, result):
    counts["blaschke.net_points"] += len(result)


def _count_sphere_net(counts, args, kwargs, result):
    counts["construction.sphere_net_vectors"] += len(result)


# span name -> function of the call arguments giving the recorded name
NAMERS = {"carleson.carleson_norm": _carleson_norm_name}
# span name -> counter hook called with (counts, args, kwargs, result)
COUNTERS = {
    "carleson.carleson_norm": _count_curve_segments,
    "contour.BoundedFunction.log_abs": _count_log_abs_points,
    "blaschke.place_net_on_curve": _count_net_points,
    "construction.unit_sphere_net": _count_sphere_net,
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def snapshot() -> dict:
    """Every attribute of every loaded carleson_kit module and class, by identity."""
    state = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            state[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith(PACKAGE):
                for cattr, cvalue in vars(value).items():
                    state[(value.__module__, value.__qualname__, cattr)] = cvalue
    return state


def changed_since(before: dict) -> list:
    """Keys whose object is not the one recorded in ``before``."""
    after = snapshot()
    return sorted(str(k) for k in before.keys() | after.keys()
                  if before.get(k, before) is not after.get(k, before))


class Tracer:
    """Install with ``with Tracer() as tr:``; spans and counts stay on ``tr``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id, report id)
        self.counts: Counter = Counter()
        self.report_id = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original object)

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the per-report root span."""
        return self._timed(name, fn, None, None)(*args, **kwargs)

    def _timed(self, name, fn, namer, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sname = name if namer is None else namer(args, kwargs)
            tracer.counts[sname + ".calls"] += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, sname, start, end, parent, tracer.report_id))
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, module: str, fn):
        if module == PRIMITIVES or name in COUNTED or inspect.isgeneratorfunction(fn):
            return self._counted(name, fn)
        return self._timed(name, fn, NAMERS.get(name), COUNTERS.get(name))

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            wrappers = {}  # id(original function) -> wrapper
            for short in LAYERS:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrappers[id(obj)] = self._wrap(f"{short}.{attr}", short, obj)
                    elif inspect.isclass(obj) and short != PRIMITIVES:
                        self._patch_class(short, obj)
            for mod in package_modules():
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        self._set(mod, attr, wrappers[id(obj)])
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            label = _DUNDERS.get(attr, attr)
            if label.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{label}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, short, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, short, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, short, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> total self time: duration minus that of child spans."""
        child = Counter()
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = Counter()
        for sid, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child[sid]
        return dict(totals)
