"""In-memory span tracer and the wrappers that attach it to sp2forms functions.

Only the traced run installs the span wrappers.  Untraced runs use
install_marks instead, which only appends a timestamp at each call of a few
functions, so that run.py can take each stretch between them at its best.

Each wrapped call is a span with a name, a start, an end and the span that
was open when it began (its parent).  Spans are aggregated per (name,
parent) into a count, the total duration and the self time, which is the
duration minus the time covered by child spans; calls run on one thread, so
child spans never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from functools import wraps

PACKAGE = "sp2forms"

# Functions traced as spans, named <module>.<function>.  Every namespace of the
# package that binds one of them by name gets the wrapper.
SPANS = (
    "cli.main",
    "distinguished.verify_prop_A_tensor",
    "distinguished.verify_prop_A_irr",
    "distinguished.verify_prop_tensor",
    "distinguished.verify_prop_C",
    "distinguished.is_distinguished",
    "crosscheck.check_symplectic_instance",
    "crosscheck.check_linear_instance",
    "reps.dual_tensor_classes",
    "reps.wedge_square_classes",
    "hesselink.tensor_bilinear",
    "hesselink.validate_symplectic",
    "jordan.tensor",
    "jordan.wedge_square",
    "oracle.space_from_type",
    "oracle.unipotent_from_jordan",
    "oracle.wedge_space",
    "oracle.dual_tensor_space",
    "oracle.jordan_type_of",
    "oracle.epsilon_of_space",
    "oracle.subquotient",
    "oracle.hesselink_of_space",
    # Generators: one span per next().  The recursive enumeration.partitions
    # is left alone, since wrapping it would wrap every level of its recursion.
    "enumeration.jordan_types",
    "enumeration.symplectic_partitions",
    "enumeration.epsilon_variants",
    "enumeration.symplectic_types",
)

# The two parse classmethods, each traced under one span name.
PARSE_METHODS = {
    "jordan.parse": ("jordan", ("JordanType",)),
    "hesselink.parse": ("hesselink", ("EpsilonTaggedType", "SymplecticType")),
}

# Kernel methods that are only counted; a span around every call would swamp them.
COUNTED_METHODS = ("oracle.Gf2Matrix.mul", "oracle.Gf2Matrix.rank", "oracle.Gf2Matrix.kernel_basis")
ELIMINATION = {"rank", "kernel_basis"}  # their rows x cols add up to oracle.elim_cells

ENGINE = {"jordan.tensor", "jordan.wedge_square", "hesselink.tensor_bilinear", "reps.dual_tensor_classes",
          "reps.wedge_square_classes"}

# Calls that cut an untraced execution into segments (install_marks): the engine
# entry points, and the oracle stages, whose calls last up to tens of milliseconds.
MARKS = tuple(sorted(ENGINE)) + tuple(name for name in SPANS if name.startswith("oracle."))

# Spans that run once per execution report only their self time.
SELF_ONLY = {
    "cli.main",
    "distinguished.verify_prop_A_tensor",
    "distinguished.verify_prop_A_irr",
    "distinguished.verify_prop_tensor",
    "distinguished.verify_prop_C",
}


class Tracer:
    """Span stack plus the (name, parent) aggregate and plain counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.table: dict[tuple[str, str | None], list] = {}  # -> [count, total, self, items]
        self.counts: Counter[str] = Counter()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, items: int = 0) -> None:
        end = self.clock()
        name, start, covered = self.stack.pop()
        duration = end - start
        parent = None
        if self.stack:
            parent = self.stack[-1][0]
            self.stack[-1][2] += duration
        row = self.table.get((name, parent))
        if row is None:
            row = self.table[(name, parent)] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - covered
        row[3] += items

    def rows(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "count": c, "total_s": total, "self_s": own, "items": items}
            for (name, parent), (c, total, own, items) in sorted(self.table.items(), key=lambda kv: -kv[1][2])
        ]

    def by_name(self) -> dict[str, list]:
        """Per span name: [count, total, self, items] summed over parents."""
        out: dict[str, list] = {}
        for (name, _), row in self.table.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i, x in enumerate(row):
                acc[i] += x
        return out


def _span(tracer: Tracer, name: str, fn):
    @wraps(fn)
    def call(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return call


def _generator_span(tracer: Tracer, name: str, fn):
    @wraps(fn)
    def generate(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.exit()
                return
            except BaseException:
                tracer.exit()
                raise
            tracer.exit(items=1)
            yield item

    return generate


def _counted(tracer: Tracer, name: str, fn, elimination: bool):
    @wraps(fn)
    def call(self, *args, **kwargs):
        tracer.counts[name] += 1
        if elimination:
            tracer.counts["oracle.elim_cells"] += self.nrows * self.ncols
        return fn(self, *args, **kwargs)

    return call


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _replace(modules: list, orig, wrapper) -> None:
    """Bind wrapper in place of orig in every namespace that binds orig."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _find(name: str):
    module, func = name.split(".", 1)
    return getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed function in every loaded module of the package; return the names not found."""
    modules = _package_modules()
    missing = []
    for name in SPANS:
        orig = _find(name)
        if orig is None:
            missing.append(name)
            continue
        make = _generator_span if inspect.isgeneratorfunction(orig) else _span
        _replace(modules, orig, make(tracer, name, orig))
    for name, (module, classes) in PARSE_METHODS.items():
        found = False
        for cls_name in classes:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{module}"), cls_name, None)
            method = vars(cls).get("parse") if cls is not None else None
            if isinstance(method, classmethod):
                setattr(cls, "parse", classmethod(_span(tracer, name, method.__func__)))
                found = True
        if not found:
            missing.append(name)
    for name in COUNTED_METHODS:
        module, cls_name, meth = name.split(".")
        cls = getattr(sys.modules.get(f"{PACKAGE}.{module}"), cls_name, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if fn is None:
            missing.append(name)
            continue
        setattr(cls, meth, _counted(tracer, f"{name}.calls", fn, meth in ELIMINATION))
    return missing


def _marked(marks: list[float], clock, fn):
    append = marks.append

    @wraps(fn)
    def call(*args, **kwargs):
        append(clock())
        return fn(*args, **kwargs)

    return call


def install_marks(marks: list[float], clock=time.perf_counter) -> list[str]:
    """Append a timestamp to marks at every call of a MARKS function; return the names not found.

    The timestamps cut an untraced execution into segments that recur, in the
    same order, in every execution of a run, so each segment's time can be
    taken at its best over the run (summary.segment_floors).
    """
    modules = _package_modules()
    missing = []
    for name in MARKS:
        orig = _find(name)
        if orig is None:
            missing.append(name)
            continue
        _replace(modules, orig, _marked(marks, clock, orig))
    return missing


def cache_stats() -> tuple[int, int]:
    """(hits, lookups) summed over every lru_cache'd function in the package's jordan module."""
    hits = lookups = 0
    for value in vars(sys.modules[f"{PACKAGE}.jordan"]).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            stats = info()
            hits += stats.hits
            lookups += stats.hits + stats.misses
    return hits, lookups


def layer_metrics(tracer: Tracer, missing: list[str]) -> dict[str, float]:
    """The per-layer metrics of one traced execution, without trace_overhead_s."""
    spans = tracer.by_name()
    out: dict[str, float] = {}
    for name in SPANS + tuple(PARSE_METHODS):
        if name in missing or name.startswith("enumeration."):
            continue
        count, _, own, _ = spans.get(name, [0, 0.0, 0.0, 0])
        if name not in SELF_ONLY:
            out[f"{name}.calls"] = count
        out[f"{name}.self_s"] = own
    for name in COUNTED_METHODS:
        if name not in missing:
            out[f"{name}.calls"] = tracer.counts[f"{name}.calls"]
    if not any(name in missing for name in COUNTED_METHODS if name.rsplit(".", 1)[1] in ELIMINATION):
        out["oracle.elim_cells"] = tracer.counts["oracle.elim_cells"]

    # Items yielded to callers outside the module, and time inside next().
    items = sum(row[3] for (name, parent), row in tracer.table.items()
                if name.startswith("enumeration.") and not (parent or "").startswith("enumeration."))
    out["enumeration.items"] = items
    out["enumeration.self_s"] = sum(row[2] for name, row in spans.items() if name.startswith("enumeration."))

    engine_calls = sum(row[0] for (name, parent), row in tracer.table.items()
                       if name in ENGINE and (parent or "").startswith("distinguished."))
    out["distinguished.engine_calls"] = engine_calls
    out["distinguished.evaluated_per_generated"] = engine_calls / items if items else 0.0

    hits, lookups = cache_stats()
    out["jordan.cache_lookups"] = lookups
    out["jordan.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return out
