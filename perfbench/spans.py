"""Span recording for the traced benchmark run.

The library has no instrumentation of its own, so the traced run wraps the
public function of each layer from here.  :func:`install` rebinds every
name under which ``repro`` modules imported a layer function (and the
methods on their classes) to a timing wrapper; :meth:`Installation.undo`
puts the originals back.  Nothing under ``src/`` is edited, and the untraced run
never installs anything.

A span records its name, start, end and self time (its duration minus the
part covered by child spans).  Counts are recorded at the same boundaries.
Both carry ``time.perf_counter`` stamps, which on Linux read the system-wide
monotonic clock, so spans recorded in a child process can be filtered by a
time window measured in the parent.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

#: (target, span name, opaque).  ``target`` is ``module:function`` or
#: ``module:Class.method``.  An opaque span hides the layers it calls:
#: calibration runs whole simulations internally, and those belong to the
#: calibration's cost, not to the census/lowering/engine layers.
LAYERS = (
    ("repro.mesh.deck:build_deck", "mesh.build_deck", False),
    ("repro.mesh.connectivity:build_face_table", "mesh.faces", False),
    ("repro.partition.cache:cached_partition", "partition.partition", False),
    ("repro.partition.dynamic:weighted_repartition", "partition.repartition", False),
    ("repro.core.assemble:calibration_table", "perfmodel.calibrate.table", True),
    ("repro.core.assemble:assemble", "core.assemble", False),
    ("repro.hydro.workload:build_workload_census", "hydro.workload.census", False),
    ("repro.hydro.driver:measure_iteration_time", "hydro.driver", False),
    ("repro.hydro.phases:KrakProgram.lower_into", "hydro.phases.lower", False),
    ("repro.simmpi.engine:Engine.run_compiled", "simmpi.engine.run", False),
    ("repro.simmpi.engine:Engine.run", "simmpi.engine.run", False),
    ("repro.placement.strategies:make_placement", "placement.place", False),
    ("repro.perfmodel.general:GeneralModel.predict", "perfmodel.general", False),
    ("repro.perfmodel.mesh_specific:MeshSpecificModel.predict",
     "perfmodel.mesh_specific", False),
    ("repro.analysis.runner:SweepSpec.tasks", "analysis.runner.tasks", False),
    ("repro.analysis.runner:SweepTask.store_key", "analysis.runner.tasks", False),
    ("repro.analysis.runner:evaluate_point", "analysis.runner.evaluate", False),
    ("repro.analysis.store:ResultStore.get", "analysis.store.get", False),
    ("repro.analysis.store:ResultStore.put", "analysis.store.put", False),
    ("repro.core.pipeline:predict", "core.pipeline", False),
    ("repro.core.pipeline:measure", "core.pipeline", False),
)

#: Count-only wrappers: (target, count name, counts inside opaque spans).
#: A calibration miss happens inside the opaque calibration span and must
#: still be counted for the hit ratio.
COUNTERS = (
    ("repro.partition.cache:make_partition", "partition.computed", False),
    ("repro.perfmodel.calibrate:calibrate_contrived_grid",
     "perfmodel.calibrate.computed", True),
    ("repro.simmpi.engine:Engine.run", "simmpi.engine.scalar_runs", False),
)


def _links(census) -> int:
    return sum(len(r) for r in census.boundary_links) + sum(
        len(r) for r in census.ghost_links
    )


def _rows(writer) -> int:
    return len(getattr(writer, "opcode", ()))


def _file_bytes(path) -> int:
    try:
        return path.stat().st_size
    except (AttributeError, OSError):
        return 0


#: Counts taken from a span's arguments or result:
#: span name → (count name, function of (args, result)).
SPAN_COUNTS = {
    "partition.partition": ("partition.lookups", lambda a, r: 1),
    "partition.repartition": ("partition.repartitions", lambda a, r: 1),
    "perfmodel.calibrate.table": ("perfmodel.calibrate.lookups", lambda a, r: 1),
    "hydro.workload.census": ("hydro.workload.links", lambda a, r: _links(r)),
    "hydro.phases.lower": ("hydro.phases.ops", lambda a, r: _rows(a[1])),
    "analysis.store.put": ("analysis.store.bytes_written",
                           lambda a, r: _file_bytes(r)),
}


class Tracer:
    """In-memory span and count records of one process.

    ``spans`` holds ``(name, start, end, self_seconds)`` tuples and
    ``counts`` holds ``(name, time, n)`` tuples.  Each thread keeps its own
    span stack, so the service's executor threads nest correctly.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: list = []
        #: Targets :func:`install` could not find (renamed or deleted).
        self.missing: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def hidden(self) -> bool:
        """Whether the current thread is inside an opaque span."""
        stack = self._stack()
        return bool(stack) and stack[-1][1]

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts.append((name, time.perf_counter(), n))

    def call(self, name: str, fn, args, kwargs, opaque: bool = False):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        if stack and stack[-1][1]:
            return fn(*args, **kwargs)
        frame = [0.0, opaque]  # [seconds covered by child spans, opaque]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.spans.append((name, start, end, duration - frame[0]))
        counted = SPAN_COUNTS.get(name)
        if counted is not None:
            self.count(counted[0], counted[1](args, result))
        return result


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return owner, method, owner.__dict__[method]
    return module, attr, getattr(module, attr)


def _span_wrapper(tracer: Tracer, fn, name: str, opaque: bool):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, opaque)

    traced.__wrapped__ = fn
    return traced


def _count_wrapper(tracer: Tracer, fn, name: str, in_opaque: bool):
    def counted(*args, **kwargs):
        if in_opaque or not tracer.hidden():
            tracer.count(name)
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


class Installation:
    """The rebindings made by :func:`install`, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self.rebound: list = []

    def undo(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer function, rebinding each name callers imported.

    A target that no longer exists is added to ``tracer.missing`` and
    skipped, so the benchmark keeps running when a layer is renamed or
    deleted.
    """
    done = Installation()
    plans = [(t, n, o, None) for t, n, o in LAYERS]
    plans += [(t, n, False, c) for t, n, c in COUNTERS]
    for target, name, opaque, in_opaque in plans:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.add(target)
            continue
        if in_opaque is None:
            wrapper = _span_wrapper(tracer, original, name, opaque)
        else:
            wrapper = _count_wrapper(tracer, original, name, in_opaque)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            done.rebound.append((owner, attr, original))
            continue
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    done.rebound.append((module, key, original))
    return done


def summarize(spans, counts, t0: float, t1: float) -> tuple:
    """Self time and call count per span name, and count totals, for the
    records that start inside ``[t0, t1]``."""
    self_time: dict = {}
    calls: dict = {}
    for name, start, _end, self_s in spans:
        if t0 <= start <= t1:
            self_time[name] = self_time.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
    totals: dict = {}
    for name, at, n in counts:
        if t0 <= at <= t1:
            totals[name] = totals.get(name, 0) + n
    return self_time, calls, totals
