"""The benchmark's workloads.

Each workload makes its inputs from the seed, runs them through the
public API (``repro.core.measure``/``predict``, ``repro.analysis.run_sweep``
and the HTTP service), and records every operation's latency and answer.
``setup`` is timed by the runner; ``run`` measures for a number of seconds
and may be called twice (untraced, then traced); ``finish`` makes the
checks that need more computation than the timed loop should hold.

Import this module only after :func:`checkout.import_repro`.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import answers
import checkout
import spans
import speed
from repro.analysis import runner as runner_mod
from repro.analysis.store import ResultStore, calibration_store
from repro.core.pipeline import measure, predict
from repro.core.request import ClusterSpec, DynamicSpec, PredictionRequest
from repro.partition.dynamic import clear_repartition_memo
from repro.perfmodel.calibrate import default_sample_sides
from repro.perturb import PerturbSpec
from repro.service.client import ServiceClient

# Set-ups call layer functions through this module's namespace, so a traced
# set-up sees the names the tracer rebinds.  (The package re-exports a
# function named ``assemble``, which hides the submodule from
# ``from repro.core import assemble``.)
assemble_mod = importlib.import_module("repro.core.assemble")

HERE = Path(__file__).resolve().parent
MODELS = ("homogeneous", "heterogeneous", "mesh-specific")
#: A child process gets this long before the run is abandoned.
CHILD_TIMEOUT_S = 150.0

now = time.perf_counter


@dataclass
class Phase:
    """What one timed phase recorded."""

    #: Per-operation latency, seconds.
    latencies: list = field(default_factory=list)
    #: Wall time the throughput is taken over.
    wall: float = 0.0
    #: Wall time the layer spans should cover.
    span_wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: perf_counter interval of the phase (spans are filtered by it).
    window: tuple = (0.0, 0.0)
    #: Spans and counts recorded in child processes.
    spans: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    #: For a closed loop over a fixed mix of operations: the class of each
    #: operation (operations of one class repeat the same work) and its
    #: host speed factor (:func:`speed.scale`), both parallel to
    #: ``latencies``, and the classes of one pass over the mix.  Empty for
    #: the open loop.
    keys: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    mix: list = field(default_factory=list)
    #: Per-layer values the workload measures itself.
    extra: dict = field(default_factory=dict)
    #: Report lines.
    notes: list = field(default_factory=list)


@contextmanager
def traced(tracer):
    """Install the layer wrappers in this process for the block."""
    if tracer is None:
        yield
        return
    installation = spans.install(tracer)
    try:
        yield
    finally:
        installation.undo()


def forget_memos() -> None:
    """Drop the library's per-process memos, so a set-up starts cold."""
    for name in ("_TABLE_MEMO", "_FACES_MEMO", "_FITTED_MEMO"):
        memo = getattr(assemble_mod, name, None)
        if memo is not None:
            memo.clear()
    clear_repartition_memo()


def use_cache(directory: Path) -> None:
    """Point the library's cache root (partitions, stores) at ``directory``."""
    os.environ["REPRO_CACHE_DIR"] = str(directory)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Workload:
    """Shared plumbing; subclasses define the inputs and the loop."""

    name = ""
    #: How many times the runner repeats ``setup`` (it reports the median).
    setup_repeats = 3

    def __init__(self, seed: int, book: answers.AnswerBook, work: Path) -> None:
        self.seed = seed
        self.book = book
        self.work = work
        self.rng = random.Random(seed)

    def setup(self, tracer, lap) -> None:
        """Build what the timed phase needs; call ``lap()`` between steps
        (the runner scales each step for host speed, see ``speed.Clock``)."""
        raise NotImplementedError

    def run(self, seconds: float, tracer) -> Phase:
        raise NotImplementedError

    def finish(self, phases: list) -> None:
        """Checks made after timing; failures are added to ``phases[-1]``."""

    def close(self) -> None:
        """Stop whatever the workload started."""

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def check_answer(self, mode: str, request, answer) -> bool:
        """Check one answer (a result or its payload) to ``request``."""
        return self.book.check(
            answers.request_id(mode, request),
            f"{mode} {request.label()}",
            answers.result_answer(answer),
        )


# --------------------------------------------------------------- warm_measure


class WarmMeasure(Workload):
    """Closed loop, one caller: ``measure()`` on the medium deck with warm
    partitions and calibrations."""

    name = "warm_measure"
    #: One set-up builds three medium-deck partitions (about 18 s), so it
    #: runs once per run.
    setup_repeats = 1
    RANKS = (16, 64, 256)
    SMP_RANKS = (16, 64)

    #: Partition and placement seed of every request.  It is fixed because
    #: it changes the work: one seed makes the SMP 64-rank request a third
    #: slower than another.  The run's seed orders the requests.
    REQUEST_SEED = answers.DEFAULT_SEED

    def requests(self) -> list:
        """One cycle: eight requests, two of them (one in four) on the SMP
        box.  Half are the 64-rank request, so the median stays inside one
        request class however the seed orders the cycle."""
        def flat(ranks):
            return PredictionRequest(
                deck="medium", ranks=ranks, seed=self.REQUEST_SEED, models=MODELS
            )

        smp = [
            PredictionRequest(
                deck="medium", ranks=p, seed=self.REQUEST_SEED, models=MODELS,
                cluster=ClusterSpec(smp=True), placement="comm-aware",
            )
            for p in self.SMP_RANKS
        ]
        return [flat(64)] * 4 + [flat(16), flat(256)] + smp

    def setup(self, tracer, lap) -> None:
        use_cache(checkout.fresh_dir(self.work, "warm-"))
        forget_memos()
        with traced(tracer):
            sides = default_sample_sides(256)
            for spec in (ClusterSpec(), ClusterSpec(smp=True)):
                assemble_mod.calibration_table(spec.build(), sides)
                lap()
            deck = assemble_mod.build_deck("medium")
            faces = assemble_mod.faces_for(deck)
            lap()
            for ranks in self.RANKS:
                assemble_mod.cached_partition(
                    deck, ranks, method="multilevel", seed=self.REQUEST_SEED,
                    faces=faces,
                )
                lap()

    def run(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        cycle = self.requests()
        done = []
        with traced(tracer):
            t0 = now()
            clock = speed.Clock()
            # Whole cycles only, so every run times the same request mix.
            while now() - t0 < seconds or not done:
                self.rng.shuffle(cycle)
                for request in cycle:
                    try:
                        result = measure(request)
                    except Exception as exc:  # counted, reported, run continues
                        result = exc
                    done.append((request, result, *clock.lap()))
            t1 = now()
        phase.mix = [answers.request_id("measure", r) for r in cycle]
        for request, result, latency, scale in done:
            phase.latencies.append(latency)
            phase.scales.append(scale)
            phase.keys.append(answers.request_id("measure", request))
            phase.attempted += 1
            if isinstance(result, Exception):
                self.book.fail(request.label(), repr(result))
                phase.failed += 1
            elif not self.check_answer("measure", request, result):
                phase.failed += 1
        phase.window = (t0, t1)
        phase.wall = phase.span_wall = t1 - t0
        return phase


# --------------------------------------------------------------- cold_measure


@dataclass
class ColdAnswer:
    latency: float
    payload: dict | None
    spans: list
    counts: list
    error: str | None
    cache: Path


class ColdMeasure(Workload):
    """Each request runs in a fresh interpreter against an empty cache."""

    name = "cold_measure"
    #: Fixed for the reason :attr:`WarmMeasure.REQUEST_SEED` is: the
    #: partition seed changes how long the cold partition takes.
    REQUEST_SEED = answers.DEFAULT_SEED

    def requests(self) -> list:
        """One cycle: ``measure(medium, 64)`` and one small request."""
        return [
            PredictionRequest(deck=deck, ranks=ranks, seed=self.REQUEST_SEED, models=MODELS)
            for deck, ranks in (("medium", 64), ("small", 16))
        ]

    def _child(self, extra_args: list, trace: bool) -> ColdAnswer:
        cache = checkout.fresh_dir(self.work, "cold-")
        command = [sys.executable, str(HERE / "cold_child.py"), "--trace", str(int(trace))]
        start = now()
        proc = subprocess.run(
            command + extra_args,
            env=checkout.child_env(cache),
            cwd=checkout.ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        latency = now() - start
        if proc.returncode != 0 or not proc.stdout.strip():
            error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return ColdAnswer(latency, None, [], [], error, cache)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        i0, i1 = out["imports"]
        recorded = [
            ("python.startup", start, out["start"], out["start"] - start),
            ("python.imports", i0, i1, i1 - i0),
        ] + [tuple(s) for s in out.get("spans", ())]
        counts = [tuple(c) for c in out.get("counts", ())]
        return ColdAnswer(latency, out.get("payload"), recorded, counts, None, cache)

    def setup(self, tracer, lap) -> None:
        # Interpreter start plus imports: what every cold request pays first.
        answer = self._child(["--imports-only"], trace=False)
        shutil.rmtree(answer.cache, ignore_errors=True)
        if answer.error:
            raise RuntimeError(f"cold child failed: {answer.error}")

    def _ask(self, request, trace: bool, phase: Phase) -> ColdAnswer:
        answer = self._child(["--request", request.to_json()], trace)
        phase.attempted += 1
        if answer.error is not None:
            self.book.fail(request.label(), answer.error)
            phase.failed += 1
        elif not self.check_answer("measure", request, answer.payload):
            phase.failed += 1
        return answer

    def run(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        cycle = self.requests()
        phase.mix = [answers.request_id("measure", r) for r in cycle]
        # The cache dir of the latest cold answer to each request.
        kept: dict = {}
        # The host speed is probed between children only: next to a child,
        # a probe reads the child's own load on the host.  A child runs for
        # seconds, longer than the host keeps one speed, so every request is
        # scaled by the mean speed over the phase.  Each reading is the
        # fastest of a few probes: the host is still busy for a moment with
        # the child that just ended (its exit, its files).
        def gap_probe() -> float:
            return min(speed.probe() for _ in range(5))

        probes = [gap_probe()]
        t0 = now()
        # Whole cycles only, so every run times the same request mix.
        while now() - t0 < seconds or not phase.latencies:
            self.rng.shuffle(cycle)
            for request in cycle:
                key = answers.request_id("measure", request)
                answer = self._ask(request, tracer is not None, phase)
                probes.append(gap_probe())
                phase.latencies.append(answer.latency)
                phase.keys.append(key)
                phase.spans.extend(answer.spans)
                phase.counts.extend(answer.counts)
                if key in kept:
                    shutil.rmtree(kept[key][1], ignore_errors=True)
                kept[key] = (request, answer.cache)
        t1 = now()
        phase.scales = [speed.scale(probes)] * len(phase.latencies)
        phase.window = (t0, t1)
        phase.wall = phase.span_wall = t1 - t0
        self._kept = kept
        return phase

    def finish(self, phases: list) -> None:
        phase = phases[-1]
        # A warm, in-process answer to the same requests must be identical:
        # the caches the cold children filled must not change any result.
        for request, cache in self._kept.values():
            use_cache(cache)
            forget_memos()
            phase.attempted += 1
            try:
                warm = measure(request, store=calibration_store())
                ok = self.book.agree(
                    answers.request_id("measure", request),
                    answers.result_answer(warm),
                )
            except Exception as exc:  # counted, reported, run continues
                ok = self.book.fail(request.label(), f"warm re-check: {exc!r}")
            if not ok:
                phase.failed += 1

    def peak_rss_mb(self) -> float:
        return children_rss_mb()


# -------------------------------------------------------------- dynamic_sweep


def _task_id(task) -> tuple:
    """Stable id and label of one sweep point, from its declared axes."""
    doc = {
        "deck": task.deck.name,
        "ranks": task.num_ranks,
        "models": list(task.models),
        "partition_method": task.partition_method,
        "seed": task.seed,
        "dynamic": None if task.dynamic is None else vars(task.dynamic),
        "placement": task.placement,
        "perturb": None if task.perturb is None else vars(task.perturb),
    }
    label = f"{task.deck.name} p={task.num_ranks} {task.dynamic.policy} " + (
        task.perturb.label if task.perturb is not None else "none"
    )
    return answers.digest("sweep " + json.dumps(doc, sort_keys=True)), label


class DynamicSweep(Workload):
    """``run_sweep`` over a dynamic small-deck grid into a fresh store, then
    the same grid again, answered from the store."""

    name = "dynamic_sweep"
    RANKS = (4, 8)
    POLICIES = ("never", "every:4", "imbalance:1.1")

    def spec(self):
        """The grid.  The seed picks the noise and straggler draws only.

        The partition seed, the churn seed and the grid order decide how
        many repartitions fire and which point pays for a repartition that
        the memo then shares, so they are fixed: every seed does the same
        work.
        """
        noisy = PerturbSpec(
            seed=self.seed, compute_noise=0.1, straggler_prob=0.2,
            straggler_factor=4.0,
        )
        churn = PerturbSpec(seed=3, churn_prob=0.2)
        return runner_mod.SweepSpec(
            decks=("small",),
            rank_counts=self.RANKS,
            dynamics=tuple(DynamicSpec(policy=p, iterations=8) for p in self.POLICIES),
            perturbs=(None, noisy, churn),
            seeds=(1,),
            max_side=256,
        )

    def setup(self, tracer, lap) -> None:
        previous = getattr(self, "cache", None)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)
        self.cache = checkout.fresh_dir(self.work, "sweep-")
        use_cache(self.cache)
        forget_memos()
        with traced(tracer):
            tasks = self.spec().tasks()
            deck = tasks[0].deck
            faces = assemble_mod.faces_for(deck)
            lap()
            for ranks in self.RANKS:
                assemble_mod.cached_partition(
                    deck, ranks, method="multilevel", seed=1, faces=faces
                )
                lap()

    def run(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        spec = self.spec()
        cycles = []
        stores = []
        with traced(tracer):
            t0 = now()
            while now() - t0 < seconds or not cycles:
                clear_repartition_memo()
                stores.append(checkout.fresh_dir(self.cache, "store-"))
                store = ResultStore(namespace="sweeps", root=stores[-1])
                # One lap per point: the progress callback ends each one.
                clock = speed.Clock()
                laps = []
                start = now()
                first = runner_mod.run_sweep(
                    spec, jobs=1, store=store, progress=lambda *_: laps.append(clock.lap())
                )
                middle = now()
                second = runner_mod.run_sweep(spec, jobs=1, store=store)
                end = now()
                cycles.append((first, second, laps, middle - start, end - middle))
            t1 = now()
        for directory in stores:
            shutil.rmtree(directory, ignore_errors=True)
        resumes = []
        for first, second, laps, first_wall, resume in cycles:
            for latency, scale in laps:
                phase.latencies.append(latency)
                phase.scales.append(scale)
            phase.wall += first_wall
            resumes.append(resume)
            for one, two in zip(first, second):
                key, label = _task_id(one.task)
                phase.keys.append(key)
                for outcome, cached in ((one, False), (two, True)):
                    phase.attempted += 1
                    if outcome.cached != cached:
                        phase.failed += 1
                        self.book.fail(label, f"expected cached={cached}")
                    elif not self.book.check(key, label, outcome.point.to_payload()):
                        phase.failed += 1
        phase.mix = phase.keys[: spec.num_points]
        phase.window = (t0, t1)
        phase.span_wall = t1 - t0
        phase.extra["analysis.resume_s"] = sorted(resumes)[len(resumes) // 2]
        phase.notes.append(
            f"{len(cycles)} sweep cycles of {spec.num_points} points; "
            f"second pass {min(resumes):.4f}-{max(resumes):.4f} s"
        )
        return phase


# ---------------------------------------------------------------- service_mix


@dataclass
class Sent:
    """One request of the open loop and what became of it."""

    offset: float
    mode: str
    request: PredictionRequest
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    answer: dict | None = None
    error: str | None = None


class ServiceMix(Workload):
    """Open loop at a fixed rate against the service in a child process."""

    name = "service_mix"
    #: Requests per second; misses keep the server busy about a fifth of
    #: the time, well below saturation.
    RATE = 12.0
    #: Slots of each block of 32 that carry a first-time request: about
    #: one request in six is a miss, enough to put the 90th percentile on
    #: the miss path.
    NEW_PREDICT_SLOTS = (5, 13, 21, 29)
    NEW_MEASURE_SLOTS = (31,)
    BLOCK = 32

    def __init__(self, seed, book, work) -> None:
        super().__init__(seed, book, work)
        self.server = None
        self.port = None
        self.sent: list = []
        self.threads = max(1, min(2, os.cpu_count() or 1))

    def hot_set(self) -> list:
        small = [
            PredictionRequest(deck="small", ranks=p, seed=self.seed, models=MODELS)
            for p in (2, 4, 8, 16, 32, 64)
        ]
        wide = [
            PredictionRequest(deck="64x32", ranks=p, seed=self.seed, models=MODELS)
            for p in (8, 16)
        ]
        return small + wide

    def schedule(self, seconds: float) -> list:
        """The seeded request stream: a prefix of one endless sequence."""
        rng = random.Random(self.seed)
        hot = self.hot_set()
        out = []
        fresh = 0
        for i in range(max(1, int(self.RATE * seconds))):
            slot = i % self.BLOCK
            if slot in self.NEW_PREDICT_SLOTS or slot in self.NEW_MEASURE_SLOTS:
                fresh += 1
                measured = slot in self.NEW_MEASURE_SLOTS
                ranks = (4, 8)[fresh % 2] if measured else (4, 8, 16)[fresh % 3]
                # The partition seed sets the miss path's work, so it is the
                # same at every run seed; each server starts with an empty
                # cache, so these requests are still first-time requests.
                request = PredictionRequest(
                    deck="small", ranks=ranks, seed=100_000 + fresh + 1, models=MODELS,
                )
                out.append(Sent(i / self.RATE, "measure" if measured else "predict", request))
            else:
                out.append(Sent(i / self.RATE, "predict", rng.choice(hot)))
        return out

    # The server process -------------------------------------------------

    def _start_server(self, trace: bool) -> None:
        self._stop_server()
        cache = checkout.fresh_dir(self.work, "service-")
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), "--trace", str(int(trace))],
            env=checkout.child_env(cache),
            cwd=checkout.ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.server.stdout.readline()
        if not line:
            error = self.server.stderr.read().strip().splitlines() or ["no output"]
            self._stop_server()
            raise RuntimeError(f"server failed to start: {error[-1]}")
        self.port = json.loads(line)["port"]
        self.client = ServiceClient(port=self.port, timeout=CHILD_TIMEOUT_S)

    def _warm_hot_set(self) -> None:
        """Ask the hot set once: the steady state a long-running service is
        in.  The first of these requests also calibrates the machine."""
        start = now()
        for request in self.hot_set():
            self._check(Sent(0.0, "predict", request,
                             answer=self._call("predict", request)))
        self.warm_s = now() - start

    def _stop_server(self) -> dict:
        """Shut the server down; its final report (spans, memory)."""
        if self.server is None:
            return {}
        report = {}
        try:
            self.client.shutdown()
            out, _ = self.server.communicate(timeout=CHILD_TIMEOUT_S)
            lines = out.strip().splitlines()
            if lines:
                report = json.loads(lines[-1])
        except (OSError, subprocess.TimeoutExpired, ValueError):
            self.server.kill()
            self.server.communicate()
        self.server = None
        return report

    def _call(self, mode: str, request) -> dict:
        if mode == "measure":
            result, _ = self.client.measure_detailed(request)
        else:
            result, _ = self.client.predict_detailed(request)
        return answers.result_answer(result)

    def _check(self, sent: Sent) -> bool:
        if sent.error is not None:
            return self.book.fail(sent.request.label(), sent.error)
        return self.check_answer(sent.mode, sent.request, sent.answer)

    # Workload -----------------------------------------------------------

    def setup(self, tracer, lap) -> None:
        # Set-up is start to listening: the first request can be sent then.
        self._start_server(trace=False)
        self.traced_server = False
        self.warm_s = None

    def _fire(self, stream: list) -> None:
        """Send ``stream`` on schedule from a few client threads."""
        lock = threading.Lock()
        cursor = iter(range(len(stream)))
        t0 = now() + 0.05

        def client() -> None:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                sent = stream[i]
                sent.due = t0 + sent.offset
                delay = sent.due - now()
                if delay > 0:
                    time.sleep(delay)
                sent.sent = now()
                try:
                    sent.answer = self._call(sent.mode, sent.request)
                except Exception as exc:  # counted, reported, run continues
                    sent.error = repr(exc)
                sent.done = now()

        threads = [threading.Thread(target=client) for _ in range(self.threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CHILD_TIMEOUT_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("service clients did not finish")

    def run(self, seconds: float, tracer) -> Phase:
        if tracer is not None and not self.traced_server:
            self._start_server(trace=True)
            self.traced_server = True
            self.warm_s = None
        elif self.server is None:
            self._start_server(trace=False)
            self.warm_s = None
        if self.warm_s is None:
            self._warm_hot_set()
        phase = Phase()
        stream = self.schedule(seconds)
        before = self.client.stats()
        self._fire(stream)
        after = self.client.stats()
        report = self._stop_server()
        self.server_rss_mb = max(
            getattr(self, "server_rss_mb", 0.0), report.get("rss_kb", 0) / 1024.0
        )
        t0 = min(s.due for s in stream)
        t1 = max(s.done for s in stream)
        for sent in stream:
            phase.latencies.append(sent.done - sent.due)
            phase.attempted += 1
            if not self._check(sent):
                phase.failed += 1
        self.sent.extend(stream)
        phase.window = (t0, t1)
        phase.wall = t1 - t0
        phase.span_wall = sum(phase.latencies)
        phase.spans = [tuple(s) for s in report.get("spans", ())]
        phase.counts = [tuple(c) for c in report.get("counts", ())]
        lags = sorted(s.sent - s.due for s in stream)
        pipeline = sum(
            end - start
            for name, start, end, _ in phase.spans
            if name == "core.pipeline" and t0 <= start <= t1
        )
        cache_delta = {k: after["cache"][k] - before["cache"][k]
                       for k in ("hits_memory", "hits_store", "lookups")}
        service_delta = {k: after["service"][k] - before["service"][k]
                         for k in ("coalesced", "computed")}
        hits = cache_delta["hits_memory"] + cache_delta["hits_store"]
        phase.extra.update({
            "core.cache.hit_ratio": hits / max(1, cache_delta["lookups"]),
            "service.coalesced": service_delta["coalesced"],
            "service.computed": service_delta["computed"],
            "service.gen_lag_p90_s": lags[int(0.9 * (len(lags) - 1))],
        })
        if tracer is not None:
            phase.extra["service.queue_wait_s"] = (
                sum(phase.latencies) - pipeline
            ) / len(stream)
        phase.notes.append(
            f"hot set warmed in {self.warm_s:.3f} s; "
            f"{len(stream)} requests at {self.RATE:g}/s from {self.threads} "
            f"client threads; generator lateness p50 {lags[len(lags) // 2] * 1e3:.2f} ms, "
            f"max {lags[-1] * 1e3:.2f} ms; computed {service_delta['computed']}, "
            f"coalesced {service_delta['coalesced']}, cache hits {hits}"
        )
        return phase

    def finish(self, phases: list) -> None:
        """Every service answer must equal the in-process answer."""
        phase = phases[-1]
        use_cache(checkout.fresh_dir(self.work, "inprocess-"))
        forget_memos()
        uses_by_key: dict = {}
        for sent in self.sent:
            key = answers.request_id(sent.mode, sent.request)
            uses_by_key.setdefault(key, [sent, 0])[1] += 1
        for key, (sent, uses) in uses_by_key.items():
            run = measure if sent.mode == "measure" else predict
            try:
                ok = self.book.agree(key, answers.result_answer(run(sent.request)))
            except Exception as exc:  # counted, reported, run continues
                ok = self.book.fail(sent.request.label(), f"in-process: {exc!r}")
            if not ok:
                phase.failed += uses

    def close(self) -> None:
        self._stop_server()

    def peak_rss_mb(self) -> float:
        return getattr(self, "server_rss_mb", 0.0) or children_rss_mb()


WORKLOADS = {
    cls.name: cls for cls in (WarmMeasure, ColdMeasure, DynamicSweep, ServiceMix)
}
