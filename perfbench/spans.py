"""Per-layer spans and counters, applied to the package from outside.

The benchmark does not edit the program under test.  A :class:`Tracer`
replaces the public entry point of each layer with a timing wrapper, at
every module attribute and class attribute the entry point is reached
through, and puts the originals back on :meth:`Tracer.uninstall`.

Spans live on a per-thread stack.  A layer's *self* time is the time inside
its spans minus the time inside the spans they contain; the time of spans
with no parent in their thread is the *covered* time, and the part of an
op's wall time that no span covers is reported as ``other_ms``.  A call
that re-enters the layer it is already in (a subclass method calling its
base, a hybrid backend delegating to its stage) opens no second span, so
each layer's call count is the number of times the layer was entered.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "instrument"]

_clock = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("stack", "self_ns", "calls", "covered_ns", "counts")

    def __init__(self):
        self.stack: list = []
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.covered_ns = 0
        self.counts = defaultdict(float)


class Tracer:
    """Span stacks, self times and counters for the wrapped entry points."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._states: "list[_ThreadState]" = []
        self._states_lock = threading.Lock()
        self._patches: list = []
        self._queue_mark: "int | None" = None

    # -- accounting ------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def reset(self) -> None:
        """Zero every accumulator (spans in flight keep their stacks)."""
        with self._states_lock:
            for state in self._states:
                state.self_ns.clear()
                state.calls.clear()
                state.covered_ns = 0
                state.counts.clear()

    def totals(self) -> dict:
        """Sums over threads: ``self_ns``, ``calls``, ``covered_ns``, ``counts``."""
        self_ns: "dict[str, int]" = defaultdict(int)
        calls: "dict[str, int]" = defaultdict(int)
        counts: "dict[str, float]" = defaultdict(float)
        covered = 0
        with self._states_lock:
            for state in self._states:
                for name, value in state.self_ns.items():
                    self_ns[name] += value
                for name, value in state.calls.items():
                    calls[name] += value
                for name, value in state.counts.items():
                    counts[name] += value
                covered += state.covered_ns
        return {"self_ns": self_ns, "calls": calls, "covered_ns": covered,
                "counts": counts}

    def add(self, counter: str, amount: float) -> None:
        """Add to a counter of the calling thread."""
        self._state().counts[counter] += amount


    def _close(self, state: _ThreadState, name: str, elapsed: int, child: int) -> None:
        state.self_ns[name] += elapsed - child
        state.calls[name] += 1
        if state.stack:
            state.stack[-1][1] += elapsed
        else:
            state.covered_ns += elapsed

    def mark_queued(self) -> None:
        """A job was left queued: its wait ends when its attempt starts."""
        if self.enabled:
            self._queue_mark = _clock()

    def close_queue_wait(self) -> None:
        mark, self._queue_mark = self._queue_mark, None
        if mark is not None and self.enabled:
            state = self._state()
            self._close(state, "service.queue", _clock() - mark, 0)

    # -- wrappers --------------------------------------------------------

    def timed(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``.

        ``count(args, kwargs, result)`` returns a (counter, amount) pair
        added after every call while tracing is on, re-entrant calls
        included.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            if stack and stack[-1][0] == name:
                result = fn(*args, **kwargs)
            else:
                frame = [name, 0]
                stack.append(frame)
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    stack.pop()
                    tracer._close(state, name, elapsed, frame[1])
            if count is not None:
                counter, amount = count(args, kwargs, result)
                state.counts[counter] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, name: str, fn):
        """Like :meth:`timed` for a generator function: each step is a span."""
        done = object()
        step = self.timed(name, lambda gen: next(gen, done))

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                item = step(inner)
                if item is done:
                    return
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def patch_function(self, fn, replacement) -> None:
        """Replace ``fn`` at every ``repro`` module attribute bound to it."""
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)
                    patched += 1
        if not patched:
            raise RuntimeError(f"no module attribute holds {fn!r}")

    def wrap_function(self, fn, name: str, count=None) -> None:
        self.patch_function(fn, self.timed(name, fn, count))

    def wrap_method(self, cls, attr: str, name: str, count=None) -> None:
        """Wrap ``cls.attr`` as defined on ``cls`` itself."""
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.timed(name, raw.__func__, count))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.timed(name, raw.__func__, count))
        else:
            replacement = self.timed(name, raw, count)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def wrap_hierarchy(self, base, attrs, name: str, count=None) -> None:
        """Wrap each of ``attrs`` on ``base`` and every subclass defining it."""
        seen, pending = set(), [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attr in attrs:
                raw = vars(cls).get(attr)
                if raw is None or getattr(raw, "__isabstractmethod__", False):
                    continue
                self.wrap_method(cls, attr, name, count)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        self.enabled = False
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# The layer map
# ---------------------------------------------------------------------------


def _gate_count(program) -> int:
    from repro.lang.instructions import GateInstruction

    return sum(isinstance(i, GateInstruction) for i in program.instructions)


def _count_parsed(args, kwargs, program):
    return "lang.gates_parsed", _gate_count(program)


def _count_hashed(args, kwargs, result):
    return "plan_cache.gates_hashed", _gate_count(args[0])


def _count_draws(args, kwargs, result):
    return "noise.draws", len(result)


def _count_paulis(args, kwargs, result):
    paulis = args[2] if len(args) > 2 else kwargs["paulis"]
    return "noise.paulis_applied", int((paulis != 0).sum())


def _count_shots(args, kwargs, result):
    return "sampling.shots", len(result)


def _count_test(args, kwargs, result):
    return "statistics.tests", 1


def _count_serialized(args, kwargs, text):
    return "report.bytes", len(text)


def _count_parsed_report(args, kwargs, result):
    return "report.bytes", len(args[1])


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's entry points.

    Span names: ``lang``, ``plan_cache.fingerprint``, ``plan_cache.lookup``,
    ``splitter``, ``analysis``, ``executor``, ``sim.gate``, ``noise``,
    ``sampling``, ``statistics``, ``report.serialize``, ``report.parse``,
    ``service.submit``, ``service.queue`` (synthetic: from ``submit``
    returning with the job queued to the start of its first attempt),
    ``workers`` and ``result_cache``.
    """
    import repro.analysis as analysis
    import repro.compiler.executor as executor
    import repro.compiler.plan_cache as plan_cache
    import repro.compiler.splitter as splitter
    import repro.core.assertions as assertions
    import repro.core.checker as checker
    import repro.core.report as report
    import repro.lang.qasm as qasm
    import repro.service.jobs as jobs
    import repro.service.result_cache as result_cache
    import repro.service.workers as workers
    import repro.sim.backend as backend
    import repro.sim.kernels as kernels
    import repro.sim.trajectory_backend as trajectory
    import repro.sim.stabilizer_backend  # noqa: F401  (registers subclasses)
    import repro.sim.density_backend  # noqa: F401

    tracer.wrap_function(qasm.from_qasm, "lang", _count_parsed)

    tracer.wrap_function(
        plan_cache.program_fingerprint, "plan_cache.fingerprint", _count_hashed
    )
    for attr in ("plan_for", "shareable", "snapshots_for", "record_snapshots",
                 "analysis_for", "record_static_short_circuit"):
        tracer.wrap_method(plan_cache.PlanCache, attr, "plan_cache.lookup")

    tracer.wrap_function(splitter.build_execution_plan, "splitter")
    analyze_plan = analysis.analyze_plan

    def counted_analyze_plan(*args, **kwargs):
        result = analyze_plan(*args, **kwargs)
        if tracer.enabled:
            tracer.add("analysis.gates", result.analysis_gates)
            tracer.add("analysis.verdicts", len(result.verdicts))
            tracer.add("analysis.decided", sum(v.decided for v in result.verdicts))
        return result

    tracer.patch_function(
        analyze_plan, tracer.timed("analysis", counted_analyze_plan)
    )

    run_plan = executor.BreakpointExecutor.run_plan

    def counted_run_plan(self, *args, **kwargs):
        before = (self.gates_applied, self.statevector_gates_applied,
                  self.shared_prefix_gates_saved)
        result = run_plan(self, *args, **kwargs)
        if tracer.enabled:
            tracer.add("executor.gates_applied", self.gates_applied - before[0])
            tracer.add("executor.dense_gates",
                       self.statevector_gates_applied - before[1])
            tracer.add("executor.gates_saved",
                       self.shared_prefix_gates_saved - before[2])
        return result

    tracer._patches.append((executor.BreakpointExecutor, "run_plan", run_plan))
    executor.BreakpointExecutor.run_plan = tracer.timed("executor", counted_run_plan)

    tracer.wrap_hierarchy(
        backend.SimulationBackend,
        ("apply_matrix", "apply_controlled", "prep_qubit"),
        "sim.gate",
    )
    tracer.wrap_hierarchy(
        backend.SimulationBackend, ("snapshot", "restore"), "sampling"
    )
    tracer.wrap_hierarchy(
        backend.SimulationBackend, ("sample",), "sampling", _count_shots
    )

    noise_events = trajectory.iter_noise_events
    tracer.patch_function(
        noise_events, tracer.timed_generator("noise", noise_events)
    )
    tracer.wrap_method(trajectory.StreamPool, "draw", "noise", _count_draws)
    tracer.wrap_function(kernels.apply_pauli_batched, "noise", _count_paulis)

    tracer.wrap_function(checker.build_evaluator, "statistics")
    tracer.wrap_hierarchy(
        assertions.BaseAssertion, ("evaluate",), "statistics", _count_test
    )

    tracer.wrap_method(report.DebugReport, "to_json", "report.serialize",
                       _count_serialized)
    tracer.wrap_method(report.DebugReport, "from_json", "report.parse",
                       _count_parsed_report)

    for attr in ("submit_payload", "submit"):
        tracer.wrap_method(jobs.LocalService, attr, "service.submit")

    timed_attempt = tracer.timed("workers", workers.run_attempt)

    def attempt(payload, *args, **kwargs):
        tracer.close_queue_wait()
        if tracer.enabled and payload.get("attempt", 0) > 0:
            tracer.add("workers.retries", 1)
        return timed_attempt(payload, *args, **kwargs)

    tracer.patch_function(workers.run_attempt, attempt)

    # Spans recorded in a forked worker could never reach the parent, so the
    # child stops tracing before it runs the job.
    worker_main = workers._worker_main

    def untraced_worker_main(*args, **kwargs):
        tracer.enabled = False
        return worker_main(*args, **kwargs)

    tracer.patch_function(worker_main, untraced_worker_main)

    for attr in ("key_for", "get", "put"):
        tracer.wrap_method(result_cache.ResultCache, attr, "result_cache")
