"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload shor_warm_sweep --seed 1 \\
        --seconds 30 --trace 0

Run it from the repository root: the package is imported from ``src/``.
One process runs one workload as a single closed-loop client.  With
``--trace 0`` the timed phase runs untraced and the end-to-end metrics are
reported; with ``--trace 1`` half of the time runs untraced and half traced
(see ``spans.py``), and the per-layer metrics are reported, per op unless
the name says ``ratio``.

Every metric is printed as one stamped JSON row (commit, source hash, host,
seed); the last line of standard output is the summary object
``{"correct", "attempted", "failed", "metrics"}``.  The process exits with
code 2, printing no summary, when ``src/repro`` is missing.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups per run; ``setup_s`` adds the import time to their median.
SETUP_REPEATS = 3


class HostSpeed:
    """How fast this host runs right now, from a fixed reference computation.

    The benchmark's hosts share their cores: on the host it was defined on,
    a fixed loop took 4.7 ms in one hour and 8 ms in the next, and the same
    op ran at two speeds 1.7x apart in stretches of a few seconds.  So every
    run times a small computation that never touches the package before the
    timed phase, after every cycle of ops and after each set-up, and scales
    op times by ``REFERENCE_S`` over the median of the readings around them:
    the times read as seconds on the host at its typical speed.  The
    reference follows the workload's own mix (``workload.reference``): a
    pure-Python loop for the interpreter-bound Shor checks, the loop plus a
    NumPy gather for the others.  Rows carry the raw values as well.
    """

    #: Typical reading of each reference on the host the benchmark was
    #: defined on.
    REFERENCE_S = {"python": 0.0065, "mixed": 0.007}

    def __init__(self, kind: str):
        import numpy as np

        generator = np.random.default_rng(0)
        self.kind = kind
        self._state = generator.standard_normal((16, 2048)) + 0j
        self._order = generator.permutation(2048)

    def _reference(self) -> None:
        total = 0
        for i in range(60000 if self.kind == "python" else 15000):
            total += i * i % 7
        if self.kind == "mixed":
            state = self._state
            for _ in range(40):
                state = state[:, self._order] * 1.0001

    def reading(self) -> float:
        """Median of three timings of the reference computation."""
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            self._reference()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    def factor(self, readings: "list[float]") -> float:
        """Multiply a time measured among ``readings`` by this."""
        return self.REFERENCE_S[self.kind] / statistics.median(readings)


def _import_package() -> None:
    """Import everything the workloads touch, so it counts as set-up."""
    sys.path.insert(1, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro resolved to {repro.__file__}, not {SRC}")
    import repro.analysis  # noqa: F401
    import repro.bugs.injector  # noqa: F401
    import repro.service  # noqa: F401
    import repro.service.jobs  # noqa: F401
    import repro.sim.noise  # noqa: F401
    import repro.workloads  # noqa: F401
    import repro.workloads.clifford  # noqa: F401


def timed_phase(workload, seconds: float, host: HostSpeed) -> dict:
    """Run whole cycles of ops until their summed latency reaches ``seconds``.

    Only the op itself is timed; making inputs, keeping outputs for the
    checks and the host-speed readings between cycles are not.  Returns the
    raw latencies, the latencies scaled to reference-host speed, and the
    number of failed ops.
    """
    latencies: "list[float]" = []
    readings = [host.reading()]
    failed = 0
    while sum(latencies) < seconds or len(latencies) % workload.cycle:
        op_input = workload.next_input()
        start = time.perf_counter()
        try:
            output = workload.op(op_input)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            output = None
        latencies.append(time.perf_counter() - start)
        if output is None or not workload.record(len(latencies) - 1, op_input, output):
            failed += 1
        if not len(latencies) % workload.cycle:
            readings.append(host.reading())
    # A cycle's factor comes from the five readings around it: one reading
    # is too noisy, and the host's slow and fast stretches last seconds.
    scaled = []
    for index, latency in enumerate(latencies):
        cycle = index // workload.cycle
        scaled.append(latency * host.factor(readings[max(0, cycle - 2):cycle + 3]))
    return {"latencies": latencies, "scaled": scaled, "failed": failed}


def _tail(latencies: "list[float]", segments: int) -> "tuple[float, float, int]":
    """(value, percentile, ops per segment) of the op latency tail.

    In each of ``segments`` contiguous segments of the run, the tail is the
    highest percentile with at least ten ops beyond it (the eleventh-slowest
    op); the median over segments is reported, so one slow stretch of the
    host moves it less than it moves a single whole-run percentile.
    """
    size = len(latencies) // segments
    tails = []
    for index in range(segments):
        ordered = sorted(latencies[index * size:(index + 1) * size])
        tails.append(ordered[-11] if len(ordered) > 10 else ordered[-1])
    return statistics.median(tails), 100.0 * max(0, size - 10) / size, size


def _throughput(latencies: "list[float]", cycle: int) -> float:
    """Median over whole cycles of ops per second of op time."""
    return statistics.median(
        cycle / sum(latencies[start:start + cycle])
        for start in range(0, len(latencies) - cycle + 1, cycle)
    )


def end_to_end(workload, phase: dict, setup: "tuple[float, float]",
               failed: int) -> "tuple[dict, dict]":
    """The user-facing metrics; ``failed`` includes failed output checks.

    ``setup`` is (raw, scaled) set-up seconds.  The median and the
    throughput are taken over scaled op times; the tail over raw ones, as
    it is the slow stretches of the host that make the tail.
    """
    latencies, scaled = phase["latencies"], phase["scaled"]
    attempted = len(latencies)
    tail, percentile, segment_ops = _tail(latencies, workload.tail_segments)
    op_ms = statistics.median(scaled) * 1e3
    throughput = _throughput(scaled, workload.cycle)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup[1], "s"),
        "op_ms": (op_ms, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "ops_per_s": (throughput, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "success_rate": (1.0 - failed / attempted, "fraction"),
    }
    extra = {
        "setup_s": {"raw_value": setup[0]},
        "op_ms": {"raw_value": statistics.median(latencies) * 1e3,
                  "ops": attempted},
        "op_ms_tail": {"percentile": percentile, "segment_ops": segment_ops,
                       "ops_beyond": min(10, segment_ops - 1)},
        "ops_per_s": {"raw_value": _throughput(latencies, workload.cycle),
                      "window_ops": workload.cycle,
                      "windows": attempted // workload.cycle},
        "success_rate": {"error_rate": failed / attempted},
    }
    return metrics, extra


def _public_counters(workload) -> dict:
    from repro.compiler.plan_cache import default_plan_cache

    counters = {"plan": default_plan_cache().stats()}
    service = getattr(workload, "service", None)
    if service is not None:
        counters["service"] = service.stats()
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, seconds: float, host: HostSpeed) -> "tuple[dict, dict, dict]":
    """Untraced then traced half-phases; per-op layer metrics (raw times)."""
    from spans import Tracer, instrument

    untraced = timed_phase(workload, seconds / 2.0, host)
    tracer = Tracer()
    instrument(tracer)
    workload.tracer = tracer
    before = _public_counters(workload)
    tracer.reset()
    tracer.enabled = True
    try:
        traced = timed_phase(workload, seconds / 2.0, host)
    finally:
        tracer.uninstall()
        workload.tracer = None
    after = _public_counters(workload)
    totals = tracer.totals()

    ops = len(traced["latencies"])
    op_ns = sum(traced["latencies"]) * 1e9
    self_ns, calls, counts = totals["self_ns"], totals["calls"], totals["counts"]

    def ms(layer):
        return self_ns.get(layer, 0) / ops / 1e6

    def per_op(value):
        return value / ops

    plan = {key: after["plan"][key] - before["plan"][key] for key in before["plan"]}
    if "service" in before:
        cache_before = before["service"]["cache"]
        cache_after = after["service"]["cache"]
        cache_hits = cache_after["hits"] - cache_before["hits"]
        cache_misses = cache_after["misses"] - cache_before["misses"]
        inline = sum(after["service"]["inline_answers"].values()) - sum(
            before["service"]["inline_answers"].values()
        )
        submitted = after["service"]["jobs"] - before["service"]["jobs"]
    else:
        cache_hits = cache_misses = inline = submitted = 0
    # Means, like every per-op value here; both phases run whole cycles.
    traced_ms = op_ns / ops / 1e6
    # Overhead compares host-speed-scaled means: the halves run seconds
    # apart, and the host's speed moves more than tracing costs.
    overhead_ms = (statistics.mean(traced["scaled"])
                   - statistics.mean(untraced["scaled"])) * 1e3
    other_ns = max(0.0, op_ns - totals["covered_ns"])

    count, ratio = "count", "ratio"
    metrics = {
        "lang.parse_ms": (ms("lang"), "ms"),
        "lang.gates_parsed": (per_op(counts["lang.gates_parsed"]), count),
        "plan_cache.fingerprint_ms": (ms("plan_cache.fingerprint"), "ms"),
        "plan_cache.fingerprint_calls": (
            per_op(calls["plan_cache.fingerprint"]), count),
        "plan_cache.gates_hashed": (
            per_op(counts["plan_cache.gates_hashed"]), count),
        "plan_cache.lookup_ms": (ms("plan_cache.lookup"), "ms"),
        "plan_cache.plan_hit_ratio": (
            _ratio(plan["hits"], plan["hits"] + plan["misses"]), ratio),
        "plan_cache.snapshot_hit_ratio": (
            _ratio(plan["snapshot_hits"],
                   plan["snapshot_hits"] + plan["snapshot_misses"]), ratio),
        "splitter.compile_ms": (ms("splitter"), "ms"),
        "splitter.compiles": (per_op(calls["splitter"]), count),
        "analysis.analyze_ms": (ms("analysis"), "ms"),
        "analysis.gates": (per_op(counts["analysis.gates"]), count),
        "analysis.decided_ratio": (
            _ratio(counts["analysis.decided"], counts["analysis.verdicts"]),
            ratio),
        "executor.walk_ms": (ms("executor"), "ms"),
        "executor.gates_applied": (
            per_op(counts["executor.gates_applied"]), count),
        "executor.dense_gates": (per_op(counts["executor.dense_gates"]), count),
        "executor.gates_saved": (per_op(counts["executor.gates_saved"]), count),
        "sim.gate_ms": (ms("sim.gate"), "ms"),
        "sim.gate_calls": (per_op(calls["sim.gate"]), count),
        "noise.draw_ms": (ms("noise"), "ms"),
        "noise.draws": (per_op(counts["noise.draws"]), count),
        "noise.paulis_applied": (per_op(counts["noise.paulis_applied"]), count),
        "sampling.ms": (ms("sampling"), "ms"),
        "sampling.shots": (per_op(counts["sampling.shots"]), count),
        "statistics.evaluate_ms": (ms("statistics"), "ms"),
        "statistics.tests": (per_op(counts["statistics.tests"]), count),
        "report.serialize_ms": (ms("report.serialize"), "ms"),
        "report.parse_ms": (ms("report.parse"), "ms"),
        "report.bytes": (per_op(counts["report.bytes"]), "bytes"),
        "service.submit_ms": (ms("service.submit"), "ms"),
        "service.queue_wait_ms": (ms("service.queue"), "ms"),
        "service.inline_ratio": (_ratio(inline, submitted), ratio),
        "workers.attempt_ms": (ms("workers"), "ms"),
        "workers.forks": (per_op(calls["workers"]), count),
        "workers.retries": (per_op(counts["workers.retries"]), count),
        "result_cache.lookup_ms": (ms("result_cache"), "ms"),
        "result_cache.hit_ratio": (
            _ratio(cache_hits, cache_hits + cache_misses), ratio),
        "other_ms": (other_ns / ops / 1e6, "ms"),
        "trace.op_ms": (traced_ms, "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.coverage": (_ratio(totals["covered_ns"], op_ns), ratio),
    }
    phase = {
        "latencies": untraced["latencies"] + traced["latencies"],
        "failed": untraced["failed"] + traced["failed"],
    }
    extra = {"trace.op_ms": {"ops": ops, "untraced_ops": len(untraced["latencies"])}}
    return metrics, extra, phase


def _source_hash() -> str:
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def _commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _stamp(workload: str, seed: int) -> dict:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "bench": "perfbench",
        "workload": workload,
        "commit": _commit(),
        "source_sha256": _source_hash(),
        "host": {"nproc": os.cpu_count(), "ram_mb": ram // (1 << 20)},
        "seed": seed,
        "ts": time.time(),
    }


def _layer_of(metric: str) -> str:
    return metric.split(".")[0] if "." in metric else "end_to_end"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    _import_package()
    import_s = time.perf_counter() - _PROCESS_START
    from cases import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    host = HostSpeed(workload.reference)
    try:
        setups, readings = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(args.seed)
            setups.append(time.perf_counter() - start)
            readings.append(host.reading())
        if args.trace:
            metrics, extra, phase = per_layer(workload, args.seconds, host)
            failed = phase["failed"] + workload.verify()
        else:
            phase = timed_phase(workload, args.seconds, host)
            failed = phase["failed"] + workload.verify()
            setup_s = import_s + statistics.median(setups)
            metrics, extra = end_to_end(
                workload, phase, (setup_s, setup_s * host.factor(readings)),
                failed,
            )
    finally:
        workload.close()

    stamp = _stamp(args.workload, args.seed)
    for name, (value, unit) in metrics.items():
        row = dict(stamp, layer=_layer_of(name), metric=name, value=value,
                   unit=unit)
        row.update(extra.get(name, {}))
        print(json.dumps(row))
    attempted = len(phase["latencies"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
