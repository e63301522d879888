"""XRPC benchmark: three seeded workloads, end to end and layer by layer.

Run from the root of the repository::

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` wraps the public calls of each ``repro``
layer (see ``tracer.py``) on every other operation of each kind and
prints the per-layer metrics, the tracing overhead and the layer map.
Load is a closed loop with one client thread: the next operation starts
when the previous one returns.  ``--workload all`` runs each workload
in its own process, one after the other.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with an error and prints no result.  The last
line of the output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from layers import (END_TO_END, FALLBACK_CODES, FINDINGS,  # noqa: E402
                    NETWORK_END_TO_END, PER_LAYER, WORKLOAD_NAMES,
                    shape_metrics)

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Failures echoed to stderr before the rest are only counted.
SHOWN_FAILURES = 5


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro
    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SOURCE}")


@dataclass
class Record:
    index: int
    kind: str
    wall: float
    traced: bool
    error: str | None
    deltas: dict = field(default_factory=dict)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def counter_deltas(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


class Run:
    """One workload in this process: set-ups, the timed loop, metrics."""

    def __init__(self, name: str, seed: int, seconds: float,
                 trace: bool) -> None:
        from tracer import Tracer
        from workloads import WORKLOADS
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workload_class = WORKLOADS[name]
        self.setup_times: list[float] = []
        self.register_ms: list[float] = []
        self.register_bytes = 0
        self.records: list[Record] = []
        self.failures = 0
        self.workload = None

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> None:
        tracer = self.tracer
        for _ in range(SETUPS):
            if self.workload is not None:
                self.workload.close()
                self.workload = None
            gc.collect()
            if tracer is not None:
                tracer.install()
            started = time.perf_counter()
            workload = self.workload_class(self.seed)
            workload.setup()
            self.setup_times.append(time.perf_counter() - started)
            self.workload = workload
            if tracer is not None:
                tracer.uninstall()
                registers = [span for span in tracer.spans
                             if span.name == "xml.register"]
                self.register_ms.append(
                    sum(span.end - span.start for span in registers) * 1e3)
                self.register_bytes += sum(span.attrs["bytes"]
                                           for span in registers)
                tracer.spans.clear()
        self.workload.after_setup(traced=tracer is not None)

    # -- the timed loop ----------------------------------------------------

    def _snapshot(self) -> dict:
        from repro.search.stats import SEARCH_STATS
        from repro.xdm.structural import ENCODING_STATS
        counters = dict(ENCODING_STATS.snapshot())
        counters.update(SEARCH_STATS.snapshot())
        for engine in self.workload.engines():
            for key, value in engine.cache_stats().items():
                if key in ("plan_cache_hits", "plan_cache_misses"):
                    counters[key] = counters.get(key, 0) + value
            for code, count in engine.fallback_stats().items():
                key = f"fallback:{code}"
                counters[key] = counters.get(key, 0) + count
        return counters

    def measure(self) -> None:
        workload, tracer = self.workload, self.tracer
        rng = random.Random(f"{self.name}:{self.seed}")
        traced_next: dict[str, bool] = defaultdict(bool)
        self.before = self._snapshot()
        gc.collect()
        started = time.perf_counter()
        deadline = started + self.seconds
        while time.perf_counter() < deadline:
            for op in workload.cycle(rng):
                traced = tracer is not None and traced_next[op.kind]
                traced_next[op.kind] = not traced_next[op.kind]
                self.records.append(self._one(op, traced))
        self.elapsed = time.perf_counter() - started
        self.after = self._snapshot()

    def _one(self, op, traced: bool) -> Record:
        tracer, index = self.tracer, len(self.records)
        probe = self.workload.probe()
        root = None
        if traced:
            tracer.install()
            root = tracer.begin_op(index)
        error = None
        started = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # an operation failure is a data point
            value, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        if traced:
            tracer.end_op(root)
            tracer.uninstall()
        deltas = counter_deltas(probe, self.workload.probe())
        if error is None:
            try:
                error = op.check(value)
            except Exception as exc:  # a broken answer can break a check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            self.failures += 1
            if self.failures <= SHOWN_FAILURES:
                print(f"perfbench: {self.name} op {index} ({op.kind}) "
                      f"failed: {error}", file=sys.stderr)
        return Record(index, op.kind, wall, traced, error, deltas)

    def close(self) -> None:
        if self.workload is not None:
            self.workload.close()
            self.workload = None

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, records: list[Record]) -> tuple[dict, dict]:
        """Metric values and sample notes over *records*."""
        reads = [r.wall * 1e3 for r in records if r.kind == "read"]
        writes = [r.wall * 1e3 for r in records if r.kind == "write"]
        busy = sum(r.wall for r in records)
        values, notes = {}, {}
        values["setup_s"] = (self.import_seconds
                             + statistics.median(self.setup_times))
        notes["setup_s"] = (f"imports {self.import_seconds:.3f} s + median "
                            f"of {len(self.setup_times)} set-ups")
        values["ops_per_s"] = len(records) / busy
        notes["ops_per_s"] = f"{len(records)} ops"
        for kind, samples in (("read", reads), ("write", writes)):
            values[f"{kind}_p50_ms"] = statistics.median(samples)
            values[f"{kind}_p90_ms"] = percentile(samples, 90)
            beyond = sum(1 for sample in samples
                         if sample > values[f"{kind}_p90_ms"])
            notes[f"{kind}_p50_ms"] = f"n={len(samples)}"
            notes[f"{kind}_p90_ms"] = f"n={len(samples)}, {beyond} beyond"
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes["peak_rss_mb"] = "this process"

        def total(key, kind=None):
            return sum(r.deltas.get(key, 0) for r in records
                       if kind is None or r.kind == kind)

        def busy_of(kind):
            return sum(r.wall for r in records if r.kind == kind)

        values["calls_per_s"] = total("calls") / busy
        notes["calls_per_s"] = f"{total('calls')} calls"
        values["messages_per_op"] = total("messages") / len(records)
        notes["messages_per_op"] = f"{total('messages')} messages"
        values["request_mb_per_s"] = \
            total("bytes_sent", "write") / 1e6 / busy_of("write")
        notes["request_mb_per_s"] = "request bytes of writes / write time"
        values["response_mb_per_s"] = \
            total("bytes_received", "read") / 1e6 / busy_of("read")
        notes["response_mb_per_s"] = "response bytes of reads / read time"
        failed = sum(1 for r in records if r.error)
        values["failed_ratio"] = failed / len(records)
        notes["failed_ratio"] = f"{failed} of {len(records)}"
        return values, notes

    def per_layer(self) -> tuple[dict, dict, dict]:
        """Per-layer metrics, their notes, and the mean self time of
        every span name per operation kind."""
        from tracer import GC, OP, self_times
        traced = [r for r in self.records if r.traced]
        untraced = [r for r in self.records if not r.traced]
        spans_of = self.tracer.by_op()
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        plans: dict[str, int] = defaultdict(int)
        by_kind: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        kinds: dict[str, int] = defaultdict(int)
        gen2 = 0
        walls = self_sum = 0.0
        ratios = []
        for record in traced:
            spans = spans_of.get(record.index, [])
            root = next(span for span in spans if span.name == OP)
            shares = self_times(root, spans)
            # The harness's own clock, not the root span, is the wall.
            walls += record.wall
            self_sum += sum(shares.values())
            ratios.append(sum(shares.values()) / record.wall)
            kinds[record.kind] += 1
            for span in spans:
                clipped = min(span.end, root.end) - max(span.start,
                                                         root.start)
                inclusive[span.name] += max(clipped, 0.0)
                own[span.name] += shares.get(span, 0.0)
                by_kind[record.kind][span.name] += shares.get(span, 0.0)
                calls[span.name] += 1
                if span.name == "engine.record_plan":
                    plans[span.attrs["plan"]] += 1
                if span.name == GC and span.attrs["generation"] == 2:
                    gen2 += 1
        breakdown = {kind: {name: seconds * 1e3 / kinds[kind]
                            for name, seconds in names.items()}
                     for kind, names in by_kind.items()}
        n = len(traced)
        ops = len(self.records)

        def incl_ms(name):
            return inclusive[name] * 1e3 / n

        def self_ms(name):
            return own[name] * 1e3 / n

        delta = counter_deltas(self.before, self.after)

        def per_op(key):
            return delta.get(key, 0) / ops

        def total(key):
            return sum(r.deltas.get(key, 0) for r in self.records)

        lookups = delta["plan_cache_hits"] + delta["plan_cache_misses"]
        metrics = {
            "net.exchange_ms": incl_ms("net.exchange"),
            "net.wait_ms": self_ms("net.exchange"),
            "net.bytes_per_op": (total("bytes_sent")
                                 + total("bytes_received")) / ops,
            "net.connections_opened": total("connections_opened"),
            "net.retries": total("retries"),
            "soap.build_request_ms": incl_ms("soap.build_request"),
            "soap.parse_request_ms": incl_ms("soap.parse_request"),
            "soap.build_response_ms": incl_ms("soap.build_response"),
            "soap.parse_reply_ms": incl_ms("soap.parse_reply"),
            "rpc.server_handle_ms": incl_ms("rpc.server_handle"),
            "rpc.server_call_ms": incl_ms("rpc.server_call"),
            "rpc.calls_per_message": (total("calls") / total("requests")
                                      if total("requests") else 0.0),
            "rpc.txn_ms": incl_ms("rpc.txn"),
            "rpc.txn_commands_per_op": calls["rpc.txn"] / n,
            "rpc.origin_self_ms": self_ms("rpc.origin"),
            "engine.compile_ms": incl_ms("engine.compile"),
            "engine.plan_cache_hit_ratio": (
                delta["plan_cache_hits"] / lookups if lookups else 0.0),
            "analysis.analyze_ms": incl_ms("analysis.analyze"),
            "pathfinder.lifted_ms": self_ms("pathfinder.lifted"),
            "engine.lifted_ratio": (plans["lifted"] / sum(plans.values())
                                    if plans else 0.0),
            "session.self_ms": self_ms("session.execute"),
            "xdm.index_builds": per_op("index_builds"),
            "xdm.index_patches": per_op("index_patches"),
            "xdm.reencodes_subtree": per_op("reencodes_subtree"),
            "xdm.reencodes_full": per_op("reencodes_full"),
            "xquf.apply_ms": incl_ms("xquf.apply"),
            "search.slca_ms": incl_ms("search.slca"),
            "search.postings_patched": per_op("postings_patched"),
            "search.term_index_builds": per_op("term_index_builds"),
            "xml.register_ms": statistics.median(self.register_ms),
            "xml.parse_mb_per_s": (self.register_bytes / 1e6
                                   / (sum(self.register_ms) / 1e3)),
            "gc.pause_ms_per_op": incl_ms(GC),
            "gc.gen2_collections_per_op": gen2 / n,
            "trace.overhead_pct": self.overhead_pct(traced, untraced),
            "trace.self_sum_ratio": self_sum / walls,
            "trace.unattributed_ms": self_ms(OP),
        }
        other = 0
        for key, count in delta.items():
            if key.startswith("fallback:"):
                code = key.split(":", 1)[1]
                if code in FALLBACK_CODES:
                    metrics[f"engine.fallbacks.{code}"] = count / ops
                else:
                    other += count
        for code in FALLBACK_CODES:
            metrics.setdefault(f"engine.fallbacks.{code}", 0.0)
        metrics["engine.fallbacks.other"] = other / ops
        values, _ = self.end_to_end(untraced)
        for name, _, _ in NETWORK_END_TO_END:
            metrics[f"e2e.{name}"] = values[name]
        from workloads import XmarkLocal
        columns = {"lifted_ms": getattr(self.workload, "lifted_ms", {}),
                   "interp_ms": getattr(self.workload, "interp_ms", {})}
        for name, *_ in shape_metrics(XmarkLocal.SUITE):
            _, shape, column = name.split(".")
            series = columns[column].get(shape)
            metrics[name] = statistics.median(series) if series else 0.0
        notes = {}
        if calls["net.exchange"]:
            notes["net.wait_ms"] = (
                f"{own['net.exchange'] * 1e3 / calls['net.exchange']:.2f} "
                f"ms per exchange over {calls['net.exchange']} exchanges")
        notes["trace.overhead_pct"] = \
            f"{len(traced)} traced vs {len(untraced)} untraced ops"
        notes["trace.self_sum_ratio"] = \
            f"per op from {min(ratios):.4f} to {max(ratios):.4f}"
        return metrics, notes, breakdown

    @staticmethod
    def overhead_pct(traced: list[Record], untraced: list[Record]) -> float:
        """Per-kind median wall of traced vs untraced operations,
        weighted by how many operations of each kind ran."""
        cost = base = 0.0
        for kind in ("read", "write"):
            on = [r.wall for r in traced if r.kind == kind]
            off = [r.wall for r in untraced if r.kind == kind]
            if on and off:
                weight = len(on) + len(off)
                cost += weight * statistics.median(on)
                base += weight * statistics.median(off)
        return (cost / base - 1.0) * 100.0 if base else 0.0


# ---------------------------------------------------------------------------
# Output

def units() -> dict[str, str]:
    from workloads import XmarkLocal
    table = {name: unit for name, unit, _ in END_TO_END + NETWORK_END_TO_END}
    for name, unit, *_ in PER_LAYER + shape_metrics(XmarkLocal.SUITE):
        table[name] = unit
    return table


def print_table(title: str, values: dict, notes: dict) -> None:
    unit_of = units()
    print(title)
    for name, value in values.items():
        print(f"  {name:<36} {value:>13.4f} {unit_of[name]:<9} "
              f"{notes.get(name, '')}")


def print_layers(metrics: dict, notes: dict, breakdown: dict) -> None:
    """Per-layer metrics with the layer map, the shape table, the
    self-time breakdown and the findings left unfixed."""
    print("per layer (means per operation of the traced half): "
          "metric value unit  <- wrapped call | moves | on workload")
    for name, unit, _, source, moves, workload in PER_LAYER:
        print(f"  {name:<36} {metrics[name]:>13.4f} {unit:<9} <- {source} "
              f"| {moves} | {workload}  {notes.get(name, '')}")
    from workloads import XmarkLocal
    shapes = [(shape, metrics[f"shape.{shape}.lifted_ms"],
               metrics[f"shape.{shape}.interp_ms"])
              for shape in XmarkLocal.SUITE]
    if any(lifted for _, lifted, _ in shapes):
        print("per shape, median ms: lifted core vs tree interpreter")
        for shape, lifted, interp in shapes:
            print(f"  {shape:<24} {lifted:>9.3f} {interp:>9.3f}  "
                  f"{'lifted slower' if lifted > interp else ''}")
    for kind, names in sorted(breakdown.items()):
        total = sum(names.values())
        print(f"self time of a {kind}, ms (sums to {total:.3f}):")
        for name, value in sorted(names.items(), key=lambda x: -x[1]):
            print(f"  {name:<24} {value:>11.3f} {value / total:>7.1%}")
    print("findings left unfixed:")
    for finding in FINDINGS:
        print(f"  - {finding}")


def run_one(args) -> int:
    load_program()
    run = Run(args.workload, args.seed, args.seconds, args.trace == 1)
    try:
        run.import_seconds = time.perf_counter() - STARTED
        run.set_up()
        run.measure()
        records = run.records
        failed = sum(1 for record in records if record.error)
        print(f"perfbench: workload {args.workload}, seed {args.seed}, "
              f"{run.elapsed:.1f} s measured, closed loop with one client "
              f"thread; {run.workload_class.setting}")
        untraced = [record for record in records if not record.traced]
        values, notes = run.end_to_end(untraced)
        print_table(f"end to end ({len(untraced)} untraced operations):",
                    values, notes)
        if run.tracer is None:
            metrics = {name: values[name] for name, _, _ in END_TO_END}
        else:
            metrics, layer_notes, breakdown = run.per_layer()
            print_layers(metrics, layer_notes, breakdown)
    finally:
        run.close()
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units()[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with "
                             f"code {completed.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
