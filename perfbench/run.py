"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload global_ttl6 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Every timing is scaled to a reference machine speed
(see ``speed.py``).  The lines before it are diagnostics: ``machine``
(reference-kernel speed and load average at start and end, and a summary
of the speed readings taken through the run), ``report``
(the workload's metrics under their own names, with unit and direction,
including ``failed_frac``) and, in a traced run, ``layers`` (self time per
layer and per call, the dominant-layer check and the tracing overhead).
A traced run also writes its spans to ``.perfbench/`` in the repository.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workload's latency operation, the call timed as its structure
#: discovery, the call timed as its message passing, and its dominant span
#: with the share of the traced operations it is expected to take.
PROFILE = {
    "global_ttl6": ("pass", "discovery.probe", "plan.sweep", ("plan.sweep", 0.80)),
    "churn_ttl6": ("read", "analysis.refresh", "batched.local", ("analysis.refresh", 0.60)),
    "gossip_chord": ("replicate", "analysis.probe", "quality.view", ("gossip.round", 0.70)),
}
SELF_LAYERS = ("discovery", "analysis", "batched", "plan", "quality", "network",
               "events", "gossip", "bench")


def machine_reading() -> dict:
    from speed import reference_ms

    return {"reference_ms": reference_ms(), "loadavg": list(os.getloadavg())}


def timed_ops(rec) -> list:
    """``(kind, seconds at reference speed, traced)`` per operation."""
    seconds = rec.speed.scaled([pieces for _, pieces, _ in rec.ops])
    return [(kind, s, traced) for (kind, _, traced), s in zip(rec.ops, seconds)]


def unscaled(pieces) -> float:
    return sum(end - start for start, end in pieces)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself for one
    sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def quality(rec) -> dict:
    tp, fp, fn, tn = rec.confusion
    total = tp + fp + fn + tn
    return {
        "accuracy": (tp + tn) / total if total else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "false_flag_rate": fp / (fp + tn) if fp + tn else 0.0,
        "converged_frac": rec.converged_lanes / rec.lanes if rec.lanes else 0.0,
    }


def end_to_end(workload: str, rec) -> tuple:
    """The end-to-end metrics of ``BENCHMARK.json`` and the workload's report
    under its own metric names."""
    latency_kind = PROFILE[workload][0]
    ops = timed_ops(rec)
    latency = [s for kind, s, _ in ops if kind == latency_kind]
    ops_per_s = len(ops) / sum(s for _, s, _ in ops)
    setup_s = rec.speed.scaled(rec.setups)
    raw_latency = [unscaled(pieces) for kind, pieces, _ in rec.ops if kind == latency_kind]
    scores = quality(rec)
    rounds = statistics.fmean(rec.rounds)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
        "accuracy": (scores["accuracy"], "ratio"),
        "recall": (scores["recall"], "ratio"),
        "false_flag_rate": (scores["false_flag_rate"], "ratio"),
        "converged_frac": (scores["converged_frac"], "ratio"),
        "rounds": (rounds, "count"),
        "peak_rss_mb": (rec.peak_rss_mb, "MB"),
    }
    report = {
        "setup_s": (metrics["setup_s"][0], "s", "lower"),
        "accuracy": (scores["accuracy"], "ratio", "higher"),
        "recall": (scores["recall"], "ratio", "higher"),
        "false_flag_rate": (scores["false_flag_rate"], "ratio", "lower"),
        "converged_frac": (scores["converged_frac"], "ratio", "higher"),
        "peak_rss_mb": (rec.peak_rss_mb, "MB", "lower"),
        "failed_frac": (rec.failed / rec.attempted, "ratio", "lower"),
    }
    if workload == "global_ttl6":
        report["assess_s"] = (statistics.median(latency), "s", "lower")
    elif workload == "churn_ttl6":
        report["view_p50_ms"] = (metrics["latency_p50_ms"][0], "ms", "lower")
        report["view_p90_ms"] = (percentile(latency, 90) * 1e3, "ms", "lower")
        report["ops_per_s"] = (ops_per_s, "1/s", "higher")
    else:
        report["converge_s"] = (statistics.median(latency), "s", "lower")
        report["rounds"] = (rounds, "count", "lower")
        useful = rec.counts.get("gossip.useful_deliveries", 0)
        report["msgs_per_delivery"] = (
            rec.counts.get("gossip.messages_sent", 0) / useful if useful else 0.0,
            "ratio", "lower")
    report = {name: {"value": v, "unit": u, "better": b}
              for name, (v, u, b) in sorted(report.items())}
    report["samples"] = {"latency": len(latency), "setup": len(setup_s),
                         "ops": len(ops),
                         "latency_ms": [round(s * 1e3, 3) for s in latency]}
    # The same timings before scaling to reference speed.
    report["unscaled"] = {
        "setup_s": statistics.median(unscaled(pieces) for pieces in rec.setups),
        "latency_p50_ms": statistics.median(raw_latency) * 1e3,
        "latency_ms": [round(s * 1e3, 3) for s in raw_latency]}
    report["checks"] = rec.checks
    return metrics, report


def per_layer(workload: str, rec) -> tuple:
    """The per-layer metrics of ``BENCHMARK.json`` and the ``layers``
    diagnostic."""
    from tracing import layer_breakdown, span_cost_s

    latency_kind, probe_call, sweep_call, (dominant, floor) = PROFILE[workload]
    breakdown = layer_breakdown(rec.tracer.spans)
    interval = breakdown["interval_s"]

    def share(seconds: float) -> float:
        return 100.0 * seconds / interval if interval else 0.0

    calls = {name: rec.speed.scaled([[span] for span in spans])
             for name, spans in rec.calls.items()}
    probe = calls[probe_call]
    sweep = calls[sweep_call]
    counts = rec.counts
    full = counts.get("analysis.full_refreshes", 0)
    partial = counts.get("analysis.partial_refreshes", 0)
    sent = counts.get("gossip.messages_sent", 0)
    metrics = {
        "generators.build_s": (statistics.median(calls["generators.build"]), "s"),
        "structures.ms_p50": (percentile(probe, 50) * 1e3, "ms"),
        "structures.ms_p90": (percentile(probe, 90) * 1e3, "ms"),
        "sweep.ms_p50": (percentile(sweep, 50) * 1e3, "ms"),
        "sweep.ms_p90": (percentile(sweep, 90) * 1e3, "ms"),
        "discovery.structures": (counts.get("discovery.structures", 0), "count"),
        "analysis.partial_refreshes": (partial, "count"),
        "analysis.full_refreshes": (full, "count"),
        "analysis.partial_ratio": (partial / (partial + full) if partial + full else 0.0,
                                   "ratio"),
        "batched.edge_rows": (counts.get("batched.edge_rows", 0), "count"),
        "plan.rounds_p50": (counts.get("plan.rounds_p50", 0), "count"),
        "plan.converged_lanes": (rec.converged_lanes, "count"),
        "gossip.messages_sent": (sent, "count"),
        "gossip.duplicates_dropped": (counts.get("gossip.duplicates_dropped", 0), "count"),
        "gossip.deliveries_buffered": (counts.get("gossip.deliveries_buffered", 0),
                                       "count"),
        "gossip.useful_ratio": (counts.get("gossip.useful_deliveries", 0) / sent
                                if sent else 0.0,
                                "ratio"),
    }
    for layer in SELF_LAYERS:
        metrics[f"self_pct.{layer}"] = (share(breakdown["layers"].get(layer, 0.0)), "%")
    metrics["trace.coverage_pct"] = (100.0 - metrics["self_pct.bench"][0], "%")
    # Traced and untraced operations are different operations, so their
    # medians differ by sampling as much as by tracing; the metric is the
    # measured cost of the spans each traced operation recorded instead.
    ops = timed_ops(rec)
    traced = [s for kind, s, t in ops if kind == latency_kind and t]
    plain = [s for kind, s, t in ops if kind == latency_kind and not t]
    difference = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    span_cost = span_cost_s()
    op_spans = [span for span in rec.tracer.spans if span["op"] is not None]
    traced_ops = sum(t for _, _, t in ops)
    overhead = 100.0 * span_cost * len(op_spans) / interval if interval else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    dominant_share = share(breakdown["names"].get(dominant, 0.0)) / 100.0
    layers = {
        "interval_s": interval,
        "self_s": breakdown["layers"],
        "self_s_by_call": breakdown["names"],
        "call_ms_p50": {name: percentile(v, 50) * 1e3 for name, v in sorted(calls.items())},
        "call_count": {name: len(v) for name, v in sorted(calls.items())},
        "dominant": {"span": dominant, "share": dominant_share, "floor": floor,
                     "holds": dominant_share >= floor},
        "overhead": {"traced_ms_p50": statistics.median(traced) * 1e3,
                     "untraced_ms_p50": statistics.median(plain) * 1e3,
                     "traced_minus_untraced_pct": difference,
                     "span_cost_us": span_cost * 1e6,
                     "spans_per_op": len(op_spans) / traced_ops,
                     "pct": overhead},
    }
    return metrics, layers


def write_trace(workload: str, seed: int, rec, layers: dict) -> Path:
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "spans": rec.tracer.spans, "counts": rec.counts,
                                "layers": layers}))
    return path


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run one workload in this process; returns ``(result, diagnostics)``."""
    from workloads import SCALES, WORKLOADS, Recorder

    before = machine_reading()
    rec = Recorder(trace)
    WORKLOADS[workload](rec, seed, seconds, SCALES[scale])
    diagnostics = {"machine": {"start": before, "end": machine_reading(),
                               "speed": rec.speed.summary()}}
    if trace:
        metrics, layers = per_layer(workload, rec)
        diagnostics["layers"] = layers
        diagnostics["trace_file"] = str(write_trace(workload, seed, rec, layers)
                                        .relative_to(ROOT))
    else:
        metrics, diagnostics["report"] = end_to_end(workload, rec)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, diagnostics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILE))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from speed import pin_to_one_cpu

    pin_to_one_cpu()
    result, diagnostics = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale)
    for name, value in diagnostics.items():
        print(json.dumps({name: value}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
