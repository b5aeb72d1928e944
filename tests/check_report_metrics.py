#!/usr/bin/env python3
"""Assertions for the cli_report_metrics ctest case.

Usage: check_report_metrics.py metrics.json trace.json report.md

Verifies that `dnsembed report --metrics-out --trace-out` produced
 - metrics JSON with counters/gauges/histograms for every pipeline stage
   and one "streaming.day" record per simulated day, and
 - a Chrome trace whose spans cover pipeline stages down to the
   projection / LINE worker level, with children nested inside parents.
"""
import json
import sys


def fail(message):
    print(f"check_report_metrics: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    metrics_path, trace_path, report_path = sys.argv[1], sys.argv[2], sys.argv[3]
    metrics = json.load(open(metrics_path))
    trace = json.load(open(trace_path))

    for section in ("counters", "gauges", "histograms", "records"):
        if section not in metrics:
            fail(f"metrics JSON missing section '{section}'")

    expected_counters = [
        "graph.projection.pivots",
        "graph.projection.pairs",
        "graph.projection.edges",
        "embed.line.samples",
        "ml.svm.kernel_rows_filled",
        "ml.svm.scored_rows",
        "core.streaming.retrains",
        "core.streaming.retrain_skips",
    ]
    for name in expected_counters:
        if name not in metrics["counters"]:
            fail(f"missing counter '{name}'")
    if metrics["counters"]["graph.projection.pivots"] <= 0:
        fail("projection pivot counter did not count")

    expected_histograms = [
        "pipeline.run.seconds",
        "pipeline.trace.seconds",
        "pipeline.behavior.seconds",
        "pipeline.embed.seconds",
        "pipeline.labels.seconds",
        "pipeline.svm.seconds",
        "pipeline.streaming.seconds",
        "core.streaming.day.seconds",
        "graph.projection.pivot_degree",
    ]
    for name in expected_histograms:
        if name not in metrics["histograms"]:
            fail(f"missing histogram '{name}'")
        h = metrics["histograms"][name]
        if len(h["buckets"]) != len(h["bounds"]) + 1:
            fail(f"histogram '{name}' bucket/bound size mismatch")
        if sum(h["buckets"]) != h["count"]:
            fail(f"histogram '{name}' bucket sum != count")

    day_records = [r for r in metrics["records"] if r["name"] == "streaming.day"]
    if len(day_records) != 2:  # --days 2
        fail(f"expected 2 streaming.day records, got {len(day_records)}")
    for i, record in enumerate(day_records):
        if record["day"] != i:
            fail(f"streaming.day records out of order: {day_records}")
        for key in ("entries", "window_entries", "kept_domains", "labeled",
                    "scored", "alerts", "retrained", "skipped"):
            if key not in record:
                fail(f"streaming.day record missing field '{key}'")

    events = trace["traceEvents"]
    names = {event["name"] for event in events}
    expected_spans = [
        "pipeline.run",
        "pipeline.trace",
        "pipeline.behavior",
        "behavior.model",
        "behavior.project.query",
        "graph.projection.count",
        "pipeline.embed",
        "embed.line.train",
        "pipeline.svm",
        "ml.svm.train",
        "pipeline.streaming",
        "core.streaming.day",
    ]
    for name in expected_spans:
        if name not in names:
            fail(f"missing trace span '{name}'")

    # Nesting: every span opened on the main thread while pipeline.run was
    # live must fall inside its time range.
    run = next(e for e in events if e["name"] == "pipeline.run")
    run_end = run["ts"] + run["dur"]
    for name in ("pipeline.trace", "pipeline.behavior", "pipeline.embed"):
        child = next(e for e in events if e["name"] == name)
        if child["tid"] != run["tid"]:
            fail(f"span '{name}' not on the pipeline.run thread")
        if not (run["ts"] <= child["ts"] and child["ts"] + child["dur"] <= run_end + 0.001):
            fail(f"span '{name}' not nested inside pipeline.run")

    # LINE records one worker span per objective pass.
    worker_tids = {e["tid"] for e in events if e["name"].startswith("embed.line.worker")}
    if not worker_tids:
        fail("no LINE worker spans recorded")

    report = open(report_path).read()
    if "## Streaming detection" not in report:
        fail("report markdown missing streaming section")

    print(f"ok: {len(metrics['counters'])} counters, {len(metrics['histograms'])} "
          f"histograms, {len(day_records)} day records, {len(events)} trace events")


if __name__ == "__main__":
    main()
