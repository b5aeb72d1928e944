#!/usr/bin/env python3
"""Assertions for the cli_run_metrics ctest case.

Usage: check_run_metrics.py DNSEMBED

Pins the part of the `dnsembed run` interface that outside readers take
layer timings from. A run with --metrics-out must record one histogram per
run stage plus the SVM span, each observed at least once, count projected
pairs and k-means distances, and count exactly one LINE sample per SGD
step: three channels times two objectives times --samples. The same run's
--trace-out must hold the spans that split the graph build, artifact I/O
and clustering out of the stages. A renamed span would otherwise read as
zero seconds without failing anything.
A following `run --resume` over the same workdir must report all five
stages resumed, and its --trace-out must hold one artifact check span for
each artifact digest span of the first run. A last `run --resume` with
--kfold 4 in place of --kfold 3, a knob only the report stage reads, must
report four stages resumed. --line-threads stays in the options to show the
ignored flag is still accepted.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# The cli_crash_recovery sizes.
SAMPLES = 100000
OPTIONS = ["--hosts", "40", "--days", "2", "--sites", "150", "--families", "4",
           "--samples", str(SAMPLES), "--kfold", "3", "--line-threads", "4",
           "--log-level", "warn"]
HISTOGRAMS = [f"run.{stage}.seconds"
              for stage in ("pipeline", "trace", "behavior", "embed", "labels", "report")]
HISTOGRAMS.append("pipeline.svm.seconds")
COUNTERS = ["graph.projection.pairs", "ml.kmeans.distances"]
# Graph build, artifact I/O and clustering (DESIGN §7).
SPANS = ["trace.graph_build", "graph.bipartite.finalize", "graph.bipartite.save",
         "graph.bipartite.load", "behavior.restrict", "graph.csr.save", "run.report.load",
         "ml.xmeans", "run.artifact.digest"]
# Three similarity channels, each trained for both LINE objectives.
LINE_SAMPLES = 3 * 2 * SAMPLES


def fail(message):
    print(f"check_run_metrics: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "run"
        metrics_path = Path(tmp) / "metrics.json"
        trace_path = Path(tmp) / "trace.json"
        subprocess.run([cli, "run", "--workdir", str(workdir),
                        "--metrics-out", str(metrics_path), "--trace-out", str(trace_path),
                        *OPTIONS],
                       check=True, stdout=subprocess.DEVNULL)
        metrics = json.loads(metrics_path.read_text())
        events = json.loads(trace_path.read_text())["traceEvents"]
        spans = {event["name"] for event in events}
        digests = sum(1 for event in events if event["name"] == "run.artifact.digest")
        for name in SPANS:
            if name not in spans:
                fail(f"trace span '{name}' missing")
        for name in HISTOGRAMS:
            count = metrics.get("histograms", {}).get(name, {}).get("count", 0)
            if count < 1:
                fail(f"histogram '{name}' missing or empty (count {count})")
        for name in COUNTERS:
            value = metrics.get("counters", {}).get(name, 0)
            if value <= 0:
                fail(f"counter '{name}' missing or zero ({value})")
        line_samples = metrics.get("counters", {}).get("embed.line.samples", 0)
        if line_samples != LINE_SAMPLES:
            fail(f"counter 'embed.line.samples' is {line_samples}, expected {LINE_SAMPLES}")

        resume_trace = Path(tmp) / "resume_trace.json"
        resumed = subprocess.run([cli, "run", "--workdir", str(workdir), "--resume",
                                  "--trace-out", str(resume_trace), *OPTIONS],
                                 check=True, capture_output=True, text=True)
        if "5/5 stages resumed" not in resumed.stdout:
            fail(f"`run --resume` did not resume every stage:\n{resumed.stdout}")
        checks = sum(1 for event in json.loads(resume_trace.read_text())["traceEvents"]
                     if event["name"] == "run.artifact.check")
        if checks != digests:
            fail(f"`run --resume` traced {checks} artifact checks, expected one per "
                 f"artifact digest of the first run ({digests})")

        # The parser takes an option's first value, so replace --kfold's
        # value rather than appending a second --kfold.
        kfold4 = list(OPTIONS)
        kfold4[kfold4.index("--kfold") + 1] = "4"
        rekeyed = subprocess.run([cli, "run", "--workdir", str(workdir), "--resume", *kfold4],
                                 check=True, capture_output=True, text=True)
        if "4/5 stages resumed" not in rekeyed.stdout:
            fail(f"`run --resume --kfold 4` did not resume exactly the four stages "
                 f"before the report:\n{rekeyed.stdout}")
    print(f"ok: {len(HISTOGRAMS)} histograms, {len(COUNTERS) + 1} counters, "
          f"{len(SPANS)} spans, resume 5/5 with {checks} artifact checks, "
          f"resume 4/5 at --kfold 4")


if __name__ == "__main__":
    main()
