#!/usr/bin/env python3
"""End-to-end benchmark of the dnsembed CLI: `run` and `serve`, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the `dnsembed` CLI of the source tree that holds this file with the
tree's own CMake project into .bench_build/ (only the CLI target), makes its
inputs from --seed under .bench_work/, measures for --seconds, checks the
program's outputs and prints one JSON object as the last line of stdout, with
the metrics BENCHMARK.json declares:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (the operation each one times):
  run    `dnsembed run` into a fresh workdir, single process, at the CLI
         defaults but for PIPELINE_ARGS: one operation is one whole pipeline
         (trace -> behavior -> embed -> labels -> report). A benchmark run
         times PIPELINE_TRACES traces made from --seed in turn, round after
         round.
  serve  `dnsembed serve` over a pipe, at its CLI defaults but for the index
         size. One operation is one burst of SERVE_BURST requests written at
         once, timed until the last answer arrives; the next burst follows
         (a closed loop of one client with a burst in flight). The window
         cycles through SERVE_BURSTS fixed bursts, whose requests are drawn
         independently from the queries of a simulated campus trace. The
         daemon indexes the embedding rows that answer 95% of the trace's
         queries for embedded domains; the rest reach the SVM fallback, and
         names without a row are unknown. The CLI reads requests on one
         thread, so each fallback request is scored alone, after the batch
         deadline.

Every pipeline report must be byte-identical to the first one on the same
trace, whose combined AUC must reach MIN_COMBINED_AUC. Every serve
answer must match the one the daemon gave for the same name before the
timed window, and those must agree with the embedding rows and with the batch
`dnsembed score`.

--trace 0 prints the end-to-end metrics: latency of one operation and set-up
time. A shared 4-vCPU KVM guest ran a CPU up to ~1.7x slower for seconds at
a time, and a run's median followed the share of such seconds in its window.
So every timed process runs on the CPU that is fastest just before it starts
(see cpus_by_speed), and latency is the time of each repeated operation at
its fastest repetition, averaged over the operations: for run, over the
traces; for serve, over the fixed bursts. Set-up is the median of several
daemon start-ups (time to the first answer) for serve, and of several
`run --resume` no-ops over a finished reference workdir for run.

--trace 1 runs both layer profiles on every workload, so each per-layer
metric is measured every time: pipeline runs with --metrics-out (stage
spans, LINE and projection counters; wall, CPU, peak RSS and artifact bytes
from outside), and serve bursts made of one kind of request at a time (index
hits, fallbacks, unknown names) plus reload round trips and the daemon's
peak RSS. Peak RSS is a layer metric because the pipeline's follows the
trace: 217 to 289 MB over ten seeds.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_ROOT = ROOT / ".bench_work"

# LINE SGD is bit-identical at any thread count. On a host that lends a few
# shared cores, one LINE thread per core saved about a tenth of the wall time
# of a run and doubled its CPU time, and that wall time followed how many
# cores the host lent at the moment; one thread measures the program. 300k
# LINE samples (the CLI default is 2M) keep a run near 3.3 s, so that a window
# holds three or four rounds over the traces.
PIPELINE_ARGS = ["--samples", "300000", "--line-threads", "1"]
# Traces a benchmark run times in turn: the work of one trace differs from
# seed to seed by up to ~15%, mostly in the report stage's SVM and X-Means.
PIPELINE_TRACES = 3
# A floor that catches a broken model; at these settings the reports of 20
# seeds all scored 0.89 or more.
MIN_COMBINED_AUC = 0.8
RESUME_REPEATS = 15

# Serving artifacts come from `simulate`, `embed` and `train` at their CLI
# defaults, except for fewer LINE samples: the daemon's work depends on the
# row count and dimension, which the sample count does not change.
SERVE_EMBED_ARGS = ["--samples", "500000"]
# Requests written at once: a resolver front end forwarding the queries that
# arrived together. 256 short lines fit a pipe buffer, so a burst is one write.
SERVE_BURST = 256
# Fixed bursts a window cycles through: 64k requests, so that the drawn share
# of fallbacks strays by about 2% from the trace's.
SERVE_BURSTS = 256
# The index is sized like a cache, by hit ratio: it holds the shortest prefix
# of embedding rows that answers this share of the queries for embedded
# domains. The rest reach the SVM fallback.
SERVE_INDEX_HIT_RATIO = 0.95
SERVE_STARTS = 25
SERVE_RELOADS = 3
SERVE_SCORE_SAMPLE = 40  # domains cross-checked against `dnsembed score`
SOURCES = ("index", "batched", "unknown")

WORKLOADS = ("run", "serve")
STAGES = ("trace", "behavior", "embed", "labels", "report")


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build() -> Path:
    """Build the dnsembed CLI from this tree's sources; return its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a dnsembed source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "dnsembed_cli", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("building dnsembed failed")
    exe = BUILD_DIR / "tools" / "dnsembed"
    if not exe.is_file():
        raise BenchError(f"no CLI binary at {exe}")
    return exe


# -------------------------------------------------------------- processes

@dataclass
class Finished:
    rc: int
    wall: float
    cpu: float
    maxrss_kb: int
    out: str
    err: str


LIVE: list[subprocess.Popen] = []


def spawn(argv: list[str], cpu: int | None = None, **kwargs) -> subprocess.Popen:
    """Start a child in its own process group, so stop_all also reaches
    anything it forks; with cpu, the child and its threads run on it alone."""
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
    proc = subprocess.Popen(argv, start_new_session=True, preexec_fn=pin, **kwargs)
    LIVE.append(proc)
    return proc


def cpus_by_speed() -> list[int]:
    """This process's CPUs, fastest first. A CPU of a shared 4-vCPU KVM guest
    ran a fixed loop up to ~1.7x slower than the others for seconds to
    minutes, so a timed operation goes to the CPU that ran the loop fastest
    just before it. (A pipeline run's short parallel sections then share
    that CPU: `run` measures the pipeline on one core.)"""
    own = os.sched_getaffinity(0)
    best = {}
    for cpu in sorted(own):
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(loop_seconds() for _ in range(3))
    os.sched_setaffinity(0, own)
    return sorted(best, key=best.get)


def loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


def reap(proc: subprocess.Popen) -> tuple[int, float, int]:
    """Wait for proc; return (exit code, CPU seconds, peak RSS KiB) of its tree."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def stop_all() -> None:
    for proc in list(LIVE):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reap(proc)


def cli(exe: Path, args: list[str], workdir: Path, cpu: int | None = None) -> Finished:
    """Run one CLI command to completion, timed and measured from outside."""
    out_path, err_path = workdir / "cmd.out", workdir / "cmd.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = spawn([str(exe), *args], cpu, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        rc, cpu, maxrss = reap(proc)
        wall = time.perf_counter() - start
    return Finished(rc, wall, cpu, maxrss, out_path.read_text(errors="replace"),
                    err_path.read_text(errors="replace"))


def must(result: Finished, what: str) -> Finished:
    if result.rc != 0:
        raise BenchError(f"{what} exited {result.rc}: {result.err.strip()[-400:]}")
    return result


def read_metrics(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def hist_sum(metrics: dict, name: str) -> float:
    return float(metrics.get("histograms", {}).get(name, {}).get("sum", 0.0))


def counter(metrics: dict, name: str) -> float:
    return float(metrics.get("counters", {}).get(name, 0))


# ---------------------------------------------------------------- pipeline

class Pipeline:
    """`dnsembed run` on one seeded campus trace. The first run that finishes
    is the reference: every run must reproduce its report."""

    def __init__(self, exe: Path, work: Path, seed: int):
        self.exe, self.work, self.seed = exe, work, seed
        self.reference_dir: Path | None = None
        self.reference = ""
        self.sound = False
        self.count = 0

    def _run(self, workdir: Path, extra: list[str], metrics: Path | None = None,
             cpu: int | None = None) -> Finished:
        argv = ["run", "--workdir", str(workdir), *PIPELINE_ARGS, "--seed", str(self.seed),
                *extra]
        if metrics is not None:
            argv += ["--metrics-out", str(metrics)]
        return cli(self.exe, argv, self.work, cpu)

    def _keep_reference(self, workdir: Path) -> None:
        self.reference_dir = workdir
        self.reference = (workdir / "report.md").read_text()
        auc = combined_auc(self.reference)
        self.sound = auc is not None and auc >= MIN_COMBINED_AUC
        if not self.sound:
            log(f"reference report has combined AUC {auc}, below {MIN_COMBINED_AUC}")

    def setup_samples(self, count: int) -> list[float]:
        """`--resume` no-ops over the finished reference workdir: start-up and
        artifact validation alone."""
        if self.reference_dir is None:
            raise BenchError("no pipeline run finished")
        samples, cpu = [], cpus_by_speed()[0]
        for _ in range(count):
            result = must(self._run(self.reference_dir, ["--resume"], cpu=cpu), "run --resume")
            if "5/5 stages resumed" not in result.out:
                raise BenchError("run --resume recomputed a stage of a finished workdir")
            samples.append(result.wall)
        return samples

    def op(self, traced: bool) -> tuple[Finished, bool, dict]:
        """One timed pipeline run into a fresh workdir. Returns the result,
        whether its report is byte-identical to the reference and, if traced,
        its layer metrics."""
        self.count += 1
        workdir = self.work / f"op-{self.seed}-{self.count}"
        metrics_path = self.work / "run-metrics.json" if traced else None
        result = self._run(workdir, [], metrics_path, cpus_by_speed()[0])
        report_path = workdir / "report.md"
        done = result.rc == 0 and report_path.is_file()
        if done and self.reference_dir is None:
            self._keep_reference(workdir)
        ok = done and report_path.read_text() == self.reference
        layers = {}
        if traced and result.rc == 0:
            layers = pipeline_layers(read_metrics(metrics_path), result, workdir)
        if workdir != self.reference_dir:
            shutil.rmtree(workdir, ignore_errors=True)
        return result, ok, layers


def combined_auc(report: str) -> float | None:
    for line in report.splitlines():
        if line.startswith("| **combined** |"):
            try:
                return float(line.split("|")[2].strip().strip("*"))
            except ValueError:
                return None
    return None


def pipeline_layers(metrics: dict, result: Finished, workdir: Path) -> dict:
    stage = {s: hist_sum(metrics, f"run.{s}.seconds") for s in STAGES}
    embed_s = stage["embed"]
    artifact_bytes = sum(p.stat().st_size for p in workdir.iterdir() if p.is_file())
    return {
        **{f"run_{s}_s": stage[s] for s in STAGES},
        "run_svm_s": hist_sum(metrics, "pipeline.svm.seconds"),
        "run_unattributed_s": result.wall - hist_sum(metrics, "run.pipeline.seconds"),
        "run_cpu_s": result.cpu,
        "run_peak_rss_mb": result.maxrss_kb / 1024,
        "line_samples_per_s": counter(metrics, "embed.line.samples") / embed_s if embed_s else 0.0,
        "projection_pairs": counter(metrics, "graph.projection.pairs"),
        "artifact_mb": artifact_bytes / 1e6,
    }


def run_pipeline_ops(pipes: list[Pipeline], seconds: float, traced: bool):
    """Rounds of one timed run per trace until the budget is spent (at least
    one round). Returns the run times of each trace."""
    walls: list[list[float]] = [[] for _ in pipes]
    failed, layer_rows = 0, []
    start = time.perf_counter()
    while True:
        for pipe, times in zip(pipes, walls):
            result, ok, layers = pipe.op(traced)
            times.append(result.wall)
            if not ok:
                failed += 1
                log(f"pipeline run failed (exit {result.rc}): {result.err.strip()[-300:]}")
            if layers:
                layer_rows.append(layers)
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls[0]) + 1) / len(walls[0]) > seconds:
            break
    return walls, failed, layer_rows


# ------------------------------------------------------------------- serve

class ServeInputs:
    """Serving artifacts made by the deployment CLI from one seeded campus
    trace, and every query of that trace: the population requests are
    drawn from."""

    def __init__(self, exe: Path, work: Path, seed: int):
        self.exe, self.work = exe, work
        d = work / "serve"
        d.mkdir(parents=True, exist_ok=True)
        trace, labels, names_csv = d / "trace.log", d / "labels.csv", d / "names.csv"
        self.embeddings, self.model = d / "emb.bin", d / "model.bin"
        must(cli(exe, ["simulate", "--out", str(trace), "--labels", str(labels),
                       "--seed", str(seed)], work), "simulate")
        must(cli(exe, ["embed", "--log", str(trace), "--out", str(self.embeddings),
                       *SERVE_EMBED_ARGS, "--seed", str(seed)], work), "embed")
        must(cli(exe, ["train", "--embeddings", str(self.embeddings), "--labels", str(labels),
                       "--out", str(self.model)], work), "train")
        # `cluster` lists every embedded domain, in embedding row order.
        must(cli(exe, ["cluster", "--embeddings", str(self.embeddings), "--out", str(names_csv),
                       "--kmin", "2", "--kmax", "4"], work), "cluster")
        self.names = [row.split(",")[0] for row in names_csv.read_text().splitlines()[1:] if row]
        self.row = {name: i for i, name in enumerate(self.names)}
        self.queries = trace_queries(trace)
        per_row = [0] * len(self.names)
        for query, n in Counter(self.queries).items():
            if (base := self.base_of(query)) is not None:
                per_row[self.row[base]] += n
        target, covered, self.index_limit = SERVE_INDEX_HIT_RATIO * sum(per_row), 0, 0
        while covered < target:
            covered += per_row[self.index_limit]
            self.index_limit += 1
        if not self.queries or not 0 < self.index_limit < len(self.names):
            raise BenchError("the simulated trace gave nothing to serve")
        self.expected: dict[str, tuple[str, str]] = {}  # name -> (source, score text)
        self.answer: dict[bytes, bytes] = {}  # request line -> checked answer line

    def argv(self, metrics: Path | None) -> list[str]:
        argv = [str(self.exe), "serve", "--embeddings", str(self.embeddings),
                "--model", str(self.model), "--index-limit", str(self.index_limit)]
        if metrics is not None:
            argv += ["--metrics-out", str(metrics)]
        return argv

    def base_of(self, query: str) -> str | None:
        """The embedded domain a query falls under: the longest label-aligned
        suffix that has a row."""
        labels = query.lower().split(".")
        for i in range(len(labels)):
            if (base := ".".join(labels[i:])) in self.row:
                return base
        return None

    def layer_of(self, query: str) -> tuple[str, str | None]:
        """The layer that must answer a query, and its embedded domain."""
        base = self.base_of(query)
        if base is None:
            return "unknown", None
        return ("index" if self.row[base] < self.index_limit else "batched"), base


def trace_queries(path: Path) -> list[str]:
    """The queried name of every entry of a DNS log."""
    with open(path) as log_file:
        return [fields[2] for fields in (line.split("\t", 3) for line in log_file)
                if len(fields) == 4]


def tighten_timer_slack() -> None:
    """The daemon inherits this process's timer slack. Linux lets a timed wait
    overrun by up to 50 us by default, by an amount that depends on other
    timers; at 1 us the fallback's batch-deadline wait ends on time."""
    try:
        ctypes.CDLL(None).prctl(29, 1000, 0, 0, 0)  # PR_SET_TIMERSLACK, 1 us
    except (OSError, AttributeError):
        pass


class Daemon:
    """One `dnsembed serve` process driven over its stdin/stdout pipes. Its
    reader thread and fallback scorer share one CPU: the reader waits while
    the scorer works."""

    def __init__(self, argv: list[str], work: Path, cpu: int):
        self.err = open(work / "serve.err", "wb")
        start = time.perf_counter()
        self.proc = spawn(argv, cpu, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=self.err)
        self.fd_in, self.fd_out = self.proc.stdin.fileno(), self.proc.stdout.fileno()
        os.set_blocking(self.fd_in, False)
        self.buf = bytearray()
        # Ready = the first request answered (artifacts loaded, index built).
        probe = self.exchange([b"ready-probe.example"], stall_s=60.0)
        if not probe:
            raise BenchError(f"serve did not start: {(work / 'serve.err').read_text()[-400:]}")
        self.ready_s = time.perf_counter() - start

    def peak_rss_kb(self) -> int:
        """High-water RSS of the daemon's own image. (wait4 would report at
        least this process's RSS: the child's image before exec counts.)"""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def exchange(self, lines: list[bytes], stall_s: float = 10.0) -> list[bytes]:
        """Write every line and return the answers, stopping early if the
        daemon exits or stays silent for stall_s."""
        out = bytearray(b"\n".join(lines) + b"\n")
        answers: list[bytes] = []
        last_progress = time.perf_counter()
        while len(answers) < len(lines):
            if out:
                try:
                    del out[: os.write(self.fd_in, out)]
                except BlockingIOError:
                    pass
            readable, _, _ = select.select([self.fd_out], [self.fd_in] if out else [], [], 0.05)
            if readable:
                data = os.read(self.fd_out, 1 << 16)
                if not data:
                    break
                self.buf += data
                if b"\n" in data:
                    *complete, rest = bytes(self.buf).split(b"\n")
                    answers.extend(complete)
                    self.buf = bytearray(rest)
                last_progress = time.perf_counter()
            elif time.perf_counter() - last_progress > stall_s:
                break
        return answers

    def close(self) -> tuple[int, float, int]:
        self.proc.stdin.close()  # end of input stops the daemon
        result = reap(self.proc)
        self.proc.stdout.close()
        self.err.close()
        return result


def parse_answer(line: bytes) -> tuple[str, str, str, str] | None:
    parts = line.decode(errors="replace").split("\t")
    return (parts[0], parts[1], parts[2], parts[3]) if len(parts) == 4 else None


def discover(daemon: Daemon, inputs: ServeInputs) -> bool:
    """Ask for every embedded domain and every queried name once and record
    the answers as the expected ones. Each must name its request, come from
    the layer its row puts it in, carry a verdict matching its score's sign,
    and a query must get the answer of the domain it falls under."""
    names = inputs.names + sorted(set(inputs.queries) - set(inputs.row))
    answers = daemon.exchange([n.encode() for n in names])
    if len(answers) != len(names):
        return False
    for name, answer in zip(names, answers):
        parsed = parse_answer(answer)
        if parsed is None or parsed[3] != name:
            return False
        score, verdict, source, _ = parsed
        expected_verdict = "unknown" if source == "unknown" else \
            ("malicious" if float(score) >= 0 else "benign")
        if verdict != expected_verdict:
            return False
        inputs.expected[name] = (source, score)
        inputs.answer[name.encode()] = answer
    for name in names:
        source, base = inputs.layer_of(name)
        if inputs.expected[name][0] != source or \
                (base is not None and inputs.expected[name] != inputs.expected[base]):
            log(f"serve answered {name} from {inputs.expected[name][0]}, expected {source}")
            return False
    return True


def score_parity(inputs: ServeInputs, rng: random.Random) -> bool:
    """Daemon scores agree with the batch CLI (`dnsembed score`) to the
    digits it prints, for indexed and batched domains alike."""
    limit = inputs.index_limit
    sample = rng.sample(inputs.names[:limit], min(limit, SERVE_SCORE_SAMPLE // 2)) + \
        rng.sample(inputs.names[limit:], min(len(inputs.names) - limit, SERVE_SCORE_SAMPLE // 2))
    result = cli(inputs.exe, ["score", "--embeddings", str(inputs.embeddings),
                              "--model", str(inputs.model), "--domains", ",".join(sample)],
                 inputs.work)
    if result.rc != 0:
        return False
    batch = {}
    for line in result.out.splitlines():
        fields = line.split()
        if len(fields) == 3:
            batch[fields[2]] = fields[0]
    return all(batch.get(name) == f"{float(inputs.expected[name][1]):+.4f}" for name in sample)


@dataclass
class Bursts:
    walls: list[list[float]]  # answer times of each fixed burst
    attempted: int
    failed: int

    def fastest_mean(self) -> float:
        return statistics.mean(min(w) for w in self.walls if w)


def run_bursts(daemon: Daemon, inputs: ServeInputs, pool: list[bytes], rng: random.Random,
               count: int, seconds: float) -> Bursts:
    """count bursts drawn from pool, sent in turn and over again until the
    budget is spent. Every answer must equal the one discovery checked for
    its request."""
    bursts = [rng.choices(pool, k=SERVE_BURST) for _ in range(count)]
    expected = [[inputs.answer[q] for q in lines] for lines in bursts]
    walls: list[list[float]] = [[] for _ in bursts]
    attempted, failed, i = 0, 0, 0
    start = time.perf_counter()
    while i < len(bursts) or time.perf_counter() - start < seconds:
        k = i % len(bursts)
        begin = time.perf_counter()
        answers = daemon.exchange(bursts[k])
        walls[k].append(time.perf_counter() - begin)
        attempted += SERVE_BURST
        failed += sum(a != e for a, e in zip(answers, expected[k]))
        failed += SERVE_BURST - len(answers)
        if len(answers) < SERVE_BURST:
            break
        i += 1
    return Bursts(walls, attempted, failed)


def reload_check(daemon: Daemon, inputs: ServeInputs) -> list[float]:
    """Reload the snapshot a few times between queries; every answer must stay
    the same. Returns the reload round trips (empty on any failure)."""
    limit = inputs.index_limit
    probe = [n.encode() for n in inputs.names[:20] + inputs.names[limit: limit + 20]]
    times = []
    for version in range(2, 2 + SERVE_RELOADS):
        start = time.perf_counter()
        answer = daemon.exchange([b"!reload"], stall_s=60.0)
        if answer != [f"ok reload version={version}".encode()]:
            return []
        times.append(time.perf_counter() - start)
        if daemon.exchange(probe) != [inputs.answer[n] for n in probe]:
            return []
    return times


def serve_session(inputs: ServeInputs, rng: random.Random, seconds: float,
                  starts: int, traced: bool) -> dict:
    """Start-up samples, discovery and parity checks, then the timed bursts:
    over the trace's queries or, traced, over one layer's queries at a time;
    then reloads."""
    own_cpus, order = os.sched_getaffinity(0), cpus_by_speed()
    # The daemon on the fastest CPU, this load generator on the next.
    os.sched_setaffinity(0, {order[min(1, len(order) - 1)]})
    ready, daemon = [], None
    for i in range(starts):
        daemon = Daemon(inputs.argv(None), inputs.work, order[0])
        ready.append(daemon.ready_s)
        if i + 1 < starts:
            daemon.close()
    try:
        if not (discover(daemon, inputs) and score_parity(inputs, rng)):
            raise BenchError("serve answers disagree with the artifacts or `dnsembed score`")
        queries = [query.encode() for query in inputs.queries]
        if traced:
            pools = {s: [q for q in queries if inputs.answer[q].split(b"\t")[2] == s.encode()]
                     for s in SOURCES}
            # Few bursts per layer: a burst of fallbacks waits out 256 deadlines.
            runs = {s: run_bursts(daemon, inputs, pools[s], rng, 16, seconds / len(SOURCES))
                    for s in SOURCES if pools[s]}
        else:
            runs = {"mixed": run_bursts(daemon, inputs, queries, rng, SERVE_BURSTS, seconds)}
        reload_s = reload_check(daemon, inputs)
        maxrss = daemon.peak_rss_kb()
    finally:
        rc, _, _ = daemon.close()
        os.sched_setaffinity(0, own_cpus)
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    return {
        "starts": ready, "runs": runs, "maxrss_kb": maxrss,
        "attempted": attempted, "failed": failed, "reload_s": reload_s,
        "correct": bool(reload_s) and rc == 0 and failed == 0
        and len(runs) == (len(SOURCES) if traced else 1),
    }


def serve_layers(session: dict) -> dict:
    """Per-request time of bursts made of one layer's requests only."""
    runs = session["runs"]

    def per_request_us(source: str) -> float:
        return runs[source].fastest_mean() / SERVE_BURST * 1e6 if source in runs else 0.0
    return {
        "serve_index_us": per_request_us("index"),
        "serve_batched_us": per_request_us("batched"),
        "serve_unknown_us": per_request_us("unknown"),
        "serve_reload_ms": statistics.median(session["reload_s"]) * 1e3
        if session["reload_s"] else 0.0,
        "serve_peak_rss_mb": session["maxrss_kb"] / 1024,
    }


# ---------------------------------------------------------------- workloads

def measure(workload: str, exe: Path, work: Path, seed: int, seconds: float, traced: bool) -> dict:
    # One stream per side, so both profiles see the same inputs for a seed.
    pipeline_rng, serve_rng = random.Random(f"pipeline-{seed}"), random.Random(f"serve-{seed}")
    pipes = [Pipeline(exe, work, pipeline_rng.randrange(1, 1_000_000))
             for _ in range(PIPELINE_TRACES)]
    serve_seed = serve_rng.randrange(1, 1_000_000)

    if not traced:
        if workload == "serve":
            inputs = ServeInputs(exe, work, serve_seed)
            s = serve_session(inputs, serve_rng, seconds, SERVE_STARTS, traced=False)
            return result(s["correct"], s["attempted"], s["failed"], {
                "latency_ms": s["runs"]["mixed"].fastest_mean() * 1e3,
                "setup_s": statistics.median(s["starts"]),
            })
        walls, failed, _ = run_pipeline_ops(pipes, seconds, False)
        setup = pipes[0].setup_samples(RESUME_REPEATS)
        return result(all(p.sound for p in pipes) and failed == 0, sum(map(len, walls)), failed, {
            "latency_ms": statistics.mean(min(w) for w in walls) * 1e3,
            "setup_s": statistics.median(setup),
        })

    # Layer profile: both sides, half of the budget each, no set-up samples.
    walls, failed, rows = run_pipeline_ops(pipes, seconds / 2, True)
    layers = {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}
    inputs = ServeInputs(exe, work, serve_seed)
    s = serve_session(inputs, serve_rng, max(3.0, seconds / 2), 1, traced=True)
    layers.update(serve_layers(s))
    return result(all(p.sound for p in pipes) and failed == 0 and s["correct"] and bool(rows),
                  sum(map(len, walls)) + s["attempted"], failed + s["failed"], layers)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    """The result line; metric names and units come from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    # A terminated benchmark still stops its children, in the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tighten_timer_slack()
    gc.disable()  # a collection pause would show up as request latency
    try:
        exe = build()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        out = measure(args.workload, exe, work, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
