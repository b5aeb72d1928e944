#!/usr/bin/env python3
"""Drive the real `dnsembed serve` daemon over its stdin/stdout pipes.

Usage: check_serve_pipe.py /path/to/dnsembed

Builds tiny artifacts (simulate -> embed -> train; cluster lists the
embedded domains in row order), starts `serve --index-limit N` with the
first half of the rows indexed, and checks:
 - every reply of a pipelined burst arrives while stdin stays open (replies
   held until EOF time out here), in request order, from the expected
   layer (index / batched / unknown), with a verdict matching its score;
 - index and fallback scores agree with the batch `dnsembed score` to the
   digits it prints;
 - after `!reload` (sent in a second burst, written only once the first
   burst is fully answered) every domain gets the same reply again;
 - end of input stops the daemon with exit status 0.
"""
import os
import select
import shutil
import subprocess
import sys
import tempfile
import time

REPLY_TIMEOUT_S = 60.0


def fail(message):
    print(f"check_serve_pipe: {message}", file=sys.stderr)
    sys.exit(1)


def run(exe, args, cwd):
    result = subprocess.run([exe, *args], cwd=cwd, capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"{args[0]} exited {result.returncode}: {result.stderr[-400:]}")
    return result.stdout


def exchange(proc, lines):
    """Write a burst without closing stdin and read exactly one reply per
    non-blank line."""
    out = b"".join(line.encode() + b"\n" for line in lines)
    want = sum(1 for line in lines if line.strip())
    replies, pending = [], b""
    deadline = time.monotonic() + REPLY_TIMEOUT_S
    fd_in, fd_out = proc.stdin.fileno(), proc.stdout.fileno()
    while len(replies) < want:
        left = deadline - time.monotonic()
        if left <= 0:
            fail(f"timed out with {len(replies)} of {want} replies (held until EOF?)")
        readable, writable, _ = select.select([fd_out], [fd_in] if out else [], [], left)
        if writable:
            try:
                out = out[os.write(fd_in, out):]
            except BlockingIOError:
                pass
        if readable:
            data = os.read(fd_out, 1 << 16)
            if not data:
                fail(f"daemon closed stdout after {len(replies)} of {want} replies")
            pending += data
            *complete, pending = pending.split(b"\n")
            replies.extend(line.decode() for line in complete)
    if len(replies) != want or pending:
        fail(f"got {len(replies)} replies and {pending!r} for {want} requests")
    return replies


def check_replies(requests, replies, layer_of):
    scores = {}
    for name, reply in zip(requests, replies):
        fields = reply.split("\t")
        if len(fields) != 4 or fields[3] != name:
            fail(f"reply out of order or malformed for {name}: {reply!r}")
        score, verdict, source, _ = fields
        if source != layer_of(name):
            fail(f"{name} answered from {source}, expected {layer_of(name)}")
        expected_verdict = "unknown" if source == "unknown" else \
            ("malicious" if float(score) >= 0 else "benign")
        if verdict != expected_verdict:
            fail(f"{name}: verdict {verdict} does not match score {score}")
        scores[name] = score
    return scores


def main():
    exe = os.path.abspath(sys.argv[1])
    work = tempfile.mkdtemp(prefix="dnsembed_serve_pipe_")
    proc = None
    try:
        run(exe, ["simulate", "--out", "t.log", "--labels", "l.csv", "--hosts", "40",
                  "--days", "1", "--sites", "150", "--families", "6"], work)
        run(exe, ["embed", "--log", "t.log", "--out", "e.emb", "--dim", "8",
                  "--samples", "100000"], work)
        run(exe, ["train", "--embeddings", "e.emb", "--labels", "l.csv", "--out", "m.svm"], work)
        run(exe, ["cluster", "--embeddings", "e.emb", "--out", "c.csv",
                  "--kmin", "2", "--kmax", "4"], work)
        with open(os.path.join(work, "c.csv")) as csv:
            names = [row.split(",")[0] for row in csv.read().splitlines()[1:] if row]
        if len(names) < 4:
            fail(f"only {len(names)} embedded domains")
        limit = len(names) // 2
        row = {name: i for i, name in enumerate(names)}
        unknown = ["never-seen-1.example", "never-seen-2.example"]

        def layer_of(name):
            if name not in row:
                return "unknown"
            return "index" if row[name] < limit else "batched"

        proc = subprocess.Popen(
            [exe, "serve", "--embeddings", "e.emb", "--model", "m.svm",
             "--index-limit", str(limit)],
            cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        os.set_blocking(proc.stdin.fileno(), False)

        # Burst 1: every embedded domain, with unknown names and a blank
        # line mixed in; stdin stays open until every reply has arrived.
        burst = names[:limit] + unknown[:1] + [""] + names[limit:] + unknown[1:]
        replies = exchange(proc, burst)
        requests = [line for line in burst if line]
        scores = check_replies(requests, replies, layer_of)

        # Index hits and fallbacks agree with the batch scorer.
        batch = {}
        for line in run(exe, ["score", "--embeddings", "e.emb", "--model", "m.svm",
                              "--domains", ",".join(names)], work).splitlines():
            fields = line.split()
            if len(fields) == 3:
                batch[fields[2]] = fields[0]
        for name in names:
            if batch.get(name) != f"{float(scores[name]):+.4f}":
                fail(f"{name}: daemon {scores[name]} vs score {batch.get(name)}")

        # Burst 2: reload, then the same domains must get the same replies.
        replies2 = exchange(proc, ["!reload"] + burst)
        if replies2[0] != "ok reload version=2":
            fail(f"unexpected reload reply {replies2[0]!r}")
        if replies2[1:] != replies:
            fail("replies changed across !reload")

        proc.stdin.close()
        if proc.wait(timeout=REPLY_TIMEOUT_S) != 0:
            fail(f"daemon exited {proc.returncode} at end of input")
        proc.stdout.close()
        print(f"check_serve_pipe: ok ({len(names)} domains, {limit} indexed)")
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
