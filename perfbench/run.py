#!/usr/bin/env python3
"""The repository benchmark: one workload per run, checked and measured.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the Mnemosyne libraries, mn_kvd and the driver from this checkout
into .bench_build/, runs one workload in a private scratch directory
under .bench_build/runs/ (removed at the end), checks every output
against the benchmark's own model, and prints one JSON object as the
last line of stdout.  With --trace 0 it holds the end-to-end metrics;
with --trace 1 the program runs with MNEMOSYNE_STATS=1 and the line
holds the per-layer metrics, and a Chrome trace of the run's spans is
written under .bench_build/traces/.  See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
MN_KVD = os.path.join(BUILD, "mnemosyne_tools", "mn_kvd")

# What the build needs from the program's sources.
SOURCES = ["src/CMakeLists.txt", "src/runtime/runtime.h",
           "src/ds/phash_table.h", "src/server/kv_protocol.h",
           "tools/CMakeLists.txt", "tools/mn_kvd.cc"]

# mn_kvd's shipped defaults apart from what each workload names.
KV_SERVERS = {
    "kv-write-zipf-2000ns": ("write-zipf",
                             ["--io", "1", "--workers", "2",
                              "--scm-latency-ns", "2000"]),
    "kv-read-uniform-0ns": ("read-uniform",
                            ["--io", "1", "--workers", "2"]),
}
# txn-hash-150ns is run by hand only: BENCHMARK.json leaves it out because
# its latencies spread past the bounds between runs on a shared host
# (README, "Workloads").
WORKLOADS = ["txn-hash-150ns"] + list(KV_SERVERS)

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s",
    "write_p50_us": "us", "write_p95_us": "us",
    "read_p50_us": "us", "read_p95_us": "us",
    "restart_s": "s", "write_amp": "B/B",
}

PER_LAYER = {
    "scm.fences_per_write": "count", "scm.flushes_per_write": "count",
    "scm.streamed_bytes_per_write": "B", "scm.device_us_per_write": "us",
    "log.appends_per_commit": "count",
    "log.append_words_per_commit": "words",
    "log.append_stalls_per_1k_commits": "count",
    "log.append_stall_p99_us": "us",
    "mtm.commit_p50_us": "us", "mtm.commit_p99_us": "us",
    "mtm.aborts_per_commit": "count", "mtm.redo_words_per_commit": "words",
    "mtm.epoch_batch_p50": "count", "mtm.epoch_wait_p50_us": "us",
    "mtm.epoch_wait_p99_us": "us", "mtm.seals_per_commit": "count",
    "mtm.trunc_lines_flushed_per_commit": "count",
    "mtm.trunc_words_deduped_per_commit": "words",
    "heap.pmallocs_per_write": "count", "heap.pfrees_per_write": "count",
    "heap.lock_contended_per_1k_writes": "count",
    "heap.lock_wait_p99_us": "us",
    "server.request_p50_us": "us", "server.request_p99_us": "us",
    "server.wait_p99_us": "us", "server.queue_depth_p99": "count",
    "server.worker_batch_p50": "count", "server.bytes_per_request": "B",
    "client.outside_server_p50_us": "us",
    "runtime.region_reconstruct_ms": "ms", "runtime.region_remap_ms": "ms",
    "runtime.heap_scavenge_ms": "ms", "runtime.txn_replay_ms": "ms",
    "runtime.replayed_txns": "count", "runtime.recover_ms": "ms",
    "server.start_ms": "ms",
    "client.write_p99_us": "us", "client.read_p99_us": "us",
    "trace.ops_per_s": "ops/s",
}

DEADLINE_S = 170    # a run must end within 180 s
RESTARTS = 31       # restart_s is the median of this many restarts


class RunError(Exception):
    """The run cannot produce a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise RunError("the program's sources are not beside the benchmark "
                       f"(missing {', '.join(missing)}); nothing to build")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                      "mn_kvd", "perfbench_driver"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stdout[-4000:])
                raise RunError(f"build step failed: {' '.join(cmd)}")


def clean_env(trace, scratch):
    """The program's environment: no inherited MNEMOSYNE_* setting (a
    region path override, stats, trace or flight settings); stats on
    only in a traced run."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MNEMOSYNE_")}
    if trace:
        env["MNEMOSYNE_STATS"] = "1"
        env["MNEMOSYNE_STATS_FILE"] = os.path.join(scratch, "stats_dump.json")
    return env


# ------------------------------------------------------------- processes

class Proc:
    """A child in its own process group, killed and reaped on close."""

    def __init__(self, argv, env, stdin=None, name=""):
        self.name = name or os.path.basename(argv[0])
        self.lines = []         # (monotonic_ns, line) of its stdout
        self.cv = threading.Condition()
        self.p = subprocess.Popen(argv, env=env, stdin=stdin,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  start_new_session=True)
        self.err = []
        self.readers = [threading.Thread(target=self._read, daemon=True),
                        threading.Thread(target=self._read_err, daemon=True)]
        for t in self.readers:
            t.start()

    def _read(self):
        for line in self.p.stdout:
            with self.cv:
                self.lines.append((time.monotonic_ns(), line.rstrip("\n")))
                self.cv.notify_all()
        with self.cv:
            self.lines.append((time.monotonic_ns(), None))
            self.cv.notify_all()

    def _read_err(self):
        for line in self.p.stderr:
            self.err.append(line.rstrip("\n"))

    def expect(self, prefix, timeout):
        """Wait for the next stdout line starting with @prefix."""
        end = time.monotonic() + timeout
        with self.cv:
            while True:
                for i, (ts, line) in enumerate(self.lines):
                    if line is None:
                        raise RunError(f"{self.name} ended before "
                                       f"'{prefix}': {self.tail()}")
                    if line.startswith(prefix):
                        del self.lines[:i + 1]
                        return ts, line[len(prefix):].strip()
                left = end - time.monotonic()
                if left <= 0:
                    raise RunError(f"{self.name}: no '{prefix}' within "
                                   f"{timeout} s: {self.tail()}")
                self.cv.wait(left)

    def send(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()

    def tail(self):
        return " | ".join(self.err[-5:])

    def terminate(self, timeout):
        """SIGTERM, wait, and return the exit status."""
        if self.p.poll() is None:
            os.killpg(self.p.pid, signal.SIGTERM)
        try:
            return self.p.wait(timeout)
        except subprocess.TimeoutExpired:
            raise RunError(f"{self.name} did not stop within {timeout} s")

    def close(self):
        if self.p.poll() is None:
            try:
                os.killpg(self.p.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.p.wait()
        if self.p.stdin:
            self.p.stdin.close()
        for t in self.readers:
            t.join(5)


def wait_port(path, server, timeout):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if server.p.poll() is not None:
            raise RunError(f"mn_kvd exited with {server.p.returncode} "
                           f"while starting: {server.tail()}")
        try:
            with open(path) as f:
                text = f.read()
            if text.endswith("\n"):
                return time.monotonic_ns(), int(text)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.0005)
    raise RunError("mn_kvd wrote no port file")


def stop_server(server):
    status = server.terminate(60)
    if status != 0:
        raise RunError(f"mn_kvd exited with status {status} on SIGTERM: "
                       f"{server.tail()}")
    server.expect("mn_kvd: clean shutdown", 5)


# -------------------------------------------------------------- metrics

def delta(before, after, key):
    return after.get(key, 0) - before.get(key, 0)


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def check_ack_totals(acked, before, after):
    """"" when the client's acknowledged PUT+DEL count equals the
    server's own count and does not exceed the committed transactions:
    two totals reached by independent paths."""
    served = (delta(before, after, "server.puts")
              + delta(before, after, "server.dels"))
    commits = delta(before, after, "mtm.commits")
    if acked != served:
        return f"acked writes {acked} != server.puts+server.dels {served}"
    if acked > commits:
        return f"acked writes {acked} > mtm.commits {commits}"
    return ""


def write_amp(scm_before, scm_after, ack_bytes, prefix=""):
    """SCM bytes written per byte of key+value acknowledged: streamed
    bytes plus one 64 B line per flush, from the emulator's counters."""
    streamed = delta(scm_before, scm_after, prefix + "bytes_streamed")
    flushes = delta(scm_before, scm_after, prefix + "flushes")
    return ratio(streamed + 64 * flushes, ack_bytes)


def layer_metrics(b, a, writes, e2e):
    """Per-layer metrics from two StatsRegistry snapshots, plus the
    client-side p99s and throughput of this (traced) run."""
    def d(k):
        return delta(b, a, k)

    def us(k):
        return a.get(k, 0) / 1000.0

    commits = d("mtm.commits")
    return {
        "scm.fences_per_write": ratio(d("scm.fences"), writes),
        "scm.flushes_per_write": ratio(d("scm.flushes"), writes),
        "scm.streamed_bytes_per_write": ratio(d("scm.bytes_streamed"),
                                              writes),
        "scm.device_us_per_write": ratio(d("scm.delay_ns"), writes, 1e-3),
        "log.appends_per_commit": ratio(d("rawl.appends"), commits),
        "log.append_words_per_commit": ratio(d("rawl.append_words"), commits),
        "log.append_stalls_per_1k_commits": ratio(d("rawl.append_stalls"),
                                                  commits, 1000),
        "log.append_stall_p99_us": us("rawl.append_stall_ns.p99"),
        "mtm.commit_p50_us": us("mtm.commit_ns.p50"),
        "mtm.commit_p99_us": us("mtm.commit_ns.p99"),
        "mtm.aborts_per_commit": ratio(d("mtm.aborts"), commits),
        "mtm.redo_words_per_commit": ratio(d("mtm.redo_words"), commits),
        "mtm.epoch_batch_p50": a.get("mtm.epoch_batch.p50", 0),
        "mtm.epoch_wait_p50_us": us("mtm.epoch_wait_ns.p50"),
        "mtm.epoch_wait_p99_us": us("mtm.epoch_wait_ns.p99"),
        "mtm.seals_per_commit": ratio(d("mtm.epoch_seals"), commits),
        "mtm.trunc_lines_flushed_per_commit": ratio(d("trunc.lines_flushed"),
                                                    commits),
        "mtm.trunc_words_deduped_per_commit":
            ratio(d("trunc.writeback_words_deduped"), commits),
        "heap.pmallocs_per_write": ratio(d("heap.pmallocs"), writes),
        "heap.pfrees_per_write": ratio(d("heap.pfrees"), writes),
        "heap.lock_contended_per_1k_writes": ratio(d("heap.lock_contended"),
                                                   writes, 1000),
        "heap.lock_wait_p99_us": us("heap.lock_wait_ns.p99"),
        "client.write_p99_us": e2e["client.write_p99_us"],
        "client.read_p99_us": e2e["client.read_p99_us"],
        "trace.ops_per_s": e2e["ops_per_s"],
    }


def restart_layers(s):
    """Reincarnation phases of the restarted Runtime (reinc.* keys)."""
    return {
        "runtime.region_reconstruct_ms":
            s.get("reinc.region_reconstruct_ns", 0) / 1e6,
        "runtime.region_remap_ms": s.get("reinc.region_remap_ns", 0) / 1e6,
        "runtime.heap_scavenge_ms": s.get("reinc.heap_scavenge_ns", 0) / 1e6,
        "runtime.txn_replay_ms": s.get("reinc.txn_replay_ns", 0) / 1e6,
        "runtime.replayed_txns": s.get("reinc.replayed_txns", 0),
    }


def sliced(s):
    """Throughput and latencies of the timed phase, each the median over
    its slices (see Slices in common.h).  The p99s are per-layer metrics:
    keys client.write_p99_us and client.read_p99_us."""
    out = {"ops_per_s": statistics.median(s["ops"]) / s["seconds"]}
    for k in ("write_p50_us", "write_p95_us", "read_p50_us", "read_p95_us"):
        out[k] = statistics.median(s[k])
    for k in ("write_p99_us", "read_p99_us"):
        out["client." + k] = statistics.median(s[k])
    return out


def check_errors(errors):
    for e in errors:
        log(f"CHECK FAILED: {e}")
    return not errors


# ------------------------------------------------------------ workloads

def run_txn(args, scratch, env, spans):
    argv = [DRIVER, "txn", "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(int(args.trace)),
            "--dir", os.path.join(scratch, "image"), "--spans", spans]
    t0 = time.monotonic_ns()
    proc = Proc(argv, env, name="perfbench_driver txn")
    try:
        proc.p.wait(DEADLINE_S - 20)
    except subprocess.TimeoutExpired:
        raise RunError("txn driver did not finish in time")
    finally:
        proc.close()
    if proc.p.returncode != 0:
        raise RunError(f"txn driver exited with {proc.p.returncode}: "
                       f"{proc.tail()}")
    lines = [l for _, l in proc.lines if l]
    if not lines:
        raise RunError("txn driver printed nothing")
    r = json.loads(lines[-1])
    e2e = {
        "setup_s": (r["ready_ns"] - t0) / 1e9,
        **sliced(r["slices"]),
        "restart_s": statistics.median(r["restart_ns"]) / 1e9,
        "write_amp": write_amp(r["scm_before"], r["scm_after"],
                               r["ack_bytes"]),
    }
    log(f"64 B-class PHashTable::put p50: {r['put_p50_us']} us "
        "(the paper's section 6.3 cost model: 4.3 us)")
    errors = [e["e"] for e in r["errors"]]
    layers = {}
    if args.trace:
        b, a = r["stats_before"], r["stats_after"]
        # In-process, every durable write is one commit: the put and
        # transfer counts bound the committed transactions from below.
        if r["writes"] > delta(b, a, "mtm.commits"):
            errors.append(f"completed writes {r['writes']} > mtm.commits "
                          f"{delta(b, a, 'mtm.commits')}")
        layers = layer_metrics(b, a, r["writes"], e2e)
        layers.update(restart_layers(r["reincarnation"]))
    return check_errors(errors), r["ops"], 0, e2e, layers, []


def launch_server(scratch, env, flags, tag):
    port_file = os.path.join(scratch, f"port.{tag}")
    argv = [MN_KVD, "--dir", os.path.join(scratch, "image"), "--port", "0",
            "--port-file", port_file] + flags
    t0 = time.monotonic_ns()
    server = Proc(argv, env, name="mn_kvd")
    return t0, server, port_file


def run_kv(args, scratch, env, spans, procs):
    mode, flags = KV_SERVERS[args.workload]
    client = Proc([DRIVER, "kv", "--workload", mode, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(int(args.trace)), "--spans", spans],
                  env, stdin=subprocess.PIPE, name="perfbench_driver kv")
    procs.append(client)
    phases = []

    def session(tag, command, reply, timeout):
        """Launch mn_kvd on the image, run one client command against
        it, stop it cleanly; returns launch, recovered, port-file and
        reply times and the reply."""
        t_launch, server, port_file = launch_server(scratch, env, flags,
                                                    tag)
        procs.append(server)
        t_rec, _ = server.expect("mn_kvd: recovered", 60)
        t_port, port = wait_port(port_file, server, 60)
        phases.append(("restart" if tag.startswith("r") else "launch",
                       t_launch, t_port))
        client.send(f"{command} {port}")
        _, text = client.expect(reply, timeout)
        t_stop = time.monotonic_ns()
        stop_server(server)
        phases.append(("stop", t_stop, time.monotonic_ns()))
        return t_launch, t_rec, t_port, text

    t0, _, _, ready = session("prefill", "prefill", "ready", 120)
    ready_ns = int(ready)
    # The timed phase runs on a relaunched server, so the histograms its
    # STAT op returns cover the timed phase and not the prefill.
    _, _, _, done = session("timed", "timed", "done", args.seconds + 60)
    r = json.loads(done)

    # Restart from the same image RESTARTS times; each is timed from
    # launch to the first correct read, and the last one also reads
    # back every key.
    restarts, recover_ms, start_ms = [], [], []
    for i in range(RESTARTS):
        last = i == RESTARTS - 1
        t1, t_rec, t_port, text = session(
            f"r{i}", "verify" if last else "probe",
            "verified" if last else "probed", 120)
        if last:
            v = json.loads(text)
            first_read = v["first_read_ns"]
        else:
            first_read = int(text)
        restarts.append((first_read - t1) / 1e9)
        recover_ms.append((t_rec - t1) / 1e6)
        start_ms.append((t_port - t_rec) / 1e6)
    client.p.stdin.close()
    if client.p.wait(30) != 0:
        raise RunError(f"kv client failed: {client.tail()}")

    sb, sa = r["stat_before"], r["stat_after"]
    e2e = {
        "setup_s": (ready_ns - t0) / 1e9,
        **sliced(r["slices"]),
        "restart_s": statistics.median(restarts),
        "write_amp": write_amp(sb, sa, r["ack_bytes"], "scm."),
    }
    errors = [e["e"] for e in r["errors"]] + [e["e"] for e in v["errors"]]
    if min(restarts) <= 0:
        errors.append("no successful read after a restart")
    layers = {}
    if args.trace:
        why = check_ack_totals(r["acked_writes"], sb, sa)
        if why:
            errors.append(why)
        layers = layer_metrics(sb, sa, r["writes"], e2e)
        requests = delta(sb, sa, "server.requests")

        def us(k):
            return sa.get(k, 0) / 1000.0
        layers.update({
            "server.request_p50_us": us("server.request_ns.p50"),
            "server.request_p99_us": us("server.request_ns.p99"),
            "server.wait_p99_us": us("server.wait_ns.p99"),
            "server.queue_depth_p99": sa.get("server.queue_depth.p99", 0),
            "server.worker_batch_p50": sa.get("server.worker_batch.p50", 0),
            "server.bytes_per_request": ratio(
                delta(sb, sa, "server.bytes_in")
                + delta(sb, sa, "server.bytes_out"), requests),
            "client.outside_server_p50_us":
                r["all_p50_us"] - us("server.request_ns.p50"),
            "runtime.recover_ms": statistics.median(recover_ms),
            **restart_layers(v["stat_restart"]),
            "server.start_ms": statistics.median(start_ms),
        })
    return (check_errors(errors), r["ops"], r["failed"], e2e, layers,
            phases)


def write_trace(path_spans, phases, out_path):
    events = []
    if os.path.exists(path_spans):
        with open(path_spans) as f:
            events = json.load(f)
    for name, start, end in phases:
        events.append({"name": name, "ph": "X", "pid": 0, "tid": 0,
                       "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                       "args": {}})
    events.append({"name": "process_name", "ph": "M", "pid": 0,
                   "args": {"name": "run.py"}})
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events}, f)
    log(f"spans written to {os.path.relpath(out_path, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    def on_signal(signum, _frame):
        raise RunError(f"stopped by signal {signum}")
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGALRM, on_signal)

    procs = []
    scratch = None
    try:
        build()
        signal.alarm(DEADLINE_S)
        os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                   dir=os.path.join(OUT, "runs"))
        env = clean_env(args.trace, scratch)
        spans = os.path.join(scratch, "spans.json")
        if args.workload in KV_SERVERS:
            ok, attempted, failed, e2e, layers, phases = run_kv(
                args, scratch, env, spans, procs)
        else:
            ok, attempted, failed, e2e, layers, phases = run_txn(
                args, scratch, env, spans)
        if args.trace:
            write_trace(spans, phases, os.path.join(
                OUT, "traces",
                f"{args.workload}-seed{args.seed}-{os.getpid()}.json"))
        signal.alarm(0)
    except RunError as e:
        log(f"run failed: {e}")
        return 1
    finally:
        for p in procs:
            p.close()
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else e2e
    metrics = {k: {"value": float(values.get(k, 0.0)), "unit": u}
               for k, u in names.items()}
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
