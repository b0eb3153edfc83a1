#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the retiming/resynthesis tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

The script builds the two user-facing programs from source with dune
(``bin/table1.exe`` and ``bin/resynthd.exe``), drives them the way a user
does -- the Table I regenerator on the command line, the resynthesis daemon
over its newline-JSON socket protocol -- and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (each runs the paper's three flows on Table I circuits):

  table1   the small and medium Table I rows (MCNC FSMs, ISCAS'89 classes);
           time goes mostly to retiming, resynthesis and the sequential
           verification of each flow result.
  large    the largest Table I rows (s641, s1196, s1238, s5378), up to 1.6k
           gates and 150 latches: retiming, resynthesis, mapping and STA on
           the biggest graphs (s5378 holds about two thirds of the gates).
  eqcheck  Table I rows under ``--eqcheck-each --no-verify``: the semantic
           equivalence analyzer checks every pass boundary and is the only
           checker, so BDD/SAT work dominates.
  daemon   the small rows submitted by name to ``resynthd --jobs 2`` over a
           Unix socket.  One closed-loop client submits a whole round, then
           waits for every result.  Each daemon serves three rounds, the first
           from a cold cache and the others warm, and is then shut down with
           a drain.

The heaviest rows (planet, s298, s344, s400, s420) are left out: each alone
takes 1-37 s, so a few seconds of measurement would hold at most one sample.

``--seed`` draws the order in which each round visits its netlists (the
``--names`` order for table1, the submission order for the daemon).  Order
matters to performance: the process-wide BDD table, the heap and the daemon's
cache are warmed by whatever ran before.  Results must not depend on it, and
every round is checked.

One round processes the workload's whole netlist set once: one ``table1``
process, or one batch of daemon requests.  Rounds repeat until ``--seconds``
have passed (at least three; table1 runs one untimed warm-up round first).
A summary of the round times goes to standard error.

With ``--trace 0`` the programs run uninstrumented and the end-to-end
metrics are reported:

  round_s      wall-clock seconds for one round (Table I regeneration time for
               the table1-style workloads, batch makespan for the daemon): the
               lower quartile of the run's rounds.  On a shared 2-vCPU VM the
               CPU runs up to ~50% slower for stretches of 20-40 s (user time
               grows; nothing waits).  Over a 4-minute series of rounds, the
               median of 20-s windows spread by 20% (IQR/median) while their
               lower quartile spread by 7%; a slower program still moves the
               whole distribution, lower quartile included.
  peak_rss_mib peak resident memory of the program (per table1 process, or
               per daemon over its three rounds), the median over the run
  setup_s      start-up time of the program until it answers: table1 started
               and rejecting an empty row list, or resynthd started and
               answering a ping; the median of several start-ups

With ``--trace 1`` the programs record their own spans and metrics registry
(``table1 --trace/--metrics-json``, ``resynthd --stream-trace`` plus the
``metrics`` op) and the per-layer metrics are reported, each as a mean per
round.  Span self time (duration minus direct children) is attributed by the
program's span names:

  netlist_ms   building / parsing the input network (suite row build, daemon
               cache checkout)
  synth_ms     script.delay: technology-independent optimisation + mapping
  retime_ms    the retiming flow's passes
  resynth_ms   the paper's resynthesis passes
  check_ms     equivalence checking: the sequential verification of each flow
               result, plus the per-pass eqcheck (whose records carry their
               own timings; the checks run inline at --jobs 1, so their time
               is moved out of the span they ran inside)
  boundary_ms  flow time outside any pass: pass-boundary hooks, timing set-up
               and area/period measurement
  overhead_ms  round wall time not covered by program spans: process start,
               rendering, protocol round trips and queueing

plus work counts from the metrics registry (BDD nodes, cache hit rate, STA
and cube-kernel calls, mapped cells, eqcheck verdicts, daemon cache hits).

Correctness: each program must exit cleanly; every Table I row line must be
identical to the committed reference in ``expected_rows.txt`` (the register,
clock and area cells of the three flows), whatever the row order; no flow
result may be reported NOT VERIFIED; no eqcheck verdict may be refuted; and
every daemon payload row must carry the same cells as the reference.
"""

import argparse
import json
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

SMALL_ROWS = ["ex2", "ex6", "bbtas", "bbara", "s27", "s208", "s349", "s382",
              "s386", "s444", "s510", "s526"]

WORKLOADS = {
    "table1": {"kind": "table1", "rows": SMALL_ROWS, "flags": []},
    "large": {"kind": "table1", "rows": ["s641", "s1196", "s1238", "s5378"],
              "flags": []},
    "eqcheck": {"kind": "table1",
                "rows": ["ex6", "bbara", "s27", "s208", "s349", "s386",
                         "s1238"],
                "flags": ["--eqcheck-each", "--no-verify"]},
    "daemon": {"kind": "daemon", "rows": SMALL_ROWS},
}

MIN_ROUNDS = 3
ROUNDS_PER_DAEMON = 3
ROUND_TIMEOUT_S = 120
START_PROBES = 2  # start-up samples before each table1 round / daemon
WORK_DIR = ".perfbench"
TABLE1 = os.path.join("_build", "default", "bin", "table1.exe")
RESYNTHD = os.path.join("_build", "default", "bin", "resynthd.exe")
HERE = os.path.dirname(os.path.abspath(__file__))

LAYERS = ["netlist_ms", "synth_ms", "retime_ms", "resynth_ms", "check_ms",
          "boundary_ms", "overhead_ms"]

# per-layer counts: metric -> metrics-registry instrument
COUNTS = {
    "bdd_nodes": "bdd.nodes_allocated_total",
    "bdd_ite_hit_pct": "bdd.ite.hit_pct",
    "sta_incremental_syncs": "sta.syncs.incremental",
    "scc_calls": "logic.scc.calls",
    "mapped_cells": "techmap.mapped_cells",
    "tasks_forked": "parallel.tasks.forked",
    "serve_cache_hits": "serve.cache.hits",
}


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build():
    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("bin", "table1.ml"))):
        raise BenchError("run from the root of a source checkout "
                         "(dune-project and bin/table1.ml not found)")
    # no shared cache: the build reads and writes only inside the checkout
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./bin/table1.exe", "./bin/resynthd.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850)
    if proc.returncode != 0:
        raise BenchError("build failed: " + " ".join(cmd))
    for exe in (TABLE1, RESYNTHD):
        if not os.path.isfile(exe):
            raise BenchError("build produced no " + exe)


# --- process helpers ---------------------------------------------------------

def run_measured(argv, timeout=ROUND_TIMEOUT_S, expect=0):
    """Run argv to completion; return (exit code, stdout, seconds, max RSS
    in MiB).  stderr goes to a file so a chatty program cannot block; it is
    logged when the exit code is not [expect]."""
    err_path = os.path.join(WORK_DIR, "stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        try:
            out = read_until_eof(proc.stdout, t0 + timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code != expect:
        with open(err_path, "rb") as f:
            tail = f.read()[-400:].decode(errors="replace")
        log("%s exited %d: %s" % (argv[0], code, tail.strip()))
    return code, out, seconds, usage.ru_maxrss / 1024.0


def read_until_eof(pipe, deadline):
    chunks = []
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("a program run timed out")
        ready, _, _ = select.select([pipe], [], [], left)
        if ready:
            data = os.read(pipe.fileno(), 65536)
            if not data:
                return b"".join(chunks).decode()
            chunks.append(data)


# --- Table I rows -------------------------------------------------------------

def load_expected():
    expected = {}
    with open(os.path.join(HERE, "expected_rows.txt")) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                cells = row_cells(line)
                expected[cells[0]] = cells
    return expected


def row_cells(line):
    """Circuit name plus the Reg./Clk./Area cells of the three flows."""
    groups = line.rstrip("\n").split("|")
    cells = [groups[0].strip()]
    for g in groups[1:4]:
        cells.extend(g.split()[:3])
    return tuple(cells)


def parse_table1(out, names):
    """Map circuit -> row cells; raise on a malformed or unverified table."""
    rows = {}
    for line in out.splitlines():
        head = line.split("|")[0].strip()
        if "|" in line and head in names:
            rows[head] = row_cells(line)
        if "NOT VERIFIED" in line:
            raise BenchError("unverified flow result: " + line.strip())
    if sorted(rows) != sorted(names):
        raise BenchError("table1 printed rows %s, expected %s"
                         % (sorted(rows), sorted(names)))
    return rows


def eqcheck_counts(out):
    """(verdicts, proved, refuted, unknown) from table1's eqcheck summary."""
    for line in out.splitlines():
        if line.startswith("eqcheck: "):
            nums = [int(tok) for tok in line.replace(",", " ").split()
                    if tok.isdigit()]
            if len(nums) == 4:
                return tuple(nums)
    return None


# --- spans and per-layer attribution -------------------------------------------

def layer_of(span):
    name, cat = span["name"], span["cat"]
    if name.startswith("row/") or name.startswith("serve/"):
        return "netlist_ms"
    if name == "script.delay":
        return "synth_ms"
    if cat == "retiming":
        return "retime_ms"
    if cat == "resynth" or name == "resynthesis":
        return "resynth_ms"
    if name.startswith("verify/"):
        return "check_ms"
    if name.startswith("flow/") or name.startswith("lane/"):
        return "boundary_ms"
    return None


def self_times(spans):
    """Sum of span self time (ns) per layer.  Spans the attribution does not
    know are transparent: their time stays with the enclosing known span."""
    known = [s for s in spans if layer_of(s) is not None]
    totals = {}
    by_track = {}
    for s in known:
        by_track.setdefault(s["track"], []).append(s)
    for track_spans in by_track.values():
        # parents first: timestamps have microsecond resolution, so a child
        # can share its parent's start
        track_spans.sort(key=lambda s: (s["start_ns"], s["depth"]))
        stack = []  # [span, end_ns, child_ns]
        def close(entry):
            span, _, child = entry
            layer = layer_of(span)
            totals[layer] = totals.get(layer, 0) + span["dur_ns"] - child
        for s in track_spans:
            end = s["start_ns"] + s["dur_ns"]
            while stack and stack[-1][1] <= s["start_ns"]:
                close(stack.pop())
            if stack:
                stack[-1][2] += s["dur_ns"]
            stack.append([s, end, 0])
        while stack:
            close(stack.pop())
    return totals


def check_layer(pass_name):
    """The layer whose spans enclose the inline eqcheck of a pass boundary.
    A check runs where the flow calls its pass-boundary hook: inside the pass
    span for a pass that rewrites the network in place, in the enclosing
    span otherwise -- the resynthesis span for resynth/* passes, the row's
    flow span for script.delay and the retiming passes that return a new
    network (min-period, remap)."""
    if pass_name.startswith("resynth/"):
        return "resynth_ms"
    if pass_name in ("retiming/unreachable-simplify", "retiming/simplify-nodes",
                     "retiming/sweep"):
        return "retime_ms"
    return "boundary_ms"


def move_checks(layers, records):
    """Move the time of per-pass eqcheck records (their own timings) out of
    the layer they ran inside and into check_ms."""
    for rec in records:
        ns = rec["seconds"] * 1e9
        layer = check_layer(rec["pass"])
        moved = min(ns, layers.get(layer, 0))
        layers[layer] = layers.get(layer, 0) - moved
        layers["check_ms"] = layers.get("check_ms", 0) + moved


def top_level_ns(spans):
    """Program time covered by per-row / per-request spans."""
    return sum(s["dur_ns"] for s in spans
               if s["name"].startswith("row/")
               or s["name"].startswith("serve/"))


# --- table1-style workloads -----------------------------------------------------

def table1_start_up():
    """One start-up sample: with an empty row list table1 starts, initialises
    every module, validates its arguments and exits without running a flow."""
    code, _, seconds, _ = run_measured([TABLE1, "--names", ""], expect=2)
    if code != 2:
        raise BenchError("table1 start-up probe exited %d" % code)
    return seconds


def check_table1(code, out, order, flags, expected):
    if code != 0:
        raise BenchError("table1 exited %d" % code)
    rows = parse_table1(out, order)
    for name in order:
        if rows[name] != expected.get(name):
            raise BenchError("row %s differs from the reference: %s"
                             % (name, " ".join(rows[name])))
    if "--eqcheck-each" in flags:
        eq = eqcheck_counts(out)
        if eq is None:
            raise BenchError("no eqcheck summary in table1 output")
        if eq[2] != 0:
            raise BenchError("%d refuted eqcheck verdicts" % eq[2])


def run_table1(spec, rng, seconds, trace, expected):
    names = spec["rows"]
    trace_file = os.path.join(WORK_DIR, "trace.json")
    metrics_file = os.path.join(WORK_DIR, "metrics.json")
    eqcheck_file = os.path.join(WORK_DIR, "eqcheck.json")
    eqcheck = "--eqcheck-each" in spec["flags"]
    starts = []
    rounds = []
    attempted = failed = 0
    deadline = None
    while deadline is None or len(rounds) < MIN_ROUNDS \
            or time.perf_counter() < deadline:
        # start-up samples are spread over the run, so their median sees the
        # same machine as the rounds do
        starts += [table1_start_up() for _ in range(START_PROBES)]
        order = names[:]
        rng.shuffle(order)
        argv = [TABLE1, "--names", ",".join(order)] + spec["flags"]
        if trace:
            argv += ["--trace", trace_file, "--trace-format", "json",
                     "--metrics-json", metrics_file]
            if eqcheck:
                argv += ["--eqcheck-json", eqcheck_file]
        code, out, secs, rss = run_measured(argv)
        try:
            check_table1(code, out, order, spec["flags"], expected)
            ok = True
        except BenchError as e:
            log(str(e))
            ok = False
        attempted += len(names)
        failed += 0 if ok else len(names)
        if deadline is None:
            # the first round warms the page cache and is checked like the
            # others, but not timed
            deadline = time.perf_counter() + seconds
            continue
        r = {"seconds": secs, "rss": rss, "layers": {}, "registry": {}}
        if trace and ok:
            with open(trace_file) as f:
                spans = json.load(f)
            with open(metrics_file) as f:
                r["registry"] = json.load(f)["metrics"]
            r["layers"] = self_times(spans)
            r["layers"]["overhead_ms"] = secs * 1e9 - top_level_ns(spans)
            if eqcheck:
                with open(eqcheck_file) as f:
                    move_checks(r["layers"], json.load(f))
        rounds.append(r)
    return statistics.median(starts), rounds, attempted, failed


# --- daemon workload --------------------------------------------------------------

class Daemon:
    """A resynthd process on a Unix socket, and one client connection."""

    def __init__(self, trace):
        self.path = os.path.join(WORK_DIR, "d.sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        self.trace_file = os.path.join(WORK_DIR, "spans.jsonl")
        argv = [RESYNTHD, "serve", "--socket", self.path, "--jobs", "2",
                "--queue", "64"]
        if trace:
            if os.path.exists(self.trace_file):
                os.unlink(self.trace_file)
            argv += ["--stream-trace", self.trace_file]
        self.t0 = time.perf_counter()
        self.err = open(os.path.join(WORK_DIR, "daemon-stderr.txt"), "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        self.sock = None
        self.buf = b""
        self.rusage = None
        try:
            self.connect()
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.t0

    def connect(self):
        deadline = self.t0 + 30
        while self.sock is None:
            if self.proc.poll() is not None:
                raise BenchError("resynthd exited %d at start-up"
                                 % self.proc.returncode)
            if time.perf_counter() > deadline:
                raise BenchError("resynthd did not start listening")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.path)
                self.sock = s
            except OSError:
                s.close()
                time.sleep(0.0005)
        reply = self.request({"op": "ping"})
        if not reply.get("ok"):
            raise BenchError("ping failed: %r" % reply)

    def request(self, doc):
        self.sock.sendall((json.dumps(doc) + "\n").encode())
        while b"\n" not in self.buf:
            data = self.sock.recv(65536)
            if not data:
                raise BenchError("resynthd closed the connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self):
        """Graceful shutdown with drain; returns the daemon's max RSS."""
        if self.proc.returncode is None:
            try:
                if self.sock is not None:
                    self.request({"op": "shutdown", "drain": True})
            except (BenchError, OSError):
                self.proc.send_signal(signal.SIGTERM)
            self.wait()
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.err.close()
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else 0.0

    def wait(self):
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = usage
                return
            if time.perf_counter() > deadline:
                self.proc.kill()
            time.sleep(0.005)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait()
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.err.close()


def daemon_round(d, order, tag):
    """Submit every netlist, poll until all are terminal; return (makespan,
    per-request payload rows or error codes)."""
    t0 = time.perf_counter()
    pending = []
    for i, name in enumerate(order):
        rid = "%s-%d-%s" % (tag, i, name)
        reply = d.request({"op": "submit", "id": rid, "benchmark": name})
        if not reply.get("ok"):
            raise BenchError("submit %s rejected: %r" % (name, reply))
        pending.append((rid, name))
    results = {}
    # every request has to finish, so waiting on one at a time (instead of
    # polling them all) keeps the client off the CPU the flows need
    for rid, name in pending:
        while d.request({"op": "status", "id": rid}).get("state") in (
                "queued", "running"):
            time.sleep(0.002)
        reply = d.request({"op": "result", "id": rid})
        if reply.get("ok"):
            results[rid] = (name, reply["result"])
        else:
            results[rid] = (name, reply.get("error", "error"))
    return time.perf_counter() - t0, results


def parse_prometheus(text):
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            key, _, val = line.rpartition(" ")
            try:
                values[key] = float(val)
            except ValueError:
                pass
    return values


def daemon_life(names, rng, expected, trace, index):
    """Start a daemon, serve ROUNDS_PER_DAEMON rounds, shut it down.  A fixed
    amount of work per daemon keeps its peak memory independent of speed."""
    d = Daemon(trace)
    rounds = []
    failed = 0
    try:
        for _ in range(ROUNDS_PER_DAEMON):
            order = names[:]
            rng.shuffle(order)
            secs, results = daemon_round(d, order, "r%d" % index)
            index += 1
            for rid, (name, res) in results.items():
                if not isinstance(res, dict) or \
                        row_cells(res.get("row", "")) != expected.get(name):
                    log("request %s (%s) answered %r" % (rid, name, res))
                    failed += 1
                elif res.get("eqcheck", {}).get("refuted", 0) != 0:
                    log("request %s (%s) has refuted verdicts" % (rid, name))
                    failed += 1
            rounds.append({"seconds": secs})
        registry = {}
        if trace:
            body = d.request({"op": "metrics"})
            registry = parse_prometheus(body.get("body", ""))
        rss = d.stop()
    finally:
        d.kill()
    for r in rounds:
        r["rss"] = rss
    if trace:
        with open(d.trace_file) as f:
            spans = [json.loads(line) for line in f if line.strip()]
        # pass spans carry no request id, so a daemon's whole trace is
        # attributed at once and spread evenly over its rounds
        layers = self_times(spans)
        wall_ns = sum(r["seconds"] for r in rounds) * 1e9
        layers["overhead_ms"] = wall_ns - top_level_ns(spans)
        n = len(rounds)
        for r in rounds:
            r["layers"] = {k: v / n for k, v in layers.items()}
            r["registry"] = {k: v if k.endswith("_pct") else v / n
                             for k, v in registry.items()}
    return rounds, failed, d.ready_s


def run_daemon(spec, rng, seconds, trace, expected):
    names = spec["rows"]
    starts = []
    rounds = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        for _ in range(START_PROBES):
            d = Daemon(trace=False)
            starts.append(d.ready_s)
            d.stop()
        more, bad, ready_s = daemon_life(names, rng, expected, trace,
                                         len(rounds))
        starts.append(ready_s)
        rounds += more
        failed += bad
    return statistics.median(starts), rounds, len(rounds) * len(names), failed


# --- report ---------------------------------------------------------------------

def registry_value(registry, instrument):
    for key in (instrument, instrument.replace(".", "_")):
        value = registry.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return 0.0


def lower_quartile(values):
    return statistics.quantiles(values, n=4)[0]


def summarize(setup, rounds, trace):
    def metric(value, unit):
        return {"value": value, "unit": unit}

    if not trace:
        return {
            "round_s": metric(lower_quartile([r["seconds"] for r in rounds]),
                              "s"),
            "peak_rss_mib": metric(statistics.median(r["rss"] for r in rounds),
                                  "MiB"),
            "setup_s": metric(setup, "s"),
        }
    out = {}
    for layer in LAYERS:
        out[layer] = metric(
            statistics.mean(r["layers"].get(layer, 0) for r in rounds) / 1e6,
            "ms")

    def count(f):
        return statistics.mean(f(r["registry"]) for r in rounds)

    for name, instrument in COUNTS.items():
        unit = "%" if name.endswith("_pct") else "count"
        out[name] = metric(
            count(lambda reg: registry_value(reg, instrument)), unit)
    verdicts = ["eqcheck.verdicts." + v for v in ("proved", "refuted",
                                                   "unknown")]
    out["eqcheck_verdicts"] = metric(
        count(lambda reg: sum(registry_value(reg, v) for v in verdicts)),
        "count")
    out["eqcheck_unknown"] = metric(
        count(lambda reg: registry_value(reg, verdicts[2])), "count")
    return out


def main():
    ap = argparse.ArgumentParser(
        description="Benchmark the Table I flows and the resynthesis daemon.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    # a terminated benchmark still stops and reaps the programs it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = WORKLOADS[args.workload]
    runner = run_daemon if spec["kind"] == "daemon" else run_table1
    try:
        build()
        os.makedirs(WORK_DIR, exist_ok=True)
        expected = load_expected()
        setup, rounds, attempted, failed = runner(
            spec, random.Random(args.seed), args.seconds, args.trace,
            expected)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log("error: %s" % e)
        return 1
    times = sorted(r["seconds"] for r in rounds)
    log("%s: %d rounds, round seconds min %.4f lower quartile %.4f median "
        "%.4f max %.4f" % (args.workload, len(times), times[0],
                           lower_quartile(times), statistics.median(times),
                           times[-1]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": summarize(setup, rounds, args.trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
