#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ms2c macro expander.

usage: python3 perfbench/run.py --workload batch|serve-warm|serve-fresh
                                --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The script builds
`ms2c` and the helper in perfbench/ocaml (reference outputs for the
checks, and the traced run) with dune, makes every input from the seed, drives the
real `ms2c` binary from this single client process, checks every
output, and prints a table followed by one JSON line:

  --trace 0  the end-to-end metrics of BENCHMARK.json
  --trace 1  the per-layer metrics (see perfbench/README.md)

Scratch files go to .bench_build/perfbench under the checkout.  Any
failed, refused or wrong operation makes the exit code 1.
"""

import argparse
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import gen  # noqa: E402

WORK = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(ROOT, "_build", "default")
MS2C = os.path.join(EXE, "bin", "ms2c.exe")
TRACER = os.path.join(EXE, "perfbench", "ocaml", "tracer.exe")

# Workload sizes.  Why each workload exists is in BENCHMARK.json.
BATCH_UNITS = 1000  # myenum units in the batch translation unit
SETUP_LAUNCHES = 21  # launches whose median is setup_s, at least
SETUP_PER_PASS = 3  # set-up launches per timed compile / request stream
MIN_PASSES = 3  # timed compiles / request streams per run, at least
WARM_UNITS = 16  # K: distinct units serve-warm cycles through; warm-up size
WARM_UNIT_SIZE = 8  # generated units in each of those K texts
SETUP_UNITS = 64  # units in the batch set-up compile
WARM_REQUESTS = 2000  # requests in one serve-warm stream
FRESH_REQUESTS = 1000  # requests (all distinct units) in one serve-fresh stream
LEX_IDENTS = 5000  # N of the interner doubling probe (N vs 2N)
PROBE_FILES, PROBE_UNITS = 4, 150  # --jobs probe: files x units each
FRAGMENT_UNITS = 400  # --fragment-jobs probe: units in the file
PROBE_REPEATS = 3

RESET = b'{"method": "reset", "session": "bench"}\n'
PING = b'{"method": "ping"}\n'
SHUTDOWN = b'{"method": "shutdown"}\n'


class Failure(Exception):
    pass


class Ops:
    """Operations attempted against the program and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)
        return ok


def work(name):
    return os.path.join(WORK, name)


def write(name, text):
    with open(work(name), "w") as f:
        f.write(text)
    return work(name)


def write_frames(name, items):
    with open(work(name), "wb") as f:
        for s in items:
            b = s.encode()
            f.write(b"%d\n" % len(b))
            f.write(b)
    return work(name)


def read_frames(path):
    with open(path, "rb") as f:
        data = f.read()
    out, pos = [], 0
    while pos < len(data):
        nl = data.index(b"\n", pos)
        n = int(data[pos:nl])
        out.append(data[nl + 1 : nl + 1 + n].decode())
        pos = nl + 1 + n
    return out


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = WORK
    return env


CHILDREN = []


def spawn(argv, **kw):
    p = subprocess.Popen(argv, cwd=WORK, env=child_env(), **kw)
    CHILDREN.append(p)
    return p


def reap(p):
    """Wait for `p`; its exit code and peak RSS (MiB), read by wait4."""
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(p)
    return p.returncode, ru.ru_maxrss / 1024.0


def run(argv, out_name):
    """Run a process to completion with stdout to a scratch file.
    Returns (wall seconds, exit code, peak RSS MiB)."""
    with open(work(out_name), "wb") as out, open(work("stderr.log"), "ab") as err:
        t0 = time.perf_counter()
        p = spawn(argv, stdout=out, stderr=err)
        rc, rss = reap(p)
        return time.perf_counter() - t0, rc, rss


def read(name):
    with open(work(name), "rb") as f:
        return f.read()


def build(targets):
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isfile(os.path.join(ROOT, "bin", "ms2c.ml"))
    ):
        raise Failure("%s is not a checkout of the ms2 sources" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT] + targets,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=870,
    )
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise Failure("dune build failed")


def median(xs):
    return statistics.median(xs)


def percentile(sorted_xs, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_xs) * q // 100) - 1)
    return sorted_xs[int(k)]


# ---------------------------------------------------------------- checks


def c_counts(c):
    return {
        "enums": len(re.findall(r"^enum \w+ \{", c, re.M)),
        "print_fns": len(re.findall(r"^void print_\w+\(int arg\)$", c, re.M)),
        "read_fns": len(re.findall(r"^int read_\w+\(\)$", c, re.M)),
        "cases": len(re.findall(r"^\s*case \w+:$", c, re.M)),
        "begin_paint": c.count("BeginPaint(hDC, &ps);"),
        "end_paint": c.count("EndPaint(hDC, &ps);"),
    }


def expected_counts(counts):
    return {
        "enums": counts.enums,
        "print_fns": counts.enums,
        "read_fns": counts.enums,
        "cases": counts.constants,
        "begin_paint": counts.paintings,
        "end_paint": counts.paintings,
    }


def c_error(c_bytes, counts):
    """None when gcc accepts the C and its structure matches the
    generator's counts, else what is wrong."""
    path = work("check.c")
    with open(path, "wb") as f:
        f.write(c_bytes)
    r = subprocess.run(
        ["gcc", "-std=c89", "-w", "-fsyntax-only", path],
        cwd=WORK, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if r.returncode != 0:
        return "gcc rejected the output: %s" % r.stdout.decode(errors="replace")[:300]
    got, want = c_counts(c_bytes.decode()), expected_counts(counts)
    if got != want:
        return "counts %s, expected %s" % (got, want)
    return None


# ---------------------------------------------------------------- batch


def batch_inputs(seed):
    text, counts = gen.batch_unit(seed, BATCH_UNITS)
    return write("batch.mc", text), counts


class Compiles:
    """Repeated `ms2c expand` of one file: wall times, peak RSS, and one
    check per compile that it exited 0 with the first compile's bytes,
    which must pass c_error."""

    def __init__(self, path, counts, what):
        self.path, self.counts, self.what = path, counts, what
        self.walls, self.rss, self.codes, self.first = [], [], [], None
        self.out = os.path.basename(path) + ".c"

    def run(self):
        dt, rc, peak = run([MS2C, "expand", self.path], self.out)
        out = read(self.out)
        if self.first is None:
            self.first = out
        self.codes.append((rc, out == self.first))
        self.walls.append(dt)
        self.rss.append(peak)

    def check(self, ops):
        err = c_error(self.first, self.counts)
        for k, (rc, same) in enumerate(self.codes):
            ops.check(rc == 0 and same and err is None, "%s %d: exit %d, %s"
                      % (self.what, k, rc, err or "output differs"))


def batch(seed, seconds, ops):
    tu, counts = batch_inputs(seed)
    # setup_s is the cost of a small compile: start-up, loading the
    # definitions and expanding a 64-unit warm-up file.  A launch on
    # the definitions alone (~2 ms) moved by a third between sets of
    # runs on a shared 2-CPU host; compute-bound work moves less.
    text, wcounts = gen.batch_unit(seed, SETUP_UNITS, tag="s")
    main = Compiles(tu, counts, "compile")
    setup = Compiles(write("setup.mc", text), wcounts, "set-up compile")
    t_end = time.perf_counter() + seconds
    while len(main.walls) < MIN_PASSES or time.perf_counter() < t_end:
        main.run()
        for _ in range(SETUP_PER_PASS):
            setup.run()
    while len(setup.walls) < SETUP_LAUNCHES:
        setup.run()
    main.check(ops)
    setup.check(ops)
    return {
        "wall_s": median(main.walls),
        "setup_s": median(setup.walls),
        "peak_rss_mib": median(main.rss),
    }, "%d compiles of %d bytes" % (len(main.walls), os.path.getsize(tu))


def speedup(ops, argv1, argv2, what):
    """Median wall of argv1 over that of argv2; outputs must agree."""
    t1, t2 = [], []
    for _ in range(PROBE_REPEATS):
        for argv, ts, out in ((argv1, t1, "probe1.c"), (argv2, t2, "probe2.c")):
            dt, rc, _ = run(argv, out)
            ops.check(rc == 0, "%s: exit %d" % (what, rc))
            ts.append(dt)
        ops.check(read("probe1.c") == read("probe2.c"), "%s: outputs differ" % what)
    return median(t1) / median(t2)


def batch_trace(seed, ops):
    tu, counts = batch_inputs(seed)
    # CLI compiles alternate with the same pipeline run in-process,
    # untraced and traced, so process.io_s and trace.overhead_ratio
    # compare runs made under the same machine conditions
    cli, r0s, r1s = [], [], []
    for _ in range(PROBE_REPEATS):
        dt, rc, _ = run([MS2C, "expand", tu], "batch.c")
        c = read("batch.c")
        err = c_error(c, counts)
        ops.check(rc == 0 and err is None, "compile: exit %d, %s" % (rc, err))
        cli.append(dt)
        for rec, runs in (("0", r0s), ("1", r1s)):
            out = "traced%s.c" % rec
            runs.append(tracer(["batch", tu, work(out), rec]))
            ops.check(read(out) == c, "in-process pipeline (record %s) output differs" % rec)
    m = replay_metrics(r0s, r1s)
    m["process.io_s"] = median([t - a["wall_s"] for t, a in zip(cli, r0s)])
    # the file through a daemon, as a build server would get it; the
    # default cache cannot hold the file's entry, so every expand misses
    d = Daemon(None)
    line = expand_line(read(tu).decode())
    lat, replies = [], []
    for _ in range(1 + PROBE_REPEATS):
        check_response(ops, d.call(RESET), None, "reset")
        a = time.perf_counter()
        replies.append(d.call(line))
        lat.append(time.perf_counter() - a)
        check_response(ops, replies[-1], c.decode(), "daemon expand")
    daemon_costs(ops, m, d, lat, replies)
    process_probes(seed, ops, m)
    return m


def daemon_costs(ops, m, d, lat, replies):
    """serve.overhead_us from the latencies and replies of expands sent
    to the daemon `d`, and serve.ping_us from pings; closes `d`."""
    pings = []
    for _ in range(200):
        a = time.perf_counter()
        resp = d.call(PING)
        pings.append(time.perf_counter() - a)
        check_response(ops, resp, None, "ping")
    d.close()
    over = []
    for dt, resp in zip(lat, replies):
        r = json.loads(resp)
        if r.get("ok"):
            over.append(dt * 1e6 - r["elapsed_ms"] * 1e3)
    m["serve.overhead_us"] = median(over)
    m["serve.ping_us"] = median(pings) * 1e6


def process_probes(seed, ops, m):
    """Probes of the process as a whole, made on every workload: the
    interner's growth, start-up, and the parallel drivers."""
    # lex time of 2N fresh identifiers over N, each in a fresh process
    # (2.0 is linear, 4.0 quadratic)
    lex = {}
    for n in (LEX_IDENTS, 2 * LEX_IDENTS):
        path = write("idents%d.c" % n, gen.plain_idents(seed, n))
        lex[n] = median([tracer(["lex", path])["lex_s"] for _ in range(PROBE_REPEATS)])
    m["intern.doubling_ratio"] = lex[2 * LEX_IDENTS] / lex[LEX_IDENTS]
    empty = write("empty.mc", "")
    starts = []
    for _ in range(SETUP_LAUNCHES):
        dt, rc, _ = run([MS2C, "expand", empty], "empty.c")
        ops.check(rc == 0, "empty expand: exit %d" % rc)
        starts.append(dt)
    m["process.startup_s"] = median(starts)
    # parallelism probes: per-layer only, never gating
    files = []
    for i in range(PROBE_FILES):
        text, _ = gen.batch_unit(seed, PROBE_UNITS, tag="p%d" % i)
        files.append(write("probe%d.mc" % i, text))
    for mode in ("domains", "fork"):
        argv = [MS2C, "expand", "--jobs-mode", mode, "--jobs"]
        m["driver.jobs2_speedup_" + mode] = speedup(
            ops, argv + ["1"] + files, argv + ["2"] + files, "--jobs-mode " + mode)
    text, _ = gen.batch_unit(seed, FRAGMENT_UNITS, tag="f")
    frag = write("fragments.mc", text)
    argv = [MS2C, "expand", "--fragment-jobs"]
    m["fragments.jobs2_speedup"] = speedup(
        ops, argv + ["1", frag], argv + ["2", frag], "--fragment-jobs")


# Per-layer metrics taken from the traced replays; the rest come from
# the untraced ones, whose timings carry no recording cost.
FROM_TRACED = {
    "lexer.self_s", "lexer.tokens_per_s", "parser.self_s", "pattern.self_s",
    "pattern.matches", "meta.self_s", "fill.self_s", "engine.walk_self_s",
    "pretty.self_s", "pretty.bytes_per_s", "session.checkpoint_us",
    "session.rollback_us", "session.fingerprint_us", "trace.coverage",
}


def replay_metrics(untraced, traced):
    """Per-key medians over alternated untraced and traced tracer runs
    (a key only one kind of run prints comes from that kind), plus the
    traced/untraced wall-time ratio of each pair."""
    def medians(runs, keep):
        return {k: median([r[k] for r in runs]) for k in runs[0] if keep(k)}
    m = medians(traced, lambda k: k not in untraced[0] or k in FROM_TRACED)
    m.update(medians(untraced, lambda k: k not in traced[0] or k not in FROM_TRACED))
    for k in ("wall_s", "reqs_s"):
        m.pop(k, None)
    m["trace.overhead_ratio"] = median(
        [b["wall_s"] / a["wall_s"] for a, b in zip(untraced, traced)])
    return m


def tracer(args):
    r = subprocess.run([TRACER] + args, cwd=WORK, env=child_env(),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise Failure("tracer %s failed: %s" % (args[0], r.stderr.decode()[-500:]))
    return json.loads(r.stdout)


# ---------------------------------------------------------------- serve


class Daemon:
    """`ms2c serve [--prelude-file DEFS]` over stdio: one connection,
    one request in flight (a closed loop)."""

    def __init__(self, defs):
        argv = [MS2C, "serve"] + (["--prelude-file", defs] if defs else [])
        with open(work("serve.log"), "ab") as log:
            self.p = spawn(argv,
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log)

    def call(self, line):
        self.p.stdin.write(line)
        self.p.stdin.flush()
        resp = self.p.stdout.readline()
        if not resp:
            raise Failure("daemon closed the connection")
        return resp

    def close(self):
        """Shut down; returns the daemon's peak RSS in MiB."""
        self.call(SHUTDOWN)
        self.p.stdin.close()
        rc, rss = reap(self.p)
        if rc != 0:
            raise Failure("daemon exited with %d" % rc)
        return rss


def expand_line(text):
    return (json.dumps({"method": "expand", "session": "bench", "text": text})
            + "\n").encode()


class Stream:
    """A serve workload's inputs: the warm-up units, the timed request
    sequence (indices into `units`) and the expected output per unit."""

    def __init__(self, defs, warm, units, seq, oracle):
        self.defs = defs
        self.warm_units, self.units = warm, units
        self.warm = [expand_line(u) for u in warm]
        self.lines = [expand_line(u) for u in units]
        self.seq = seq
        self.warm_expected = oracle[: len(warm)]
        self.expected = oracle[len(warm):]


def serve_inputs(workload, seed):
    defs = write("defs.mc", gen.DEFS)
    if workload == "serve-warm":
        warm = gen.serve_units(seed, "w", WARM_UNITS, WARM_UNIT_SIZE)
        units = warm
        rng = random.Random("sequence-%d" % seed)
        seq = [rng.randrange(WARM_UNITS) for _ in range(WARM_REQUESTS)]
    else:
        # warm-up units carry their own identifiers, so every timed
        # request still brings names the daemon has never seen
        warm = gen.serve_units(seed, "g", WARM_UNITS, WARM_UNIT_SIZE)
        units = gen.serve_units(seed, "f", FRESH_REQUESTS)
        seq = list(range(FRESH_REQUESTS))
    frames = write_frames("units.fr", warm + units)
    r = subprocess.run([TRACER, "oracle", defs, frames, work("oracle.fr")],
                       cwd=WORK, env=child_env(), stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise Failure("oracle failed: %s" % r.stderr.decode()[-500:])
    return Stream(defs, warm, units, seq, read_frames(work("oracle.fr")))


def response_error(resp, expected):
    """None when `resp` is an ok reply carrying `expected` (an ok reply
    with no output when `expected` is None), else what is wrong."""
    try:
        r = json.loads(resp)
    except ValueError:
        return "malformed reply %r" % resp[:200]
    if r.get("ok") is not True:
        return "refused: %r" % resp[:300]
    if r.get("output") != expected:
        return "wrong output"
    return None


def check_response(ops, resp, expected, what):
    err = response_error(resp, expected)
    return ops.check(err is None, "%s: %s" % (what, err))


def launch(ops, s):
    """Start a daemon and warm it up; returns it and the setup time:
    launch until the first ping answers, plus one expand of each
    warm-up unit."""
    t0 = time.perf_counter()
    d = Daemon(s.defs)
    d.call(PING)
    warm = []
    for line in s.warm:
        d.call(RESET)
        warm.append(d.call(line))
    setup = time.perf_counter() - t0
    for resp, exp in zip(warm, s.warm_expected):
        check_response(ops, resp, exp, "warm-up")
    return d, setup


def stream(ops, s, d):
    """The timed request stream: per request a reset, then an expand
    timed from send to reply.  Returns latencies (s), the stream's wall
    time and the raw replies."""
    lat, replies, resets = [], [], []
    call, lines = d.call, s.lines
    t0 = time.perf_counter()
    for i in s.seq:
        resets.append(call(RESET))
        a = time.perf_counter()
        replies.append(call(lines[i]))
        lat.append(time.perf_counter() - a)
    wall = time.perf_counter() - t0
    for k, (i, resp, rst) in enumerate(zip(s.seq, replies, resets)):
        err = response_error(rst, None) or response_error(resp, s.expected[i])
        ops.check(err is None, "request %d: %s" % (k, err))
    return lat, wall, replies


def serve(workload, seed, seconds, ops):
    s = serve_inputs(workload, seed)
    setups, p50, p99, growth, walls, rss = [], [], [], [], [], []
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < t_end:
        d, setup = launch(ops, s)
        lat, wall, _ = stream(ops, s, d)
        rss.append(d.close())
        setups.append(setup)
        walls.append(wall)
        tenth = len(lat) // 10
        p50.append(median(lat))
        p99.append(percentile(sorted(lat), 99))
        growth.append(median(lat[-tenth:]) / median(lat[:tenth]))
        # more set-up samples, spread over the run like the streams
        for _ in range(SETUP_PER_PASS - 1):
            d, setup = launch(ops, s)
            d.close()
            setups.append(setup)
    while len(setups) < SETUP_LAUNCHES:
        d, setup = launch(ops, s)
        d.close()
        setups.append(setup)
    # request latency is printed, not gated: batch has no requests,
    # and every workload must report every gated metric
    return {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mib": median(rss),
    }, ("%d streams of %d requests; expand latency p50 %.4g ms, p99 %.4g ms,"
        " p50 growth %.3g" % (len(walls), len(s.seq), median(p50) * 1e3,
                              median(p99) * 1e3, median(growth)))


def serve_trace(workload, seed, ops):
    s = serve_inputs(workload, seed)
    d, _ = launch(ops, s)
    lat, wall, replies = stream(ops, s, d)
    m = {}
    daemon_costs(ops, m, d, lat, replies)
    warm_fr = write_frames("warm.fr", s.warm_units)
    reqs_fr = write_frames("reqs.fr", [s.units[i] for i in s.seq])
    want = [s.expected[i] for i in s.seq]
    # untraced and traced replays alternate, as in batch_trace
    r0s, r1s = [], []
    for _ in range(PROBE_REPEATS):
        for rec, runs in (("0", r0s), ("1", r1s)):
            out = work("replay%s.fr" % rec)
            runs.append(tracer(["serve", s.defs, warm_fr, reqs_fr, out, rec]))
            ops.check(read_frames(out) == want, "replay (record %s) output differs" % rec)
    m.update(replay_metrics(r0s, r1s))
    m["process.io_s"] = wall - median([r["reqs_s"] for r in r0s])
    process_probes(seed, ops, m)
    return m


# ---------------------------------------------------------------- main

def manifest(trace):
    """Metric name -> unit of the metrics BENCHMARK.json asks for:
    end-to-end ones untraced, per-layer ones traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return {m["name"]: m["unit"] for m in b["per_layer" if trace else "end_to_end"]}


def on_signal(signum, frame):
    if signum == signal.SIGALRM:
        raise Failure("run exceeded its time budget")
    raise Failure("stopped by signal %d" % signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("batch", "serve-warm", "serve-fresh"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    ops = Ops()
    try:
        build(["bin/ms2c.exe", "perfbench/ocaml/tracer.exe"])
        os.makedirs(WORK, exist_ok=True)
        for log in ("stderr.log", "serve.log"):
            open(work(log), "wb").close()
        for sig in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, on_signal)
        # a stuck program fails the run instead of hanging it; timed
        # passes end after --seconds, set-up and checks come on top
        signal.alarm(int(a.seconds) + 140)
        if a.trace:
            if a.workload == "batch":
                metrics = batch_trace(a.seed, ops)
            else:
                metrics = serve_trace(a.workload, a.seed, ops)
            note = "traced run"
        elif a.workload == "batch":
            metrics, note = batch(a.seed, a.seconds, ops)
        else:
            metrics, note = serve(a.workload, a.seed, a.seconds, ops)
        signal.alarm(0)
    except (Failure, OSError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        for p in list(CHILDREN):
            p.kill()
            reap(p)
    unit = manifest(a.trace)
    if set(metrics) != set(unit):
        print("perfbench: measured %s, BENCHMARK.json names %s"
              % (sorted(set(metrics) - set(unit)), sorted(set(unit) - set(metrics))),
              file=sys.stderr)
        return 2
    print("%s seed %d: %s" % (a.workload, a.seed, note))
    for k in sorted(metrics):
        print("  %-32s %14.6g %s" % (k, metrics[k], unit[k]))
    ratio = ops.failed / max(1, ops.attempted)
    print("  %-32s %14.6g %s  (%d of %d operations)"
          % ("error_ratio", ratio, "ratio", ops.failed, ops.attempted))
    for n in ops.notes:
        print("  failure: %s" % n, file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
