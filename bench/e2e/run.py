#!/usr/bin/env python3
"""Wall-clock end-to-end benchmark for MCLX (bench/e2e/README.md).

    bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
                     [--trace [0|1]] [--runs N] [--out FILE]

run.sh builds mclx_e2e into build-bench/ and then runs this script with
the same arguments. For each workload and seed, `mclx_e2e --gen` writes
the input graphs; then every repetition runs in a fresh `mclx_e2e
--child` process, in rounds (a closed loop with four clients, or one
for the batch workload) until the next round would end after the run's
`run_seconds` from BENCHMARK.json, input generation included. --seconds
may be given, but only with that value, so every run of every commit
has the same length. This script never starts MCLX's thread pool, so
each child is spawned from a process without pool threads. A
repetition that dies on a signal, exits nonzero or fails a check is a
failed operation, and the run carries on.

Without --trace the run reports the end-to-end metrics of BENCHMARK.json
from untraced repetitions. With --trace it alternates an untraced and a
traced child of job 0 and reports the per-layer metrics; the traced
child's spans go to build-bench/bench-trace.<workload>.json.

Without --workload every workload in BENCHMARK.json runs; --runs N runs
each N times with seeds --seed, --seed + 1, ... Every run goes to --out
with the quartiles and sample count of each metric. After each run one
JSON line {"correct", "attempted", "failed", "metrics"} goes to stdout,
so the last line is the last run's.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "mclx_e2e")

# Planted-truth F1 floors per job, under the lowest F1 of any job on the
# four inputs of seeds 1-40 (README.md, "Seed numbers"). They catch a
# broken clustering, not a small shift in quality; f1 tracks that.
F1_FLOOR = {
    "isom-dense": 0.99,
    "metaclust-sparse": 0.96,
    "original-cpu": 0.99,
    "svc-batch": 0.99,
}
# The share of job 0's wall clock the hooked stages (estimate .. interpret)
# must account for in a traced run, as the median over its cycles: time
# the hooks miss in every cycle is a gap in them, while a host stall
# before the first hook can push one cycle of svc-batch's 0.2 s job
# under 0.95 alone.
MIN_STAGE_COVERAGE = 0.95
# Per-layer values that are pure functions of the input: they must read
# the same in every traced repetition of a run.
EXACT = ("mcl.", "spgemm.kernel.", "spgemm.gpu_fallbacks", "probe.match",
         "dist.gather_bytes_computed", "merge.peak_elements_max",
         "prune.kept_ratio", "estimate.rel_error", "svc.lanes")

# An end-to-end run generates at least GRAPHS graphs from its seed, in at
# least MIN_INPUTS inputs (input k from seed * 10000 + 100 * k, job j of a
# batch from that plus j). The graphs a seed draws then move a run's
# medians less: with four single-job inputs, metaclust-sparse's mean F1
# spread over ten seeds by 0.0014 (README.md, "Seed numbers").
GRAPHS = 16
MIN_INPUTS = 4
# Closed-loop clients of a single-job workload: each round runs one child
# on each of the next CLIENTS inputs at once. With the batch's four
# runners, every workload keeps four cores busy, which on a shared host
# measures about twice as steadily as one busy core (README.md, "Host
# noise"). Inputs are generated CLIENTS at a time too.
CLIENTS = 4
MIN_ROUNDS = 3
RUN_LIMIT_S = 165  # one run, input generation included, ends within 180 s
POLL_S = 0.01


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def f1_score(clusters, truth):
    """Pair-counting F1 of a clustering against the planted families."""
    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts.values())

    both = pairs(Counter(zip(clusters, truth)))
    in_cluster, in_truth = pairs(Counter(clusters)), pairs(Counter(truth))
    precision = both / in_cluster if in_cluster else 1.0
    recall = both / in_truth if in_truth else 1.0
    total = precision + recall
    return 2 * precision * recall / total if total else 0.0


def run_children(workload, children, deadline):
    """Starts one child per (mode, input dir, tag) at once and waits for
    all of them; returns (result, failure reason, peak RSS in MiB) each."""
    procs = []  # [pid, result path, (status, rusage) once reaped]
    try:
        for mode, workdir, tag in children:
            out_path = os.path.join(workdir, f"{tag}.{mode}.json")
            argv = [BINARY, "--child", mode, "--workload", workload, "--dir",
                    workdir, "--spawn-ns", str(time.monotonic_ns())]
            redirect = (os.POSIX_SPAWN_OPEN, 1, out_path,
                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            procs.append([os.posix_spawn(BINARY, argv, os.environ,
                                         file_actions=[redirect]),
                          out_path, None])
        while any(p[2] is None for p in procs) and time.monotonic() < deadline:
            time.sleep(POLL_S)
            for p in procs:
                if p[2] is None:
                    pid, status, usage = os.wait4(p[0], os.WNOHANG)
                    if pid:
                        p[2] = (status, usage)
    finally:
        for p in procs:
            if p[2] is None:  # deadline, or this script is being stopped
                os.kill(p[0], signal.SIGKILL)
                os.wait4(p[0], 0)
    return [outcome(path, reaped) for _, path, reaped in procs]


def outcome(path, reaped):
    if reaped is None:
        return None, "timeout", 0.0
    status, usage = reaped
    rss_mb = usage.ru_maxrss / 1024
    if os.WIFSIGNALED(status):
        return None, signal.Signals(os.WTERMSIG(status)).name, rss_mb
    if os.WEXITSTATUS(status):
        return None, f"exit {os.WEXITSTATUS(status)}", rss_mb
    try:
        with open(path) as f:
            return json.load(f), None, rss_mb
    except ValueError:
        return None, "unreadable result", rss_mb


class Checker:
    """Checks every job's clusters: terminal state done, the same labels
    in every repetition on the same input, and F1 against the planted
    truth at or above the workload's floor (scored on the first labels)."""

    def __init__(self, workload, truths):
        self.floor = F1_FLOOR[workload]
        self.truths = truths  # [input][job] -> planted family per vertex
        self.reference = {}
        self.f1 = {}

    def job(self, k, index, job):
        key = (k, index)
        if job["state"] != "done":
            return f"input {k} job {index} {job['state']}"
        labels = job["labels"]
        if len(labels) != len(self.truths[k][index]):
            return f"input {k} job {index}: {len(labels)} labels"
        if key not in self.reference:
            self.reference[key] = labels
            self.f1[key] = f1_score(labels, self.truths[k][index])
        elif labels != self.reference[key]:
            return f"input {k} job {index}: labels differ from the first rep"
        if self.f1[key] < self.floor:
            return f"input {k} job {index}: F1 {self.f1[key]:.4f} < {self.floor}"
        return None


def stat(values, value, unit):
    q1, q3 = quartiles(values)
    return {"value": value, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def e2e_run(workload, truths, dirs, end, deadline, units):
    """Repeats the workload's operation in rounds: a single-job workload
    runs one child per input at once (CLIENTS clients), a batch one child
    per round, cycling through the inputs."""
    checker = Checker(workload, truths)
    clients = CLIENTS if len(truths[0]) == 1 else 1
    reps, failures = [], []
    attempted = failed = rounds = 0
    wrong = False
    longest = 0.0
    while rounds < MIN_ROUNDS or time.monotonic() + longest <= end:
        if time.monotonic() + 1.5 * longest > deadline:
            break
        ks = [(rounds * clients + c) % len(dirs) for c in range(clients)]
        tags = [f"round{rounds}.input{k}" for k in ks]
        t0 = time.monotonic()
        results = run_children(
            workload, [("op", dirs[k], tag) for k, tag in zip(ks, tags)],
            deadline)
        longest = max(longest, time.monotonic() - t0)
        rounds += 1
        for k, tag, (result, reason, rss_mb) in zip(ks, tags, results):
            jobs = len(truths[k])
            attempted += jobs
            if reason is None and len(result["jobs"]) != jobs:
                reason = f"{len(result['jobs'])} jobs"
            if reason is not None:
                failed += jobs
                failures.append(f"{tag}: {reason}")
            else:
                bad = [r for r in (checker.job(k, i, j)
                                   for i, j in enumerate(result["jobs"])) if r]
                if not bad:
                    reps.append(dict(result, rss_mb=rss_mb, input=k))
                    continue
                wrong = True
                failed += len(bad)
                failures.append(f"{tag}: {'; '.join(bad)}")
            log(f"[e2e] {workload} {failures[-1]}")
    if not reps:
        return {"correct": not wrong, "attempted": attempted,
                "failed": failed, "failures": failures, "metrics": {}}

    walls = [r["wall_s"] for r in reps]
    setups = [r["setup_s"] for r in reps]
    job_runs = [j["run_s"] for r in reps for j in r["jobs"]]
    f1 = list(checker.f1.values())
    rss = [r["rss_mb"] for r in reps]
    # Peak memory is a property of the input, not of the moment: the mean
    # over inputs of each input's median.
    rss_by_input = statistics.fmean(
        statistics.median(r["rss_mb"] for r in reps if r["input"] == k)
        for k in sorted({r["input"] for r in reps}))
    metrics = {
        "wall_s": stat(walls, statistics.median(walls), units["wall_s"]),
        "setup_s": stat(setups, statistics.median(setups), units["setup_s"]),
        "peak_rss_mb": stat(rss, rss_by_input, units["peak_rss_mb"]),
        "f1": stat(f1, statistics.fmean(f1), units["f1"]),
        "job_run_s.p50": stat(job_runs, statistics.median(job_runs),
                              units["job_run_s.p50"]),
    }
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "failures": failures, "metrics": metrics}


def trace_run(workload, truths, dirs, end, deadline, units):
    """Alternates an untraced and a traced child of job 0 of the first
    input (a cycle)."""
    checker = Checker(workload, truths)
    workdir = dirs[0]
    cycles, spans, failures = [], [], []
    attempted = failed = 0
    wrong = False
    longest = 0.0
    while not cycles and not failures or time.monotonic() + longest <= end:
        if time.monotonic() + 1.5 * longest > deadline:
            break
        tag = f"cycle{len(cycles) + len(failures)}"
        t0 = time.monotonic()
        [(plain, reason, _)] = run_children(
            workload, [("job", workdir, tag)], deadline)
        traced = None
        if reason is None:
            [(traced, reason, _)] = run_children(
                workload, [("traced", workdir, tag)], deadline)
        longest = max(longest, time.monotonic() - t0)
        attempted += 2
        if reason is None:
            m = traced["metrics"]
            bad = [r for r in (checker.job(0, 0, plain["jobs"][0]),
                               checker.job(0, 0, traced["jobs"][0])) if r]
            if m["probe.match"] != 1:
                bad.append("the layer probe does not reproduce the run")
            if cycles:
                bad += [f"{k} changed" for k, v in m.items()
                        if k.startswith(EXACT) and v != cycles[0][k]]
            if not bad:
                m["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1
                cycles.append(m)
                spans.append(traced["spans"])
                continue
            wrong = True
            reason = "; ".join(bad)
        failed += 1
        failures.append(f"{tag}: {reason}")
        log(f"[trace] {workload} {failures[-1]}")
    write_chrome_trace(workload, spans)
    metrics = {}
    for name, unit in units.items():
        values = [c[name] for c in cycles if name in c]
        if len(values) != len(cycles):
            sys.exit(f"run.py: mclx_e2e reported no {name}")
        if values:
            metrics[name] = stat(values, statistics.median(values), unit)
    coverage = metrics.get("core.stage.coverage", {}).get("value")
    if coverage is not None and coverage < MIN_STAGE_COVERAGE:
        wrong = True
        failures.append(f"median stage coverage {coverage:.3f}")
        log(f"[trace] {workload} {failures[-1]}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "failures": failures, "metrics": metrics}


def write_chrome_trace(workload, cycles):
    """Spans of every traced child, one thread row per repetition."""
    starts = [s["start_ns"] for spans in cycles for s in spans]
    if not starts:
        return
    base = min(starts)
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": rep,
               "ts": (s["start_ns"] - base) / 1e3,
               "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
               "args": {"parent": s["parent"], "rep": rep}}
              for rep, spans in enumerate(cycles) for s in spans]
    path = os.path.join(BUILD, f"bench-trace.{workload}.json")
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    log(f"[trace] wrote {len(events)} spans to {path}")


def generate(workload, seed, workdir, ks):
    """Writes inputs ks with one `mclx_e2e --gen` each, all at once;
    returns their directories and each job's planted truth."""
    dirs = [os.path.join(workdir, f"input{k}") for k in ks]
    procs = []
    try:
        for k, d in zip(ks, dirs):
            os.mkdir(d)
            procs.append(subprocess.Popen(
                [BINARY, "--gen", "--workload", workload, "--seed",
                 str(seed * 10000 + 100 * k), "--dir", d],
                stdout=subprocess.PIPE))
        outs = [p.communicate()[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if any(p.returncode for p in procs):
        sys.exit(f"run.py: mclx_e2e --gen failed for {workload}")
    return dirs, [[j["truth"] for j in json.loads(o)["jobs"]] for o in outs]


def run_one(workload, seed, trace, bench):
    start = time.monotonic()
    end, deadline = start + bench["run_seconds"], start + RUN_LIMIT_S
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}.",
                               dir=os.path.join(BUILD, "work"))
    try:
        dirs, truths = generate(workload, seed, workdir, [0])
        count = 1 if trace else max(MIN_INPUTS, -(-GRAPHS // len(truths[0])))
        for k in range(1, count, CLIENTS):
            more = generate(workload, seed, workdir,
                            range(k, min(k + CLIENTS, count)))
            dirs += more[0]
            truths += more[1]
        kind = "per_layer" if trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in bench[kind]}
        body = trace_run if trace else e2e_run
        result = body(workload, truths, dirs, end, deadline, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["correct"] = result["correct"] and bool(result["metrics"])
    return dict(result, workload=workload, seed=seed, trace=int(trace),
                seconds=time.monotonic() - start)


def print_run(run):
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"{run['workload']}  seed {run['seed']}  {kind}  "
          f"correct={run['correct']}  attempted={run['attempted']}  "
          f"failed={run['failed']}")
    for name, m in run["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']:6s} "
              f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="must equal run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, seeds seed .. seed+runs-1")
    ap.add_argument("--out", default=os.path.join(BUILD, "bench-results.json"))
    args = ap.parse_args()
    if args.seconds != bench["run_seconds"]:
        ap.error(f"--seconds must be {bench['run_seconds']}, the run length "
                 "BENCHMARK.json fixes for every commit")
    # SIGTERM unwinds like an exception, so a running child is killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.exists(BINARY):
        sys.exit(f"run.py: {BINARY} is missing; run bench/e2e/run.sh")

    runs = []
    for workload in [args.workload] if args.workload else names:
        for seed in range(args.seed, args.seed + args.runs):
            run = run_one(workload, seed, args.trace, bench)
            runs.append(run)
            with open(args.out, "w") as f:
                json.dump({"runs": runs}, f, indent=1)
            print_run(run)
            line = {k: run[k] for k in ("correct", "attempted", "failed")}
            line["metrics"] = {n: {"value": m["value"], "unit": m["unit"]}
                               for n, m in run["metrics"].items()}
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
