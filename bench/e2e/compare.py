#!/usr/bin/env python3
"""Compare two sets of benchmark runs (bench/e2e/README.md, "Comparing").

    python3 bench/e2e/compare.py BASE.json [NEW.json]

Each file is what `run.sh --runs N --out FILE` writes: one end-to-end
run per workload and seed. Runs of the two files pair up by workload and
seed, so make both sets with the same --seed and --runs.

With one file it prints, per workload and end-to-end metric, the median
over runs and the spread (q3 - q1) / median next to the metric's bound
in BENCHMARK.json: "steady" below a third of the bound, "wide" above it.

With two files it gives each metric a verdict against BASE:
  better      NEW wins at least nine tenths of the paired runs (ties
              count for neither) and the medians differ by more than
              BASE's own q3 - q1
  unresolved  BASE's spread is wider than the bound and not every NEW
              run beats every BASE run
  worse       NEW's median is worse than BASE's by more than the bound
  within      anything else
and failed_share (failed / attempted) is worse if it rises at all. A
run whose outputs failed a check makes its workload worse. Exits 1 when
any verdict is worse.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load(path):
    with open(path) as f:
        runs = [r for r in json.load(f)["runs"] if not r["trace"]]
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], {})[r["seed"]] = r
    return by_workload


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def values(runs, seeds, name):
    return [runs[s]["metrics"][name]["value"] for s in seeds
            if name in runs[s]["metrics"]]


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs.values())
    return sum(r["failed"] for r in runs.values()) / max(attempted, 1)


def verdict(base, new, bound, higher):
    worse_by = (lambda b, n: b - n) if higher else (lambda b, n: n - b)
    mb, mn = statistics.median(base), statistics.median(new)
    wins = sum(worse_by(b, n) < 0 for b, n in zip(base, new))
    q = statistics.quantiles(base, n=4) if len(base) > 1 else [mb] * 3
    if wins >= 0.9 * len(base) and worse_by(mb, mn) < 0 and \
            abs(mn - mb) > q[2] - q[0]:
        return "better"
    beats_all = all(worse_by(b, n) < 0 for b in base for n in new)
    if spread(base) > bound and not beats_all:
        return "unresolved"
    if worse_by(mb, mn) / abs(mb) > bound:
        return "worse"
    return "within"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = load(sys.argv[1])
    new = load(sys.argv[2]) if len(sys.argv) == 3 else None
    any_worse = False
    for workload, base_runs in base.items():
        if new is None:
            seeds = sorted(base_runs)
            print(f"{workload}: {len(seeds)} runs, failed_share "
                  f"{failed_share(base_runs):.3f}")
            for m in metrics:
                v = values(base_runs, seeds, m["name"])
                if not v:
                    continue
                s = spread(v)
                state = "steady" if s < m["bound"] / 3 else \
                    "within" if s <= m["bound"] else "wide"
                print(f"  {m['name']:16s} median {statistics.median(v):<12.6g}"
                      f"{m['unit']:6s} spread {s:.4f}  bound {m['bound']}"
                      f"  {state}")
            continue
        new_runs = new.get(workload, {})
        seeds = sorted(set(base_runs) & set(new_runs))
        if not seeds:
            print(f"{workload}: no runs with a common seed")
            continue
        b_runs = {s: base_runs[s] for s in seeds}
        n_runs = {s: new_runs[s] for s in seeds}
        fb, fn = failed_share(b_runs), failed_share(n_runs)
        wrong = [s for s in seeds if not n_runs[s]["correct"]]
        rows = [("failed_share", fb, fn, "worse" if fn > fb else "within")]
        if wrong:
            rows.append(("correct", 1, 0, "worse"))
        for m in metrics:
            b = values(b_runs, seeds, m["name"])
            n = values(n_runs, seeds, m["name"])
            if len(b) != len(seeds) or len(n) != len(seeds):
                rows.append((m["name"], len(b), len(n), "unresolved"))
                continue
            rows.append((m["name"], statistics.median(b), statistics.median(n),
                         verdict(b, n, m["bound"], m["better"] == "higher")))
        print(f"{workload}: {len(seeds)} paired runs")
        for name, b, n, v in rows:
            any_worse |= v == "worse"
            print(f"  {name:16s} base {b:<12.6g} new {n:<12.6g} {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
