#!/usr/bin/env python3
"""Compare two sets of spdkfac_bench run documents against BENCHMARK.json.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds BENCH_e2e.json documents (any file name ending in
.json), one per run.  End-to-end metrics are compared over the untraced runs,
one sample per run, paired by seed.  Per-layer metrics are compared over the
traced runs, one sample per repetition, paired in order.

Verdicts, per workload and metric:
  better      the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range;
  worse       the mirror of the gain rule (the change loses at least 9 of
              10 pairs and the medians differ by more than the parent's
              interquartile range), or, end-to-end only, the change's median
              is worse than the parent's by more than the metric's bound;
  unresolved  end-to-end only: the run-to-run spread is wider than the bound
              and neither side beats every run of the other;
  same        otherwise.
Exits 1 on any "worse" or when the change fails a larger share of steps.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(directory):
    """Runs per workload: list of dicts with seed, trace, metrics, reps."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        header = doc["header"]
        for w in doc["workloads"]:
            runs.setdefault(w["name"], []).append({
                "seed": header["seed"],
                "trace": header["trace"],
                "header": header,
                "attempted": w["attempted"],
                "failed": w["failed"],
                "fingerprints": w["loss_fingerprints"],
                "metrics": {k: v["value"] for k, v in w["metrics"].items()},
                "reps": w["rep_metrics"],
            })
    return runs


def samples(runs, name, traced):
    """(pairing key, value) samples of one metric."""
    out = []
    for run in sorted(runs, key=lambda r: r["seed"]):
        if run["trace"] != traced:
            continue
        if traced:
            values = [rep[name] for rep in run["reps"] if name in rep]
            out += [(len(out) + i, v) for i, v in enumerate(values)]
        elif name in run["metrics"]:
            out.append((run["seed"], run["metrics"][name]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative(delta, base):
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(parent, change, lower_is_better, bound):
    """Returns the verdict, each side's (q1, median, q3), and the change's
    paired wins out of the pairs."""
    p = [v for _, v in parent]
    c = [v for _, v in change]
    sign = 1.0 if lower_is_better else -1.0
    mp, mc = statistics.median(p), statistics.median(c)
    p1, p3 = quartiles(p)
    c1, c3 = quartiles(c)
    worse_by = relative(sign * (mc - mp), mp)  # > 0: the change is worse
    by_key = dict(change)
    pairs = [(v, by_key[k]) for k, v in parent if k in by_key]
    if not pairs:  # no common seeds: pair in order
        pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gap = abs(mc - mp) > p3 - p1
    if worse_by < 0 and gap and wins >= 0.9 * len(pairs):
        result = "better"
    elif worse_by > 0 and gap and losses >= 0.9 * len(pairs):
        result = "worse"
    elif bound is None:
        result = "same"
    else:
        spread = max(relative(p3 - p1, mp), relative(c3 - c1, mc))
        separated = max(c) < min(p) or min(c) > max(p)
        if spread > bound and not separated:
            result = "unresolved"
        elif worse_by > bound:
            result = "worse"
        else:
            result = "same"
    return result, (p1, mp, p3), (c1, mc, c3), wins, len(pairs)


def fingerprints(parent, change):
    """'identical' when every seed both sides ran ended on the same final-loss
    bits, 'differs' otherwise, 'n/a' without a common seed."""
    def by_seed(runs):
        seen = {}
        for r in runs:
            if not r["trace"]:
                seen.setdefault(r["seed"], set()).update(r["fingerprints"])
        return seen
    p, c = by_seed(parent), by_seed(change)
    common = sorted(set(p) & set(c))
    if not common:
        return "n/a"
    return "identical" if all(p[s] == c[s] for s in common) else "differs"


def describe_hosts(label, runs):
    headers = [r["header"] for rs in runs.values() for r in rs]
    gflops = [h["gemm_gflops"] for h in headers]
    print(f"{label}: {len(headers)} workload runs; "
          f"isa {sorted({h['isa'] for h in headers})}, "
          f"cpu {sorted({h['cpu'] for h in headers})}, "
          f"git {sorted({h['git'] for h in headers})}, "
          f"gemm probe median {statistics.median(gflops):.2f} GFLOP/s")


def failure_share(runs):
    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    return failed / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    describe_hosts("parent", parent)
    describe_hosts("change", change)

    bad = False
    metrics = [(m, False) for m in spec["end_to_end"]] + \
        [(m, True) for m in spec["per_layer"]]
    print(f"\n{'workload':22} {'metric':28} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'change':>8} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        for m, traced in metrics:
            p = samples(parent[workload], m["name"], traced)
            c = samples(change[workload], m["name"], traced)
            if not p or not c:
                continue
            result, pq, cq, wins, pairs = verdict(
                p, c, m["better"] == "lower", m.get("bound"))
            bad = bad or result == "worse"
            fmt = "{:9.4g} {:9.4g} {:9.4g}".format
            print(f"{workload:22} {m['name']:28} {fmt(*pq):>30} "
                  f"{fmt(*cq):>30} {relative(cq[1] - pq[1], pq[1]):+8.1%} "
                  f"{wins:>3}/{pairs:<2}  {result}")
        print(f"{workload:22} loss fingerprints: "
              f"{fingerprints(parent[workload], change[workload])}")

    fp, fc = failure_share(parent), failure_share(change)
    print(f"\nfailed steps: parent {fp:.2%}, change {fc:.2%}")
    if fc > fp:
        bad = True
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
