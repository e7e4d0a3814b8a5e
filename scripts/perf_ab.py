#!/usr/bin/env python3
"""A/B of the repo benchmark: a base checkout against this tree.

From the repository root:

  git worktree add ../base "$(git merge-base HEAD origin/main)"
  python3 scripts/perf_ab.py ../base [--pairs K] [--seconds S]

Each side runs its own perfbench/run.py from its own root, so each builds
perfbench from its own sources into its own .bench_build/. For every
workload that both trees' BENCHMARK.json name, pair i runs both sides with
seed i + 1: even pairs run the base first, odd pairs the change, so drift
slower than a pair cancels. K defaults to 10 and S to BENCHMARK.json's
run_seconds. Every end-to-end metric that both trees name gets one label,
checked in this order:

  worse       the change's median is worse than the base's by more than
              the metric's bound (the benchmark's rejection rule);
  unresolved  the base's quartile spread, (q3 - q1) / median, exceeds the
              bound, unless every change run beats every base run;
  better      the change won at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the
              base's q3 - q1;
  same        everything else.

A higher failed share (failed / attempted, summed over a workload's runs)
for the change is also worse. Each run's latency_samples and digest.* fact
lines are kept in the report, and a workload's digests read "none" when no
run on either side printed a digest.* fact, "changed" when any pair's two
runs (one seed) print different digest.* values, else "same"; that label
is reported only and does not enter the verdict. The
last line printed is one JSON object holding every figure and "verdict":
"ok" or "worse". Exit status: 0 when nothing is worse, 1 when something is
or a run failed, 2 on a usage error or a failed build.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunFailed(Exception):
    """A run exited nonzero, printed no usable result line, or read
    "correct": false."""


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def common(base_spec, change_spec, group):
    """The change's entries of `group` ("workloads" or "end_to_end") that
    the base also names, and the sorted names only one side has."""
    base_names = {e["name"] for e in base_spec[group]}
    change_names = {e["name"] for e in change_spec[group]}
    shared = [e for e in change_spec[group] if e["name"] in base_names]
    return shared, sorted(base_names ^ change_names)


def spread(values):
    """Median and quartiles, interpolating linearly between order
    statistics."""
    s = sorted(values)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return {"median": at(0.5), "q1": at(0.25), "q3": at(0.75)}


def label_metric(metric, base, change):
    """Labels one end-to-end metric from its per-pair base and change
    values (pair i of each list ran with the same seed)."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]

    def beats(a, b):
        return a > b if higher else a < b

    b, c = spread(base), spread(change)
    gain = c["median"] - b["median"] if higher else b["median"] - c["median"]
    base_iqr = b["q3"] - b["q1"]
    won = sum(beats(x, y) for y, x in zip(base, change))
    if -gain / b["median"] > bound:
        label = "worse"
    elif (base_iqr / b["median"] > bound
          and not all(beats(x, y) for x in change for y in base)):
        label = "unresolved"
    elif won * 10 >= 9 * len(base) and gain > base_iqr:
        label = "better"
    else:
        label = "same"
    return {"better": metric["better"], "bound": bound, "base": b,
            "change": c,
            "ratio": spread([x / y for y, x in zip(base, change)]),
            "won": won, "pairs": len(base), "label": label,
            "runs": {"base": base, "change": change}}


def label_failed(base_runs, change_runs):
    """Each side's failed / attempted, summed over its runs; worse when the
    change's share is higher."""
    def total(runs):
        return [sum(r["failed"] for r in runs),
                sum(r["attempted"] for r in runs)]

    (b_failed, b_attempted), (c_failed, c_attempted) = (
        total(base_runs), total(change_runs))
    worse = c_failed * b_attempted > b_failed * c_attempted
    return {"base": [b_failed, b_attempted],
            "change": [c_failed, c_attempted],
            "label": "worse" if worse else "same"}


def label_digests(base_runs, change_runs):
    """"none" when no run on either side printed a digest.* fact, so
    nothing was compared; "changed" when any pair's base and change runs,
    which share a seed, print different digest.* facts (or different
    digest names); else "same"."""
    def digests(run):
        return {k: v for k, v in run["facts"].items()
                if k.startswith("digest.")}

    if not any(digests(r) for r in [*base_runs, *change_runs]):
        return "none"
    changed = any(digests(b) != digests(c)
                  for b, c in zip(base_runs, change_runs))
    return "changed" if changed else "same"


def parse_facts(lines):
    """The latency_samples and digest.* fact lines ("name value") of one
    run's output; a count reads as an int."""
    facts = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 2 and (fields[0] == "latency_samples"
                                 or fields[0].startswith("digest.")):
            value = fields[1]
            facts[fields[0]] = int(value) if value.isdigit() else value
    return facts


def parse_run(side, workload, pair, code, stdout, metric_names):
    """Returns one run's result line as a dict, with its kept facts under
    "facts", or raises RunFailed naming the side, workload, pair and exit
    code."""
    where = f"{side} run of {workload}, pair {pair}, exited {code}"
    if code != 0:
        raise RunFailed(where)
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        ok = (all(isinstance(result[k], int) for k in ("attempted", "failed"))
              and all(isinstance(result["metrics"][m]["value"], (int, float))
                      for m in metric_names))
    except (IndexError, ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        raise RunFailed(f"{where} but printed no usable result line")
    if result.get("correct") is not True:
        raise RunFailed(f'{where} but read "correct": false')
    result["facts"] = parse_facts(lines[:-1])
    return result


def build(root):
    """Builds perfbench through `root`'s own run.py; returns its output on
    failure, None on success."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import run; run.build()"],
        cwd=os.path.join(root, "perfbench"), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    return proc.stdout if proc.returncode != 0 else None


def run_once(side, root, workload, pair, seconds, metric_names):
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(pair + 1),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        return parse_run(side, workload, pair, proc.returncode, proc.stdout,
                         metric_names)
    except RunFailed:
        sys.stderr.write(proc.stderr)
        raise


def run_workload(roots, workload, pairs, seconds, metrics):
    """Runs `pairs` alternating pairs of one workload; returns its report."""
    names = [m["name"] for m in metrics]
    runs = {"base": [], "change": []}
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(side, roots[side], workload, pair,
                                       seconds, names))
        print(f"  {workload} pair {pair} (seed {pair + 1}, {order[0]} first)"
              " done", flush=True)
    return {"metrics": {m["name"]: label_metric(
                m, [r["metrics"][m["name"]]["value"] for r in runs["base"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]])
                        for m in metrics},
            "failed": label_failed(runs["base"], runs["change"]),
            "facts": {side: [r["facts"] for r in side_runs]
                      for side, side_runs in runs.items()},
            "digests": label_digests(runs["base"], runs["change"])}


def print_workload(workload, report):
    def fmt(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    def row(*cells):
        print("  " + "  ".join(f"{c:<{w}}" for c, w in
                               zip(cells, (14, 32, 32, 26, 6, 0))))

    print(f"\n{workload}")
    row("metric", "base median [q1, q3]", "change median [q1, q3]",
        "change/base", "won", "label")
    for name, m in report["metrics"].items():
        row(name, fmt(m["base"]), fmt(m["change"]), fmt(m["ratio"]),
            f"{m['won']}/{m['pairs']}", m["label"])
    f = report["failed"]
    print(f"  failed share: base {f['base'][0]}/{f['base'][1]}, change "
          f"{f['change'][0]}/{f['change'][1]}: {f['label']}")
    samples = {side: [r.get("latency_samples") for r in facts]
               for side, facts in report["facts"].items()}
    print(f"  latency_samples: base {samples['base']}, change "
          f"{samples['change']}")
    print(f"  digests: {report['digests']} (reported, not gated)",
          flush=True)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("base", help="directory holding a checkout of the "
                                     "base commit")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating base/change pairs per workload")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's "
                             "run_seconds)")
    args = parser.parse_args()
    base = os.path.abspath(args.base)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be positive")
    for needed in ("BENCHMARK.json", os.path.join("perfbench", "run.py")):
        if not os.path.isfile(os.path.join(base, needed)):
            parser.error(f"{args.base} holds no {needed}")

    base_spec, change_spec = load_spec(base), load_spec(ROOT)
    seconds = args.seconds or change_spec["run_seconds"]
    workloads, skipped_workloads = common(base_spec, change_spec, "workloads")
    metrics, skipped_metrics = common(base_spec, change_spec, "end_to_end")
    for kind, skipped in (("workloads", skipped_workloads),
                          ("metrics", skipped_metrics)):
        if skipped:
            print(f"perf_ab: skipping {kind} only one tree names: "
                  f"{', '.join(skipped)}")

    roots = {"base": base, "change": ROOT}
    for side, root in roots.items():
        if (output := build(root)) is not None:
            sys.stderr.write(output)
            print(f"perf_ab: cannot build the {side} side's perfbench in "
                  f"{root}", file=sys.stderr)
            return 2

    report = {"pairs": args.pairs, "seconds": seconds,
              "skipped_workloads": skipped_workloads,
              "skipped_metrics": skipped_metrics, "workloads": {}}
    print(f"perf_ab: {args.pairs} pairs x {seconds:g} s per workload, "
          f"base {base}", flush=True)
    try:
        for w in workloads:
            report["workloads"][w["name"]] = run_workload(
                roots, w["name"], args.pairs, seconds, metrics)
            print_workload(w["name"], report["workloads"][w["name"]])
    except RunFailed as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 1

    worse = any(entry["label"] == "worse"
                for w in report["workloads"].values()
                for entry in [*w["metrics"].values(), w["failed"]])
    report["verdict"] = "worse" if worse else "ok"
    print(json.dumps(report))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
