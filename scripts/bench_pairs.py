#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts, with medians and wins.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --base DIR [--change DIR] \
        [--workload NAME ...] --seed N [--seed M ...] \
        [--pairs 10] [--seconds S] [--claim METRIC] [--json FILE]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
fresh process per run, with the run's working directory in its checkout.
Each run lasts ``--seconds``, by default the ``run_seconds`` of the
change's ``BENCHMARK.json``, the run length the benchmark itself uses; the
header and the summary of each workload and seed name it.
Which side runs first alternates: the base leads in odd pairs, the change
in even ones, so a drift in machine speed falls on both sides alike.  The
change defaults to the checkout this script is in; the base is typically a
copy of the parent commit (``git worktree add`` or ``git archive``).
Workloads are the names in the change's ``BENCHMARK.json``; ``--workload``
may be given more than once and defaults to all of them.  Each workload and
``--seed`` gets its own ``--pairs`` pairs, one after the other.

For each workload, seed and end-to-end metric of that ``BENCHMARK.json``
the script prints every pair, then per side the median and quartiles, the
change of the medians, the number of pairs the change won (strictly better
in the metric's own direction), whether the medians differ by more than the
base's interquartile range, and whether the change's median is within the
metric's ``bound``: worse than the base's median by at most that fraction
of it.  When the base's interquartile range is wider than the bound, the
verdict is marked unresolved, since the runs spread too widely to tell.
``--claim METRIC``, an end-to-end metric, adds one line per workload and
seed: ``claim met`` when the change is strictly better in at least nine
tenths of the pairs, ties counting for neither, and its median beats the
base's by more than the base's interquartile range; ``claim not met``
otherwise.  A run that fails, or reports ``"correct": false``, stops the
script with exit status 1.  ``--json`` also writes every value, per
workload and seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, workload, seed, seconds):
    """The JSON result of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n"
                           f"{done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{checkout}: run not correct "
                           f"({result.get('failed')} failed items)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def within_bound(spec, base_median, change_median):
    """True when the change's median is no worse than the base's by more
    than the metric's bound, a fraction of the base's median."""
    slack = spec["bound"] * abs(base_median)
    if spec["better"] == "lower":
        return change_median <= base_median + slack
    return change_median >= base_median - slack


def compare(spec, base, change):
    """The metric's quartiles per side and the number of pairs the change
    won, strictly, in the metric's direction."""
    name, lower = spec["name"], spec["better"] == "lower"
    b = [run[name] for run in base]
    c = [run[name] for run in change]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    return quartiles(b), quartiles(c), wins


def claim(spec, base, change):
    """The claim line: met when the change wins nine tenths of the pairs
    and its median gain exceeds the base's interquartile range."""
    bq, cq, wins = compare(spec, base, change)
    gain = bq[1] - cq[1] if spec["better"] == "lower" else cq[1] - bq[1]
    met = 10 * wins >= 9 * len(base) and gain > bq[2] - bq[0]
    return (f"{'claim met' if met else 'claim not met'}: {spec['name']}, "
            f"change better in {wins}/{len(base)}, median gain {gain:.6g} "
            f"against base IQR {bq[2] - bq[0]:.6g}")


def summarize(metrics, base, change):
    """Per-metric lines: medians, quartiles, wins, the IQR test and the
    bound."""
    lines = []
    pairs = len(base)
    for spec in metrics:
        name = spec["name"]
        bq, cq, wins = compare(spec, base, change)
        diff = cq[1] - bq[1]
        rel = diff / bq[1] if bq[1] else float("nan")
        verdict = "within" if within_bound(spec, bq[1], cq[1]) else "OUTSIDE"
        verdict += f" bound {100 * spec['bound']:g}%"
        if bq[2] - bq[0] > spec["bound"] * abs(bq[1]):
            verdict += " (unresolved: base IQR wider than the bound)"
        lines.append(
            f"{name:12s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
            f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
            f"{100 * rel:+.1f}%  change better in {wins}/{pairs}  "
            f"|median diff| {'>' if abs(diff) > bq[2] - bq[0] else '<='} "
            f"base IQR {bq[2] - bq[0]:.6g}  {verdict}")
    return lines


def run_pairs(sides, workload, seed, pairs, seconds, names):
    """Alternated runs of both sides for one seed, or None if a run failed."""
    runs = {"base": [], "change": []}
    print(f"{workload} seed {seed}, {pairs} pairs of {seconds:g} s; base "
          f"{sides['base']}, change {sides['change']}", flush=True)
    for pair in range(pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            try:
                runs[side].append(run_once(sides[side], workload, seed,
                                           seconds))
            except RuntimeError as exc:
                print(f"seed {seed}, pair {pair + 1}, {side}: {exc}",
                      file=sys.stderr)
                return None
        print(f"pair {pair + 1} ({order[0]} first): " + "  ".join(
            f"{n} {runs['base'][-1][n]:.6g} -> {runs['change'][-1][n]:.6g}"
            for n in names), flush=True)
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--claim", metavar="METRIC",
                        help="an end-to-end metric whose gain to test")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else \
        spec["run_seconds"]
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; "
                     f"BENCHMARK.json has {', '.join(known)}")
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    if args.claim is not None and args.claim not in names:
        parser.error(f"unknown metric {args.claim}; BENCHMARK.json has "
                     f"{', '.join(names)}")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    by_workload = {}
    for workload in workloads:
        by_seed = by_workload.setdefault(workload, {})
        for seed in args.seed:
            runs = run_pairs(sides, workload, seed, args.pairs, seconds,
                             names)
            if runs is None:
                return 1
            by_seed[str(seed)] = runs
            print(f"summary, {workload} seed {seed}, {len(runs['base'])} "
                  f"pairs of {seconds:g} s:")
            for line in summarize(metrics, runs["base"], runs["change"]):
                print(line, flush=True)
            if args.claim is not None:
                print(claim(metrics[names.index(args.claim)], runs["base"],
                            runs["change"]), flush=True)
    if args.json:
        args.json.write_text(json.dumps(
            {"seconds": seconds,
             "checkouts": {k: str(v) for k, v in sides.items()},
             "runs": by_workload},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
