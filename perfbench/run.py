#!/usr/bin/env python3
"""The gincomplex benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload glex-gin|pipeline|regularity \
        --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout, on the numpy kernel
path, from a single process and thread.  After set-up (import, kernel
warm-up, building the inputs and one warm-up item of each kind) the run
repeats the workload's batch until ``--seconds`` have passed, checking every
item's output.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``:
set-up time (median of several cold set-ups, each in a fresh process), the
median batch time, item latency percentiles and peak resident memory.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics; see ``tracer.py``.  The last line of standard output is
one JSON object; the lines above it are a readable summary, the environment,
and every failed item with its replay data.  Results and spans are also
written under ``perfbench/out/``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

# One thread: the benchmark measures the library, not a BLAS thread pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 120


class SetupError(Exception):
    pass


def import_library():
    """Import gincomplex from this checkout's sources, nowhere else."""
    if not (SRC / "gincomplex" / "__init__.py").is_file():
        raise SetupError(f"no gincomplex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gincomplex
    if Path(gincomplex.__file__).resolve().parent != SRC / "gincomplex":
        raise SetupError(f"gincomplex imported from {gincomplex.__file__}")
    import workloads
    return workloads


def set_up(workload_name, seed):
    """Everything before the timed section: (library, workload, items)."""
    workloads = import_library()
    from gincomplex import _kernels
    _kernels.warmup()
    workload = workloads.WORKLOADS[workload_name]
    lib = workloads.library()
    items = workload.build(seed)
    # One item of each kind fills the monomial-table cache for every ring the
    # batch uses, strata and saturation rings included.
    kinds = {}
    for item in items:
        kinds.setdefault(item.label, item)
    for item in kinds.values():
        try:
            workload.solve(lib, item)
        except Exception:  # noqa: BLE001 - the timed pass reports it
            pass
    return lib, workload, items


def cold_setup_s(args):
    """Set-up time of a fresh benchmark process, measured by that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(done.stdout.strip().splitlines()[-1])


class Recorder:
    """Latencies, batch times and failures of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.walls = {False: [], True: []}
        self.summaries = []
        self.spans = []
        self.attempted = 0
        self.failures = {}

    def batch(self, lib, items, tr=None):
        wall = 0.0
        for item in items:
            start = time.perf_counter()
            try:
                if tr is None:
                    out = self.workload.solve(lib, item)
                else:
                    out = tr.item(self.workload.solve, lib, item)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                latency = time.perf_counter() - start
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                latency = time.perf_counter() - start
                problems = self.workload.check(item, out)
            wall += latency
            self.attempted += 1
            if tr is None:
                self.latencies.append(latency)
            if problems:
                self.fail(item, problems)
        self.walls[tr is not None].append(wall)

    def fail(self, item, problems):
        key = item.replay()
        if key not in self.failures:
            print(f"FAILED {self.workload.name} {key}: {'; '.join(problems)}")
            self.failures[key] = {"item": item.label,
                                  "member_seed": item.member_seed,
                                  "gin_seed_base": item.gin_seed_base,
                                  "prime": item.ideal.p,
                                  "problems": problems, "count": 0}
        self.failures[key]["count"] += 1

    @property
    def failed(self):
        return sum(f["count"] for f in self.failures.values())


def measure(lib, workload, items, seconds, trace):
    rec = Recorder(workload)
    deadline = time.perf_counter() + seconds
    while True:
        rec.batch(lib, items)
        if trace:
            with tracer.Tracer(lib) as tr:
                rec.batch(lib, items, tr)
            rec.summaries.append(tracer.summarize(tr.spans, tr.counts))
            rec.spans.append(tr.spans)
        if time.perf_counter() >= deadline:
            return rec


def end_to_end(rec, setup_times):
    lat = rec.latencies
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(rec.walls[False]),
        "item_s.p50": statistics.median(lat),
        "item_s.p90": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                       if len(lat) > 1 else lat[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(rec, names):
    """Medians over traced batches; counts must repeat exactly.

    A layer the workload never calls reads 0.
    """
    values = {n: statistics.median(s[n] for s in rec.summaries)
              for n in set(names).union(*rec.summaries)}
    values["trace.overhead_s"] = (statistics.median(rec.walls[True])
                                  - statistics.median(rec.walls[False]))
    values["trace.unattributed_frac"] = (values["item.self_s"]
                                         / values["item.s"])
    calls = values["kernels.reduce_dense.calls"]
    values["groebner.useful_reduction_ratio"] = (
        (calls - values["kernels.reduce_dense.zero"]) / calls
        if calls else 0.0)
    counts = [tracer.counts(s) for s in rec.summaries]
    values.update(counts[0])
    return values, all(c == counts[0] for c in counts)


def print_shares(values):
    total = values["item.s"]
    print(f"per traced batch: item time {total:.4f} s")
    busy = sorted(((v, n[:-2]) for n, v in values.items()
                   if n.endswith(".s") and v and not n.startswith("item.")),
                  reverse=True)
    for v, n in busy:
        print(f"  {n:40s} {v:10.4f} s {100 * v / total:6.1f}% busy")


def environment(args, items):
    import numpy
    from gincomplex import _kernels
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": _kernels.USING_NUMBA,
        "prime": items[0].ideal.p,
        "workload": args.workload,
        "seed": args.seed,
        "items": [{"item": i.label, "member_seed": i.member_seed,
                   "gin_seed_base": i.gin_seed_base} for i in items],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def report(listed, values):
    metrics = {}
    for spec in listed:
        if spec["name"] not in values:
            raise SetupError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    return metrics


def write_out(args, result, env, rec):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "result": result,
                   "batch_walls_s": rec.walls[False],
                   "traced_batch_walls_s": rec.walls[True],
                   "failures": list(rec.failures.values())}, fh, indent=1)
    if rec.spans:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for batch, spans in enumerate(rec.spans):
                for sid, (name, parent, start, end) in enumerate(spans):
                    fh.write(json.dumps([batch, sid, parent, name,
                                         start, end]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("glex-gin", "pipeline", "regularity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lib, workload, items = set_up(args.workload, args.seed)
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(repr(setup_s))
            return 0
        rec = measure(lib, workload, items, args.seconds, args.trace)
        env = environment(args, items)
        if args.trace:
            listed = spec["per_layer"]
            values, repeated = per_layer(rec, [m["name"] for m in listed])
            print_shares(values)
            if not repeated:
                print("FAILED counts differ between traced batches")
        else:
            setups = [setup_s] + [cold_setup_s(args)
                                  for _ in range(SETUP_RUNS - 1)]
            values, repeated = end_to_end(rec, setups), True
            listed = spec["end_to_end"]
        print(f"failed_frac {rec.failed / rec.attempted:.6g} "
              f"({rec.failed} of {rec.attempted} items)")
        print(json.dumps({"environment": env}))
        result = {"correct": rec.failed == 0 and repeated,
                  "attempted": rec.attempted, "failed": rec.failed,
                  "metrics": report(listed, values)}
        write_out(args, result, env, rec)
    except (SetupError, OSError, KeyError, ValueError,
            subprocess.SubprocessError, ImportError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
