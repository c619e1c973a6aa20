"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload stoch-parity-xml --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, with the pure-Python kernel pinned by
``OMEGAGAMES_BACKEND=python`` for the whole process.  The workload runs as
a closed loop (one caller, no threads): whole rounds over the input pool,
each operation on fresh program objects, until the run length is reached.
After the timed phase every input of the pool is run once more and its
outputs are certified (see certify.py); every timed operation must have
produced the same outputs as that certified run.  Operations that raise
are counted in ``failed`` and left out of the timings.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics (spans also go to ``perfbench/out/``).
``--workload all`` runs every workload in its own process, one after the
other.  The last line of standard output is the result object.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# reference_loop: rounds of dict inserts, and its wall time on the machine
# the benchmark was written on (2-core 2.1 GHz Xeon VM, CPython 3.11.7).
# Rounds of 10,000 inserts add about 3 MB to the peak resident memory,
# below what any workload's operations reach.
REF_ROUNDS = 3
REF_INSERTS = 10000
REF_S = 0.012



def declared_units(kind):
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the
    order BENCHMARK.json declares them."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_all(args):
    """Each workload in its own process; results merged under prefixed names."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{name}: exited with code {proc.returncode}")
            return 1
        res = json.loads(lines[-1])
        print(json.dumps({"workload": name, **res}))
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def reference_loop():
    """Fixed pure-Python work (dict inserts and a keyed sort, with the cycle
    collector off); returns its wall time."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(REF_ROUNDS):
        table = {}
        for i in range(REF_INSERTS):
            table[i * 7919 % 100003] = (i, i + 1)
        sorted(table.items(), key=lambda kv: kv[1][0] ^ 0x5555)
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


_END = object()


class RefClock:
    """Wall times rescaled to the reference speed of the interpreter.

    Every timed interval lies between two runs of ``reference_loop``; its
    wall time is multiplied by ``REF_S`` over the mean of the two loop
    times.  Consecutive intervals share the loop that separates them.  On
    a shared host, whose speed drifts by tens of percent within a minute,
    the rescaled times stay steady while raw wall times do not.
    """

    def __init__(self):
        self.samples = [reference_loop()]

    def collect(self, items):
        """The list of ``items``, each step of the iterator timed as its own
        interval; returns it with the summed ``(rescaled, wall)`` time."""
        out = []
        total = wall = 0.0
        it = iter(items)
        while True:
            t0 = time.perf_counter()
            item = next(it, _END)
            scaled, raw = self.stop(t0)
            total += scaled
            wall += raw
            if item is _END:
                return out, (total, wall)
            out.append(item)

    def stop(self, t0):
        """``(rescaled, wall)`` seconds since ``t0``; runs the next reference
        loop."""
        return self.rescale(time.perf_counter() - t0)

    def rescale(self, wall):
        """``(rescaled, wall)`` for an interval of ``wall`` seconds that
        ended just now; runs the next reference loop."""
        self.samples.append(reference_loop())
        return wall * REF_S / ((self.samples[-2] + self.samples[-1]) / 2), wall


def child_import_s():
    """Time of ``import omegagames`` in a fresh interpreter, start-up excluded."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import omegagames; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], stdout=subprocess.PIPE, text=True, check=True
    )
    return float(proc.stdout)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or all")
        return 2
    if not (SRC / "omegagames" / "__init__.py").is_file():
        log(f"no program sources at {SRC}; run from the root of a source checkout")
        return 2
    os.environ["OMEGAGAMES_BACKEND"] = "python"
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()

    # set-up: the first import of the program, then the input pool.  Both
    # are timed SETUP_REPEATS times and the medians are added: the import
    # here and in fresh interpreters, the pool build here, one input at a
    # time between reference loops.
    clock = RefClock()
    t0 = time.perf_counter()
    from omegagames import _kernels

    imports = [clock.stop(t0)]
    for _ in range(SETUP_REPEATS - 1):
        imports.append(clock.rescale(child_import_s()))
    if _kernels.default_name() != "python":
        log("the pure-Python kernel is not the default kernel")
        return 2
    builds = []
    for _ in range(SETUP_REPEATS):
        pool = None  # free the previous pool before building the next
        pool, cost = clock.collect(wl.inputs(args.seed))
        builds.append(cost)
    setup_s = statistics.median(s for s, _ in imports) + statistics.median(s for s, _ in builds)
    raw_setup_s = statistics.median(w for _, w in imports) + statistics.median(w for _, w in builds)
    log(
        f"set-up wall clock: imports {[round(w, 4) for _, w in imports]} s, "
        f"builds {[round(w, 4) for _, w in builds]} s; "
        f"peak RSS after set-up {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB"
    )

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    # timed phase: whole rounds over the pool, stopping at the round
    # boundary nearest to the run length
    times = []  # of the operations that completed
    reference = {}
    mismatched = set()
    failed = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for k, inp in enumerate(pool):
            t0 = time.perf_counter()
            if rec:
                rec.open("op")
            try:
                out = wl.op(inp)
            except Exception:  # a failing operation is counted, the run goes on
                out = None
                traceback.print_exc()
            if rec:
                rec.close()
            took = clock.stop(t0)
            if out is None:
                failed += 1
                continue
            times.append(took)
            fp = wl.fingerprint(out)
            if reference.setdefault(k, fp) != fp:
                mismatched.add(k)
            out = None
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = rounds * len(pool)
    if not times:
        log(f"{wl.name} seed={args.seed}: all {attempted} operations failed")
        return 1

    # certification, outside the timed phase; in a traced run its spans and
    # counts are discarded
    if rec:
        timed_spans, timed_counts = rec.spans, dict(rec.counts)
        rec.spans, rec.stack = [], []
    errors = []
    check_start = time.perf_counter()
    for k, inp in enumerate(pool):
        if k in mismatched:
            errors.append(f"input {k}: timed operations gave differing outputs")
        try:
            out = wl.op(inp)
        except Exception as exc:
            errors.append(f"input {k}: the operation raised {exc!r}")
            continue
        if k in reference and wl.fingerprint(out) != reference[k]:
            errors.append(f"input {k}: the certified run differs from the timed ones")
        for e in wl.certify(inp, out):
            errors.append(f"input {k}: {e}")
        out = None
    for e in errors[:20]:
        log(f"CHECK FAILED {e}")
    raw_op = statistics.median(w for _, w in times)
    log(
        f"{wl.name} seed={args.seed}: {attempted} ops in {rounds} rounds over "
        f"{len(pool)} inputs, {wall:.2f} s timed, failed={failed}, check errors={len(errors)} "
        f"({time.perf_counter() - check_start:.1f} s certifying); input sizes {wl.sizes(pool[0])}; "
        f"wall clock: op p50 {raw_op:.4f} s, ops/s {len(times) / sum(w for _, w in times):.4f}, "
        f"set-up {raw_setup_s:.4f} s; reference loop median {statistics.median(clock.samples):.5f} s"
    )
    if getattr(wl, "lassos_assumed", None):
        log(f"input lassos the assumption accepts, per specification: {wl.lassos_assumed} of {len(wl.lassos)}")

    if rec:
        import spans

        summary = spans.summarize(timed_spans, attempted)
        metrics = layer_metrics(summary, timed_counts, times, attempted)
        write_trace(args, timed_spans, summary, attempted, metrics)
    else:
        values = {
            "op_s_p50": statistics.median(s for s, _ in times),
            "ops_per_s": len(times) / sum(s for s, _ in times),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = declared_units("end_to_end")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def layer_metrics(summary, counts, times, ops):
    units = declared_units("per_layer")
    values = {name: summary.get(name, 0.0) for name in units}
    for name, total in counts.items():
        if name in values:
            values[name] = total / ops
    checks = summary.get("synthesis.check_sufficiency.calls", 0.0)
    if checks:
        values["synthesis.fair_edges_per_check"] = counts.get("synthesis.fair_edges_kept", 0) / ops / checks
    values["trace.op_s_p50"] = statistics.median(s for s, _ in times)
    values["trace.op_wall_s_mean"] = summary["op.s"]
    values["trace.unattributed_s"] = summary["op.self_s"]
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def write_trace(args, timed_spans, summary, ops, metrics):
    """Spans as ``[name, start, end, parent]`` with times relative to the
    first span, plus the per-operation self-time split."""
    OUT.mkdir(exist_ok=True)
    base = timed_spans[0][1] if timed_spans else 0.0
    split = {k[: -len(".self_s")]: v for k, v in summary.items() if k.endswith(".self_s")}
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "self_s_per_op": split,
        "self_s_sum_per_op": sum(split.values()),
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "spans": [[n, round(s - base, 7), round(e - base, 7), p] for n, s, e, p in timed_spans],
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))
    log(f"trace written to {path}")


if __name__ == "__main__":
    sys.exit(main())
