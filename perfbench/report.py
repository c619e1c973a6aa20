"""Regenerate the figures of perfbench/README.md.

    python3 perfbench/report.py

For every workload of BENCHMARK.json this runs ``run.py`` for
``run_seconds`` once per seed in ``SEEDS``, with tracing off, and
reports, per end-to-end metric, the median, the quartiles and their
spread (the distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them).  One traced run per
workload (the first seed) then gives the per-layer figures and the
per-operation self-time split.  Runs go one after another; the summary is
printed as Markdown and written to ``perfbench/out/report.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            res = run(wl, seed, seconds, 0)
            runs.append(res)
            vals = ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{wl} seed {seed}: correct={res['correct']} {res['failed']}/{res['attempted']} failed; {vals}", flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": {
                name: spread([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
        }
        traced = run(wl, SEEDS[0], seconds, 1)
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        trace = json.loads((HERE / "out" / f"trace-{wl}-seed{SEEDS[0]}.json").read_text())
        entry["self_s_per_op"] = trace["self_s_per_op"]
        report[wl] = entry

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "report.json").write_text(json.dumps(report, indent=1))
    print()
    print(f"seeds {SEEDS[0]}..{SEEDS[-1]}, {seconds} s runs")
    print("| workload | metric | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|")
    for wl, entry in report.items():
        for name, s in entry["metrics"].items():
            print(f"| {wl} | {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.1%} |")
    for wl, entry in report.items():
        t = entry["traced"]
        print(f"\n{wl}: traced op_s_p50 {t['trace.op_s_p50']:.4g} s vs untraced median "
              f"{entry['metrics']['op_s_p50']['median']:.4g} s")
        split = sorted(entry["self_s_per_op"].items(), key=lambda kv: -kv[1])
        total = t["trace.op_wall_s_mean"]
        print("| span | self s/op | share |")
        print("|---|---|---|")
        for name, v in split:
            print(f"| {name} | {v:.4g} | {v / total:.1%} |")
        print("| per-layer metric | value |")
        print("|---|---|")
        for name, v in t.items():
            if v:
                print(f"| {name} | {v:.6g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
