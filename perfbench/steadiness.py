#!/usr/bin/env python3
"""Measure the benchmark's run-to-run noise and write the steadiness record.

Runs perfbench/run.sh on several seeds per workload (untraced), then for
every end-to-end metric reports the median, the quartiles and the
quartile spread (q3 - q1) / median, plus ops per run. Writes
STEADINESS.md and steadiness.json to --out (default: perfbench/) and
prints each spread beside its bound.

Usage, from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 35 [--workloads bulk-mem,small-open] [--out DIR]
"""
import argparse
import json
import os
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds):
    t0 = time.time()
    p = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        errors = [l for l in p.stderr.splitlines() if l.startswith(("FAILED", "perfbench:"))]
        return {"seed": seed, "wall_s": round(wall, 1), "exit": p.returncode, "errors": errors[:10]}
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    ops = next((l for l in lines if l.startswith("ops:")), "")
    # The "-- not gated" table: throughputs and the failed-op ratio.
    section = lines[lines.index("-- not gated") + 1:lines.index("-- result")]
    fields = [l.split() for l in section]
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    units.update({f[0]: f[2] for f in fields})
    return {"seed": seed, "wall_s": round(wall, 1), "ops": ops, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "ungated": {f[0]: float(f[1]) for f in fields}, "units": units}


def summarize(runs, key):
    runs = [r for r in runs if key in r]
    out = {}
    for name in sorted(runs[0][key]):
        vals = [r[key][name] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        out[name] = {"unit": runs[0]["units"][name], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--label", default="", help="what was measured, e.g. the commit")
    ap.add_argument("--out", default=HERE, help="directory for STEADINESS.md and steadiness.json")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    record = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for wl in names:
        runs = []
        for seed in seed_list(args.seeds):
            r = run_once(wl, seed, args.seconds)
            print(f"{wl} seed {seed}: {r['wall_s']} s wall, {r.get('ops') or r['errors']}", flush=True)
            runs.append(r)
        record["workloads"][wl] = {"runs": runs, "summary": summarize(runs, "metrics"),
                                   "ungated": summarize(runs, "ungated")}
        for name, s in record["workloads"][wl]["summary"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:24s} median {s['median']:12.4f}  spread {spread}  bound {bounds.get(name)}", flush=True)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "steadiness.json"), "w") as f:
        json.dump(record, f, indent=1)
    md = ["# Steadiness record", "",
          f"Untraced runs of `bash perfbench/run.sh --seconds {args.seconds}` on seeds {args.seeds}"
          + (f" ({args.label})" if args.label else "") + ".",
          "Spread is (q3 - q1) / median over the runs, quartiles as Python's",
          "`statistics.quantiles(values, n=4)` gives them; `bound` is the metric's bound",
          "in BENCHMARK.json. Raw values are in steadiness.json.", ""]
    for wl, data in record["workloads"].items():
        runs = data["runs"]
        md += [f"## {wl}", "", "Ops per run (seed: op counts, tail percentiles, metadata elections):", ""]
        md += [f"- {r['seed']}: {r['ops'].removeprefix('ops: ')}" if "ops" in r else
               f"- {r['seed']}: FAILED (exit {r['exit']}): {'; '.join(r['errors'])}" for r in runs]
        md += ["", "| metric | unit | median | q1 | q3 | spread | bound |", "|---|---|---|---|---|---|---|"]
        for name, s in list(data["summary"].items()) + list(data["ungated"].items()):
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            md.append(f"| {name} | {s['unit']} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                      f"{spread} | {bounds.get(name, 'not gated')} |")
        md.append("")
    with open(os.path.join(args.out, "STEADINESS.md"), "w") as f:
        f.write("\n".join(md))


if __name__ == "__main__":
    main()
