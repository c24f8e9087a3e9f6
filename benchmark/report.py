#!/usr/bin/env python3
"""Aggregates and compares benchmark runs (the noise protocol's bookkeeping).

  report.py summarize DIR --seed N --seconds S   result lines in DIR -> one suite object on stdout
  report.py show SUITE.json                      one line per metric: median, quartiles, sample count
  report.py compare A.json B.json                B against A under BENCHMARK.json's bounds
  report.py spread DIR                           quartile spread of each end-to-end metric over DIR's runs
  report.py baseline A.json B.json OUTDIR        two suites -> OUTDIR/<workload>.json (the committed baseline)

A suite object is {"seed", "seconds", "nproc", "workloads": {name: {"end_to_end":
{metric: {"median", "q1", "q3", "n", "unit"}}, "per_layer": {metric: {"value",
"unit"}}, "attempted", "failed"}}}.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Counts that must repeat exactly for a seed (simulated statistics and
# per-round protocol counts), whatever the host does.
EXACT = [
    "sim-core.events_executed",
    "iocontainers.actions",
    "iocontainers.tenants_blocked",
    "iocontainers.policy_rounds",
    "iocontainers.schedule_hash_lo32",
    "simfault.faults_injected",
    "d2t.transactions",
    "stream.sealed_steps",
    "stream.steps_lost",
    "stream.steps_duplicated",
    "adios.bytes_encoded",
]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def contract():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_lines(pattern):
    out = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            text = f.read().strip()
        if text:
            out.append(json.loads(text.splitlines()[-1]))
    return out


def summarize(directory, seed, seconds):
    suite = {"seed": seed, "seconds": seconds, "nproc": os.cpu_count(), "workloads": {}}
    names = sorted({os.path.basename(p).split(".")[0] for p in glob.glob(f"{directory}/*.json")})
    for name in names:
        runs = load_lines(f"{directory}/{name}.e2e.*.json")
        layers = load_lines(f"{directory}/{name}.layers.json")
        entry = {
            "attempted": sum(r["attempted"] for r in runs + layers),
            "failed": sum(r["failed"] for r in runs + layers),
            "end_to_end": {},
            "per_layer": {},
        }
        for metric in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = quartiles(values)
            entry["end_to_end"][metric] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "n": len(values),
                "unit": runs[0]["metrics"][metric]["unit"],
            }
        if layers:
            entry["per_layer"] = layers[0]["metrics"]
        suite["workloads"][name] = entry
    return suite


def show(suite):
    print(f"# seed {suite['seed']}  seconds/run {suite['seconds']}  nproc {suite['nproc']}")
    for name, w in suite["workloads"].items():
        share = w["failed"] / max(w["attempted"], 1)
        print(f"\n== {name}: failed_share {share:.6f} ({w['failed']} of {w['attempted']} operations)")
        for metric, m in w["end_to_end"].items():
            print(
                f"{metric:<48} {m['median']:>16.6f} {m['unit']:<6} "
                f"n={m['n']} q1={m['q1']:.6f} q3={m['q3']:.6f}"
            )
        for metric, m in w["per_layer"].items():
            print(f"{metric:<48} {m['value']:>16.6f} {m['unit']}")


def compare(a, b):
    """B against A. A metric is *unresolved* when either side's own quartile
    spread exceeds its bound: the runs cannot tell a change that size from
    noise, so neither 'regressed' nor 'unchanged' is claimed."""
    bounds = {m["name"]: m for m in contract()["end_to_end"]}
    bad = 0
    print(f"{'workload':<16} {'metric':<16} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<16} missing from B")
            bad += 1
            continue
        for metric, spec in bounds.items():
            ma, mb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ma is None or mb is None:
                continue
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if spec["better"] == "lower" else -change
            noise = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
            if noise > spec["bound"]:
                verdict = f"unresolved (quartile spread {noise:.1%} exceeds the bound)"
            elif worse > spec["bound"]:
                verdict = "REGRESSED"
                bad += 1
            else:
                verdict = "ok"
            print(
                f"{name:<16} {metric:<16} {ma['median']:>14.6g} {mb['median']:>14.6g} "
                f"{worse:>+9.1%} {spec['bound']:>6.0%}  {verdict}"
            )
        if wb["failed"]:
            print(f"{name:<16} {wb['failed']} of {wb['attempted']} operations failed in B")
            bad += 1
        if a.get("seed") == b.get("seed"):
            for metric in EXACT:
                va = wa["per_layer"].get(metric, {}).get("value")
                vb = wb["per_layer"].get(metric, {}).get("value")
                if va != vb:
                    print(f"{name:<16} {metric}: exact count differs, {va} then {vb}")
                    bad += 1
    return bad


def spreads(directory):
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    names = sorted({os.path.basename(p).split(".")[0] for p in glob.glob(f"{directory}/*.json")})
    for name in names:
        runs = load_lines(f"{directory}/{name}.*.json")
        failed = sum(r["failed"] for r in runs)
        print(f"== {name}: {len(runs)} runs, {failed} failed operations")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            bound = bounds.get(metric)
            note = "" if bound is None else f"  bound {bound:.0%}, a third of it {bound / 3:.1%}"
            print(
                f"  {metric:<18} median {statistics.median(values):>14.6g}  "
                f"spread {spread(values):>6.2%}{note}"
            )


def baseline(a, b, outdir):
    """One file per workload: both sets' metrics, and per seed the simulated
    statistics a simulator-only change must leave identical."""
    os.makedirs(outdir, exist_ok=True)
    for name in a["workloads"]:
        doc = {"workload": name, "nproc": a["nproc"], "sets": {}}
        for label, suite in (("A", a), ("B", b)):
            w = suite["workloads"][name]
            doc["sets"][label] = {
                "seed": suite["seed"],
                "seconds_per_run": suite["seconds"],
                "attempted": w["attempted"],
                "failed": w["failed"],
                "simulated": {
                    m: w["per_layer"][m]["value"] for m in EXACT if w["per_layer"][m]["value"]
                },
                "end_to_end": w["end_to_end"],
                "per_layer": w["per_layer"],
            }
        with open(os.path.join(outdir, f"{name}.json"), "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


def main(argv):
    if len(argv) >= 2 and argv[0] == "summarize":
        opts = dict(zip(argv[2::2], argv[3::2]))
        suite = summarize(argv[1], int(opts.get("--seed", 0)), float(opts.get("--seconds", 0)))
        json.dump(suite, sys.stdout, indent=1)
        print()
    elif len(argv) == 2 and argv[0] == "show":
        with open(argv[1]) as f:
            show(json.load(f))
    elif len(argv) == 3 and argv[0] == "compare":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            return 1 if compare(json.load(fa), json.load(fb)) else 0
    elif len(argv) == 2 and argv[0] == "spread":
        spreads(argv[1])
    elif len(argv) == 4 and argv[0] == "baseline":
        with open(argv[1]) as fa, open(argv[2]) as fb:
            baseline(json.load(fa), json.load(fb), argv[3])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
