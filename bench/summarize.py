"""Median and quartiles of each metric over the run reports in bench/out.

    python3 bench/summarize.py [--json]

Each run writes ``bench/out/<workload>.<size>.seed<N>.trace<T>.json``. This
script groups the reports of full-size runs by workload and gives, per metric, the number of
runs, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the interquartile range as a share of the median. End-to-end metrics
come from untraced runs, per-layer metrics from traced runs.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize() -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units, seeds, provenance = {}, defaultdict(set), {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for path in sorted(OUT.glob(f"*.full.seed*.trace{trace}.json")):
            report = json.loads(path.read_text())
            workload = report["provenance"]["workload"]
            seeds[(section, workload)].add(report["provenance"]["seed"])
            provenance = report["provenance"]
            for name, metric in report[section].items():
                values[(section, workload)][name].append(metric["value"])
                units[name] = metric["unit"]
    summary = {"end_to_end": {}, "per_layer": {},
               "provenance": {k: v for k, v in provenance.items()
                              if k not in ("seed", "workload", "why")}}
    for (section, workload), metrics in sorted(values.items()):
        entry = summary[section][workload] = {"seeds": sorted(seeds[(section, workload)])}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            entry[name] = {
                "runs": len(vals), "median": median, "q1": q1, "q3": q3, "unit": units[name],
                "spread": (q3 - q1) / abs(median) if median else None,
            }
    return summary


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--json", action="store_true", help="print JSON instead of a table")
    args = p.parse_args()
    summary = summarize()
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return
    for section in ("end_to_end", "per_layer"):
        for workload, metrics in summary[section].items():
            print(f"{section} {workload} (seeds {metrics.pop('seeds')})")
            for name, m in metrics.items():
                spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
                print(f"  {name:<44} {m['median']:<12.6g} {m['unit']:<6} runs {m['runs']:<3} "
                      f"q1 {m['q1']:<11.6g} q3 {m['q3']:<11.6g} spread {spread}")


if __name__ == "__main__":
    main()
