"""Benchmark of the neurodavis package in this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

One run builds the workload's inputs from the seed, then repeats the
workload's operation, one at a time in this process (closed loop, one
caller), until S seconds have passed. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics from the traced ones, plus the
tracing overhead. ``--smoke`` runs every workload at a minimal size, with
every check. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. BLAS is pinned to one
thread in every interpreter the run starts, this one included.
"""

import os
import sys

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED.items()):
    # BLAS reads its thread count when it loads, so the pin must be in the
    # environment before the interpreter starts: start again with it.
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED})

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# (name, unit, better) of the metrics the JSON line carries with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("fit_step_p1_us", "us", "lower"),
    ("distance_spearman", "1", "higher"),
)
# Printed as well, where the workload computes them. These vary from run to
# run by more than any allowed bound, so they stay out of the result line;
# see README.md.
REPORTED = END_TO_END + (
    ("peak_rss_mb", "MiB", "lower"),
    ("wall_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("cli_s", "s", "lower"),
    ("check_s", "s", "lower"),
    ("error_rate", "1", "lower"),
    ("centroid_spearman", "1", "higher"),
    ("knn_accuracy", "1", "higher"),
    ("kmeans_ari", "1", "higher"),
    ("agglomerative_ari", "1", "higher"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["suite-spiral", "pipeline-world_map-lift9", "cli-olympic"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="minimal sizes, for the smoke test")
    return p.parse_args(argv)


def _blas_runtime() -> dict:
    """OpenBLAS thread count and build string as loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return {"library": Path(path).name, "threads": threads(),
                            "config": config().decode()}
    return {"library": None, "threads": None, "config": None}


def _provenance(neurodavis, np, ctx) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "neurodavis").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "neurodavis_file": neurodavis.__file__,
        "neurodavis_version": neurodavis.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": _blas_runtime(),
        "env": {k: os.environ.get(k) for k in PINNED},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": ctx.seed,
    }


def digest_key(prov: dict) -> str:
    """Runs whose outputs must match bit for bit: same workload, size, seed,
    program source, BLAS thread count, numpy and Python."""
    return (f"{prov['workload']}|{prov['size']}|seed={prov['seed']}"
            f"|source={prov['source_sha256']}|blas_threads={prov['blas_runtime']['threads']}"
            f"|numpy={prov['numpy']}|python={prov['python']}")


def _summary(samples: list[float]) -> tuple[float, int, str]:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (none below twenty samples)."""
    n = len(samples)
    extra = ""
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        cut = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
        extra = f", p{pct} {cut:.6g}"
    return float(statistics.median(samples)), n, extra


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "neurodavis" / "__init__.py").is_file():
        print(f"error: no neurodavis package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import neurodavis

    if Path(neurodavis.__file__).resolve().parent != (SRC / "neurodavis").resolve():
        print(f"error: imported neurodavis from {neurodavis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probe
    import workloads

    env = {**os.environ, **PINNED}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    ctx = workloads.Context(seed=args.seed, smoke=args.smoke, env=env)
    wl = workloads.WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    prov = _provenance(neurodavis, np, ctx)
    prov.update(workload=wl.name, why=wl.why, size=size)

    workloads.OUT.mkdir(exist_ok=True)
    store_path = workloads.OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = digest_key(prov)
    rec = probe.Recorder(expected=store.get(key))
    if prov["blas_runtime"]["threads"] not in (1, None):
        rec.check("BLAS pin", [f"BLAS runs {prov['blas_runtime']['threads']} threads, not 1"])

    # Set-up samples come in two batches, before and after the timed
    # operations, so that they see more than one phase of the machine's speed.
    setup_repeats = 1 if args.smoke else 8
    setup = workloads.measure_setup(wl, ctx, setup_repeats)
    ctx.traced = bool(args.trace)
    uninstall = probe.install(rec, probe.TARGETS if ctx.traced else probe.OUTER)
    state = wl.prepare(ctx)
    uninstall()

    ops = []  # (group, traced, wall seconds, op measurements)
    started = time.perf_counter()
    while True:
        ctx.traced = bool(args.trace) and len(ops) % 2 == 1
        rec.begin_group()
        uninstall = probe.install(rec, probe.TARGETS if ctx.traced else probe.OUTER)
        t0 = time.perf_counter()
        measured = {}
        try:
            measured = wl.op(ctx, rec, state)
        except Exception as exc:  # the run goes on: a failed operation is counted
            traceback.print_exc()
            rec.check(f"operation {rec.group}", [f"raised {exc!r}"])
        finally:
            wall = time.perf_counter() - t0
            uninstall()
        ops.append((rec.group, ctx.traced, wall, measured))
        # Start another operation only if it should end within half an
        # operation of the time asked for; traced runs need one of each kind.
        enough = not args.trace or len(ops) >= 2
        if enough and time.perf_counter() - started + wall / 2 >= args.seconds:
            break

    setup += workloads.measure_setup(wl, ctx, setup_repeats)

    plain = [op for op in ops if not op[1]]
    samples = {"setup_s": setup, "wall_s": [op[2] for op in plain]}
    for group, _, _, measured in plain:
        for name, value in measured.items():
            samples.setdefault(name, []).append(value)
        for name, values in rec.values[group].items():
            samples.setdefault(name, []).extend(values)
    samples["fit_step_us"] = probe.fit_steps(rec, {op[0] for op in plain})
    if "peak_rss_mb" not in samples:  # library workloads: this process did the work
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    failed = len(rec.failures)
    samples["error_rate"] = [failed / max(rec.attempted, 1)]

    units = {name: unit for name, unit, _ in REPORTED}
    print(f"workload {wl.name} seed {args.seed} size {size} trace {args.trace}: "
          f"{len(plain)} untraced operations in {time.perf_counter() - started:.1f} s")
    end_to_end = {}
    for name, unit, better in REPORTED:
        if name == "setup_s":
            value, stat = min(setup), f"minimum of {len(setup)} fresh interpreters"
        elif name == "fit_step_p1_us" and samples["fit_step_us"]:
            steps = samples[name] = samples["fit_step_us"]
            value, stat = float(np.percentile(steps, 1)), f"1st percentile of {len(steps)} steps"
        elif samples.get(name):
            value, n, extra = _summary(samples[name])
            stat = f"median of {n}{extra}"
        else:
            continue
        end_to_end[name] = value
        print(f"  {name:<20} {value:<12.6g} {unit:<4} ({better} is better; {stat})")
    print(f"  operations attempted {rec.attempted}, failed {failed}")
    for failure in rec.failures:
        print(f"  FAILED {failure}")

    report = {"provenance": prov, "configs": ctx.configs,
              "end_to_end": {k: {"value": v, "unit": units[k], "samples": len(samples[k])}
                             for k, v in end_to_end.items()},
              "attempted": rec.attempted, "failures": rec.failures}
    if args.trace:
        traced = [op for op in ops if op[1]]
        groups = {0} | {op[0] for op in traced}
        layer, counts = probe.layer_metrics(rec, groups)
        layer["trace.overhead_s"] = (statistics.median(op[2] for op in traced)
                                     - statistics.median(op[2] for op in plain))
        counts["trace.overhead_s"] = len(traced)
        layer_units = probe.per_layer_units()
        print(f"  per-layer, from {len(traced)} traced operations "
              f"(tracing overhead {layer['trace.overhead_s']:+.4f} s per operation):")
        for name, unit in layer_units.items():
            note = "" if counts[name] else "  (absent: not called on this workload)"
            print(f"    {name:<48} {layer[name]:<12.6g} {unit:<6} n={counts[name]}{note}")
        report["per_layer"] = {k: {"value": layer[k], "unit": u, "samples": counts[k]}
                               for k, u in layer_units.items()}
        rec.write_spans(workloads.OUT / f"{wl.name}.{size}.spans.json.gz",
                        f"{wl.name}/seed={args.seed}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in layer_units.items()}
    else:
        missing = [name for name, _, _ in END_TO_END if name not in end_to_end]
        if missing:
            print(f"error: no samples of {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit, _ in END_TO_END}
    print("provenance " + json.dumps(prov, sort_keys=True))

    store[key] = {label: value for label, (value, _) in rec.expected.items()}
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    (workloads.OUT / f"{wl.name}.{size}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))

    print(json.dumps({"correct": failed == 0, "attempted": rec.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
