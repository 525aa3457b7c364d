"""Smoke test of the benchmark harness: every workload once at its minimal
size, untraced and traced, so every correctness check, the digest store and
the trace writer run. It lives outside the package's test path; run it with

    python3 -m pytest bench/test_smoke.py -q
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_untraced_then_traced(workload):
    for trace in (0, 1):  # the traced run re-checks the untraced run's digests
        done = _run(ROOT, workload, trace, "--smoke")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, done.stdout
        assert result["attempted"] >= 1
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in wanted}
    with gzip.open(BENCH / "out" / f"{workload}.smoke.spans.json.gz", "rt") as fh:
        spans = json.load(fh)["spans"]
    assert spans and all(start <= end for _, start, end, _, _ in spans)


def test_spec_matches_harness():
    import probe
    import run

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == probe.per_layer_units()


def test_digest_mismatch_fails_the_operation():
    import probe

    rec = probe.Recorder(expected={"model.fit#0": "a" * 64})
    problems = rec.digest("model.fit#0", "b" * 64)
    assert not rec.check("fit", problems)
    assert "nondeterminism" in rec.failures[0] and "earlier run" in rec.failures[0]


def test_changed_source_starts_fresh_digests(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    store_path = tmp_path / "bench" / "out" / "digests.json"

    def result():
        done = _run(tmp_path, "suite-spiral", 0, "--smoke")
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    assert result()["correct"]
    [(key, entry)] = json.loads(store_path.read_text()).items()
    poisoned = {label: "0" * 64 for label in entry}
    store_path.write_text(json.dumps({key: poisoned}))
    assert not result()["correct"]  # same program, other digests: nondeterminism

    with open(tmp_path / "src" / "neurodavis" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write("# edited\n")
    assert result()["correct"]  # another program is compared only with itself
    store = json.loads(store_path.read_text())
    assert len(store) == 2 and store[key] == poisoned


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "suite-spiral", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
