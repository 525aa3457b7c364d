"""Run one neurodavis CLI command in this interpreter under the benchmark's probes.

    python3 bench/launch.py RECORD.json TRACE -- <neurodavis cli arguments>

TRACE 1 probes every layer function, TRACE 0 only the outer calls that carry
the correctness checks. The record (spans, counts, checks, digests, this
process's peak RSS) is written to RECORD.json when the command returns, and
the process exits with the command's exit code.
"""

import json
import resource
import sys
import time


def main() -> int:
    record_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: launch.py RECORD.json TRACE -- ARGS...", file=sys.stderr)
        return 2
    start = time.perf_counter_ns()
    import neurodavis.cli  # the package import every CLI process pays

    import probe

    rec = probe.Recorder()
    rec.spans.append(["cli.import", start, time.perf_counter_ns(), -1, 0])
    code = 1
    try:
        probe.install(rec, probe.TARGETS if trace == "1" else probe.OUTER)
        code = neurodavis.cli.main(argv)
    finally:
        doc = rec.to_child_doc()
        doc["returncode"] = code
        doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
