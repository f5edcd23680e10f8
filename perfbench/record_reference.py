"""Record the reference outputs that run.py compares against for the default seed.

    python3 perfbench/record_reference.py

Runs the first REFERENCE_PASSES passes of every workload with the default
seed, untimed, and writes one fingerprint per call (checker.fingerprint)
to perfbench/reference.json. Each output must pass the checker first.
Record only from a commit whose outputs are known good: the file is the
yardstick later commits are held to.
"""
from __future__ import annotations

import json
import sys
import tempfile

import calls
import checker
import run as bench

REFERENCE_PASSES = 2


def main() -> int:
    nmchain = bench.load_nmchain()
    bench.WORK.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=bench.WORK) as workdir:
        for workload in calls.WORKLOADS:
            calls.prepare(workload, workdir)
            passes = []
            for index in range(REFERENCE_PASSES):
                prints = []
                for call in calls.call_list(workload, bench.DEFAULT_SEED, index, workdir):
                    rc, out, err, _, _ = bench.invoke(nmchain.cli.main, call.argv)
                    problems = checker.check(call, rc, out, err)
                    if problems:
                        print(f"{workload} pass {index}: nmchain {' '.join(call.argv)}: {problems}",
                              file=sys.stderr)
                        return 1
                    prints.append(checker.fingerprint(out, err))
                passes.append(prints)
            reference[workload] = passes
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {bench.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
