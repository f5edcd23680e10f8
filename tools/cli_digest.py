#!/usr/bin/env python3
"""Digest every CLI output of the benchmark workloads, and compare two digests.

    python3 tools/cli_digest.py [--src DIR] [--seeds 0,17] [--out FILE] [--against OLD]

Runs every call of passes 0-2 of each workload at each seed (the call lists
of perfbench/calls.py, which this script only reads) through
`nmchain.cli.main`, in process, once with `--format json` and once with
`--format csv` (`schedule` takes no --format and runs once). Each call goes
through perfbench's `run.invoke`, so an exception escaping main is recorded
as exit code -1 with its traceback. The nmchain package is imported from DIR
(default: this checkout's src/), so a second source tree can be digested to
compare against.

For each output the digest keeps the exit code, the sha256 of stdout and
stderr, a sha256 of everything that is not a float (outcomes, integers,
booleans, strings, structure), and the floats themselves by field: a JSON
path without the line index, or a CSV column. --out writes it as JSON.
--against OLD compares it with an earlier digest and prints, per workload,
subcommand and format, the outputs that moved, by model; per field (list
indices folded, the moved index paths named) the floats that moved, their
largest move and how many moved to an exact 0.0, and on a line of its own
the zeros that only changed sign (-0.0 <-> 0.0); the largest float move
overall; and every exit-code or non-float change, and every output whose
text changed while its tokens and floats did not (key order, the spelling
of a float).
The exit status is 1 when any of these changed; floats that moved, and
zeros that only changed sign, leave it 0.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import calls  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402

PASSES = 3

# CSV columns that hold integers, booleans, bit strings or labels, never floats
CSV_TEXT_COLUMNS = {"t", "outcomes", "exists", "count_qubits", "classification"}


def _walk(doc, path, floats, tokens):
    if isinstance(doc, dict):
        tokens.append("{")
        for k in sorted(doc):
            v = doc[k]
            tokens.append(repr(k))
            _walk(v, f"{path}.{k}" if path else k, floats, tokens)
        tokens.append("}")
    elif isinstance(doc, list):
        tokens.append(f"[{len(doc)}")
        for i, v in enumerate(doc):
            _walk(v, f"{path}[{i}]", floats, tokens)
    elif isinstance(doc, float):
        floats[path].append(doc)
        tokens.append("f")
    else:
        tokens.append(repr(doc))


def _csv(text, floats, tokens):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    tokens.append(",".join(header))
    for row in rows[1:]:
        tokens.append(str(len(row)))
        for name, cell in zip(header, row):
            try:
                value = None if name in CSV_TEXT_COLUMNS else float(cell)
            except ValueError:
                value = None
            if value is None:
                tokens.append(cell)
            else:
                floats[name].append(value)
                tokens.append("f")


def parse(out: str, err: str, fmt: str):
    """(floats by field, sha256 of the non-float tokens) of one output.

    JSON lines are walked; any other line is one token. A CSV stdout is
    read by column.
    """
    floats, tokens = defaultdict(list), []
    if fmt == "csv":
        _csv(out, floats, tokens)
        out = ""
    for doc in checker._documents(out, err):
        _walk(doc, "", floats, tokens)
    return dict(floats), hashlib.sha256("\x1f".join(tokens).encode()).hexdigest()


def digest_calls(main, workload: str, seed: int, index: int, workdir: str):
    for i, call in enumerate(calls.call_list(workload, seed, index, workdir)):
        for fmt in ("default",) if call.cmd == "schedule" else ("json", "csv"):
            argv = list(call.argv) + ([] if fmt == "default" else ["--format", fmt])
            rc, out, err, _, _ = run.invoke(main, argv)
            floats, tokens = parse(out, err, fmt)
            yield f"{workload}:{seed}:{index}:{i}:{fmt}", {
                "cmd": call.cmd, "model": call.params.get("model"), "format": fmt, "exit": rc,
                "sha256": hashlib.sha256((out + "\0" + err).encode()).hexdigest(),
                "tokens": tokens, "floats": floats,
            }


def digest(src: Path, seeds) -> dict:
    run.SRC = src.resolve()
    nmchain = run.load_nmchain()
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in calls.WORKLOADS:
            calls.prepare(workload, workdir)
            for seed in seeds:
                for index in range(PASSES):
                    out.update(digest_calls(nmchain.cli.main, workload, seed, index, workdir))
    return out


def _fmt(x: float) -> str:
    return f"{x:.3g}"


def compare(old: dict, new: dict) -> int:
    """Print what moved from old to new; 1 if an exit code, a token or only the text changed."""
    changed = []
    if old.keys() != new.keys():
        changed.append(f"the digests cover different calls: {len(old.keys() ^ new.keys())} keys differ")
    groups = defaultdict(lambda: {"n": 0, "moved": defaultdict(int), "fields": {}})
    worst = (0.0, None, None)
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        g = groups[(key.split(":")[0], a["cmd"], a["format"])]
        g["n"] += 1
        if a["sha256"] == b["sha256"]:
            continue
        g["moved"][a["model"]] += 1
        if a["exit"] != b["exit"]:
            changed.append(f"{key}: exit code {a['exit']} -> {b['exit']}")
        if a["tokens"] != b["tokens"] or a["floats"].keys() != b["floats"].keys():
            changed.append(f"{key}: outcomes, integers, strings or structure changed")
            continue
        explained = False
        for field, xs in a["floats"].items():
            ys = b["floats"][field]
            moves = [(abs(y - x), y) for x, y in zip(xs, ys) if x != y]
            # equal values that differ in the sign bit: -0.0 <-> 0.0
            flips = sum(x == y and math.copysign(1, x) != math.copysign(1, y) for x, y in zip(xs, ys))
            if not moves and not flips:
                continue
            explained = True
            f = g["fields"].setdefault(re.sub(r"\[\d+\]", "[]", field),
                                       {"floats": 0, "max": 0.0, "to_zero": 0, "flips": 0, "paths": set()})
            f["paths"].add(field)
            f["flips"] += flips
            if not moves:
                continue
            f["floats"] += len(moves)
            f["to_zero"] += sum(y == 0.0 and math.copysign(1, y) > 0 for _, y in moves)
            big = max(d for d, _ in moves)
            f["max"] = max(f["max"], big)
            if big > worst[0]:
                worst = (big, key, field)
        if not explained and a["exit"] == b["exit"]:
            changed.append(f"{key}: text changed, every token and float equal")
    for (workload, cmd, fmt), g in sorted(groups.items()):
        moved = sum(g["moved"].values())
        by_model = ", ".join(f"{m}: {c}" for m, c in sorted(g["moved"].items(), key=str))
        print(f"{workload} {cmd} {fmt}: {moved} of {g['n']} outputs moved" + (f" ({by_model})" if moved else ""))
        for field, f in sorted(g["fields"].items()):
            paths = sorted(f["paths"])
            where = ", ".join(paths) if len(paths) <= 3 else f"{len(paths)} index paths"
            if f["floats"]:
                print(f"    {field} ({where}): {f['floats']} floats moved, max {_fmt(f['max'])},"
                      f" {f['to_zero']} to exact 0.0")
            if f["flips"]:
                print(f"    {field} ({where}): {f['flips']} zero-sign flips (-0.0 <-> 0.0)")
    if worst[1] is not None:
        print(f"largest float move: {_fmt(worst[0])} ({worst[1]}, {worst[2]})")
    else:
        print("largest float move: none")
    for line in changed:
        print(f"CHANGED {line}")
    print(f"{len(changed)} exit-code, outcome, structure or text changes")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the nmchain package")
    ap.add_argument("--seeds", default="0,17", help="comma-separated call-list seeds")
    ap.add_argument("--out", type=Path, help="write the digest here as JSON")
    ap.add_argument("--against", type=Path, help="an earlier digest to compare with")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    new = digest(args.src, seeds)
    if args.out is not None:
        args.out.write_text(json.dumps(new))
    print(f"{len(new)} outputs digested")
    if args.against is None:
        return 0
    return compare(json.loads(args.against.read_text()), new)


if __name__ == "__main__":
    sys.exit(main())
