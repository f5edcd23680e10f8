import ast
import functools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nmchain

SRC = Path(nmchain.__file__).parent

# Runs in a fresh interpreter: imports nmchain, then makes each CLI call
# in turn, and prints the scipy modules loaded after each step.
_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import nmchain
loaded["import nmchain"] = scipy_modules()
from nmchain.cli import main
loaded["import nmchain.cli"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    loaded[" ".join(argv)] = scipy_modules() if rc == 0 else f"exit code {rc}"
print(json.dumps(loaded))
"""


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    dunder = alias.name.startswith("__") and alias.name.endswith("__")
                    if alias.name.startswith("_") and not dunder:
                        found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert not found, found


def _int_constants(tree):
    """Module-level NAME = <int literal> assignments."""
    return {node.targets[0].id: node.value.value for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int}


def _cache_decorator(node):
    """True for functools' lru_cache or cache, by name or as functools.<name>."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
        return node.attr in ("lru_cache", "cache")
    return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")


def test_every_lru_cache_has_an_integer_maxsize():
    # a cache without a size limit grows with every new key (a fresh phi per call)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = _int_constants(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _cache_decorator(node.func):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                size = (node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"] + [None])[0]
                if isinstance(size, ast.Name):
                    size = constants.get(size.id)
                elif isinstance(size, ast.Constant):
                    size = size.value
                if name != "lru_cache" or type(size) is not int or size < 1:
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # used without a call, as @lru_cache or @functools.cache: unbounded
                found += [f"{path.name}:{d.lineno} {ast.unparse(d)}" for d in node.decorator_list if _cache_decorator(d)]
    assert not found, found


# Each cache is one more thing to bound, so a cache stays only where there is
# traffic. Lookups per pass of the benchmark workloads at seed 0
# (ensemble / window / sweep):
# - chains._step_isometry: 0 / 3,090 / 0 hits. Every custom step reads its
#   compiled isometry, and a gap-k layout has 2k + 1 step shapes at any
#   horizon; a built-in walk reads it once per call, for its one step
#   instrument, and on ensemble every walk has a fresh phi.
# - cli._shared_parser: one lookup per CLI call, in place of building the
#   argparse tree each time.
# A new cache lands with its measured hits, in this list.
CACHES = {"chains._step_isometry", "cli._shared_parser"}


def test_lru_caches_are_the_ones_with_traffic():
    found, uses = set(), 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _cache_decorator(node):
                uses += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_cache_decorator(getattr(d, "func", d)) for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
    assert found == CACHES
    assert uses == len(found), "a cache is made other than as a function decorator"


def _is_dataclass_decorator(d):
    d = getattr(d, "func", d)
    return getattr(d, "id", getattr(d, "attr", None)) == "dataclass"


# A type that holds one array and checks it is a wrapper its callers unwrap:
# its check belongs in the public function that takes the input from outside,
# and the array goes about plain. So every dataclass declares two fields or more.
def test_dataclasses_hold_more_than_one_field():
    found, thin = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
                found += 1
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                if len(fields) < 2:
                    thin.append(f"{path.stem}.{node.name}")
    assert found
    assert not thin, f"dataclasses with fewer than two fields: {thin}"


def test_all_lists_no_modules():
    assert nmchain.__all__
    modules = [n for n in nmchain.__all__ if isinstance(getattr(nmchain, n), types.ModuleType)]
    assert not modules, modules


def _bench_constants(*names):
    """Module-level constants of perfbench/run.py, evaluated without running it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in names:
            code = compile(ast.Expression(node.value), "run.py", "eval")
            found[node.targets[0].id] = eval(code, {"__builtins__": {"tuple": tuple}})
    assert set(found) == set(names), found
    return found


def test_benchmark_trace_names_resolve():
    # a renamed function would silently zero its per-layer benchmark row
    consts = _bench_constants("SPAN_METRICS", "SCHEDULE_SCANS")
    names = list(consts["SPAN_METRICS"].values()) + list(consts["SCHEDULE_SCANS"])
    assert names
    missing = []
    for name in names:
        try:
            target = functools.reduce(getattr, name.split("."), nmchain)
        except AttributeError:
            target = None
        if not callable(target):
            missing.append(name)
    assert not missing, missing


_DIGEST_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import cli_digest

call = {"cmd": "simulate", "model": "m", "format": "json", "exit": 0, "tokens": "t"}
old = {"k": dict(call, sha256="a", floats={"x[0]": [-0.0, 1.0, 2.0], "y": [0.0]})}
new = {"k": dict(call, sha256="b", floats={"x[0]": [0.0, 1.0, 2.5], "y": [-0.0]})}
sys.exit(cli_digest.compare(old, new))
"""


def test_cli_digest_counts_zero_sign_flips_on_their_own_line():
    # a -0.0 <-> 0.0 flip is no move of 0 to an exact 0.0
    tools = Path(__file__).resolve().parents[1] / "tools"
    proc = subprocess.run([sys.executable, "-c", _DIGEST_PROBE, str(tools)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "    x[] (x[0]): 1 floats moved, max 0.5, 0 to exact 0.0" in lines
    assert "    x[] (x[0]): 1 zero-sign flips (-0.0 <-> 0.0)" in lines
    assert "    y (y): 1 zero-sign flips (-0.0 <-> 0.0)" in lines
    assert not any(line.startswith("    y (y): ") and "floats moved" in line for line in lines)
    assert "largest float move: 0.5 (k, x[0])" in lines


_TEXT_PROBE = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import cli_digest

def entry(out, fmt):
    floats, tokens = cli_digest.parse(out, "", fmt)
    return {"cmd": "simulate", "model": "m", "format": fmt, "exit": 0, "tokens": tokens, "floats": floats,
            "sha256": hashlib.sha256(out.encode()).hexdigest()}

old, new, fmt = json.loads(sys.argv[2])
sys.exit(cli_digest.compare({"k": entry(old, fmt)}, {"k": entry(new, fmt)}))
"""


@pytest.mark.parametrize("old, new, fmt, rc", [
    ('{"a": 1, "b": 0.1}\n', '{"b": 0.1, "a": 1}\n', "json", 1),  # key order
    ("x\n0.1\n", "x\n0.10000000000000001\n", "csv", 1),  # the spelling of an equal float
    ("x\n0.0\n", "x\n-0.0\n", "csv", 0),  # a zero-sign flip only
], ids=["key-order", "float-spelling", "zero-sign-flip"])
def test_cli_digest_fails_on_a_text_only_change(old, new, fmt, rc):
    # equal tokens and floats under a new sha256: no move explains the change
    tools = Path(__file__).resolve().parents[1] / "tools"
    proc = subprocess.run([sys.executable, "-c", _TEXT_PROBE, str(tools), json.dumps([old, new, fmt])],
                          capture_output=True, text=True)
    assert proc.returncode == rc, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert ("CHANGED k: text changed, every token and float equal" in lines) == (rc == 1)
    assert f"{rc} exit-code, outcome, structure or text changes" in lines
    if not rc:
        assert "    x (x): 1 zero-sign flips (-0.0 <-> 0.0)" in lines


_EXTRA_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import cli_digest
from nmchain.chains import schedule_from_records

records = cli_digest.burst_layout(cli_digest.BURST_HORIZON)
sched = schedule_from_records(records)
ids, _, last = sched.spans()
closing = [[r["mol"] for r in records if r["t"] == t and last[list(ids).index(r["mol"])] == t]
           for t in range(sched.horizon)]
main = cli_digest.run.load_nmchain().cli.main
with tempfile.TemporaryDirectory() as workdir:
    out = dict(cli_digest.digest_calls(main, "extra", cli_digest.extra_calls(workdir)))
exits = sorted({(v["cmd"], v["model"], v["exit"]) for v in out.values()})
print(json.dumps({"closing": closing, "exits": exits, "n": len(out)}))
"""


def test_cli_digest_fixed_calls_read_out_several_molecules_per_step():
    # the digest's own calls cover what no workload does: steps that read
    # out several molecules listed out of id order, and the built-in models
    # at signed zeros and at pi/4, where sqrt-xor has no stationary limit
    tools = Path(__file__).resolve().parents[1] / "tools"
    proc = subprocess.run([sys.executable, "-c", _EXTRA_PROBE, str(tools)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    multi = [mols for mols in got["closing"] if len(mols) > 1]
    assert multi and all(mols != sorted(mols) for mols in multi)
    assert got["n"] == 2 * (3 * 2 + 3 * 4 * 4)
    failed = [e for e in got["exits"] if e[2] != 0]
    assert failed == [["measures", "sqrt-xor", 3]], got["exits"]


def test_cli_runs_without_scipy_until_a_correlation_is_polished(tmp_path):
    # scipy.optimize is imported on the first polish only, so every other
    # subcommand starts without it; module names, not times, keep this exact
    sched = tmp_path / "gap2.json"
    sched.write_text(json.dumps([{"t": t, "mol": m} for m in range(4) for t in (m, m + 2)]))
    init = ["--initial", "0.5,0.5,0.5,0"]
    without = [
        ["simulate", "--model", "sqrt-xor", "--phi", "0.3", "--steps", "4", "--memory", "0.3,0.7,0.1,0", *init],
        ["simulate", "--model", "custom", "--phi", "0.3", "--schedule", str(sched), *init],
        ["divisibility", "--model", "repeated-xor", "--phi", "0.3", "--steps", "4"],
        ["trajectories", "--model", "sqrt-xor", "--phi", "0.3", "--steps", "5", "--samples", "8", *init],
        ["schedule", "--figure", "5", "--horizon", "6"],
    ]
    measures = ["measures", "--model", "sqrt-xor", "--phi", "0.3", *init]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(without + [measures])],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "scipy.optimize" in loaded.pop(" ".join(measures))
    assert loaded == {step: [] for step in loaded}, loaded
