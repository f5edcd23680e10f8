#!/usr/bin/env python3
"""Benchmark of the nmchain CLI: seeded, output-checked workloads.

    python3 perfbench/run.py --workload {ensemble,window,sweep,all} [--seed N]
                             [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports nmchain from its
`src/`. Each pass is a seeded list of ~100 CLI calls (see calls.py), run
one after another through `nmchain.cli.main(argv)` in this process: a
closed loop with one client. In-process calls keep the 0.5-0.9 s
interpreter and numpy/scipy start-up out of call latency; that start-up
is measured as `setup_s`, in fresh processes. Passes repeat until
--seconds have been spent in them, and there are at least MIN_PASSES.

Every output goes through checker.py; a failed check makes the run
incorrect and the exit code 1. With --trace 0 the end-to-end metrics of
BENCHMARK.json are reported. With --trace 1 passes alternate between
untraced and traced (tracer.py), and the per-layer metrics are reported.
The last line of stdout is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Every run makes at least this many passes, and peak_rss_mb is read when
# they are done, so that it does not depend on how many passes fit into
# --seconds on a fast or a slow machine.
MIN_PASSES = 3
sys.path.insert(0, str(HERE))
import calls  # noqa: E402
import checker  # noqa: E402
import speed  # noqa: E402

# per-layer metric -> span whose calls and self time it reports
SPAN_METRICS = {
    "linalg.eig_hermitian": "linalg.eig_hermitian",
    "gates.embed": "gates.embed",
    "chains.window_collide": "chains.window_collide",
    "chains.system_maps": "chains.system_maps",
    "chains.build_embedding": "chains.build_embedding",
    "channels.apply_kraus": "channels.apply_kraus",
    "channels.map_tomography": "channels.map_tomography",
    "channels.divisibility_scan": "channels.divisibility_scan",
    "measures.classical_correlation": "measures.classical_correlation",
    # private helpers that cli imports today; moving them zeroes these rows
    "trajectories.rng_setup": "trajectories._uniform_block",
    "trajectories.evolve": "trajectories._evolve_block",
}
SCHEDULE_SCANS = tuple(f"chains.CollisionSchedule.{m}" for m in ("first_event", "last_event", "events_at"))


def load_nmchain():
    """Import nmchain from this checkout's src/, or exit 2."""
    if not (SRC / "nmchain" / "cli.py").is_file():
        print(f"error: no nmchain sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nmchain.cli

    if Path(nmchain.__file__).resolve().parent != SRC / "nmchain":
        print(f"error: imported nmchain from {nmchain.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return nmchain


def setup(workload: str, seed: int, workdir: str):
    """Everything before the first timed call: imports and input files."""
    nmchain = load_nmchain()
    calls.prepare(workload, workdir)
    calls.call_list(workload, seed, 0, workdir)
    return nmchain


def measure_setup(workload: str, seed: int, times: list, bursts: list) -> None:
    """Time one fresh process that only sets up; append its wall time and
    the speed bursts taken just before it."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    bursts += [speed.burst() for _ in range(3)]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    times.append(time.perf_counter() - t0)


def invoke(main, argv):
    """Run one CLI call with stdout and stderr captured.

    Returns (exit code, stdout, stderr, wall seconds, CPU seconds); an
    exception escaping main counts as exit code -1 with its traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = main(list(argv))
        except Exception:
            rc = -1
            traceback.print_exc()
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
    return rc, out.getvalue(), err.getvalue(), dt, cpu


def _digest(out: str, err: str) -> bytes:
    # kept in place of the output itself, which would add to peak_rss_mb
    return hashlib.sha256((out + "\0" + err).encode()).digest()


def _other_threads(argv):
    i = argv.index("--threads")
    return argv[:i + 1] + [str(3 - int(argv[i + 1]))] + argv[i + 2:]


def run_pass(nmchain, workload, seed, index, workdir, reference, tracer, failures):
    batch = calls.call_list(workload, seed, index, workdir)
    refs = reference[index] if reference is not None and index < len(reference) else None
    res = {"raw": [], "bursts": [], "cpu_s": 0.0, "stdout_bytes": 0, "sample_steps": 0,
           "prefixes": 0, "failed": 0, "attempted": len(batch)}
    bad = {}
    rerun = []
    if tracer is not None:
        tracer.install()
    try:
        for i, call in enumerate(batch):
            if tracer is not None:
                tracer.call_id = index * 10000 + i
            res["bursts"].append(speed.burst())
            rc, out, err, dt, cpu = invoke(nmchain.cli.main, call.argv)
            res["raw"].append(dt)
            res["cpu_s"] += cpu
            res["stdout_bytes"] += len(out.encode())
            problems = checker.check(call, rc, out, err)
            if refs is not None:
                problems += checker.compare_fingerprint(checker.fingerprint(out, err), refs[i])
            if problems:
                bad[i] = problems
                continue
            if call.cmd == "trajectories":
                res["sample_steps"] += call.params["samples"] * call.params["steps"]
                res["prefixes"] += checker.prefix_counts(checker.outcome_rows(out))
                if call.params.get("thread_check"):
                    rerun.append((i, _digest(out, err)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for i, expected in rerun:
        rc, out, err, _, _ = invoke(nmchain.cli.main, _other_threads(batch[i].argv))
        if rc != 0 or _digest(out, err) != expected:
            bad[i] = ["output differs between --threads 1 and --threads 2"]
    for i, problems in sorted(bad.items()):
        failures.append((index, i, batch[i].argv, problems))
    res["failed"] = len(bad)
    res["latencies"] = speed.corrected(res["raw"], res["bursts"])
    res["wall_s"] = sum(res["latencies"])
    res["raw_wall_s"] = sum(res["raw"])
    if tracer is not None:
        res["layers"] = layer_metrics(tracer.tally(), res)
    return res


def layer_metrics(tally, res) -> dict:
    """Per-layer metrics of one traced pass, from Tracer.tally()."""
    calls_, self_s, counts = tally["calls"], tally["fn_self"], tally["counts"]
    m = {f"{layer}.self_s": s for layer, s in tally["layer_self"].items()}
    for metric, span in SPAN_METRICS.items():
        m[f"{metric}.calls"] = calls_.get(span, 0)
        m[f"{metric}.self_s"] = self_s.get(span, 0.0)
    m["chains.schedule_scan.calls"] = sum(calls_.get(s, 0) for s in SCHEDULE_SCANS)
    m["chains.schedule_scan.self_s"] = sum(self_s.get(s, 0.0) for s in SCHEDULE_SCANS)
    for name in ("chains.build_embedding.misses", "measures.optimizer.nfev", "measures.optimizer.unconverged"):
        m[name] = counts.get(name, 0)
    m["cli.stdout_bytes"] = res["stdout_bytes"]
    m["trajectories.sample_steps"] = res["sample_steps"]
    m["trajectories.prefix_share"] = res["prefixes"] / res["sample_steps"] if res["sample_steps"] else 0.0
    return m


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args, passes) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nmchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "calls_per_pass": passes[0]["attempted"],
    }



def end_to_end(passes, setup_times, setup_bursts, rss_kb, raw: bool = False) -> dict:
    """End-to-end metrics as (value, sample count); raw=True skips the speed correction.

    A set-up process lasts ~1 s, too long for one nearby burst to give its
    speed, so set-up time is rescaled by the median of every burst of the
    run; the set-up processes are spread over the run to match.
    """
    key = "raw" if raw else "latencies"
    setup_s = statistics.median(setup_times)
    if not raw:
        bursts = setup_bursts + [b for p in passes for b in p["bursts"]]
        setup_s *= speed.REFERENCE_BURST_S / statistics.median(bursts)
    lat = sorted(x for p in passes for x in p[key])
    q = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, len(setup_times)),
        "wall_s": (statistics.median([sum(p[key]) for p in passes]), len(passes)),
        "call_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
        "call_p90_ms": (q[8] * 1e3, len(lat)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    out = {k: (statistics.median([p["layers"][k] for p in traced]), len(traced)) for k in traced[0]["layers"]}
    out["process.cpu_s"] = (statistics.median([p["cpu_s"] for p in plain]), len(plain))
    overhead = statistics.median([p["raw_wall_s"] for p in traced]) - statistics.median([p["raw_wall_s"] for p in plain])
    out["trace.overhead_s"] = (overhead, len(traced) + len(plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=calls.WORKLOADS + ("all",),
                    help="'all' runs every workload in turn, each in a fresh process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0, help="measure until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        rc = 0
        for workload in calls.WORKLOADS:
            print(f"== {workload}", flush=True)
            code = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], cwd=ROOT).returncode
            rc = rc or code
        return rc

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    nmchain = setup(args.workload, args.seed, workdir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    setup_times, setup_bursts = [], []
    setups = 0 if args.trace else SETUP_REPEATS

    import selftest

    found = selftest.run(invoke, nmchain.cli.main)
    if found:
        for p in found:
            print(f"checker self-test: {p}", file=sys.stderr)
        return 3

    reference = None
    if args.seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(nmchain)

    # One set-up process before each of the first passes, the rest after the
    # last; their time does not count towards --seconds.
    failures, passes = [], []
    measured = 0.0
    while measured < args.seconds or len(passes) < MIN_PASSES:
        if len(setup_times) < setups:
            measure_setup(args.workload, args.seed, setup_times, setup_bursts)
        traced = tracer if len(passes) % 2 == 1 else None
        t0 = time.perf_counter()
        passes.append(run_pass(nmchain, args.workload, args.seed, len(passes), workdir,
                               reference, traced, failures))
        measured += time.perf_counter() - t0
        if len(passes) == MIN_PASSES:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup_times) < setups:
        measure_setup(args.workload, args.seed, setup_times, setup_bursts)

    if tracer is not None:
        tracer.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    found = per_layer(passes) if args.trace else end_to_end(passes, setup_times, setup_bursts, rss_kb)
    bursts = [b for p in passes for b in p["bursts"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    for index, i, argv, problems in failures[:20]:
        print(f"FAILED pass {index} call {i}: nmchain {' '.join(argv)}", file=sys.stderr)
        for p in problems[:5]:
            print(f"    {p}", file=sys.stderr)
    print("run_record " + json.dumps(run_record(args, passes)))
    print(f"fail_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} calls)")
    print(f"speed burst = {statistics.median(bursts) * 1e3:.4g} ms median, {min(bursts) * 1e3:.4g}-{max(bursts) * 1e3:.4g} ms"
          f" (n={len(bursts)}; timings below are rescaled to {speed.REFERENCE_BURST_S * 1e3:g} ms)")
    if not args.trace:
        raw = end_to_end(passes, setup_times, setup_bursts, rss_kb, raw=True)
        print("uncorrected: " + ", ".join(f"{k} = {v:.6g}" for k, (v, _) in raw.items() if k != "peak_rss_mb"))
    metrics = {}
    for m in wanted:
        value, n = found[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']} (n={n})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
