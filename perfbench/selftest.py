"""Self-test of the output checker: corrupted outputs must be rejected.

Runs three small real calls, confirms the checker accepts their outputs,
then corrupts each output in memory in one way and confirms the checker
rejects it. run.py runs this before every measurement; to run it alone:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json

import checker
from calls import Call

_INITIAL = (0.6, 0.4, 0.2, 0.1)
_PHI = 0.3


def _call(cmd, model, **params) -> Call:
    params.update(model=model, phi=_PHI)
    argv = [cmd, "--model", model, "--phi", repr(_PHI)]
    if "initial" in params:
        argv += ["--initial", ",".join(repr(x) for x in params["initial"])]
    if "steps" in params:
        argv += ["--steps", str(params["steps"])]
    if cmd == "trajectories":
        argv += ["--samples", str(params["samples"]), "--seed", str(params["seed"])]
    return Call(cmd, argv, params)


def _flip_outcome(out, err):
    lines = out.splitlines()
    rec = json.loads(lines[0])
    rec["outcomes"][0] ^= 1
    lines[0] = json.dumps(rec)
    return "\n".join(lines) + "\n", err


def _nudge_coherence(out, err):
    lines = out.splitlines()
    rec = json.loads(lines[3])
    m = rec["rho_system"]
    m[0][1][0] += 1e-6          # keep the matrix Hermitian
    m[1][0][0] += 1e-6
    lines[3] = json.dumps(rec)
    return "\n".join(lines) + "\n", err


def _wrong_classification(out, err):
    rec = json.loads(out)
    rec["classification"] = ("classical non-Markovian" if rec["classification"] == "quantum non-Markovian"
                             else "quantum non-Markovian")
    return json.dumps(rec) + "\n", err


def _frequency_off_by_one(out, err):
    summary = json.loads(err)
    summary["outcome_frequencies"][0]["0"] += 1
    return out, json.dumps(summary) + "\n"


def run(invoke, main) -> list:
    """Problems found; [] when every clean output passes and every corruption is caught."""
    cases = [
        (_call("trajectories", "markov-xor", initial=_INITIAL, steps=6, samples=200, seed=5),
         [("one flipped outcome", _flip_outcome), ("a frequency off by one", _frequency_off_by_one)]),
        (_call("simulate", "markov-xor", initial=_INITIAL, steps=6),
         [("a coherence nudged by 1e-6", _nudge_coherence)]),
        (_call("measures", "sqrt-xor", initial=_INITIAL),
         [("a wrong classification", _wrong_classification)]),
    ]
    problems = []
    for call, corruptions in cases:
        rc, out, err, _, _ = invoke(main, call.argv)
        clean = checker.check(call, rc, out, err)
        if clean:
            problems.append(f"clean output of {' '.join(call.argv)} rejected: {clean}")
            continue
        for what, corrupt in corruptions:
            if not checker.check(call, rc, *corrupt(out, err)):
                problems.append(f"checker accepted {what}")
    return problems


if __name__ == "__main__":
    import sys

    import run as bench

    nmchain = bench.load_nmchain()
    found = run(bench.invoke, nmchain.cli.main)
    for p in found:
        print(p, file=sys.stderr)
    print("self-test " + ("failed" if found else "passed: every corrupted output was rejected"))
    sys.exit(1 if found else 0)
