"""Output checks for every benchmark call.

`check(call, rc, out, err)` returns a list of problems; an empty list means
the call's output is correct. The checks are laws the output must obey
whatever the seed (density-matrix validity, conserved populations, closed
forms of the built-in models, counts that must add up), plus, for the
default seed, agreement with reference outputs recorded at the seed commit.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from calls import figure_layout

STATE_TOL = 1e-10      # Hermitian, unit trace, positive semidefinite
LAW_TOL = 1e-12        # conserved populations and closed forms
CP_TOL = 1e-9          # the CLI's default --tol-cp
REPORT_CLAMP = 1e-9    # measures: how far clamping may move a value
DISCORD_THRESHOLD = 1e-6
# Outcome-0 frequency of markov-xor. A 6-sigma band gives a false alarm
# about once per 5e8 step checks, so a run of ~1e3 checks never trips by
# chance while a biased sampler still does.
FREQ_SIGMAS = 6.0

REF_STRICT_TOL = 1e-9  # floats against the reference outputs
REF_LOOSE_TOL = 1e-7   # classical_J and discord (the optimizer's tolerance)
REF_LOOSE_KEYS = ("classical_J", "discord")
REF_SKIP_KEYS = ("argmax_basis",)
REF_PICKS = 8


def _mat(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _state_matrix(s) -> np.ndarray:
    p00, p11, re01, im01 = s
    return np.array([[p00, complex(re01, im01)], [complex(re01, -im01), p11]])


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _density_problems(m: np.ndarray, what: str) -> list:
    herm = float(np.abs(m - m.conj().T).max())
    tr = complex(np.trace(m))
    low = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
    out = []
    if herm > STATE_TOL:
        out.append(f"{what}: not Hermitian (residual {herm:.3g})")
    if abs(tr - 1.0) > STATE_TOL:
        out.append(f"{what}: trace {tr:.17g}")
    if low < -STATE_TOL:
        out.append(f"{what}: negative eigenvalue {low:.3g}")
    return out


def _delta(m: np.ndarray) -> complex:
    return complex(-1j * (m[0, 1] + m[2, 3]) + (m[0, 3] + m[2, 1]))


def _trace_out_first(m: np.ndarray) -> np.ndarray:
    return np.einsum("abad->bd", m.reshape(2, 2, 2, 2))


def _check_simulate(call, out, err) -> list:
    p = call.params
    model = p["model"]
    steps = p.get("steps", p.get("horizon"))
    rows = _json_lines(out)
    if [r["t"] for r in rows] != list(range(steps + 1)):
        return [f"expected rows t=0..{steps}, got {len(rows)} rows"]
    rho0 = _state_matrix(p["initial"])
    systems = [_mat(r["rho_system"]) for r in rows]
    probs = []
    for t, m in enumerate(systems):
        probs += _density_problems(m, f"t={t} rho_system")
        pop = float(np.abs(np.diag(m) - np.diag(rho0)).max())
        if pop > LAW_TOL:
            probs.append(f"t={t}: system populations moved by {pop:.3g}")
    if np.abs(systems[0] - rho0).max() > LAW_TOL:
        probs.append("t=0 rho_system differs from --initial")
    s = math.sin(2.0 * p["phi"])
    two = model in ("repeated-xor", "sqrt-xor")
    if any(("rho_compound" in r) != two for r in rows):
        probs.append("rho_compound present on the wrong model")
        return probs
    if any(("delta" in r) != (model == "sqrt-xor") for r in rows):
        probs.append("delta present on the wrong model")
        return probs
    if model == "markov-xor":
        for t, m in enumerate(systems):
            res = abs(m[0, 1] - rho0[0, 1] * s ** t)
            if res > LAW_TOL:
                probs.append(f"t={t}: coherence off rho01*sin(2phi)^t by {res:.3g}")
    if two:
        mem = _state_matrix(p["memory"]) if "memory" in p else np.diag([1.0, 0.0])
        compounds = [_mat(r["rho_compound"]) for r in rows]
        if np.abs(compounds[0] - np.kron(mem, rho0)).max() > LAW_TOL:
            probs.append("t=0 rho_compound differs from memory (x) initial")
        for t, (c, m) in enumerate(zip(compounds, systems)):
            probs += _density_problems(c, f"t={t} rho_compound")
            if np.abs(_trace_out_first(c) - m).max() > LAW_TOL:
                probs.append(f"t={t}: rho_system is not the marginal of rho_compound")
    if model == "sqrt-xor":
        deltas = [complex(*r["delta"]) for r in rows]
        for t, (d, c) in enumerate(zip(deltas, compounds)):
            if abs(d - _delta(c)) > LAW_TOL:
                probs.append(f"t={t}: delta does not match rho_compound")
        for t in range(steps):
            res = abs(abs(deltas[t + 1]) - abs(s) * abs(deltas[t]))
            if res > LAW_TOL:
                probs.append(f"t={t + 1}: |delta| ratio off |sin 2phi| by {res:.3g}")
    return probs


def _check_divisibility(call, out, err) -> list:
    p = call.params
    steps = p["steps"]
    rows = _json_lines(out)
    if [r["t"] for r in rows] != list(range(1, steps + 1)):
        return [f"expected rows t=1..{steps}, got {len(rows)} rows"]
    probs = []
    s = abs(math.sin(2.0 * p["phi"]))
    for r in rows:
        t, exists, low, sv = r["t"], r["exists"], r["min_choi_eig"], r["smallest_singular"]
        if exists is None:
            if low is not None:
                probs.append(f"t={t}: indeterminate step reports a Choi eigenvalue")
        elif exists is not (low >= -CP_TOL):
            probs.append(f"t={t}: exists={exists} disagrees with min_choi_eig={low!r}")
        if not (math.isfinite(sv) and sv >= 0.0):
            probs.append(f"t={t}: smallest_singular {sv!r}")
        if p["model"] == "markov-xor" and abs(sv - s ** (t - 1)) > LAW_TOL:
            probs.append(f"t={t}: smallest_singular off |sin 2phi|^(t-1) by {abs(sv - s ** (t - 1)):.3g}")
    return probs


def _check_measures(call, out, err) -> list:
    model = call.params["model"]
    d = json.loads(out)
    q, i, j, disc, cls = (d["count_qubits"], d["mutual_info"], d["classical_J"],
                          d["discord"], d["classification"])
    if model == "markov-xor":
        ok = (q, i, j, disc, d["argmax_basis"], cls) == (0, 0.0, 0.0, 0.0, None, "Markovian")
        return [] if ok else [f"markov-xor report {d!r}"]
    probs = []
    if q != 1:
        probs.append(f"count_qubits {q!r}, expected 1")
    if abs(disc - (i - j)) > REPORT_CLAMP:
        probs.append(f"discord {disc!r} != mutual_info - classical_J ({i - j!r})")
    if not (0.0 <= j <= i + REPORT_CLAMP):
        probs.append(f"classical_J {j!r} outside [0, mutual_info={i!r}]")
    expected = "quantum non-Markovian" if disc > DISCORD_THRESHOLD else "classical non-Markovian"
    if cls != expected:
        probs.append(f"classification {cls!r}, discord {disc!r} implies {expected!r}")
    return probs


def outcome_rows(out: str) -> list:
    """Each trajectory record's outcomes as a string of bits, e.g. "0110".

    Records are parsed one at a time and kept as short strings, so that
    checking a large ensemble holds little memory next to the call's own.
    """
    return ["".join(map(str, json.loads(line)["outcomes"])) for line in out.splitlines() if line.strip()]


def prefix_counts(rows: list) -> int:
    """Sum over t of the number of distinct outcome prefixes of length t."""
    width = max(map(len, rows), default=0)
    return sum(len({r[:t] for r in rows}) for t in range(1, width + 1))


def _check_trajectories(call, out, err) -> list:
    p = call.params
    n = p["samples"]
    summary = json.loads(err)
    # built-in models read one outcome per step; the gap layouts read one
    # molecule per step, so both give `steps` outcomes
    rows, log_ps, bits = [], [], True
    for line in out.splitlines():
        if line.strip():
            rec = json.loads(line)
            outcomes = rec["outcomes"]
            bits = bits and len(outcomes) == p["steps"] and all(x in (0, 1) for x in outcomes)
            rows.append("".join(map(str, outcomes)))
            log_ps.append(rec["log_p"])
    if len(rows) != n:
        return [f"{len(rows)} records, expected {n}"]
    probs = []
    if summary["n_samples"] != n or summary["seed"] != p["seed"]:
        probs.append("summary n_samples/seed differ from the call")
    if not bits:
        probs.append(f"outcome rows must be {p['steps']} bits")
        return probs
    bad = [x for x in log_ps if not (x <= LAW_TOL)]
    if bad:
        probs.append(f"{len(bad)} log_p values above 0, e.g. {bad[0]!r}")
    freqs = summary["outcome_frequencies"]
    if len(freqs) != p["steps"]:
        probs.append(f"{len(freqs)} frequency rows, expected {p['steps']}")
        return probs
    for t, f in enumerate(freqs):
        if sum(f.values()) != n:
            probs.append(f"t={t}: frequencies sum to {sum(f.values())}, expected {n}")
        ones = sum(r[t] == "1" for r in rows)
        counted = {k: v for k, v in (("0", n - ones), ("1", ones)) if v}
        if {k: v for k, v in f.items() if v} != counted:
            probs.append(f"t={t}: frequencies {f} do not match the records {counted}")
    probs += _density_problems(_mat(summary["mean_state"]), "mean_state")
    if p["model"] == "markov-xor":
        p00, p11 = p["initial"][0], p["initial"][1]
        c2 = math.cos(p["phi"]) ** 2
        q = p00 * c2 + p11 * (1.0 - c2)
        sigma = math.sqrt(n * q * (1.0 - q))
        for t, f in enumerate(freqs):
            dev = abs(f.get("0", 0) - n * q)
            if dev > FREQ_SIGMAS * sigma + 1e-9:
                probs.append(f"t={t}: outcome-0 count {f.get('0', 0)} is {dev / sigma:.1f} sigma off {n * q:.1f}")
    return probs


def _satellites(records: list, horizon: int) -> int:
    spans: dict = {}
    for r in records:
        lo, hi = spans.get(r["mol"], (r["t"], r["t"]))
        spans[r["mol"]] = (min(lo, r["t"]), max(hi, r["t"]))
    return max((sum(1 for lo, hi in spans.values() if lo <= t < hi)
                for t in range(horizon - 1)), default=0)


def _check_schedule(call, out, err) -> list:
    p = call.params
    records = json.loads(out)
    probs = []
    if records != figure_layout(p["figure"], p["horizon"]):
        probs.append(f"figure {p['figure']} events differ from the layout")
    expected = f"satellite_count = {_satellites(records, p['horizon'])}"
    if err.strip() != expected:
        probs.append(f"stderr {err.strip()!r}, straddle count gives {expected!r}")
    return probs


_CHECKS = {
    "simulate": _check_simulate,
    "divisibility": _check_divisibility,
    "measures": _check_measures,
    "trajectories": _check_trajectories,
    "schedule": _check_schedule,
}


def check(call, rc, out: str, err: str) -> list:
    """Problems with one call's exit code and output; [] when it is correct."""
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-300:]}"]
    try:
        return _CHECKS[call.cmd](call, out, err)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {exc!r}"]


# --- reference outputs ------------------------------------------------------

def _documents(out: str, err: str) -> list:
    docs = []
    for text in (out, err):
        for line in text.splitlines():
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError:
                docs.append(line)
    return docs


def _walk(obj, key, floats, tokens):
    if isinstance(obj, dict):
        tokens.append("{")
        for k in sorted(obj):
            tokens.append(k)
            if k not in REF_SKIP_KEYS:
                _walk(obj[k], k, floats, tokens)
        tokens.append("}")
    elif isinstance(obj, list):
        tokens.append("[")
        for x in obj:
            _walk(x, key, floats, tokens)
        tokens.append("]")
    elif isinstance(obj, float):
        floats.append((obj, REF_LOOSE_TOL if key in REF_LOOSE_KEYS else REF_STRICT_TOL))
        tokens.append("f")
    else:
        tokens.append(repr(obj))


def fingerprint(out: str, err: str) -> dict:
    """A compact summary of one call's output for the reference comparison.

    Everything but floats (outcomes, integers, strings, structure) goes into
    an exact digest. Floats are kept as the sum of the strict ones plus an
    evenly spaced pick; argmax_basis angles are left out.
    """
    floats, tokens = [], []
    for doc in _documents(out, err):
        _walk(doc, None, floats, tokens)
    digest = hashlib.sha256("\x1f".join(tokens).encode()).hexdigest()[:20]
    n = len(floats)
    picks = sorted({(k * (n - 1)) // max(REF_PICKS - 1, 1) for k in range(REF_PICKS)}) if n else []
    return {
        "digest": digest,
        "n": n,
        "sum": math.fsum(x for x, tol in floats if tol == REF_STRICT_TOL),
        "abs": math.fsum(abs(x) for x, tol in floats if tol == REF_STRICT_TOL),
        "picks": [[i, floats[i][0], floats[i][1]] for i in picks],
    }


def compare_fingerprint(got: dict, ref: dict) -> list:
    """Problems between a call's fingerprint and its recorded reference."""
    if got["digest"] != ref["digest"] or got["n"] != ref["n"]:
        return ["outcomes, integers or strings differ from the reference output"]
    probs = []
    if abs(got["sum"] - ref["sum"]) > REF_STRICT_TOL * max(1.0, ref["abs"]):
        probs.append(f"float sum {got['sum']!r} differs from the reference {ref['sum']!r}")
    for (i, x, tol), (_, y, _) in zip(got["picks"], ref["picks"]):
        if abs(x - y) > tol * max(1.0, abs(y)):
            probs.append(f"float #{i} {x!r} differs from the reference {y!r}")
    return probs
