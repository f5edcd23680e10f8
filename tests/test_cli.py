import csv
import io
import json
import shutil
import subprocess

import numpy as np
import pytest

import helpers as H

from nmchain.chains import (
    ChainModel,
    custom_chain,
    delta,
    evolve,
    satellite_count,
    schedule_from_records,
    system_marginals,
)
from nmchain import chains, cli
from nmchain.cli import main
from nmchain.gates import sqrt_xor_gate, xor_gate
from nmchain.trajectories import sample_ensemble


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def jl(text):
    return [json.loads(line) for line in text.strip().splitlines()]


INIT = "0.5,0.5,0.5,0"
DIAG = "0.3,0.7,0,0"


# ---- simulate ---------------------------------------------------------------

def test_simulate_markov_json_decay(capsys):
    rc, out, _ = run(capsys, "simulate", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "4", "--initial", INIT)
    assert rc == 0
    rows = jl(out)
    assert [r["t"] for r in rows] == [0, 1, 2, 3, 4]
    assert "rho_compound" not in rows[0] and "delta" not in rows[0]
    k = np.sin(0.6)
    for prev, cur in zip(rows, rows[1:]):
        assert cur["rho_system"][0][1][0] == pytest.approx(k * prev["rho_system"][0][1][0], abs=1e-14)
        assert cur["rho_system"][0][0][0] == pytest.approx(0.5, abs=1e-14)


def test_simulate_split_has_compound_and_delta(capsys):
    rc, out, _ = run(capsys, "simulate", "--model", "sqrt-xor", "--phi", "0.3",
                     "--steps", "3", "--initial", INIT)
    assert rc == 0
    rows = jl(out)
    assert all("rho_compound" in r and "delta" in r for r in rows)
    k = np.sin(0.6)
    deltas = [complex(r["delta"][0], r["delta"][1]) for r in rows]
    for prev, cur in zip(deltas, deltas[1:]):
        assert abs(cur - k * prev) < 1e-13


def test_simulate_double_has_compound_but_no_delta(capsys):
    rc, out, _ = run(capsys, "simulate", "--model", "repeated-xor", "--phi", "0.3",
                     "--steps", "2", "--initial", INIT)
    assert rc == 0
    rows = jl(out)
    assert all("rho_compound" in r and "delta" not in r for r in rows)


def test_simulate_csv(capsys):
    rc, out, _ = run(capsys, "simulate", "--model", "sqrt-xor", "--phi", "0.25",
                     "--steps", "2", "--initial", INIT, "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p00,p11,re01,im01,delta_re,delta_im"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.5)


def test_simulate_memory_flag(capsys):
    rc, out, _ = run(capsys, "simulate", "--model", "repeated-xor", "--phi", "0.3",
                     "--steps", "1", "--initial", DIAG, "--memory", "1,0,0,0")
    assert rc == 0
    rc2, out2, _ = run(capsys, "simulate", "--model", "repeated-xor", "--phi", "0.3",
                       "--steps", "1", "--initial", DIAG)
    assert out == out2  # |0><0| is the default memory


def test_simulate_custom_default_steps(tmp_path, capsys):
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps([{"t": 0, "mol": 0}, {"t": 1, "mol": 1}]))
    rc, out, _ = run(capsys, "simulate", "--model", "custom", "--phi", "0.3",
                     "--schedule", str(sched), "--initial", INIT)
    assert rc == 0
    assert len(jl(out)) == 3  # horizon 2 -> t = 0, 1, 2


def _state_arg(text):
    """A --initial / --memory argument as the CLI reads it, signed zeros and all."""
    p00, p11, re01, im01 = (float(x) for x in text.split(","))
    return np.array([[p00, re01 + 1j * im01], [re01 - 1j * im01, p11]], dtype=complex)


def _simulated_rows(model, initial, steps, memory):
    """simulate's rows as json.dumps and csv.writer print them, from one evolve stack."""
    stack, slots = evolve(model, _state_arg(initial), steps,
                          None if memory is None else _state_arg(memory))
    system = system_marginals(stack, slots)
    fields = {"rho_system": system}
    if len(slots) == 2:
        fields["rho_compound"] = stack
    if model.kind == "sqrt-xor":
        fields["delta"] = delta(stack)
    pairs = {k: np.stack([m.real, m.imag], -1).tolist() for k, m in fields.items()}
    json_text = "".join(json.dumps({"t": t, **{k: v[t] for k, v in pairs.items()}}) + "\n"
                        for t in range(steps + 1))
    header = ["t", "p00", "p11", "re01", "im01"]
    cols = [system[:, 0, 0].real, system[:, 1, 1].real, system[:, 0, 1].real, system[:, 0, 1].imag]
    if "delta" in fields:
        header += ["delta_re", "delta_im"]
        cols += [fields["delta"].real, fields["delta"].imag]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [header] + [[t] + [cli._fmt(x) for x in row] for t, row in enumerate(zip(*cols))])
    return json_text, buf.getvalue()


# gap-2 double-collision layout over 25 steps: molecule m meets the system
# at steps m - 2 and m (fresh molecules first within a step)
GAP2_H25 = [{"t": t, "mol": m} for t in range(25) for m in (t + 2, t) if m < 25]
# re01 = -0.0 with a negative im01 keeps rho[0, 1] = -0.0 - 0.2j, printed as -0.0 / -0
SIGNED_ZERO = "0.3,0.7,-0.0,-0.2"
MEMORY = "0.6,0.4,0.1,-0.2"

# (flags, schedule records or None, model, initial state, memory state or None)
_SIM_CASES = [
    (["--model", "markov-xor", "--phi", "0.3"], None, ChainModel("markov-xor", 0.3), SIGNED_ZERO, None),
    (["--model", "repeated-xor", "--phi", "0.8"], None, ChainModel("repeated-xor", 0.8), DIAG, MEMORY),
    (["--model", "sqrt-xor", "--phi", "0.6"], None, ChainModel("sqrt-xor", 0.6), INIT, MEMORY),
    (["--model", "custom", "--phi", "0.6", "--gate", "sqrt-xor"], GAP2_H25,
     custom_chain(sqrt_xor_gate(), schedule_from_records(GAP2_H25), phi=0.6), SIGNED_ZERO, None),
]


@pytest.mark.parametrize("steps", [0, 25])
@pytest.mark.parametrize("flags,records,model,initial,memory", _SIM_CASES,
                         ids=["markov-xor", "repeated-xor", "sqrt-xor", "gap2-custom"])
def test_simulate_rows_are_the_dumped_rows(tmp_path, capsys, flags, records, model, initial,
                                           memory, steps):
    # every row, in both formats, is byte for byte what json.dumps and
    # csv.writer print for the evolve stack
    argv = ["simulate"] + flags + ["--initial", initial, "--steps", str(steps)]
    if records is not None:
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(records))
        argv += ["--schedule", str(path)]
    if memory is not None:
        argv += ["--memory", memory]
    want_json, want_csv = _simulated_rows(model, initial, steps, memory)
    assert run(capsys, *argv) == (0, want_json, "")
    assert run(capsys, *argv, "--format", "csv") == (0, want_csv, "")
    if initial is SIGNED_ZERO:
        assert "[[0.3, 0.0], [-0.0, -0.2]]" in want_json.splitlines()[0]
        assert want_csv.splitlines()[1].endswith(",-0,-0.20000000000000001")


def test_simulate_formats_each_distinct_value_once(capsys, monkeypatch):
    # a repeated-xor run repeats its stationary values bit for bit; each
    # distinct bit pattern is formatted at most once
    formed = []
    cells = cli._cells

    def counting_cells(blocks, fmt):
        def counted(x):
            formed.append(x)
            return fmt(x)
        return cells(blocks, counted)

    monkeypatch.setattr(cli, "_cells", counting_cells)
    monkeypatch.setattr(cli.json, "dumps", None)  # the rows need no json.dumps call
    rc, out, _ = run(capsys, "simulate", "--model", "repeated-xor", "--phi", "0.8", "--steps", "60",
                     "--initial", SIGNED_ZERO, "--memory", MEMORY)
    assert rc == 0
    printed = np.array([x for row in jl(out)
                        for m in (row["rho_system"], row["rho_compound"]) for x in np.ravel(m)])
    distinct = np.unique(printed.view(np.int64)).size
    assert 0 < len(formed) <= distinct < printed.size // 10
    assert np.unique(np.array(formed).view(np.int64)).size == len(formed)


def test_simulate_config_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "simulate", "--model", "repeated-xor", "--phi", "0.3",
                     "--initial", INIT)
    assert rc == 2 and "--steps" in err
    rc, _, err = run(capsys, "simulate", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "2", "--initial", "0.9,0.3,0,0")
    assert rc == 2 and "trace" in err
    rc, _, err = run(capsys, "simulate", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "2", "--initial", "1,0,3,1")
    assert rc == 2
    rc, _, err = run(capsys, "simulate", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "2", "--initial", "0.5,0.5")
    assert rc == 2 and "p00,p11,re01,im01" in err
    rc, _, err = run(capsys, "simulate", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "2", "--initial", INIT, "--memory", "1,0,0,0")
    assert rc == 2 and "--memory" in err
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps([{"t": 0, "mol": 0}]))
    rc, _, err = run(capsys, "simulate", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "2", "--initial", INIT, "--schedule", str(sched))
    assert rc == 2 and "custom" in err
    rc, _, err = run(capsys, "simulate", "--model", "custom", "--phi", "0.3",
                     "--initial", INIT)
    assert rc == 2 and "--schedule" in err
    rc, _, err = run(capsys, "simulate", "--model", "custom", "--phi", "0.3",
                     "--schedule", str(tmp_path / "missing.json"), "--initial", INIT)
    assert rc == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "simulate", "--model", "custom", "--phi", "0.3",
                     "--schedule", str(bad), "--initial", INIT)
    assert rc == 2 and "JSON" in err
    rc, _, err = run(capsys, "simulate", "--model", "custom", "--phi", "0.3",
                     "--schedule", str(sched), "--steps", "5", "--initial", INIT)
    assert rc == 2 and "horizon" in err


def test_simulate_rejects_wide_schedule(tmp_path, capsys):
    # six molecules open at once: a 7-qubit window, one over the cap
    recs = [{"t": t, "mol": m} for t in range(6) for m in range(t + 1)]
    sched = tmp_path / "wide.json"
    sched.write_text(json.dumps(recs))
    for command, *extra in (("simulate", "--initial", INIT), ("divisibility",),
                            ("trajectories", "--initial", INIT), ("measures", "--initial", INIT)):
        got = run(capsys, command, "--model", "custom", "--phi", "0.3", "--schedule", str(sched), *extra)
        assert got == (2, "", "error: schedule needs a 7-qubit window; the engine cap is 6\n"), command


def test_schedule_gate_must_be_a_string(tmp_path, capsys):
    # an unhashable gate escaped as a TypeError traceback (exit 1)
    sched = tmp_path / "gate.json"
    sched.write_text(json.dumps([{"t": 0, "mol": 0, "gate": ["x"]}]))
    rc, out, err = run(capsys, "simulate", "--model", "custom", "--phi", "0.3",
                       "--schedule", str(sched), "--initial", INIT)
    assert (rc, out) == (2, "")
    assert "record 0" in err and "'gate' must be a string" in err


# (records, extra flags, stderr): each file's first fault in listed order
# decides the message
MALFORMED_SCHEDULES = [
    ([{"t": 0, "mol": 0, "when": 1}], (), "record 0 has unknown keys ['when']"),
    ([{"t": 0}], (), "record 0 must be an object with keys 't' and 'mol'"),
    ([[0, 0]], (), "record 0 must be an object with keys 't' and 'mol'"),
    ([{"t": 0.5, "mol": 0}], (), "record 0: 't' and 'mol' must be integers"),
    ([{"t": 0, "mol": True}], (), "record 0: 't' and 'mol' must be integers"),
    ([{"t": 0, "mol": 0, "gate": 3}], (), "record 0: 'gate' must be a string, got 3"),
    ([{"t": 0, "mol": 1}, {"t": 1, "mol": 1}, {"t": 1, "mol": 1}], (), "molecule 1 listed twice at step 1"),
    ([{"t": 0, "mol": 0}, {"t": -1, "mol": 2}], (), "negative step -1"),
    ([{"t": 0, "mol": -3}], (), "negative molecule id -3"),
    ([{"t": 0, "mol": 0, "gate": "hadamard"}], (), "unknown gate 'hadamard'; choose from ['sqrt-xor', 'xor']"),
    ([], (), "schedule has no events"),
    ([{"t": 0, "mol": 0}, {"t": -2, "mol": 0}, {"t": 0, "mol": 1, "x": 0}], (), "negative step -2"),
    ([{"t": 0, "mol": 0}, {"t": 0, "mol": 0}, {"t": -1, "mol": 0}], (), "negative step -1"),
    # ids past int64 do not fit the schedule arrays
    ([{"t": 0, "mol": 0}, {"t": 2**63, "mol": 0}], (), "record 1: 't' and 'mol' must be below 2**63"),
    ([{"t": 0, "mol": 2**63}], (), "record 0: 't' and 'mol' must be below 2**63"),
]


@pytest.mark.parametrize("records, flags, message", MALFORMED_SCHEDULES)
def test_malformed_schedule_files_keep_their_messages(tmp_path, capsys, records, flags, message):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(records))
    got = run(capsys, "simulate", "--model", "custom", "--phi", "0.3", "--schedule", str(path),
              "--initial", INIT, *flags)
    assert got == (2, "", f"error: --schedule: {message}\n")


def test_steps_past_the_schedule_horizon(tmp_path, capsys):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps([{"t": 0, "mol": 0}, {"t": 2, "mol": 0, "gate": "sqrt-xor"}]))
    got = run(capsys, "simulate", "--model", "custom", "--phi", "0.3", "--schedule", str(path),
              "--initial", INIT, "--steps", "4")
    assert got == (2, "", "error: --steps 4 exceeds the schedule horizon 3\n")


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_custom_phi_not_finite_is_config_error(tmp_path, capsys, phi):
    # the built-in models exit 2 here; custom models exited 3
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps([{"t": 0, "mol": 0}, {"t": 1, "mol": 1}]))
    rc, out, err = run(capsys, "simulate", "--model", "custom", "--phi", phi,
                       "--schedule", str(sched), "--initial", INIT)
    assert (rc, out) == (2, "")
    assert "phi must be finite" in err


# ---- measures ---------------------------------------------------------------

def test_measures_double_collision_json(capsys):
    rc, out, _ = run(capsys, "measures", "--model", "repeated-xor",
                     "--phi", str(np.pi / 6), "--initial", DIAG)
    assert rc == 0
    rep = json.loads(out)
    assert rep["count_qubits"] == 1
    assert rep["classification"] == "quantum non-Markovian"
    assert rep["discord"] == pytest.approx(0.14196868003899998, abs=1e-9)
    assert rep["mutual_info"] == pytest.approx(0.30968534391470737, abs=1e-11)
    assert set(rep["argmax_basis"]) == {"theta", "psi"}


def test_measures_markov_json(capsys):
    rc, out, _ = run(capsys, "measures", "--model", "markov-xor", "--phi", "0.3",
                     "--initial", DIAG)
    assert rc == 0
    rep = json.loads(out)
    assert rep["count_qubits"] == 0
    assert rep["classification"] == "Markovian"
    assert rep["argmax_basis"] is None


def test_measures_csv_and_custom(tmp_path, capsys):
    rc, out, _ = run(capsys, "measures", "--model", "repeated-xor", "--phi", "0",
                     "--initial", DIAG, "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("count_qubits,")
    assert lines[1].split(",")[-1] == "classical non-Markovian"
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps([{"t": 0, "mol": 0}, {"t": 1, "mol": 0}]))
    rc, out, _ = run(capsys, "measures", "--model", "custom", "--phi", "0.3",
                     "--schedule", str(sched), "--initial", DIAG)
    assert rc == 0
    rep = json.loads(out)
    assert rep["count_qubits"] == 1
    assert rep["classification"] == "undetermined"
    assert rep["discord"] is None


def test_measures_numeric_invariant_exit(capsys):
    # non-contracting angle with a coherent start has no stationary limit
    rc, _, err = run(capsys, "measures", "--model", "sqrt-xor",
                     "--phi", str(np.pi / 4), "--initial", INIT)
    assert rc == 3
    assert "numeric invariant violated" in err


# ---- divisibility -------------------------------------------------------------

def test_divisibility_markov_json(capsys):
    rc, out, _ = run(capsys, "divisibility", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "6")
    assert rc == 0
    rows = jl(out)
    assert [r["t"] for r in rows] == list(range(1, 7))
    assert all(r["exists"] is True for r in rows)
    assert all(r["min_choi_eig"] >= -1e-9 for r in rows)


def test_divisibility_default_steps_and_split(capsys):
    rc, out, _ = run(capsys, "divisibility", "--model", "sqrt-xor", "--phi", "0.3")
    assert rc == 0
    rows = jl(out)
    assert len(rows) == 10
    assert all(r["exists"] is True for r in rows)


def test_divisibility_default_steps_stop_at_a_short_horizon(tmp_path, capsys):
    # without --steps a custom schedule is scanned for min(10, horizon) steps
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps([{"t": 0, "mol": 0}, {"t": 1, "mol": 0}, {"t": 2, "mol": 1}]))
    custom = ("divisibility", "--model", "custom", "--phi", "0.3", "--schedule", str(path))
    rc, out, err = run(capsys, *custom)
    assert (rc, err) == (0, "")
    assert [r["t"] for r in jl(out)] == [1, 2, 3]
    assert run(capsys, *custom, "--steps", "10") == (2, "", "error: --steps 10 exceeds the schedule horizon 3\n")


def test_divisibility_indeterminate_csv(capsys):
    # the double-collision model dephases completely in one step from |0><0|,
    # so later steps cannot be resolved against the singular first map
    rc, out, _ = run(capsys, "divisibility", "--model", "repeated-xor", "--phi", "0.3",
                     "--steps", "3", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,exists,min_choi_eig"
    assert lines[1].split(",")[1] == "true"
    assert lines[2].split(",")[1] == "indeterminate"
    assert lines[2].split(",")[2] == ""


def test_divisibility_memory_flag(capsys):
    # a fresh-molecule memory keeps the reduced maps invertible
    c, s = np.cos(0.3), np.sin(0.3)
    mem = f"{c * c:.17g},{s * s:.17g},{c * s:.17g},0"
    rc, out, _ = run(capsys, "divisibility", "--model", "repeated-xor", "--phi", "0.3",
                     "--steps", "3", "--memory", mem)
    assert rc == 0
    rows = jl(out)
    assert all(r["exists"] is True for r in rows)
    rc, _, err = run(capsys, "divisibility", "--model", "markov-xor", "--phi", "0.3",
                     "--memory", "1,0,0,0")
    assert rc == 2 and "--memory" in err


def test_divisibility_step_validation(capsys):
    rc, _, err = run(capsys, "divisibility", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "0")
    assert rc == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_divisibility_rejects_bad_tol_cp(capsys, tol):
    # a nan tolerance printed "exists": false for every step and exited 0
    rc, out, err = run(capsys, "divisibility", "--model", "markov-xor", "--phi", "0.3",
                       "--steps", "3", f"--tol-cp={tol}")
    assert (rc, out) == (2, "")
    assert "--tol-cp" in err


# ---- trajectories --------------------------------------------------------------

def test_trajectories_json_and_summary(capsys):
    rc, out, err = run(capsys, "trajectories", "--model", "sqrt-xor", "--phi", "0.3",
                       "--steps", "5", "--initial", INIT, "--samples", "8", "--seed", "3")
    assert rc == 0
    rows = jl(out)
    assert len(rows) == 8
    assert all(len(r["outcomes"]) == 5 for r in rows)
    assert all(set(r["outcomes"]) <= {0, 1} for r in rows)
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["n_samples"] == 8 and summary["seed"] == 3
    assert len(summary["mean_state"]) == 4  # compound register
    assert len(summary["outcome_frequencies"]) == 5
    assert sum(summary["outcome_frequencies"][0].values()) == 8


def test_trajectories_reproducible_and_thread_invariant(capsys, monkeypatch):
    # --threads is validated but sampling runs on one thread, so the records
    # never depend on the count; the NMCHAIN_THREADS variable is not read
    args = ("trajectories", "--model", "repeated-xor", "--phi", "0.4",
            "--steps", "4", "--initial", INIT, "--samples", "40", "--seed", "7")
    rc1, out1, err1 = run(capsys, *args)
    assert rc1 == 0
    for threads in ("2", "4"):
        assert run(capsys, *args, "--threads", threads) == (0, out1, err1)
    for value in ("3", "0", "zebra"):
        monkeypatch.setenv("NMCHAIN_THREADS", value)
        assert run(capsys, *args) == (0, out1, err1)
        assert run(capsys, *args, "--threads", "2") == (0, out1, err1)


def test_trajectories_builtin_records_are_sample_ensemble(capsys):
    rc, out, _ = run(capsys, "trajectories", "--model", "sqrt-xor", "--phi", "0.3",
                     "--steps", "6", "--initial", INIT, "--samples", "30", "--seed", "5",
                     "--threads", "2")
    assert rc == 0
    rows = jl(out)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    stats = sample_ensemble(ChainModel("sqrt-xor", 0.3), rho0, 6, 30, 5)
    assert [r["outcomes"] for r in rows] == stats.outcomes.tolist()
    assert [r["log_p"] for r in rows] == stats.log_probabilities.tolist()


# gap-2 double-collision layout over 8 steps: molecule m meets the system at
# steps m - 2 and m (fresh molecules first within a step)
GAP2_H8 = [
    {"t": 0, "mol": 2}, {"t": 0, "mol": 0}, {"t": 1, "mol": 3}, {"t": 1, "mol": 1},
    {"t": 2, "mol": 4}, {"t": 2, "mol": 2}, {"t": 3, "mol": 5}, {"t": 3, "mol": 3},
    {"t": 4, "mol": 6}, {"t": 4, "mol": 4}, {"t": 5, "mol": 7}, {"t": 5, "mol": 5},
    {"t": 6, "mol": 6}, {"t": 7, "mol": 7},
]


def test_trajectories_custom_records_are_sample_ensemble(tmp_path, capsys):
    path = tmp_path / "gap2.json"
    path.write_text(json.dumps(GAP2_H8))
    rc, out, _ = run(capsys, "trajectories", "--model", "custom", "--phi", "0.6",
                     "--schedule", str(path), "--gate", "sqrt-xor", "--steps", "8",
                     "--initial", DIAG, "--samples", "10", "--seed", "3")
    assert rc == 0
    rows = jl(out)
    model = custom_chain(sqrt_xor_gate(), schedule_from_records(GAP2_H8), phi=0.6)
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    stats = sample_ensemble(model, rho0, 8, 10, 3)
    assert [r["outcomes"] for r in rows] == stats.outcomes.tolist()
    assert [r["log_p"] for r in rows] == stats.log_probabilities.tolist()


def test_trajectories_custom_unlikely_branch_keeps_unit_trace(tmp_path, capsys):
    # at small phi an outcome-1 readout is unlikely; renormalising it by
    # 1 - p0 instead of its own trace left a trace error above 1e-12 (exit 3)
    path = tmp_path / "gap2.json"
    path.write_text(json.dumps(GAP2_H8))
    rc, out, err = run(capsys, "trajectories", "--model", "custom", "--phi", "0.2592173703633698",
                       "--schedule", str(path), "--gate", "xor", "--steps", "8",
                       "--initial", "0.5213337903213392,0.4786662096786608,0.122968610707531,0.27116369751151226",
                       "--samples", "16", "--seed", "556068890")
    assert rc == 0, err
    assert len(jl(out)) == 16


def test_trajectories_custom_steps_beyond_horizon(tmp_path, capsys):
    # simulate and divisibility exit 2 here; trajectories exited 3
    path = tmp_path / "gap2.json"
    path.write_text(json.dumps(GAP2_H8))
    rc, out, err = run(capsys, "trajectories", "--model", "custom", "--phi", "0.6",
                       "--schedule", str(path), "--steps", "9", "--initial", DIAG)
    assert (rc, out) == (2, "")
    assert "--steps 9 exceeds the schedule horizon 8" in err


def _dumped_rows(stats):
    """The rows as json.dumps and csv.writer print them, one per sample."""
    pairs = list(zip(stats.outcomes.tolist(), stats.log_probabilities.tolist()))
    json_text = "".join(json.dumps({"outcomes": row, "log_p": lp}) + "\n" for row, lp in pairs)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["outcomes", "log_p"]] + [["".join(map(str, row)), format(lp, ".17g")] for row, lp in pairs])
    return json_text, buf.getvalue()


NO_READOUT = [{"t": 1, "mol": 0}]  # no molecule closes in step 0

# (flags, schedule records or None, model, initial state, steps, samples, seed)
_ROW_CASES = [
    (["--model", "markov-xor", "--phi", "0.3"], None, ChainModel("markov-xor", 0.3), INIT, 7, 50, 11),
    (["--model", "sqrt-xor", "--phi", "0.9"], None, ChainModel("sqrt-xor", 0.9), DIAG, 10, 200, 2),
    (["--model", "custom", "--phi", "0.6", "--gate", "sqrt-xor"], GAP2_H8,
     custom_chain(sqrt_xor_gate(), schedule_from_records(GAP2_H8), phi=0.6), DIAG, 8, 30, 3),
    (["--model", "custom", "--phi", "0.3"], NO_READOUT,
     custom_chain(xor_gate(), schedule_from_records(NO_READOUT), phi=0.3), INIT, 1, 4, 0),
]


@pytest.mark.parametrize("flags,records,model,initial,steps,samples,seed", _ROW_CASES,
                         ids=["markov-xor", "sqrt-xor", "gap2-custom", "no-readout"])
def test_trajectories_rows_are_the_dumped_rows(tmp_path, capsys, flags, records, model, initial,
                                               steps, samples, seed):
    # every row, in both formats, is byte for byte what json.dumps and
    # csv.writer print for the sample_ensemble records
    argv = ["trajectories"] + flags + ["--initial", initial, "--steps", str(steps),
                                       "--samples", str(samples), "--seed", str(seed)]
    if records is not None:
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(records))
        argv += ["--schedule", str(path)]
    p00, p11, re01, _ = (float(x) for x in initial.split(","))
    rho0 = np.array([[p00, re01], [re01, p11]], dtype=complex)
    want_json, want_csv = _dumped_rows(sample_ensemble(model, rho0, steps, samples, seed))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (0, want_json)
    assert run(capsys, *argv, "--format", "csv") == (0, want_csv, err)
    if records is NO_READOUT:
        assert want_json == '{"outcomes": [], "log_p": 0.0}\n' * samples
        assert want_csv == "outcomes,log_p\n" + ",0\n" * samples


def test_trajectories_csv(capsys):
    rc, out, _ = run(capsys, "trajectories", "--model", "markov-xor", "--phi", "0.3",
                     "--steps", "3", "--initial", INIT, "--samples", "2",
                     "--format", "csv")
    assert rc == 0
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert out == _dumped_rows(sample_ensemble(ChainModel("markov-xor", 0.3), rho0, 3, 2, 0))[1]


def test_trajectories_custom_and_straddler(tmp_path, capsys):
    closed = tmp_path / "closed.json"
    closed.write_text(json.dumps([
        {"t": 0, "mol": 0}, {"t": 1, "mol": 0}, {"t": 2, "mol": 1}]))
    rc, out, err = run(capsys, "trajectories", "--model", "custom", "--phi", "0.3",
                       "--schedule", str(closed), "--steps", "3", "--initial", INIT,
                       "--samples", "3")
    assert rc == 0
    assert len(jl(out)) == 3
    # molecule 1 opens at t=2 with a later event at t=3: unreadable window
    strad = tmp_path / "strad.json"
    strad.write_text(json.dumps([
        {"t": 0, "mol": 0}, {"t": 1, "mol": 0}, {"t": 2, "mol": 1}, {"t": 3, "mol": 1}]))
    rc, _, err = run(capsys, "trajectories", "--model", "custom", "--phi", "0.3",
                     "--schedule", str(strad), "--steps", "3", "--initial", INIT)
    assert rc == 4
    assert "unsupported" in err


def test_trajectories_config_errors(capsys):
    base = ("trajectories", "--model", "markov-xor", "--phi", "0.3", "--initial", INIT)
    rc, _, err = run(capsys, *base)
    assert rc == 2 and "--steps" in err
    rc, _, err = run(capsys, *base, "--steps", "2", "--seed", "-1")
    assert rc == 2 and "seed" in err
    rc, _, err = run(capsys, *base, "--steps", "2", "--seed", str(2 ** 64))
    assert rc == 2
    rc, _, err = run(capsys, *base, "--steps", "2", "--samples", "0")
    assert rc == 2
    rc, _, err = run(capsys, *base, "--steps", "2", "--threads", "0")
    assert rc == 2


# ---- schedule -------------------------------------------------------------------

@pytest.mark.parametrize("figure,count", [("1a", 0), ("1b", 1), ("1d", 1), ("5", 2)])
def test_schedule_figures(figure, count, capsys):
    rc, out, err = run(capsys, "schedule", "--figure", figure, "--horizon", "6")
    assert rc == 0
    recs = json.loads(out)
    assert all(set(r) <= {"t", "mol", "gate"} for r in recs)
    assert max(r["t"] for r in recs) == 5
    assert err.strip() == f"satellite_count = {count}"


def test_schedule_fresh_first_order(capsys):
    rc, out, _ = run(capsys, "schedule", "--figure", "5", "--horizon", "5")
    recs = json.loads(out)
    at2 = [r["mol"] for r in recs if r["t"] == 2]
    assert at2 == [4, 2]


@pytest.mark.parametrize("figure", sorted(cli._FIGURES))
@pytest.mark.parametrize("horizon", [1, 2, 3, 800])
def test_schedule_figure_text_is_the_dumped_records(capsys, figure, horizon):
    sched = cli._FIGURES[figure](horizon)
    got = run(capsys, "schedule", "--figure", figure, "--horizon", str(horizon))
    assert got == (0, json.dumps(H.schedule_records(sched)) + "\n", f"satellite_count = {satellite_count(sched)}\n")
    assert H.schedule_records(sched) == H.builtin_layout_records(figure, horizon)


def test_schedules_are_built_without_event_objects(tmp_path, capsys):
    # a schedule is its three arrays: there is no event class to build
    assert not hasattr(chains, "CollisionEvent")
    path = tmp_path / "gap2.json"
    path.write_text(json.dumps(GAP2_H8))
    for figure in sorted(cli._FIGURES):
        assert run(capsys, "schedule", "--figure", figure, "--horizon", "50")[0] == 0
    custom = ("--model", "custom", "--phi", "0.3", "--schedule", str(path))
    assert run(capsys, "simulate", *custom, "--initial", INIT)[0] == 0
    assert run(capsys, "divisibility", *custom, "--steps", "8")[0] == 0
    assert run(capsys, "trajectories", *custom, "--initial", INIT, "--steps", "8", "--samples", "3")[0] == 0
    assert len(schedule_from_records(GAP2_H8).event_steps) == len(GAP2_H8)


def test_schedule_validation(capsys):
    rc, _, _ = run(capsys, "schedule", "--figure", "1a", "--horizon", "0")
    assert rc == 2
    rc, _, _ = run(capsys, "schedule", "--figure", "9z", "--horizon", "3")
    assert rc == 2
    # the layouts are int64 arrays: np.arange(2**63) is empty, 2**64 cannot be allocated
    for horizon in (2**63, 2**64):
        got = run(capsys, "schedule", "--figure", "1a", "--horizon", str(horizon))
        assert got == (2, "", "error: --horizon must be below 2**63\n")
    # just below 2**63 np.arange(horizon) is empty or refused outright (no
    # memory is asked for); either way the layout cannot hold the horizon
    for horizon in (9223372036854775807, 9223372036854775296):
        for figure in ("1a", "1b", "1d", "5"):
            got = run(capsys, "schedule", "--figure", figure, "--horizon", str(horizon))
            assert got == (2, "", f"error: horizon {horizon} does not fit an int64 step range\n")
    rc, out, err = run(capsys, "schedule", "--figure", "1a", "--horizon", "9223372036854774783")
    assert (rc, out) == (2, "") and err.startswith("error: array is too big")


def test_schedule_horizon_past_memory_is_a_config_error(capsys, monkeypatch):
    # a layout numpy cannot allocate, stood in for so that no memory is asked for
    def refuse(horizon):
        raise MemoryError(f"Unable to allocate {8 * horizon} bytes")

    monkeypatch.setitem(cli._FIGURES, "1a", refuse)
    got = run(capsys, "schedule", "--figure", "1a", "--horizon", str(2**40))
    assert got == (2, "", f"error: Unable to allocate {8 * 2**40} bytes\n")


@pytest.mark.parametrize("name, argv", [
    ("evolve", ["simulate", "--model", "sqrt-xor", "--phi", "0.3", "--steps", "1000000000000",
                "--initial", INIT]),
    ("system_maps", ["divisibility", "--model", "markov-xor", "--phi", "0.3", "--steps", "10000000000000000"]),
    ("sample_ensemble", ["trajectories", "--model", "markov-xor", "--phi", "0.3", "--steps", "4",
                         "--initial", INIT, "--samples", "10000000000000000"]),
], ids=["simulate", "divisibility", "trajectories"])
def test_run_past_memory_is_a_config_error(capsys, monkeypatch, name, argv):
    # a run numpy cannot allocate, stood in for so that no memory is asked for
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, name, refuse)
    assert run(capsys, *argv) == (2, "", "error: Unable to allocate 7.28 TiB for an array\n")


@pytest.mark.parametrize("argv, flags, size", [
    (["simulate", "--model", "sqrt-xor", "--steps", str(10**17), "--initial", INIT],
     f"--steps {10**17}", (10**17 + 1) * 16 * 16),
    (["divisibility", "--model", "repeated-xor", "--steps", str(10**17)],
     f"--steps {10**17}", 4 * (10**17 + 1) * 16 * 16),
    (["divisibility", "--model", "markov-xor", "--steps", str(10**17)],
     f"--steps {10**17}", 4 * (10**17 + 1) * 4 * 16),
    (["trajectories", "--model", "sqrt-xor", "--steps", str(10**17), "--samples", "100", "--initial", INIT],
     f"--samples 100 at --steps {10**17}", 100 * 10**17 * 8),
    (["trajectories", "--model", "markov-xor", "--steps", "12", "--samples", str(10**17), "--initial", INIT],
     f"--samples {10**17} at --steps 12", 12 * 10**17 * 8),
], ids=["simulate", "divisibility", "divisibility-markov", "trajectories-steps",
        "trajectories-samples"])
def test_run_numpy_cannot_size_is_a_config_error(capsys, monkeypatch, argv, flags, size):
    # an output stack past the intp range is refused from the flags: no run starts
    def refuse(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("evolve", "system_maps", "sample_ensemble"):
        monkeypatch.setattr(cli, name, refuse)
    assert size > np.iinfo(np.intp).max
    want = f"error: {flags} needs a {size}-byte output stack, more than numpy can size\n"
    assert run(capsys, *argv, "--phi", "0.3") == (2, "", want)


# ---- top level --------------------------------------------------------------------

def test_version_and_help(capsys):
    assert run(capsys, "--version")[0] == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "simulate", "--help")[0] == 0


def test_unknown_commands(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    rc, _, _ = run(capsys, "simulate", "--model", "markov-xor", "--phi", "0.3",
                   "--steps", "1", "--initial", INIT, "--bogus")
    assert rc == 2


def test_one_parser_per_process_gives_the_results_of_fresh_parsers(tmp_path, capsys, monkeypatch):
    gap2 = tmp_path / "gap2.json"
    gap2.write_text(json.dumps(GAP2_H8))
    strad = tmp_path / "strad.json"
    strad.write_text(json.dumps([
        {"t": 0, "mol": 0}, {"t": 1, "mol": 0}, {"t": 2, "mol": 1}, {"t": 3, "mol": 1}]))
    split = ("--model", "sqrt-xor", "--phi", "0.3")
    calls = [
        (0, ("simulate", *split, "--steps", "3", "--initial", INIT, "--memory", DIAG)),
        (0, ("simulate", "--model", "custom", "--phi", "0.4", "--schedule", str(gap2),
             "--initial", DIAG, "--format", "csv")),
        (0, ("measures", *split, "--initial", INIT)),
        (0, ("divisibility", *split, "--steps", "4", "--format", "csv")),
        (0, ("trajectories", *split, "--steps", "3", "--initial", INIT, "--samples", "4")),
        (0, ("schedule", "--figure", "5", "--horizon", "6")),
        (2, ("simulate", *split, "--steps", "2")),  # argparse: --initial missing
        (0, ("--version",)),
        (0, ("--help",)),
        (0, ("divisibility", "--help")),
        (2, ("simulate", "--model", "custom", "--phi", "0.3", "--initial", INIT)),  # ConfigError
        (3, ("measures", "--model", "sqrt-xor", "--phi", str(np.pi / 4), "--initial", INIT)),
        (4, ("trajectories", "--model", "custom", "--phi", "0.3", "--schedule", str(strad),
             "--steps", "3", "--initial", INIT)),
    ]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._shared_parser.cache_clear()
    # every call twice, so each also runs after every other on the same parser
    reused = [run(capsys, *argv) for _ in range(2) for _, argv in calls]
    assert len(built) == 1
    assert [r[0] for r in reused] == [rc for rc, _ in calls] * 2
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for _, argv in calls]
    assert len(built) == 1 + len(calls)
    assert reused == fresh * 2


def test_installed_entry_point():
    exe = shutil.which("nmchain")
    assert exe, "console script nmchain not on PATH"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "nmchain" in proc.stdout


def test_mat_json_is_byte_identical_to_per_entry_pairs():
    rng = np.random.default_rng(5)
    specials = [-0.0, 5e-324, -5e-324, 1e-300, 0.0]
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        flat = m.reshape(-1)
        for k, x in enumerate(rng.choice(specials, size=6)):
            pos = rng.integers(16)
            flat[pos] = complex(x, flat[pos].imag) if k % 2 else complex(flat[pos].real, x)
        old = [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]
        assert json.dumps(cli._mat(m)) == json.dumps(old)
    real = np.array([[-0.0, 1e-300], [5e-324, 2.0]])
    assert json.dumps(cli._mat(real)) == json.dumps([[[float(x), 0.0] for x in row] for row in real])
