"""Command line front end.

Subcommands: simulate, measures, divisibility, trajectories, schedule.
States are entered as four comma-separated reals p00,p11,re01,im01 and
printed as nested [re, im] pairs. Exit codes: 0 success, 2 configuration
error or a run memory cannot hold, 3 numeric invariant violation, 4
unsupported feature.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .chains import (
    CUSTOM,
    GATE_NAMES,
    MARKOV_XOR,
    REPEATED_XOR,
    SQRT_XOR,
    ChainModel,
    advanced_overlap_schedule,
    chain_schedule,
    delta,
    evolve,
    overlap_schedule,
    satellite_count,
    schedule_from_records,
    single_molecule_schedule,
    system_maps,
    system_marginals,
)
from .channels import divisibility_scan
from .gates import sqrt_xor_gate, xor_gate
from .linalg import DensityMatrix
from .measures import nm_report
from .trajectories import UnsupportedScheduleError, sample_ensemble

_FIGURES = {
    "1a": chain_schedule,
    "1b": overlap_schedule,
    "1d": single_molecule_schedule,
    "5": advanced_overlap_schedule,
}

# the text a schedule record's gate adds to it, by gate code
_GATE_JSON = tuple("" if name is None else f', "gate": {json.dumps(name)}' for name in GATE_NAMES)


class ConfigError(Exception):
    """Bad flags, bad files, bad numbers in the configuration."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _mat(m: np.ndarray) -> list:
    """Complex entries as nested [re, im] pairs, for one array or a stack."""
    return np.stack([m.real, m.imag], -1).tolist()


def _cells(blocks, fmt) -> list[list[str]]:
    """The float64 blocks, each (rows, ...), laid side by side as one
    (rows, F) matrix and returned as rows of text cells. Each distinct value
    is formatted once: np.unique runs on the int64 bit view, so -0.0 and 0.0
    keep their own text."""
    values = np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(values.shape)].tolist()


def _pairs_template(shape) -> str:
    """json.dumps's text of a nested list of [re, im] pairs of this shape,
    with %s for each number."""
    tpl = "[%s, %s]"
    for n in reversed(shape):
        tpl = "[" + ", ".join([tpl] * n) + "]"
    return tpl


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _digit_rows(bits: np.ndarray, sep: str) -> list[str]:
    """Each row of a (rows, readouts) matrix of 0/1 outcomes as its digits
    joined by sep ("" for a row with no readouts), cut from one character
    matrix."""
    rows, n = bits.shape
    chars = np.empty((rows, n, 1 + len(sep)), dtype=np.uint8)
    chars[..., 0] = bits + ord("0")
    chars[..., 1:] = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
    text = chars.tobytes().decode("ascii")
    # a row is width characters less its trailing separator; with no
    # readouts the text is empty, and so is every slice of it
    width = n * (1 + len(sep))
    return [text[i * width:(i + 1) * width - len(sep)] for i in range(rows)]


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _parse_state(text: str, flag: str) -> DensityMatrix:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"{flag} expects p00,p11,re01,im01 (got {len(parts)} fields)")
    try:
        p00, p11, re01, im01 = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{flag}: fields must be real numbers") from None
    m = np.array([[p00, re01 + 1j * im01], [re01 - 1j * im01, p11]], dtype=complex)
    try:
        dm = DensityMatrix(m, ("sys",))
        dm.validate_positive()
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None
    return dm


def _load_schedule(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"--schedule: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--schedule: {path} is not valid JSON: {exc}") from None
    if not isinstance(records, list):
        raise ConfigError("--schedule: file must hold a JSON list of events")
    try:
        return schedule_from_records(records)
    except ValueError as exc:
        raise ConfigError(f"--schedule: {exc}") from None


def _build_model(args) -> ChainModel:
    payload = {}
    if args.model == CUSTOM:
        if not getattr(args, "schedule", None):
            raise ConfigError("--model custom requires --schedule")
        schedule = _load_schedule(args.schedule)
        gate = sqrt_xor_gate() if getattr(args, "gate", "xor") == "sqrt-xor" else xor_gate()
        payload = {"gate": gate, "schedule": schedule}
    elif getattr(args, "schedule", None):
        raise ConfigError("--schedule only applies to --model custom")
    try:
        return ChainModel(args.model, args.phi, **payload)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _memory_arg(args, model):
    mem_text = getattr(args, "memory", None)
    if mem_text is None:
        return None
    if model.kind not in (REPEATED_XOR, SQRT_XOR):
        raise ConfigError(f"--memory does not apply to --model {model.kind}")
    return _parse_state(mem_text, "--memory")


def _check_threads(args) -> None:
    """Validate --threads. Sampling runs on one thread and its records never
    depend on the count, so the value is not used."""
    if args.threads is not None and args.threads < 1:
        raise ConfigError("thread count must be at least 1")


def _check_horizon(model, steps: int) -> None:
    if model.kind == CUSTOM and steps > model.schedule.horizon:
        raise ConfigError(f"--steps {steps} exceeds the schedule horizon {model.schedule.horizon}")


def _check_stack(flags: str, shape: tuple, dtype) -> None:
    """Refuse flags whose output stack numpy cannot size, more bytes than an
    intp holds, before anything is allocated."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size > np.iinfo(np.intp).max:
        raise ConfigError(f"{flags} needs a {size}-byte output stack, more than numpy can size")


def _evolve_shape(model, states: int, steps: int) -> tuple:
    """The shape of evolve's stack of `states` start states: on the compound
    for the two-collision models, on the system for the others."""
    d = 4 if model.kind in (REPEATED_XOR, SQRT_XOR) else 2
    return (states, steps + 1, d, d)


def _cmd_simulate(args) -> int:
    model = _build_model(args)
    rho0 = _parse_state(args.initial, "--initial")
    mem0 = _memory_arg(args, model)
    if model.kind != CUSTOM and args.steps is None:
        raise ConfigError("--steps is required for the built-in models")
    steps = model.schedule.horizon if args.steps is None else args.steps
    _check_horizon(model, steps)
    if steps < 0:
        raise ConfigError("--steps must be non-negative")
    _check_stack(f"--steps {steps}", _evolve_shape(model, 1, steps), complex)

    stack, slots = evolve(model, rho0, steps, mem0)
    # one-qubit stacks (custom, markov-xor) are the system rows already
    compound = stack if len(slots) == 2 else None
    system = system_marginals(stack, slots)
    d = delta(compound) if model.kind == SQRT_XOR else None

    if args.format == "json":
        fields = {"rho_system": system, "rho_compound": compound, "delta": d}
        fields = {k: m for k, m in fields.items() if m is not None}
        tpl = "{" + ", ".join(['"t": %d'] + [f'"{k}": {_pairs_template(m.shape[1:])}'
                                             for k, m in fields.items()]) + "}"
        # float.__repr__ is the text json.dumps writes for a finite float, and
        # every value here is finite: evolve and system_marginals reject a
        # non-finite state (exit 3) before any stdout is written, and delta
        # sums four entries of those checked states.
        cells = _cells([np.stack([m.real, m.imag], -1) for m in fields.values()], float.__repr__)
        text = _lines(tpl % (t, *row) for t, row in enumerate(cells))
    else:
        header = ["t", "p00", "p11", "re01", "im01"]
        cols = [system[:, 0, 0].real, system[:, 1, 1].real, system[:, 0, 1].real, system[:, 0, 1].imag]
        if d is not None:
            header += ["delta_re", "delta_im"]
            cols += [d.real, d.imag]
        text = _csv_text([header] + [[str(t)] + row for t, row in enumerate(_cells(cols, _fmt))])
    sys.stdout.write(text)
    return 0


def _cmd_measures(args) -> int:
    model = _build_model(args)
    rho0 = _parse_state(args.initial, "--initial")
    report = nm_report(model, rho0)
    basis = None
    if report.argmax_basis is not None:
        basis = {"theta": report.argmax_basis.theta, "psi": report.argmax_basis.psi}
    out = {
        "count_qubits": report.count_qubits,
        "mutual_info": report.mutual_info,
        "classical_J": report.classical_J,
        "discord": report.discord,
        "argmax_basis": basis,
        "classification": report.classification,
    }
    if args.format == "json":
        text = _lines([json.dumps(out)])
    else:
        text = _csv_text([
            ["count_qubits", "mutual_info", "classical_J", "discord", "theta", "psi", "classification"],
            [
                report.count_qubits,
                "" if report.mutual_info is None else _fmt(report.mutual_info),
                "" if report.classical_J is None else _fmt(report.classical_J),
                "" if report.discord is None else _fmt(report.discord),
                "" if basis is None else _fmt(basis["theta"]),
                "" if basis is None else _fmt(basis["psi"]),
                report.classification,
            ],
        ])
    sys.stdout.write(text)
    return 0


def _cmd_divisibility(args) -> int:
    model = _build_model(args)
    mem0 = _memory_arg(args, model)
    default = min(10, model.schedule.horizon) if model.kind == CUSTOM else 10
    steps = default if args.steps is None else args.steps
    if steps < 1:
        raise ConfigError("--steps must be at least 1")
    _check_horizon(model, steps)
    if not np.isfinite(args.tol_cp) or args.tol_cp < 0:
        raise ConfigError(f"--tol-cp must be finite and non-negative, got {args.tol_cp!r}")
    # system_maps runs the four probe states of a qubit map as one stack
    _check_stack(f"--steps {steps}", _evolve_shape(model, 4, steps), complex)
    maps = system_maps(model, steps, mem0)
    results = divisibility_scan(maps, cp_tol=args.tol_cp)
    if args.format == "json":
        text = _lines(json.dumps({
            "t": t,
            "exists": step.exists,
            "min_choi_eig": step.min_choi_eig,
            "smallest_singular": step.smallest_singular,
        }) for t, step in enumerate(results, start=1))
    else:
        text = _csv_text([["t", "exists", "min_choi_eig"]] + [
            [t, "indeterminate", ""] if step.exists is None
            else [t, "true" if step.exists else "false", _fmt(step.min_choi_eig)]
            for t, step in enumerate(results, start=1)
        ])
    sys.stdout.write(text)
    return 0


def _cmd_trajectories(args) -> int:
    model = _build_model(args)
    rho0 = _parse_state(args.initial, "--initial")
    if args.steps is None:
        raise ConfigError("--steps is required")
    if args.steps < 1:
        raise ConfigError("--steps must be at least 1")
    samples = args.samples if args.samples is not None else 1
    if samples < 1:
        raise ConfigError("--samples must be at least 1")
    seed = args.seed if args.seed is not None else 0
    if seed < 0 or seed >= 2 ** 64:
        raise ConfigError("--seed must fit an unsigned 64-bit integer")
    _check_threads(args)
    _check_horizon(model, args.steps)
    # one uniform and one outcome per sample and step
    _check_stack(f"--samples {samples} at --steps {args.steps}", (samples, args.steps), np.float64)
    stats = sample_ensemble(model, rho0, args.steps, samples, seed)
    # Every printed log_p is finite: a sample takes a zero-probability child
    # only when its uniform lies past the last cumulative probability, and
    # that child's state is 0/0 = NaN, which sample_ensemble's state checks
    # reject (exit 3) before any stdout is written. So the f-string row below
    # is the text json.dumps gives: the outcome list's repr and
    # float.__repr__ of log_p. Samples share log_p values, so each distinct
    # one is formatted once.
    fmt = float.__repr__ if args.format == "json" else _fmt
    log_ps = [cell for cell, in _cells([stats.log_probabilities], fmt)]
    # readouts are bits; built-in rows list both, custom rows only those drawn
    freqs = [{str(k): f.get(k, 0) for k in (sorted(f) if model.kind == CUSTOM else (0, 1))}
             for f in stats.outcome_frequencies]

    if args.format == "json":
        text = _lines(f'{{"outcomes": [{bits}], "log_p": {lp}}}'
                      for bits, lp in zip(_digit_rows(stats.outcomes, ", "), log_ps))
    else:
        text = _csv_text([["outcomes", "log_p"]] + [
            [bits, lp] for bits, lp in zip(_digit_rows(stats.outcomes, ""), log_ps)
        ])
    sys.stdout.write(text)
    summary = {
        "n_samples": samples,
        "seed": seed,
        "mean_state": _mat(stats.mean_state.matrix),
        "outcome_frequencies": freqs,
    }
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _cmd_schedule(args) -> int:
    if args.horizon < 1:
        raise ConfigError("--horizon must be at least 1")
    if args.horizon >= 2**63:
        raise ConfigError("--horizon must be below 2**63")
    try:
        sched = _FIGURES[args.figure](args.horizon)
    except ValueError as exc:
        # a horizon below 2**63 that np.arange cannot hold (main reports one it cannot allocate)
        raise ConfigError(str(exc)) from None
    # json.dumps's text of the records [{"t": t, "mol": m, "gate"?: name}], one f-string per event
    records = (f'{{"t": {t}, "mol": {m}{_GATE_JSON[g]}}}' for t, m, g in zip(
        sched.event_steps.tolist(), sched.event_molecules.tolist(), sched.event_gates.tolist()))
    sys.stdout.write(_lines(["[" + ", ".join(records) + "]"]))
    print(f"satellite_count = {satellite_count(sched)}", file=sys.stderr)
    return 0


def _add_model_flags(p, with_memory=True):
    p.add_argument("--model", required=True, choices=[MARKOV_XOR, REPEATED_XOR, SQRT_XOR, CUSTOM],
                   help="collision model")
    p.add_argument("--phi", required=True, type=float, help="molecule preparation angle (radians)")
    p.add_argument("--schedule", help="JSON schedule file (custom model only)")
    p.add_argument("--gate", choices=["xor", "sqrt-xor"], default="xor",
                   help="collision gate for --model custom (default xor)")
    if with_memory:
        p.add_argument("--memory", help="initial memory state p00,p11,re01,im01 (two-collision models)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmchain",
        description="Collision chains of qubits: simulate, embed, and measure memory effects.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="stream per-step states")
    _add_model_flags(p)
    p.add_argument("--steps", type=int, help="number of collisions (default: schedule horizon for custom)")
    p.add_argument("--initial", required=True, help="system state p00,p11,re01,im01")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("measures", help="memory count and stationary correlation measures")
    _add_model_flags(p, with_memory=False)
    p.add_argument("--initial", required=True, help="system state p00,p11,re01,im01")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_measures)

    p = sub.add_parser("divisibility", help="stepwise CP checks of the reduced system maps")
    _add_model_flags(p)
    p.add_argument("--steps", type=int, help="number of steps to scan (default 10, or a shorter custom horizon)")
    p.add_argument("--tol-cp", type=float, default=1e-9, help="CP tolerance on the Choi spectrum")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_divisibility)

    p = sub.add_parser("trajectories", help="sample selective readout records")
    _add_model_flags(p, with_memory=False)
    p.add_argument("--steps", type=int, help="trajectory length in collisions")
    p.add_argument("--initial", required=True, help="system state p00,p11,re01,im01")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--samples", type=int, help="number of trajectories (default 1)")
    p.add_argument("--threads", type=int,
                   help="thread count, checked to be at least 1; sampling runs on one "
                        "thread and records never depend on the value "
                        "(default 1)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_trajectories)

    p = sub.add_parser("schedule", help="print a built-in collision layout")
    p.add_argument("--figure", required=True, choices=sorted(_FIGURES), help="layout name")
    p.add_argument("--horizon", required=True, type=int, help="number of steps")
    p.set_defaults(func=_cmd_schedule)

    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use and kept for the process:
    parsing leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ConfigError, MemoryError) as exc:
        # a run too large for memory is a configuration error, as a bad flag is
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedScheduleError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 4
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numeric invariant violated: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
