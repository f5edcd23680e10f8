"""Seeded call lists for the benchmark workloads.

A workload is a fixed multiset of call shapes (subcommand, model, size)
per pass. The seed only draws what does not change the amount of work:
angles, states, RNG seeds, gates, memory starts and the call order. So
every seed asks for the same work, and runs with different seeds can be
compared; the pass index is mixed into the seed so that each pass sees
fresh angles (and so misses the built-in embedding cache again).
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("ensemble", "window", "sweep")
BUILTIN_MODELS = ("markov-xor", "repeated-xor", "sqrt-xor")
TWO_COLLISION = ("repeated-xor", "sqrt-xor")

# ensemble: calls per model for each sample count. Sorted by latency, the
# median call falls inside the 500-sample group and the 90th percentile
# near the middle of the 1000-sample group, where calls are densest, rather
# than on the edge between two sizes, where a quantile jumps from run to run.
ENSEMBLE_SAMPLES = {250: 9, 500: 19, 1000: 5, 2000: 1}
ENSEMBLE_STEPS = (8, 9, 10, 11, 12)
# Every this many ensemble calls (in the order they are made, before the
# shuffle, so the same shapes for every seed) is run again, untimed, with
# the other --threads value; its output must be byte-identical. A seed-drawn
# choice would make peak_rss_mb depend on the seed: the 2000-sample calls
# use more memory with --threads 1, when they run as one chunk.
THREAD_CHECK_EVERY = 8

# window: double-collision layouts with a pause of gap-1 steps between the
# two collisions; gap 3 keeps four molecules open, a 5-qubit window.
WINDOW_GAPS = (1, 2, 3)
WINDOW_SIM_HORIZONS = (30, 40, 60, 80, 120, 160, 220, 300)
WINDOW_DIV_HORIZON = 12
WINDOW_DIV_STEPS = (4, 5, 6, 7, 8, 9, 10, 11, 12)
WINDOW_TRAJ_HORIZONS = (6, 7, 8, 10, 12)
WINDOW_TRAJ_SAMPLES = (6, 10, 16)
FIGURES = ("1a", "1b", "1d", "5")
FIGURE_HORIZONS = (100, 150, 200, 300, 400, 500, 600, 700, 800)

# sweep: per built-in model, this many calls of each subcommand.
SWEEP_PER_MODEL = 17
SWEEP_DIV_STEPS = tuple(range(6, 21))
SWEEP_SIM_STEPS = (50, 75, 100, 150, 200, 250, 300, 350, 400)


@dataclass
class Call:
    """One CLI invocation: its argv and the parameters the checker needs."""

    cmd: str
    argv: list
    params: dict = field(default_factory=dict)


def schedule_path(workdir: str, gap: int, horizon: int) -> str:
    return os.path.join(workdir, f"gap{gap}-h{horizon}.json")


def gap_layout(gap: int, horizon: int) -> list:
    """Molecule m collides at step m-gap (when m >= gap) and again at step m.

    Every molecule's last collision is inside the horizon, so a run of
    horizon steps reads every molecule out.
    """
    records = []
    for t in range(horizon):
        if t + gap <= horizon - 1:
            records.append({"t": t, "mol": t + gap})
        records.append({"t": t, "mol": t})
    return records


def figure_layout(figure: str, horizon: int) -> list:
    """The events `nmchain schedule --figure` must print, in printed order."""
    if figure == "1a":
        return [{"t": t, "mol": t} for t in range(horizon)]
    if figure == "1d":
        return [{"t": t, "mol": 0} for t in range(horizon)]
    return gap_layout({"1b": 1, "5": 2}[figure], horizon)


def prepare(workload: str, workdir: str) -> None:
    """Write the schedule files the workload's calls read."""
    if workload != "window":
        return
    needed = set()
    for gap in WINDOW_GAPS:
        needed.update((gap, h) for h in WINDOW_SIM_HORIZONS + WINDOW_TRAJ_HORIZONS)
        needed.add((gap, WINDOW_DIV_HORIZON))
    for gap, horizon in sorted(needed):
        with open(schedule_path(workdir, gap, horizon), "w", encoding="utf-8") as fh:
            json.dump(gap_layout(gap, horizon), fh)


def _angle(rng: random.Random) -> float:
    # away from pi/4, where sqrt-xor coherences stop decaying and the
    # stationary state the measures need does not exist
    while True:
        phi = rng.uniform(0.1, 1.47)
        if abs(phi - math.pi / 4) > 0.05:
            return phi


def _state(rng: random.Random) -> tuple:
    p00 = rng.uniform(0.1, 0.9)
    p11 = 1.0 - p00
    r = rng.uniform(0.1, 0.9) * math.sqrt(p00 * p11)
    a = rng.uniform(0.0, 2.0 * math.pi)
    return (p00, p11, r * math.cos(a), r * math.sin(a))


def _fmt_state(s: tuple) -> str:
    return ",".join(repr(x) for x in s)


def _model_call(cmd, rng, model, **params) -> Call:
    phi = _angle(rng)
    params.update(model=model, phi=phi)
    argv = [cmd, "--model", model, "--phi", repr(phi)]
    if model == "custom":
        params["gate"] = rng.choice(("xor", "sqrt-xor"))
        argv += ["--schedule", params["schedule"], "--gate", params["gate"]]
    if cmd != "divisibility":
        params["initial"] = _state(rng)
        argv += ["--initial", _fmt_state(params["initial"])]
    if params.pop("with_memory", False):
        params["memory"] = _state(rng)
        argv += ["--memory", _fmt_state(params["memory"])]
    if "steps" in params:
        argv += ["--steps", str(params["steps"])]
    if cmd == "trajectories":
        params["seed"] = rng.randrange(2 ** 32)
        argv += ["--samples", str(params["samples"]), "--seed", str(params["seed"])]
        if "threads" in params:
            argv += ["--threads", str(params["threads"])]
    return Call(cmd, argv, params)


def _ensemble(rng):
    calls = []
    for model in BUILTIN_MODELS:
        i = 0
        for samples, count in ENSEMBLE_SAMPLES.items():
            for _ in range(count):
                steps = ENSEMBLE_STEPS[i % len(ENSEMBLE_STEPS)]
                calls.append(_model_call("trajectories", rng, model, steps=steps, samples=samples,
                                         threads=1 + i % 2, thread_check=i % THREAD_CHECK_EVERY == 0))
                i += 1
    return calls


def _window(rng, workdir):
    calls = []
    for gap in WINDOW_GAPS:
        for h in WINDOW_SIM_HORIZONS:
            calls.append(_model_call("simulate", rng, "custom", gap=gap, horizon=h,
                                     schedule=schedule_path(workdir, gap, h)))
        for steps in WINDOW_DIV_STEPS:
            calls.append(_model_call("divisibility", rng, "custom", gap=gap,
                                     horizon=WINDOW_DIV_HORIZON, steps=steps,
                                     schedule=schedule_path(workdir, gap, WINDOW_DIV_HORIZON)))
        for i, h in enumerate(WINDOW_TRAJ_HORIZONS):
            samples = WINDOW_TRAJ_SAMPLES[i % len(WINDOW_TRAJ_SAMPLES)]
            calls.append(_model_call("trajectories", rng, "custom", gap=gap, horizon=h,
                                     steps=h, samples=samples,
                                     schedule=schedule_path(workdir, gap, h)))
    for figure in FIGURES:
        for h in FIGURE_HORIZONS:
            calls.append(Call("schedule", ["schedule", "--figure", figure, "--horizon", str(h)],
                              {"figure": figure, "horizon": h}))
    return calls


def _sweep(rng):
    calls = []
    for model in BUILTIN_MODELS:
        memory = model in TWO_COLLISION
        for i in range(SWEEP_PER_MODEL):
            calls.append(_model_call("measures", rng, model))
            calls.append(_model_call("divisibility", rng, model, with_memory=memory,
                                     steps=SWEEP_DIV_STEPS[i % len(SWEEP_DIV_STEPS)]))
            calls.append(_model_call("simulate", rng, model, with_memory=memory,
                                     steps=SWEEP_SIM_STEPS[i % len(SWEEP_SIM_STEPS)]))
    return calls


def call_list(workload: str, seed: int, pass_index: int, workdir: str) -> list:
    """The calls of one pass, in the order they run."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "ensemble":
        calls = _ensemble(rng)
    elif workload == "window":
        calls = _window(rng, workdir)
    elif workload == "sweep":
        calls = _sweep(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    return calls
