"""Independent oracles for the test suite.

Everything in here is built from first principles: operators assembled by
index arithmetic, partial traces by einsum, eigenvalues by LAPACK
(np.linalg.eigh), optimization by a dense grid plus Powell polish. None of
it shares code paths with the package, so agreement is evidence, not
tautology.
"""
import numpy as np
from scipy import optimize

B_ROOT = np.exp(1j * np.pi / 4) / np.sqrt(2)   # principal sqrt(i/2)


def dag(a):
    return a.conj().T


def rand_rho(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r = g @ dag(g)
    return r / np.trace(r).real


def prep(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


def molecule_density(phi):
    v = prep(phi) @ np.array([1.0, 0.0])
    return np.outer(v, v.conj()).astype(complex)


def tdist(a, b):
    w = np.linalg.eigvalsh(a - b)
    return 0.5 * np.abs(w).sum()


# ---- three-qubit step operators in |mol, mem, sys>, built by index math ----

def op3_xor():
    u = np.zeros((8, 8))
    for m in range(2):
        for e in range(2):
            for s in range(2):
                u[((m ^ s) * 4 + e * 2 + s), (m * 4 + e * 2 + s)] = 1.0
    return u


def op3_swap_mol_mem():
    u = np.zeros((8, 8))
    for m in range(2):
        for e in range(2):
            for s in range(2):
                u[(e * 4 + m * 2 + s), (m * 4 + e * 2 + s)] = 1.0
    return u


def sqrt_block(b=B_ROOT):
    return np.array([[b, -1j * b], [-1j * b, b]])


def op3_sqrt_xor(b=B_ROOT):
    blk = sqrt_block(b)
    u = np.zeros((8, 8), complex)
    for m in range(2):
        for e in range(2):
            u[m * 4 + e * 2, m * 4 + e * 2] = 1.0
            for mp in range(2):
                u[mp * 4 + e * 2 + 1, m * 4 + e * 2 + 1] = blk[mp, m]
    return u


def step_unitary(phi, kind, with_prep=True):
    """Collision-swap-collision sandwich; kind 'double' uses the plain flip,
    'split' the square-root flip."""
    sw = op3_swap_mol_mem()
    g = op3_xor() if kind == "double" else op3_sqrt_xor()
    u = g @ sw @ g
    if with_prep:
        u = u @ np.kron(prep(phi), np.eye(4))
    return u


def kraus_pair(phi, kind):
    v = step_unitary(phi, kind)
    return v[0:4, 0:4].copy(), v[4:8, 0:4].copy()


def channel_apply(phi, kind, r):
    m0, m1 = kraus_pair(phi, kind)
    return m0 @ r @ dag(m0) + m1 @ r @ dag(m1)


# ---- closed-form stationary states ----

def stat_double(phi, p00, p11):
    c, s = np.cos(phi), np.sin(phi)
    psi = np.array([c, s])
    psip = np.array([s, c])
    return (p00 * np.kron(np.outer(psi, psi.conj()), np.diag([1.0, 0.0]))
            + p11 * np.kron(np.outer(psip, psip.conj()), np.diag([0.0, 1.0]))).astype(complex)


def stat_split(phi, p00, p11):
    c, s = np.cos(phi), np.sin(phi)
    psi = np.array([c, s], complex)
    psip = np.array([1.0, -1j * np.exp(2j * phi)]) / np.sqrt(2)
    return (p00 * np.kron(np.outer(psi, psi.conj()), np.diag([1.0, 0.0]))
            + p11 * np.kron(np.outer(psip, psip.conj()), np.diag([0.0, 1.0]))).astype(complex)


def delta_of(r):
    return -1j * (r[0, 1] + r[2, 3]) + (r[0, 3] + r[2, 1])


# ---- closed-form one-step recursions of the ("mem", "sys") compound ----

def recursion_repeated(m, phi):
    c, s = np.cos(phi), np.sin(phi)
    a = m[0, 0] + m[2, 2]
    b = m[1, 1] + m[3, 3]
    f = m[0, 3] + m[2, 1]
    g = m[3, 0] + m[1, 2]
    return np.array(
        [
            [c * c * a, c * s * f, c * s * a, c * c * f],
            [c * s * g, s * s * b, s * s * g, c * s * b],
            [c * s * a, s * s * f, s * s * a, c * s * f],
            [c * c * g, c * s * b, c * s * g, c * c * b],
        ],
        dtype=complex,
    )


def recursion_sqrt(m, phi):
    c, s = np.cos(phi), np.sin(phi)
    beta = np.exp(1j * phi) / 2.0
    bb = np.conj(beta)
    a = m[0, 0] + m[2, 2]
    b = m[1, 1] + m[3, 3]
    d = delta_of(m)
    dd = np.conj(d)
    return np.array(
        [
            [c * c * a, c * beta * d, c * s * a, 1j * c * bb * d],
            [c * bb * dd, b / 2.0, s * bb * dd, 2j * bb * bb * b],
            [c * s * a, s * beta * d, s * s * a, 1j * s * bb * d],
            [-1j * c * beta * dd, -2j * beta * beta * b, -1j * s * beta * dd, b / 2.0],
        ],
        dtype=complex,
    )


# ---- generic register tools (einsum / bit shuffle route) ----

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def ptrace_general(r, n, keep):
    t = r.reshape((2,) * (2 * n))
    li = 0
    ket, bra = {}, {}
    for q in range(n):
        if q in keep:
            ket[q] = _LETTERS[li]; li += 1
            bra[q] = _LETTERS[li]; li += 1
        else:
            ket[q] = bra[q] = _LETTERS[li]; li += 1
    sub = "".join(ket[q] for q in range(n)) + "".join(bra[q] for q in range(n))
    out = "".join(ket[q] for q in sorted(keep)) + "".join(bra[q] for q in sorted(keep))
    res = np.einsum(f"{sub}->{out}", t)
    k = len(keep)
    return res.reshape(2 ** k, 2 ** k)


def embed_front(g, n_gate, n_total, positions):
    rest = [q for q in range(n_total) if q not in positions]
    front = list(positions) + rest
    u_front = np.kron(g, np.eye(2 ** (n_total - n_gate)))
    fidx = np.zeros(2 ** n_total, dtype=int)
    for i in range(2 ** n_total):
        f = 0
        for j, q in enumerate(front):
            f |= ((i >> (n_total - 1 - q)) & 1) << (n_total - 1 - j)
        fidx[i] = f
    return u_front[np.ix_(fidx, fidx)]


def signed_zero_states(rng, n, count):
    """count random states of n qubits as a (count, 2^n, 2^n) stack, about a
    third of their off-diagonal entries set to a signed zero (and its
    conjugate), so that the sign of every zero a partial trace gives shows."""
    zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    out = np.stack([rand_rho(rng, 2 ** n) for _ in range(count)])
    for a in out:
        for i, j in zip(*np.triu_indices(2 ** n, 1)):
            if rng.random() < 0.3:
                a[i, j] = zeros[rng.integers(4)]
                a[j, i] = np.conj(a[i, j])
    return out


def ptrace_per_qubit(a, n, keep):
    """Partial trace of a 2^n x 2^n array or a stack, one np.trace per traced
    qubit, the last qubit first."""
    batch = a.shape[:-2]
    t = a.reshape(batch + (2,) * (2 * n))
    remaining = n
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=len(batch) + q, axis2=len(batch) + q + remaining)
        remaining -= 1
    d = 2 ** len(keep)
    return t.reshape(batch + (d, d))


def apply_gate(states, gate, acting, n_qubits):
    """u rho u^dagger, u = the gate on register positions `acting` (role order,
    0 = most significant qubit), for one state or a stack (..., 2^n, 2^n):
    the per-gate sandwich. Each side brings its acting axes to the front and
    makes one (2^k, 2^k) @ (2^k, rest) product, the gate on the ket axes and
    its conjugate on the bra axes."""
    states = np.asarray(states)
    acting = tuple(acting)
    k = gate.arity
    if len(acting) != k or len(set(acting)) != k or not all(0 <= q < n_qubits for q in acting):
        raise ValueError(f"cannot place a {k}-qubit gate on positions {acting} of {n_qubits} qubits")
    order = tuple(sorted(range(k), key=acting.__getitem__))
    m = gate.matrix.reshape((2,) * (2 * k)).transpose(order + tuple(k + i for i in order)).reshape(2 ** k, 2 ** k)
    b = states.ndim - 2
    t = states.reshape(states.shape[:-2] + (2,) * (2 * n_qubits))
    for offset, side in ((b, m), (b + n_qubits, m.conj())):
        front = sorted(offset + q for q in acting)
        perm = front + [a for a in range(t.ndim) if a not in front]
        t = t.transpose(perm)
        t = (side @ t.reshape(2 ** k, -1)).reshape(t.shape).transpose(np.argsort(perm))
    return t.reshape(states.shape)


def window_collide_oracle(joint, open_ids, model, t):
    """One step of the window engine, one collision at a time: each fresh
    molecule is attached by np.kron as it comes, then its gate sandwich
    runs through apply_gate."""
    from nmchain.gates import sqrt_xor_gate, xor_gate

    open_ids = list(open_ids)
    xi = molecule_density(model.phi)
    for mol, gate in scan_events_at(model.schedule, t):
        if mol not in open_ids:
            joint = np.stack([np.kron(xi, r) for r in joint.reshape((-1,) + joint.shape[-2:])]).reshape(
                joint.shape[:-2] + (2 * joint.shape[-2],) * 2)
            open_ids.insert(0, mol)
        g = model.collision_gate() if gate is None else {"xor": xor_gate, "sqrt-xor": sqrt_xor_gate}[gate]()
        acting = [open_ids.index(mol) if role == "mol" else len(open_ids) for role in g.slot_roles]
        joint = apply_gate(joint, g, acting, len(open_ids) + 1)
    return joint, open_ids


def closing_first(joint, ids, closing):
    """joint on the register ids (then the system), its qubits reordered by a
    transpose into the window engine's layout after a step: the closing
    molecules in the given order, the other ids, the system. Returns
    (joint, the other ids)."""
    n = len(ids) + 1
    order = [ids.index(m) for m in closing] + [q for q, m in enumerate(ids) if m not in closing] + [n - 1]
    b = joint.ndim - 2
    t = joint.reshape(joint.shape[:-2] + (2,) * (2 * n))
    t = t.transpose(list(range(b)) + [b + q for q in order] + [b + n + q for q in order])
    return t.reshape(joint.shape), [m for m in ids if m not in closing]


def _project_out(m: np.ndarray, n_qubits: int, slot_pos: int, outcome: int) -> np.ndarray:
    """<outcome| m |outcome> on one slot of a stack of states; drops that
    slot, unnormalized."""
    t = m.reshape((len(m),) + (2,) * (2 * n_qubits))
    t = np.take(t, outcome, axis=1 + slot_pos)
    t = np.take(t, outcome, axis=slot_pos + n_qubits)
    d = 2 ** (n_qubits - 1)
    return t.reshape(len(m), d, d)


def window_branch_oracle(model, rho0, t_max):
    """{outcomes: probability} of every readout branch of a custom model's
    first t_max steps: each step runs window_collide_oracle on every
    branch, then projects the closing molecules (scan_closing) one at a
    time in ascending id, wherever they sit in the register."""
    keys, states, ids = [()], np.asarray(rho0, dtype=complex)[None], []
    for t in range(t_max):
        states, ids = window_collide_oracle(states, ids, model, t)
        for m in scan_closing(model.schedule, t):
            children = [_project_out(states, len(ids) + 1, ids.index(m), lam) for lam in (0, 1)]
            keys = [k + (lam,) for k in keys for lam in (0, 1)]
            states = np.stack(children, axis=1).reshape((-1,) + children[0].shape[1:])
            ids.remove(m)
    return dict(zip(keys, np.trace(states, axis1=-2, axis2=-1).real.tolist()))


XOR_MOL_SYS = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], complex)


def sqrt_xor_mol_sys(b=B_ROOT):
    blk = sqrt_block(b)
    u = np.eye(4, dtype=complex)
    u[1, 1] = blk[0, 0]; u[1, 3] = blk[0, 1]
    u[3, 1] = blk[1, 0]; u[3, 3] = blk[1, 1]
    return u


def burst_schedule(horizon):
    """Molecules 2k and 2k + 1 open on steps 3k and 3k + 1 and both close on
    step 3k + 2, listed newest first: two closings in one step, in a
    register order that is not their id order."""
    from nmchain.chains import schedule_from_records

    recs = []
    for k in range(horizon // 3):
        recs += [{"t": 3 * k, "mol": 2 * k}, {"t": 3 * k + 1, "mol": 2 * k + 1},
                 {"t": 3 * k + 2, "mol": 2 * k + 1}, {"t": 3 * k + 2, "mol": 2 * k}]
    return schedule_from_records(recs, horizon=horizon)


# ---- schedules as {molecule: [steps]} dicts ----

def overlap_events(h):
    ev = {0: [0]}
    for m in range(1, h):
        ev[m] = [m - 1, m]
    return ev


def advanced_overlap_events(h):
    ev = {0: [0], 1: [1]}
    for m in range(2, h):
        ev[m] = [m - 2, m]
    return ev


def window_run_oracle(events, h, gate_ms, phi, rho0):
    """System marginals t = 0..h with an independently coded window engine."""
    xi = molecule_density(phi)
    slots = ["sys"]
    joint = rho0.astype(complex)
    out = [rho0.copy()]
    first = {m: min(ts) for m, ts in events.items()}
    last = {m: max(ts) for m, ts in events.items()}
    for t in range(h):
        todo = [m for m, ts in events.items() if t in ts]
        todo.sort(key=lambda m: (0 if first[m] == t else 1, m))
        for m in todo:
            name = f"mol{m}"
            if name not in slots:
                joint = np.kron(xi, joint)
                slots.insert(0, name)
            u = embed_front(gate_ms, 2, len(slots), [slots.index(name), slots.index("sys")])
            joint = u @ joint @ dag(u)
        for m in sorted(events):
            name = f"mol{m}"
            if name in slots and last[m] <= t:
                keep = [q for q in range(len(slots)) if slots[q] != name]
                joint = ptrace_general(joint, len(slots), keep)
                slots = [sl for sl in slots if sl != name]
        out.append(ptrace_general(joint, len(slots), [slots.index("sys")]) if len(slots) > 1 else joint.copy())
    return out


def brute_force_final(events, h, gate_ms, phi, rho0, n_mol):
    """Final system marginal with ALL molecules held in one big register."""
    xi = molecule_density(phi)
    joint = rho0.astype(complex)
    for _ in range(n_mol):
        joint = np.kron(xi, joint)
    slots = [f"mol{n_mol - 1 - i}" for i in range(n_mol)] + ["sys"]
    n = len(slots)
    for t in range(h):
        todo = [m for m, ts in events.items() if t in ts]
        todo.sort(key=lambda m: (0 if min(events[m]) == t else 1, m))
        for m in todo:
            u = embed_front(gate_ms, 2, n, [slots.index(f"mol{m}"), slots.index("sys")])
            joint = u @ joint @ dag(u)
    return ptrace_general(joint, n, [slots.index("sys")])


# ---- built-in layouts as the per-event loops listed them ----

def builtin_layout_records(figure, horizon):
    """Records of `nmchain schedule --figure`, in listed order."""
    if figure == "1a":
        return [{"t": t, "mol": t} for t in range(horizon)]
    if figure == "1d":
        return [{"t": t, "mol": 0} for t in range(horizon)]
    gap = {"1b": 1, "5": 2}[figure]
    records = []
    for t in range(horizon):
        if t + gap <= horizon - 1:
            records.append({"t": t, "mol": t + gap})
        records.append({"t": t, "mol": t})
    return records


# ---- reduced-map and Choi oracles ----

def sys_map_oracle(phi, kind, mem, t):
    """Accumulated system map after t steps, by probing matrix units directly."""
    s = np.zeros((4, 4), complex)
    for j in range(2):
        for i in range(2):
            e = np.zeros((2, 2), complex)
            e[i, j] = 1.0
            r = np.kron(mem, e)
            for _ in range(t):
                r = channel_apply(phi, kind, r)
            rs = r[0:2, 0:2] + r[2:4, 2:4]
            s[:, i * 2 + j] = rs.reshape(-1)
    return s


def superop_apply(s, r):
    """The superoperator s, on the row-major vec, applied to the d x d matrix r."""
    d = r.shape[0]
    return (s @ np.asarray(r, dtype=complex).reshape(-1)).reshape(d, d)


def choi_oracle(s):
    c = np.zeros((4, 4), complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), complex)
            e[i, j] = 1.0
            out = (s @ e.reshape(-1)).reshape(2, 2)
            c[i * 2:i * 2 + 2, j * 2:j * 2 + 2] = out
    return c


# ---- entropy / correlation oracles (LAPACK + dense grid + Powell) ----

def entropy_oracle(r):
    w = np.linalg.eigvalsh(r)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def _ptrace_sys_side(r):
    return r[0:2, 0:2] + r[2:4, 2:4]


def _ptrace_mem_side(r):
    return np.array([[r[0, 0] + r[1, 1], r[0, 2] + r[1, 3]],
                     [r[2, 0] + r[3, 1], r[2, 2] + r[3, 3]]])


def mutual_info_oracle(r):
    return entropy_oracle(_ptrace_sys_side(r)) + entropy_oracle(_ptrace_mem_side(r)) - entropy_oracle(r)


def _batch_entropy(mats):
    """Entropies of normalized 2x2 states, batched through LAPACK."""
    w = np.linalg.eigvalsh(mats)
    w = np.clip(w, 1e-18, 1.0)
    return -(w * np.log2(w)).sum(axis=-1)


def cond_entropy_grid_oracle(r, thetas, alphas, chunk=65536):
    """Average conditional entropy on the full (theta, alpha) grid.

    Measurement is on the most significant qubit; batched independently of
    the package (projector sandwich + eigvalsh)."""
    tt, aa = np.meshgrid(thetas, alphas, indexing="ij")
    tt, aa = tt.reshape(-1), aa.reshape(-1)
    st = np.sin(tt)
    nx, ny, nz = st * np.cos(aa), st * np.sin(aa), np.cos(tt)
    out = np.empty(tt.shape[0])
    eye2 = np.eye(2)
    for lo in range(0, tt.shape[0], chunk):
        hi = min(lo + chunk, tt.shape[0])
        g = hi - lo
        p0 = 0.5 * np.stack([
            np.stack([1 + nz[lo:hi], nx[lo:hi] - 1j * ny[lo:hi]], axis=-1),
            np.stack([nx[lo:hi] + 1j * ny[lo:hi], 1 - nz[lo:hi]], axis=-1),
        ], axis=-2)
        total = np.zeros(g)
        for proj in (p0, np.eye(2)[None] - p0):
            full = np.einsum("gij,kl->gikjl", proj, eye2).reshape(g, 4, 4)
            sub = full @ r @ full
            cond = sub[:, 0:2, 0:2] + sub[:, 2:4, 2:4]
            p = np.trace(cond, axis1=-2, axis2=-1).real
            safe = np.clip(p, 1e-18, None)
            ent = _batch_entropy(cond / safe[:, None, None])
            total += np.where(p > 1e-14, p * ent, 0.0)
        out[lo:hi] = total
    return tt, aa, out


def cond_entropy_point_oracle(r, theta, alpha):
    _, _, v = cond_entropy_grid_oracle(r, np.array([theta]), np.array([alpha]))
    return float(v[0])


def discord_oracle(r, n_theta=640, n_alpha=1280):
    """Reference discord: 10x finer grid than the package plus Powell polish."""
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    alphas = np.arange(n_alpha) * 2.0 * np.pi / n_alpha
    tt, aa, vals = cond_entropy_grid_oracle(r, thetas, alphas)
    order = np.argsort(vals, kind="stable")
    h_min = float(vals[order[0]])
    for idx in order[:3]:
        res = optimize.minimize(
            lambda x: cond_entropy_point_oracle(r, x[0], x[1]),
            [tt[idx], aa[idx]],
            method="Powell",
            options={"xtol": 1e-10, "ftol": 1e-13},
        )
        h_min = min(h_min, float(res.fun))
    j = entropy_oracle(_ptrace_sys_side(r)) - h_min
    return mutual_info_oracle(r) - j, j


# ---- collision schedules by linear scans (the definitions the index replaced) ----

def schedule_records(sched):
    """The schedule's events as JSON records {"t", "mol", "gate"?}, read off
    its three arrays in step order: what `nmchain schedule` prints."""
    from nmchain.chains import GATE_NAMES

    gate = [{} if name is None else {"gate": name} for name in GATE_NAMES]
    return [{"t": t, "mol": m, **gate[g]} for t, m, g in zip(
        sched.event_steps.tolist(), sched.event_molecules.tolist(), sched.event_gates.tolist())]


def scan_molecules(sched):
    return tuple(sorted({r["mol"] for r in schedule_records(sched)}))


def scan_span(sched, molecule):
    steps = [r["t"] for r in schedule_records(sched) if r["mol"] == molecule]
    return (min(steps), max(steps)) if steps else None


def scan_events_at(sched, step):
    """(molecule, gate name or None) of each event at the step, in execution order."""
    return tuple((r["mol"], r.get("gate")) for r in schedule_records(sched) if r["t"] == step)


def scan_closing(sched, step):
    return tuple(m for m in scan_molecules(sched) if scan_span(sched, m)[1] == step)


def scan_satellite_count(sched):
    spans = [scan_span(sched, m) for m in scan_molecules(sched)]
    return max([sum(1 for lo, hi in spans if lo <= t < hi) for t in range(sched.horizon - 1)], default=0)


def scan_window_width(sched):
    open_ids, width = set(), 1
    for t in range(sched.horizon):
        for mol, _ in scan_events_at(sched, t):
            open_ids.add(mol)
            width = max(width, len(open_ids) + 1)
        open_ids -= {m for m in open_ids if scan_span(sched, m)[1] <= t}
    return width


# ---- batched sampler: every sample evolved on its own row ----

def spawned_uniforms(seed, n, draws, lo=0):
    """Row r holds the first draws uniforms of the stream (seed, spawn_key=(lo + r,))."""
    return np.array([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))).random(draws)
        for i in range(lo, lo + n)
    ])


def evolve_block_oracle(ops, state0, uniforms):
    """Per-sample Kraus sampling with one uniform per step: final states,
    log-probabilities and outcome indices, one row per sample.

    The Kraus stack is read as the instrument T_k = K_k (x) conj(K_k) on
    the row-major vec; each sample's children are its vec times T_k^T, one
    (1, d^2) @ (d^2, K d^2) product per row, and their probabilities the
    sums of their diagonals. This pins the walker's arithmetic bit for bit,
    not the physics: kraus_children is the physics oracle.
    """
    n, t_max = uniforms.shape
    k_count, d = ops.shape[:2]
    blocks = (ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]).reshape(k_count, d * d, d * d)
    tt = np.ascontiguousarray(blocks.transpose(2, 0, 1)).reshape(d * d, k_count * d * d)
    states = np.broadcast_to(state0, (n,) + state0.shape).copy()
    log_p = np.zeros(n)
    outcomes = np.zeros((n, t_max), dtype=np.int64)
    rows = np.arange(n)
    for t in range(t_max):
        children = (states.reshape(n, 1, d * d) @ tt).reshape(n, k_count, d * d).swapaxes(0, 1)
        ps = children[..., ::d + 1].real.sum(-1)
        cum = np.cumsum(ps, axis=0)
        choice = np.minimum((uniforms[:, t][None, :] >= cum).sum(axis=0), k_count - 1)
        sel_p = ps[choice, rows]
        states = children[choice, rows].reshape(n, d, d) / sel_p[:, None, None]
        log_p += np.log(sel_p)
        outcomes[:, t] = choice
    return states, log_p, outcomes


def transfer_matrix_oracle(ops):
    """P = S^T, S = sum_k K_k (x) conj(K_k), of a Kraus stack on the row-major
    vec, as the evolve powers formed it inline before they read the step
    instrument: one broadcast product of the transposed blocks, summed over
    k. It pins that P bit for bit, not the physics."""
    d = ops.shape[-1]
    kt = ops.swapaxes(-1, -2)
    return (kt[:, :, None, :, None] * kt.conj()[:, None, :, None, :]).sum(0).reshape(d * d, d * d)


def kraus_children(ops, rho):
    """The unnormalised children K_k rho K_k^dagger, (K, d, d), by a direct
    einsum over the Kraus stack."""
    return np.einsum("kab,bc,kdc->kad", ops, rho, ops.conj())


# ---- divisibility: the per-step loop the stacked scan replaced ----
# Like the window loop below, this reuses the package's SVD, Choi reshuffle
# and Hermitian eigensolver: it pins the stacked scan to one check per step
# bit for bit, not the physics.

def min_choi_eigenvalue(c):
    """Smallest eigenvalue of a Choi matrix, symmetrised here and again by
    eig_hermitian; raises when c is far from Hermitian."""
    from nmchain.channels import CHOI_HERMITIAN_TOL
    from nmchain.linalg import dagger, eig_hermitian

    m = np.asarray(c, dtype=complex)
    skew = np.abs(m - dagger(m)).max()
    if skew > CHOI_HERMITIAN_TOL:
        raise ValueError(f"Choi matrix is far from Hermitian (residual {skew:.3e})")
    w, _ = eig_hermitian((m + dagger(m)) / 2.0)
    return float(w[-1])


def divisibility_step_oracle(m_t, m_prev, cp_tol=1e-9):
    from nmchain.channels import CHOI_HERMITIAN_TOL, SINGULAR_CUTOFF, DivisibilityStep, choi
    smallest = float(np.linalg.svd(m_prev, compute_uv=False)[-1])
    if smallest < SINGULAR_CUTOFF:
        return DivisibilityStep(None, None, None, smallest)
    inter = np.linalg.solve(m_prev.T, m_t.T).T
    c = choi(inter)
    if np.abs(c - dag(c)).max() > CHOI_HERMITIAN_TOL:
        return DivisibilityStep(None, None, None, smallest)
    mn = min_choi_eigenvalue(c)
    return DivisibilityStep(mn >= -cp_tol, inter, mn, smallest)


def divisibility_scan_oracle(maps, cp_tol=1e-9):
    """One divisibility_step_oracle per step, the first against the identity."""
    prevs = [np.eye(len(maps[0]), dtype=complex)] + list(maps[:-1])
    return [divisibility_step_oracle(cur, prev, cp_tol) for cur, prev in zip(maps, prevs)]


# ---- window loop: a per-step DensityMatrix loop over the window engine ----
# Unlike the oracles above, this one reuses the package's collision step and
# partial trace: it pins the raw-array loop of the engine bit for bit, not
# the physics.

def window_step_oracle(model, rho0, steps):
    """System marginals [t=0 .. steps] of a custom model; the joint state is
    rebuilt as a validated DensityMatrix after every step and its closing
    molecules, found by scan_closing, are traced out by name. Each marginal
    after t = 0 has the imaginary part of its diagonal set to zero."""
    from nmchain.chains import SYSTEM_SLOT, system_state, window_collide
    from nmchain.linalg import DensityMatrix, partial_trace

    joint, open_ids = system_state(rho0), ()
    out = [joint]
    for t in range(steps):
        m, open_ids, closing = window_collide(joint.matrix, open_ids, model, t)
        closing_ids = scan_closing(model.schedule, t)
        assert closing == len(closing_ids)
        keep = tuple(f"mol{i}" for i in open_ids) + (SYSTEM_SLOT,)
        joint = DensityMatrix(m, tuple(f"mol{i}" for i in closing_ids) + keep)
        if closing_ids:
            joint = partial_trace(joint, keep)
        marginal = (partial_trace(joint, SYSTEM_SLOT) if joint.n_qubits > 1 else joint).matrix.copy()
        marginal.imag[(0, 1), (0, 1)] = 0.0
        out.append(DensityMatrix(marginal, (SYSTEM_SLOT,)))
    return out
