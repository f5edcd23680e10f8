import numpy as np
import pytest

import helpers as H
import nmchain.measures as measures_module
from nmchain.chains import custom_chain, markov_xor, overlap_schedule, repeated_xor, sqrt_xor, stationary_state
from nmchain.gates import xor_gate
from nmchain.linalg import DensityMatrix, tensor
from nmchain.measures import (
    ProjectivePair,
    classical_correlation,
    discord,
    mutual_information,
    nm_report,
)

# frozen reference values, produced by the independent grid+Powell oracle
MI_DOUBLE_PI6 = 0.30968534391470737
D_DOUBLE_PI6 = 0.14196868003899998
D_SPLIT_03 = 0.16072900560211867
J_DOUBLE_PHI0 = 0.8812908992306927


def _stat(factory, phi, p00=0.3):
    return stationary_state(factory(phi), np.diag([p00, 1 - p00]))


def test_projective_pair_geometry():
    pair = ProjectivePair(np.pi / 2, 0.0)
    p0, p1 = pair.projectors()
    assert np.allclose(p0, 0.5 * np.array([[1, 1], [1, 1]]))
    assert np.allclose(p0 + p1, np.eye(2))
    assert np.allclose(p0 @ p0, p0, atol=1e-15)
    z = ProjectivePair(0.0, 1.3)
    assert np.allclose(z.projectors()[0], np.diag([1.0, 0.0]), atol=1e-15)


def test_mutual_information_basics():
    prod = DensityMatrix(np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])), ("mem", "sys"))
    assert mutual_information(prod) == pytest.approx(0.0, abs=1e-12)
    v = np.zeros(4)
    v[0] = v[3] = np.sqrt(0.5)
    bell = DensityMatrix(np.outer(v, v), ("mem", "sys"))
    assert mutual_information(bell) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        mutual_information(prod, ("mem", "sys"))
    with pytest.raises(ValueError):
        mutual_information(prod, ("zzz",))


def test_mutual_information_matches_oracle_on_randoms():
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = H.rand_rho(rng, 4)
        dm = DensityMatrix(r, ("mem", "sys"))
        assert mutual_information(dm) == pytest.approx(H.mutual_info_oracle(r), abs=1e-10)


def test_frozen_goldens():
    st = _stat(repeated_xor, np.pi / 6)
    assert mutual_information(st) == pytest.approx(MI_DOUBLE_PI6, abs=1e-12)
    assert discord(st) == pytest.approx(D_DOUBLE_PI6, abs=1e-9)
    st2 = _stat(sqrt_xor, 0.3)
    assert discord(st2) == pytest.approx(D_SPLIT_03, abs=1e-9)


def test_phi_zero_double_is_classical():
    # at phi=0 the stationary state is a classical correlated pair:
    # everything measurable classically, nothing quantum on top
    st = _stat(repeated_xor, 0.0)
    j, _ = classical_correlation(st)
    info = mutual_information(st)
    assert info == pytest.approx(J_DOUBLE_PHI0, abs=1e-12)
    assert j == pytest.approx(J_DOUBLE_PHI0, abs=1e-9)
    assert abs(discord(st)) < 1e-9


def test_classical_correlation_bounds_on_randoms():
    rng = np.random.default_rng(9)
    for _ in range(20):
        r = H.rand_rho(rng, 4)
        dm = DensityMatrix(r, ("mem", "sys"))
        j, pair = classical_correlation(dm)
        info = mutual_information(dm)
        assert -1e-12 <= j <= info + 1e-9
        assert _in_chart(pair), pair


def test_classically_correlated_state_has_zero_discord():
    rng = np.random.default_rng(21)
    # sum_k p_k |k><k| (x) rho_k with orthogonal flags carries no discord
    p = np.array([0.35, 0.65])
    r = (p[0] * np.kron(np.diag([1.0, 0.0]), H.rand_rho(rng, 2))
         + p[1] * np.kron(np.diag([0.0, 1.0]), H.rand_rho(rng, 2)))
    dm = DensityMatrix(r, ("mem", "sys"))
    assert abs(discord(dm)) < 1e-7


def test_discord_measured_side_matters():
    st = _stat(repeated_xor, np.pi / 6)
    d_mem = discord(st, measured="mem")
    d_sys = discord(st, measured="sys")
    assert d_mem != pytest.approx(d_sys, abs=1e-6)


def test_optimizer_against_fine_grid_oracle():
    rng = np.random.default_rng(31)
    for _ in range(3):
        r = H.rand_rho(rng, 4)
        dm = DensityMatrix(r, ("mem", "sys"))
        d_pkg = discord(dm)
        d_oracle, j_oracle = H.discord_oracle(r, n_theta=128, n_alpha=256)
        j_pkg, _ = classical_correlation(dm)
        assert j_pkg == pytest.approx(j_oracle, abs=1e-7)
        assert d_pkg == pytest.approx(d_oracle, abs=1e-7)


PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))


def _binary_entropy(p):
    return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))


# the c_i of Bell-diagonal states (1 + sum_i c_i sigma_i (x) sigma_i) / 4
BELL_DIAGONAL = [
    (0.3, -0.5, 0.2),
    (-0.6, 0.1, 0.2),
    (0.25, 0.25, 0.25),       # Werner: the objective is flat
    (-0.4, -0.4, -0.4),       # Werner, anti-correlated
    (0.0, 0.0, 0.7),          # z only: the optimum is the theta = 0 pole
]


@pytest.mark.parametrize("measured", ["mem", "sys"])
@pytest.mark.parametrize("c", BELL_DIAGONAL)
def test_bell_diagonal_states_match_luo(c, measured):
    # rho = (1 + sum_i c_i sigma_i (x) sigma_i) / 4 has J = 1 - H2((1 + max|c_i|) / 2)
    # (Luo, PRA 77, 042303 (2008))
    r = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))) / 4
    j, _ = classical_correlation(DensityMatrix(r, ("mem", "sys")), measured)
    assert j == pytest.approx(1.0 - _binary_entropy((1.0 + max(map(abs, c))) / 2.0), abs=1e-9)


@pytest.mark.parametrize("measured", ["mem", "sys"])
def test_pure_states_have_j_equal_to_entanglement_entropy(measured):
    # every conditional state of a pure state is pure, so J = S(reduced state),
    # the same on both sides; the entropy gradient is singular there (l2 -> 0)
    rng = np.random.default_rng(44)
    for _ in range(6):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        r = np.outer(v, v.conj()) / np.vdot(v, v).real
        j, _ = classical_correlation(DensityMatrix(r, ("mem", "sys")), measured)
        assert j == pytest.approx(H.entropy_oracle(r[0:2, 0:2] + r[2:4, 2:4]), abs=1e-9)


def test_polish_evaluation_count(monkeypatch):
    # spy on the optimiser the way perfbench's tracer does: it patches the
    # module attribute and reads nfev and success off every result
    assert "minimize" in vars(measures_module)
    runs = []
    minimize = measures_module.minimize

    def spy(*args, **kwargs):
        res = minimize(*args, **kwargs)
        runs.append(res)
        return res

    monkeypatch.setattr(measures_module, "minimize", spy)
    per_call = []
    for factory in (repeated_xor, sqrt_xor):
        for phi in (0.2, 0.5, 1.0, 1.3):
            runs.clear()
            nm_report(factory(phi), np.diag([0.3, 0.7]))
            # one polish, from the best grid direction, per report
            assert len(runs) == 1 and runs[0].success
            res = runs[0]
            assert isinstance(res.nfev, int) and res.nfev > 0
            assert np.isfinite(res.fun) and res.x.shape == (2,)
            per_call.append(res.nfev)
    # the tangent-chart polish measured at most 12 evaluations per call here
    # (13 over 120 angles of both models, 7.5 on average); the bound leaves a
    # margin of 8. Three polishes in (theta, psi) took up to 36.
    assert max(per_call) <= 20


def test_half_grid_holds_one_of_each_antipodal_pair():
    # full grid row (i, j) is (theta_i, psi_j); its antipode -n is row
    # (GRID_THETA - 1 - i, j + GRID_ALPHA / 2 mod GRID_ALPHA), in the other half
    t, a = measures_module.GRID_THETA, measures_module.GRID_ALPHA
    full = measures_module._direction(*np.meshgrid(
        (np.arange(t) + 0.5) * np.pi / t, np.arange(a) * 2.0 * np.pi / a, indexing="ij",
    )).reshape(-1, 3)
    half = t * a // 2
    assert np.array_equal(measures_module._HALF_GRID, full[:half])
    i, j = np.divmod(np.arange(half), a)
    antipode = (t - 1 - i) * a + (j + a // 2) % a
    assert np.array_equal(np.sort(antipode), np.arange(half, 2 * half))
    assert np.abs(full[antipode] + full[:half]).max() <= 1e-15
    # the conditional entropy is even in n: each scanned direction measures
    # what its antipode did, so the half grid drops no measurement
    rng = np.random.default_rng(12)
    states = [H.rand_rho(rng, 4) for _ in range(4)]
    states += [(np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))) / 4 for c in BELL_DIAGONAL]
    for r in states:
        for measured in ("mem", "sys"):
            corr = measures_module._correlations(DensityMatrix(r, ("mem", "sys")), measured)
            blocks = (corr[0] + measures_module._BRANCH[:, None, None] * (full @ corr[1:])) / 2.0
            cond = measures_module._block_entropy(blocks)[0].sum(axis=0)
            assert np.abs(cond[antipode] - cond[:half]).max() <= 1e-14


@pytest.mark.parametrize("measured", ["mem", "sys"])
def test_j_never_falls_below_the_grid_estimate(measured):
    # the polished point is kept only if strictly lower than the best grid
    # direction; pure states (singular gradient, "precision loss") and flat
    # stationary landscapes, the pole case among them, may end the polish at
    # or a few ulps above where it started
    rng = np.random.default_rng(44)
    states = [_stat(factory, phi, p00) for factory in (repeated_xor, sqrt_xor)
              for phi in (0.2, 0.8, 1.3) for p00 in (0.5, 0.3)]
    for _ in range(12):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real, ("mem", "sys")))
    for st in states:
        corr = measures_module._correlations(st, measured)
        blocks = (corr[0] + measures_module._BRANCH[:, None, None] * (measures_module._HALF_GRID @ corr[1:])) / 2.0
        cond = measures_module._block_entropy(blocks)[0].sum(axis=0)
        grid_j = float(measures_module._block_entropy(corr[0])[0]) - float(cond.min())
        j, _ = classical_correlation(st, measured)
        assert j >= grid_j


SWAP = np.eye(4)[[0, 2, 1, 3]]


def _swap(r):
    return SWAP @ r @ SWAP


def _in_chart(pair):
    # the direction n with n_z > 0, and psi in [0, pi) on the equator
    if pair.theta == np.pi / 2:
        return 0.0 <= pair.psi < np.pi
    return 0.0 <= pair.theta < np.pi / 2 and 0.0 <= pair.psi < 2 * np.pi


@pytest.mark.parametrize("measured", ["mem", "sys"])
def test_argmax_basis_is_in_its_chart(measured):
    # the polish may step past a pole or below psi = 0 (repeated_xor(1.5) at
    # diag(0.5, 0.5) lands on theta ~ -2e-8); the basis is still reported
    # in its chart, along the optimal axis
    for factory in (repeated_xor, sqrt_xor):
        for phi in np.linspace(0.1, 1.5, 8):
            for p00 in (0.5, 0.3):
                st = _stat(factory, phi, p00)
                j, pair = classical_correlation(st, measured)
                assert _in_chart(pair), pair
                # the oracle measures the first qubit
                r = st.matrix if measured == "mem" else _swap(st.matrix)
                h_cond = H.cond_entropy_point_oracle(r, pair.theta, pair.psi)
                assert h_cond == pytest.approx(H.entropy_oracle(r[0:2, 0:2] + r[2:4, 2:4]) - j, abs=1e-12)


@pytest.mark.parametrize("theta, psi, expected", [
    (0.3, 1.0, (0.3, 1.0)),
    (-0.3, 1.0, (0.3, 1.0 + np.pi)),
    (np.pi - 0.3, 1.0, (0.3, 1.0 + np.pi)),
    (np.pi + 0.3, 1.0, (0.3, 1.0)),
    (np.pi, 4.0, (0.0, 4.0 - np.pi)),
    (np.pi / 2, 1.0, (np.pi / 2, 1.0)),
    (np.pi / 2, 1.0 + np.pi, (np.pi / 2, 1.0)),
    (np.pi / 2, -1.0, (np.pi / 2, np.pi - 1.0)),
    (0.3, -1e-20, (0.3, 0.0)),
    (np.pi / 2, -1e-20, (np.pi / 2, 0.0)),
])
def test_chart_names_the_direction_with_positive_z(theta, psi, expected):
    pair = measures_module._chart(theta, psi)
    assert _in_chart(pair)
    assert (pair.theta, pair.psi) == pytest.approx(expected, abs=1e-15)
    # n and -n are one measurement: the chart names the same axis
    assert abs(pair.direction() @ ProjectivePair(theta, psi).direction()) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("measured", ["mem", "sys"])
def test_argmax_basis_is_stable_under_round_off(measured):
    # the conditional entropy is even in n, and the polish may end on either
    # side of the equator (the scanned half grid holds only n_z > 0, but the
    # tangent chart reaches past it), so round-off alone could name either
    # of n and -n; a ~1e-15 nudge of the state must leave the reported basis
    # where it was, not send it to its antipode
    rng = np.random.default_rng(5)
    for _ in range(12):
        r = H.rand_rho(rng, 4)
        _, pair = classical_correlation(DensityMatrix(r, ("mem", "sys")), measured)
        assert _in_chart(pair), pair
        for _ in range(3):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = h + h.conj().T
            h -= np.trace(h) / 4 * np.eye(4)
            _, nudged = classical_correlation(DensityMatrix(r + 5e-16 * h, ("mem", "sys")), measured)
            assert _in_chart(nudged), nudged
            assert np.allclose(nudged.direction(), pair.direction(), atol=1e-6)


def test_measured_side_is_a_swap():
    # measuring "sys" is measuring "mem" of the swapped state: same J, same axis
    rng = np.random.default_rng(17)
    for _ in range(8):
        r = H.rand_rho(rng, 4)
        j_sys, b_sys = classical_correlation(DensityMatrix(r, ("mem", "sys")), "sys")
        j_mem, b_mem = classical_correlation(DensityMatrix(_swap(r), ("mem", "sys")), "mem")
        assert j_sys == pytest.approx(j_mem, abs=1e-12)
        assert abs(b_sys.direction() @ b_mem.direction()) == pytest.approx(1.0, abs=1e-12)


def test_classical_correlation_deterministic():
    st = _stat(sqrt_xor, 0.45)
    a = classical_correlation(st)
    b = classical_correlation(st)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_nm_report_markov():
    rep = nm_report(markov_xor(0.3), np.diag([0.5, 0.5]))
    assert rep.count_qubits == 0
    assert rep.classification == "Markovian"
    assert rep.discord == 0.0 and rep.mutual_info == 0.0 and rep.classical_J == 0.0


def test_nm_report_double_collision():
    rep = nm_report(repeated_xor(np.pi / 6), np.diag([0.3, 0.7]))
    assert rep.count_qubits == 1
    assert rep.classification == "quantum non-Markovian"
    assert rep.discord == pytest.approx(D_DOUBLE_PI6, abs=1e-9)
    assert rep.argmax_basis is not None


def test_nm_report_double_collision_classical_angle():
    rep = nm_report(repeated_xor(0.0), np.diag([0.3, 0.7]))
    assert rep.count_qubits == 1
    assert rep.classification == "classical non-Markovian"
    assert abs(rep.discord) < 1e-7


def test_nm_report_split_collision():
    rep = nm_report(sqrt_xor(0.3), np.diag([0.3, 0.7]))
    assert rep.classification == "quantum non-Markovian"
    assert rep.discord > 1e-6


def test_nm_report_custom():
    cm = custom_chain(xor_gate(), overlap_schedule(5), phi=0.3)
    rep = nm_report(cm, np.diag([0.5, 0.5]))
    assert rep.count_qubits == 1
    assert rep.classification == "undetermined"
    assert rep.mutual_info is None

    from nmchain.chains import chain_schedule
    flat = custom_chain(xor_gate(), chain_schedule(5), phi=0.3)
    rep2 = nm_report(flat, np.diag([0.5, 0.5]))
    assert rep2.count_qubits == 0
    assert rep2.classification == "Markovian"


def test_report_clamping(monkeypatch):
    # nm_report judges I, J and D = I - J once: round-off below zero is
    # reported as 0.0, and a measure below -REPORT_CLAMP raises
    measured = {}
    monkeypatch.setattr(measures_module, "mutual_information", lambda rho, slots: measured["I"])
    monkeypatch.setattr(measures_module, "classical_correlation", lambda rho, m: (measured["J"], None))
    model, rho0 = repeated_xor(0.3), np.diag([0.3, 0.7])
    for info, j, want in [(-5e-10, 2e-10, (0.0, 2e-10, 0.0)), (-1e-12, -1e-12, (0.0, 0.0, 0.0)),
                          (0.3, 0.3 + 1e-12, (0.3, 0.3 + 1e-12, 0.0))]:
        measured.update(I=info, J=j)
        rep = nm_report(model, rho0)
        assert (rep.mutual_info, rep.classical_J, rep.discord) == want
    for info, j in [(-1e-3, 0.0), (0.0, -1e-3), (0.3, 0.3 + 1e-3)]:
        measured.update(I=info, J=j)
        with pytest.raises(ValueError, match="positivity beyond round-off"):
            nm_report(model, rho0)
