import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from hopfbrick import build_tensors, zoo
from hopfbrick import mpo
from hopfbrick import oracle as orc
from conftest import random_unitary
from dense_reference import cell, column, heisenberg_dense, normalization

ZETA = zoo.ZETA
S5 = np.sqrt(5.0)

E_OPS = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
C0 = np.array([[3 - S5, 3 - S5, S5 - 1],
               [3 - S5, 3 - S5, S5 - 1],
               [S5 - 1, S5 - 1, 2]]) / 10
C1 = np.array([[-3 - S5, 2, 1 + S5],
               [7 + 3 * S5, -3 - S5, -4 - 2 * S5],
               [-4 - 2 * S5, 1 + S5, 3 + S5]]) / 10
# on the lightcone edge the coefficient becomes symmetric in the pair and the
# (3,3) entry is modified as well (all values fitted once, then frozen and
# verified against the dense-trace oracle)
C1_EDGE = np.array([[C1[0, 0] * 10, 2, 1 + S5],
                    [2, C1[1, 1] * 10, 1 + S5],
                    [1 + S5, 1 + S5, -2 - 2 * S5]]) / 10


def closed_form(i, j, x, t):
    """Oracle-verified closed form of the projector-trace correlator."""
    g = (-ZETA ** 4) ** (2 * t + 1)
    if abs(x) > t:
        return 0.0
    if t == int(t):                       # v-leg sector: transposed inside, x = +t edge
        c1 = C1_EDGE[i, j] if x == t else C1[j, i]
    else:                                 # rho-leg sector: printed inside, x = -t edge
        c1 = C1_EDGE[i, j] if x == -t else C1[i, j]
    return C0[i, j] + c1 * g


def test_normalization_invariant(fib_ts, d3_ts, fib_state, d3_state):
    for ts, state, t0 in ((fib_ts, fib_state, 0.5), (d3_ts, d3_state, 0.0)):
        st = mpo.TransferStack(ts, state)
        for t in np.arange(t0, 20.5, 0.5):
            assert abs(normalization(st, t) - 1) < 1e-9, t
    # weak case at t = 0: the boundary overlap is |eps(1)|^2
    stF = mpo.TransferStack(fib_ts, fib_state)
    assert abs(normalization(stF, 0) - 4) < 1e-12


def test_spectral_radius_one(fib_ts, d3_ts, fib_state, d3_state):
    for ts, state in ((fib_ts, fib_state), (d3_ts, d3_state)):
        st = mpo.TransferStack(ts, state)
        vals = np.abs(np.linalg.eigvals(cell(st)))
        assert abs(vals.max() - 1) < 1e-9


def test_state_projector_invariance(fib_ts, fib_state):
    assert fib_state.check_projector_invariance(fib_ts.pair) < 1e-12
    bad = mpo.MPSState.product([1, 0, 0], [1, 0, 0])   # |11> is forbidden
    assert bad.check_projector_invariance(fib_ts.pair) > 0.1


@pytest.mark.parametrize("t", [0, 0.5, 1, 1.5, 2])
def test_fib_expectation_vs_oracle(fib_ts, fib_state, t):
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=4)
    psi0 = orc.basis_string_state(circ, [2] * 8)
    for O in (E_OPS[0], E_OPS[2]):
        eng = mpo.expectation(fib_ts, O, t, fib_state, x=0.0)
        ora = orc.oracle_expectation(circ, psi0, O, 0.0, t)
        assert abs(eng - ora) < 1e-12


@pytest.mark.parametrize("t", [0, 0.5, 1, 1.5])
def test_d3_expectation_vs_oracle(d3_ts, d3_state, t):
    circ = orc.DenseCircuit.from_tensor_set(d3_ts, L=3)
    plus = np.array([1, 1]) / np.sqrt(2)
    psi0 = orc.product_state(circ, [plus])
    O = np.diag([1.0, 0.0])
    eng = mpo.expectation(d3_ts, O, t, d3_state, x=0.0)
    ora = orc.oracle_expectation(circ, psi0, O, 0.0, t)
    assert abs(eng - ora) < 1e-12


@pytest.mark.parametrize("t", [0.5, 1, 1.5])
def test_d3_expectation_non_diagonal_operator(d3_ts, d3_state, t):
    # a complex off-diagonal operator tells O from its transpose in the column
    circ = orc.DenseCircuit.from_tensor_set(d3_ts, L=3)
    psi0 = orc.product_state(circ, [np.array([1, 1]) / np.sqrt(2)])
    O = np.array([[0.3, 0.2 - 0.5j], [0.2 + 0.5j, -0.1]])
    eng = mpo.expectation(d3_ts, O, t, d3_state, x=0.0)
    ora = orc.oracle_expectation(circ, psi0, O, 0.0, t)
    assert abs(eng - ora) < 1e-12


def test_expectation_identity_any_time(fib_ts, fib_state):
    for t in (0, 0.5, 3, 7.5):
        assert abs(mpo.expectation(fib_ts, np.eye(3), t, fib_state) - 1) < 1e-9


def test_expectation_mps_initial_state(d3_ts):
    # bond-2 translation-invariant MPS initial state: the transfer-matrix
    # value must equal a dense environment-weighted window contraction
    rng = np.random.default_rng(11)
    Ar = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    Av = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    state = mpo.MPSState(rho_site=Ar, v_site=Av)
    lam_l, lam_r = state.environments()
    O = np.diag([1.0, -1.0])

    def dense_window_value(t):
        hm = mpo.heisenberg_mpo(d3_ts, O, t, position=0.5)   # v-leg at x = 1/2
        op = heisenberg_dense(hm)
        cols = hm.n_columns
        # window = the MPO support, whole cells, MPO starts on a rho site
        tensors = [state.rho_site if k % 2 == 0 else state.v_site
                   for k in range(cols)]
        # psi[m, sigmas..., n]
        psi = np.eye(state.bond_dim, dtype=complex)[:, None, :]
        psi = psi.reshape(state.bond_dim, 1, state.bond_dim)
        for A in tensors:
            psi = np.einsum("mpn,qnk->mpqk",
                            psi.reshape(state.bond_dim, -1, psi.shape[-1]), A)
            psi = psi.reshape(state.bond_dim, -1, A.shape[2])
        # apply the dense MPO on the physical block
        phys = psi.reshape(state.bond_dim, -1, state.bond_dim)
        op_m = op.reshape(2 ** cols, 2 ** cols)
        acted = np.einsum("ab,mbn->man", op_m, phys)
        # close with environments: Lambda_L on left bond pair, Lambda_R on right
        L = lam_l.reshape(state.bond_dim, state.bond_dim)
        R = lam_r.reshape(state.bond_dim, state.bond_dim)
        num = np.einsum("mM,man,MaN,nN->", L, acted, phys.conj(), R)
        den = np.einsum("mM,man,MaN,nN->", L, phys, phys.conj(), R)
        return num / den

    for t in (0.5, 1, 1.5):
        eng = mpo.expectation(d3_ts, O, t, state, x=0.5)
        ref = dense_window_value(t)
        assert abs(eng - ref) < 1e-10, (t, eng, ref)


def test_two_point_t0_mps_initial_state(d3_ts):
    # bond-3 MPS at t = 0: a v-site operator at 0 and a rho-site operator at
    # x + 1/2 against a dense environment-weighted window contraction
    rng = np.random.default_rng(3)
    Ar = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    Av = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    state = mpo.MPSState(rho_site=Ar, v_site=Av)
    lam_l, lam_r = state.environments()
    D = state.bond_dim
    L = lam_l.reshape(D, D)
    R = lam_r.reshape(D, D)
    O, O2 = np.diag([1.0, -1.0]), np.diag([1.0, 0.0])

    def dense_window_value(x):
        # x + 2 whole cells from a rho site: O on site 1, O2 on site 2x + 2
        n_sites = 2 * x + 4
        psi = np.eye(D, dtype=complex)[:, None, :]         # psi[m, sigmas, n]
        for k in range(n_sites):
            A = state.rho_site if k % 2 == 0 else state.v_site
            psi = np.einsum("mpn,qnk->mpqk", psi, A).reshape(D, -1, D)
        ops = [np.eye(2)] * n_sites
        ops[1], ops[2 * x + 2] = O, O2
        acted = np.einsum("ab,mbn->man", reduce(np.kron, ops), psi)
        num = np.einsum("mM,man,MaN,nN->", L, acted, psi.conj(), R)
        den = np.einsum("mM,man,MaN,nN->", L, psi, psi.conj(), R)
        return num / den

    for x in (0, 1, 2):
        eng = mpo.two_point(d3_ts, O, O2, x, 0, state)
        ref = dense_window_value(x)
        assert abs(eng - ref) < 1e-10, (x, eng, ref)
        e1 = mpo.expectation(d3_ts, O, 0, state, x=0.0)
        e2 = mpo.expectation(d3_ts, O2, 0, state, x=x + 0.5)
        conn = mpo.two_point(d3_ts, O, O2, x, 0, state, connected=True)
        assert abs(conn - (ref - e1 * e2)) < 1e-10


def test_environments_reject_nilpotent_transfer():
    # every product of two site matrices vanishes: leading eigenvalue zero
    A = np.zeros((2, 2, 2))
    A[0, 0, 1] = A[1, 0, 1] = 1.0
    state = mpo.MPSState(rho_site=A, v_site=A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eigenvalue zero"):
            state.environments()
    assert np.array_equal(state.rho_site, A) and np.array_equal(state.v_site, A)


def test_environments_reject_degenerate_leading_eigenvalue():
    # A[0] = |0><1|, A[1] = |1><0|: a non-injective state whose cell transfer
    # matrix has eigenvalue 1 twice
    A = np.zeros((2, 2, 2))
    A[0, 0, 1] = A[1, 1, 0] = 1.0
    state = mpo.MPSState(rho_site=A, v_site=A)
    with pytest.raises(ValueError, match="degenerate"):
        state.environments()
    assert np.array_equal(state.rho_site, A) and np.array_equal(state.v_site, A)


def test_two_point_vs_oracle(d3_ts, d3_state, fib_ts, fib_state):
    circD = orc.DenseCircuit.from_tensor_set(d3_ts, L=4, amplitude_cap=10 ** 6)
    plus = np.array([1, 1]) / np.sqrt(2)
    psiD = orc.product_state(circD, [plus])
    P1 = np.diag([1.0, 0.0])
    for (x, t) in [(0, 1), (1, 1), (2, 1), (0, 0)]:
        eng = mpo.two_point(d3_ts, P1, P1, x, t, d3_state)
        ora = orc.oracle_two_point(circD, psiD, P1, P1, x, t)
        assert abs(eng - ora) < 1e-12, (x, t)
    circF = orc.DenseCircuit.from_tensor_set(fib_ts, L=4)
    psiF = orc.basis_string_state(circF, [2] * 8)
    for (x, t) in [(0, 1), (1, 1)]:
        eng = mpo.two_point(fib_ts, E_OPS[0], E_OPS[0], x, t, fib_state)
        ora = orc.oracle_two_point(circF, psiF, E_OPS[0], E_OPS[0], x, t)
        assert abs(eng - ora) < 1e-12, (x, t)


def test_two_point_trivial_reductions(fib_ts, fib_state):
    # O2 = identity reduces to the single-site expectation
    got = mpo.two_point(fib_ts, E_OPS[2], np.eye(3), 1, 2, fib_state)
    want = mpo.expectation(fib_ts, E_OPS[2], 2, fib_state, x=0.0)
    assert abs(got - want) < 1e-10
    # outside the mutual lightcone the connected part vanishes
    w = mpo.two_point(fib_ts, E_OPS[2], E_OPS[1], 5, 1, fib_state, connected=True)
    assert abs(w) < 1e-10


def test_fib_connected_correlator_vs_oracle(fib_ts, fib_state):
    # W^{11}(x=1, t=2) against the dense simulation on a wide enough ring
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=5,
                                            amplitude_cap=10 ** 6)
    psi0 = orc.basis_string_state(circ, [2] * 10)
    eng = mpo.two_point(fib_ts, E_OPS[0], E_OPS[0], 1, 2, fib_state, connected=True)
    ora = orc.oracle_two_point(circ, psi0, E_OPS[0], E_OPS[0], 1, 2, connected=True)
    assert abs(eng - ora) < 1e-8


@pytest.mark.parametrize("l,t,alpha", [(1, 1, 2), (2, 1, 2), (2, 2, 2),
                                       (1, 2, 3), (2, 2, 3), (1, 1.5, 2),
                                       (3, 1, 4)])
def test_renyi_three_way_d3(d3_ts, d3_state, l, t, alpha):
    hs = mpo.renyi_small(d3_ts, d3_state, l, t, alpha)
    hr = mpo.renyi_replica(d3_ts, d3_state, l, t, alpha)
    assert abs(hs - hr) < 1e-8
    if 2 * l + 4 * t <= 12:
        circ = orc.DenseCircuit.from_tensor_set(d3_ts, L=6, amplitude_cap=10 ** 6)
        plus = np.array([1, 1]) / np.sqrt(2)
        psi0 = orc.product_state(circ, [plus])
        offset = 1 if int(round(2 * t)) % 2 == 0 else 0
        ho = orc.oracle_renyi(circ, psi0, l, t, alpha, offset=offset)
        assert abs(hs - ho) < 1e-8


@pytest.mark.parametrize("l,t,alpha", [(1, 1, 2), (1, 1.5, 2), (2, 1, 2), (1, 1, 3),
                                       (1, 1, 4)])
def test_renyi_three_way_fib(fib_ts, fib_state, l, t, alpha):
    hs = mpo.renyi_small(fib_ts, fib_state, l, t, alpha)
    hr = mpo.renyi_replica(fib_ts, fib_state, l, t, alpha)
    assert abs(hs - hr) < 1e-8
    if 2 * l + 4 * t <= 8:
        circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=4)
        psi0 = orc.basis_string_state(circ, [2] * 8)
        offset = 1 if int(round(2 * t)) % 2 == 0 else 0
        ho = orc.oracle_renyi(circ, psi0, l, t, alpha, offset=offset)
        assert abs(hs - ho) < 1e-8


def test_renyi_zero_at_t0_and_early_window(fib_ts, fib_state):
    assert mpo.renyi_small(fib_ts, fib_state, 3, 0, 2) == 0.0
    assert mpo.renyi_replica(fib_ts, fib_state, 3, 0, 2) == 0.0
    # early-time regime l > 2t: window fallback equals the replica formula
    hs = mpo.renyi_small(fib_ts, fib_state, 3, 1, 2)
    hr = mpo.renyi_replica(fib_ts, fib_state, 3, 1, 2)
    assert abs(hs - hr) < 1e-8


def test_renyi_small_leaves_oracle_out():
    # early-time block entropies (l > 2t) are engine programs: evaluating
    # them never loads the dense oracle
    code = ("import sys\n"
            "from hopfbrick import build_tensors, mpo, zoo\n"
            "for name, vec, (l, t, a) in (('dihedral-3', [1, 1], (3, 1, 4)),\n"
            "                             ('fibonacci', [0, 0, 1], (3, 1, 2))):\n"
            "    state = mpo.MPSState.product(vec, vec)\n"
            "    mpo.renyi_small(build_tensors(zoo.model(name)), state, l, t, a)\n"
            "print('hopfbrick.oracle' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_renyi_rejects_vanishing_trace(fib_ts):
    # |11> lies outside the Fibonacci solvable subspace: every block trace
    # vanishes, which must raise instead of returning inf or failing to converge
    bad = mpo.MPSState.product([1, 0, 0], [1, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, args in ((mpo.renyi_replica, (2, 1, 2)), (mpo.renyi_half_chain, (1, 2)),
                         (mpo.renyi_small, (2, 1, 2)), (mpo.renyi_small, (3, 1, 2))):
            with pytest.raises(FloatingPointError):
                fn(fib_ts, bad, *args)


def test_renyi_half_chain_linear_growth(fib_ts, fib_state):
    # a semi-infinite block keeps growing linearly; the rate settles quickly
    vals = {t: mpo.renyi_half_chain(fib_ts, fib_state, t, 2) for t in (6, 7, 8, 9)}
    r1 = vals[8] - vals[7]
    r2 = vals[9] - vals[8]
    assert r1 > 0.1
    assert abs(r1 - r2) < 0.01 * r1
    # rate per unit time stays below twice the maximal density per cell
    assert r2 < 2 * 2 * np.log(1 / ZETA ** 2)


def test_renyi_half_chain_matches_wide_block(fib_ts, fib_state):
    # at early times a wide finite block has the same entropy as the half chain
    # (only one boundary inside the lightcone)
    for t in (1, 1.5):
        hh = mpo.renyi_half_chain(fib_ts, fib_state, t, 2)
        hb = mpo.renyi_replica(fib_ts, fib_state, 12, t, 2)
        assert abs(2 * hh - hb) < 1e-9   # block has two boundaries


def test_renyi_hermitian_and_nonnegative(fib_ts, fib_state):
    for (l, t, a) in [(2, 2, 2), (1, 3, 4)]:
        M = mpo.reduced_density_matrix(fib_ts, fib_state, l, t)
        assert np.abs(np.imag(np.trace(M))) < 1e-9
        h = mpo.renyi_small(fib_ts, fib_state, l, t, a)
        assert h >= -1e-10


def test_alpha_dependence_d3(d3_ts, d3_state):
    h2 = mpo.renyi_small(d3_ts, d3_state, 3, 2, 2)
    h3 = mpo.renyi_small(d3_ts, d3_state, 3, 2, 3)
    assert abs(h2 - h3) > 1e-3


def test_equilibration_rates(fib_ts, fib_state, d3_ts, d3_state):
    lam1, info = mpo.equilibration(fib_ts, fib_state)
    assert abs(abs(lam1) - ZETA ** 2) < 1e-9
    assert info["unit_multiplicity"] == 2      # reported, not guessed
    lamD, infoD = mpo.equilibration(d3_ts, d3_state)
    assert abs(lamD) < 1 - 1e-6
    assert infoD["unit_multiplicity"] == 1



def _seeded_mps(seed):
    """A random bond-4 two-site MPS on dihedral-3's qubits (transfer dim 576)."""
    rng = np.random.default_rng(seed)
    return mpo.MPSState(*[rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
                          for _ in range(2)])


@pytest.fixture(scope="module", params=["fib", "d3"] + [f"mps{s}" for s in range(4)])
def quench_case(request, fib_ts, fib_state, d3_ts, d3_state):
    """(tensor set, state) of the Fibonacci and dihedral-3 product states and
    of seeded bond-4 dihedral-3 MPSs."""
    if request.param == "fib":
        return fib_ts, fib_state
    if request.param == "d3":
        return d3_ts, d3_state
    return d3_ts, _seeded_mps(int(request.param[3:]))


def _dense_equilibration(C, tol=mpo.TOL_NUM):
    vals = np.linalg.eigvals(C)
    inside = vals[np.abs(vals) < 1 - tol]
    return (-np.log(np.abs(inside).max()),
            int(np.count_nonzero(np.abs(vals) >= 1 - tol)))


def test_sectors_partition_and_block_diagonal(quench_case):
    ts, state = quench_case
    C = cell(state.transfer_stack(ts))
    sectors = mpo._sectors(C)
    assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(len(C)))
    label = np.empty(len(C), dtype=int)
    for k, sec in enumerate(sectors):
        label[sec] = k
    off = label[:, None] != label[None, :]
    assert np.all(C[off] == 0.0)


def test_sectors_of_a_matrix_without_zeros_is_one():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(7, 7)) + 1.0j
    assert [list(sec) for sec in mpo._sectors(M)] == [list(range(7))]


def test_sectors_follow_links_either_way():
    # a one-way chain 4 -> 0 -> 2 and a one-way pair 3 -> 1; 5 is linked to nothing
    M = np.zeros((6, 6))
    M[0, 4] = M[2, 0] = M[1, 3] = M[5, 5] = 1.0
    assert [list(sec) for sec in mpo._sectors(M)] == [[0, 2, 4], [1, 3], [5]]


def _scipy_sectors(pattern):
    """Weakly connected components of `pattern` by scipy, in `_sectors`' order."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    n, labels = connected_components(csr_array(pattern), directed=True, connection="weak")
    return sorted((np.flatnonzero(labels == k) for k in range(n)), key=lambda sec: sec[0])


def _assert_same_sectors(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n,density", [(1, 1.0), (2, 0.0), (40, 0.02), (169, 0.004),
                                       (200, 0.01), (576, 0.002), (576, 0.05)])
def test_sectors_equal_scipy_components_on_random_patterns(n, density):
    # one-way links, self-loops and isolated indices alike, at every density
    # from all singletons to one giant component
    rng = np.random.default_rng(n)
    for _ in range(4):
        M = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
        _assert_same_sectors(mpo._sectors(M), _scipy_sectors(M))


def test_sector_spectrum_equals_dense_eigvals(quench_case):
    from scipy.optimize import linear_sum_assignment
    ts, state = quench_case
    C = cell(state.transfer_stack(ts))
    blocks = np.concatenate([np.linalg.eigvals(C[np.ix_(sec, sec)])
                             for sec in mpo._sectors(C)])
    dense = np.linalg.eigvals(C)
    assert blocks.shape == dense.shape
    dist = np.abs(blocks[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-12


def test_equilibration_matches_dense_path(quench_case):
    ts, state = quench_case
    lam1, info = mpo.equilibration(ts, state)
    rate, unit = _dense_equilibration(cell(state.transfer_stack(ts)))
    assert abs(info["rate"] - rate) < 1e-12
    assert info["unit_multiplicity"] == unit
    assert abs(info["rate"] + np.log(abs(lam1))) <= mpo.TOL_NUM


def test_lambda1_does_not_depend_on_sector_order(quench_case, monkeypatch):
    ts, state = quench_case
    lam1, _ = mpo.equilibration(ts, state)
    sectors = mpo._sectors
    monkeypatch.setattr(mpo, "_sectors", lambda M: sectors(M)[::-1])
    assert mpo.equilibration(ts, state)[0] == lam1
    # the rule itself: among the ties in modulus, Im >= -tol, then largest Re
    vals = np.linalg.eigvals(cell(state.transfer_stack(ts)))
    inside = vals[np.abs(vals) < 1 - mpo.TOL_NUM]
    ties = inside[np.abs(inside) >= np.abs(inside).max() - mpo.TOL_NUM]
    upper = ties[ties.imag >= -mpo.TOL_NUM]
    assert lam1.imag >= -mpo.TOL_NUM
    assert abs(lam1.real - upper.real.max()) < 1e-12


@pytest.fixture(scope="module",
                params=["fib", "d3"] + [f"mps{s}" for s in range(4)]
                + [f"zoo:{name}" for name in sorted(zoo.MODELS)])
def cell_case(request, fib_ts, fib_state, d3_ts, d3_state):
    """(name, tensor set, state): the quench cases and a seeded product state
    of every zoo model."""
    name = request.param
    if name.startswith("zoo:"):
        ts = build_tensors(zoo.model(name[4:]))
        rng = np.random.default_rng(3)
        rho, v = (rng.normal(size=d) + 1j * rng.normal(size=d) for d in (ts.d_rho, ts.d_v))
        return name, ts, mpo.MPSState.product(rho, v)
    if name == "fib":
        return name, fib_ts, fib_state
    if name == "d3":
        return name, d3_ts, d3_state
    return name, d3_ts, _seeded_mps(int(name[3:]))


def _ket_bra_swap(ts, state):
    """Index map of the ket <-> bra swap (y, Y, m, M) -> (Y, y, M, m) of the cut layout."""
    d, D = ts.algebra.dim, state.bond_dim
    return np.arange(d * d * D * D).reshape(d, d, D, D).transpose(1, 0, 3, 2).reshape(-1)


def _joint_sectors(st):
    return mpo._sectors((st.T("rho") != 0) | (st.T("v") != 0))


def test_sectors_equal_scipy_components_on_cell_patterns(cell_case):
    _, ts, state = cell_case
    st = state.transfer_stack(ts)
    pattern = (st.T("rho") != 0) | (st.T("v") != 0)
    _assert_same_sectors(_joint_sectors(st), _scipy_sectors(pattern))


def test_columns_conjugate_under_the_ket_bra_swap(cell_case):
    # a column is sum K (x) conj K: swapping its ket and bra halves conjugates
    # it, with the exact same nonzero pattern; the values agree to round-off
    # (complex products of a random state are not always rounded alike)
    _, ts, state = cell_case
    st = state.transfer_stack(ts)
    swap = _ket_bra_swap(ts, state)
    for kind in ("rho", "v"):
        T = st.T(kind)
        S = T[swap][:, swap]
        assert np.array_equal(T != 0, S != 0), kind
        assert np.abs(T.conj() - S).max() <= 4 * np.finfo(float).eps * np.abs(T).max(), kind


def test_sectors_are_swap_closed_or_paired(cell_case):
    name, ts, state = cell_case
    swap = _ket_bra_swap(ts, state)
    sectors = _joint_sectors(state.transfer_stack(ts))
    closed = pairs = 0
    for sec in sectors:
        image = np.sort(swap[sec])
        partners = [other for other in sectors if np.array_equal(other, image)]
        assert len(partners) == 1, sec
        if partners[0] is sec:
            closed += 1
        else:
            pairs += 1
    assert pairs % 2 == 0
    # both kinds occur: Fibonacci |3> has 7 swap-closed sectors and 68 pairs,
    # a bond-4 dihedral-3 MPS four closed sectors of 96 and one pair
    if name == "fib":
        assert (closed, pairs // 2) == (7, 68)
    if name.startswith("mps"):
        assert (closed, pairs // 2) == (4, 1)


def _assert_same_spectrum(vals, C):
    from scipy.optimize import linear_sum_assignment
    dense = np.linalg.eigvals(C)
    assert vals.shape == dense.shape
    dist = np.abs(vals[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-12


@pytest.mark.parametrize("real_form_min", [mpo.REAL_FORM_MIN, 1])
def test_cell_spectrum_equals_dense_eigvals(cell_case, real_form_min, monkeypatch):
    # the real Hermitian-basis form of the swap-closed blocks (at 1:
    # Fibonacci's small ones too) and one solve per conjugate pair give the
    # dense cell's spectrum
    _, ts, state = cell_case
    monkeypatch.setattr(mpo, "REAL_FORM_MIN", real_form_min)
    _assert_same_spectrum(mpo._cell_spectrum(ts, state), cell(state.transfer_stack(ts)))


def test_cell_spectrum_when_the_pattern_breaks_the_swap_symmetry(quench_case, monkeypatch):
    # one entry linking a swap-closed sector to one member of a pair, but not
    # to its partner, breaks the swap symmetry of the nonzero pattern (as
    # round-off could): every block is then solved as it stands, and the
    # spectrum is still the cell's
    ts, state = quench_case
    state = mpo.MPSState(state.rho_site.copy(), state.v_site.copy())
    st = state.transfer_stack(ts)
    swap = _ket_bra_swap(ts, state)
    sectors = _joint_sectors(st)
    closed = next(s for s in sectors if np.array_equal(np.sort(swap[s]), s))
    pair = next(s for s in sectors if swap[s].min() > s[0])
    T_v = st.T("v").copy()
    T_v[closed[0], pair[0]] = 1e-3
    monkeypatch.setitem(st._traced, "v", T_v)
    M = (st.T("rho") != 0) | (T_v != 0)
    assert not np.array_equal(M, M[swap][:, swap])
    monkeypatch.setattr(mpo, "REAL_FORM_MIN", 1)
    _assert_same_spectrum(mpo._cell_spectrum(ts, state), cell(st))


def test_operator_column_apply_matches_dense(quench_case):
    ts, state = quench_case
    st = state.transfer_stack(ts)
    rng = np.random.default_rng(11)
    for kind, d in (("rho", ts.d_rho), ("v", ts.d_v)):
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        vec = rng.normal(size=st.dim) + 1j * rng.normal(size=st.dim)
        for o in (op, None):
            ref = column(st, kind, o) @ vec
            assert np.linalg.norm(st.apply(kind, o, vec) - ref) <= 1e-13 * np.linalg.norm(ref)


def _quench_point(ts, state, ops, point):
    if point[0] == "expectation":
        _, k, x, t = point
        return mpo.expectation(ts, ops[k], t, state, x=x)
    _, x, t = point
    return mpo.two_point(ts, ops[0], ops[-1], x, t, state, connected=True)


QUENCH_GRID = ([("expectation", k, x, t) for k in (0, -1) for x in (0.0, 0.5)
                for t in np.arange(0, 6.5, 0.5)]
               + [("two_point", x, t) for x in range(5) for t in range(4)])


@pytest.mark.parametrize("case", ["fib", "mps0"])
def test_quench_grid_is_bitwise_fresh(case, fib_ts, d3_ts, monkeypatch):
    # one state's boundaries answer a shuffled grid, on both legs, with the
    # bits of a fresh state at every point, and only the requested cell
    # counts are kept
    ts, ops = (fib_ts, E_OPS) if case == "fib" else (d3_ts, [np.diag([1.0, 0]), np.diag([0, 1.0])])
    fresh = ((lambda: mpo.MPSState.product([0, 0, 1], [0, 0, 1])) if case == "fib"
             else (lambda: _seeded_mps(0)))
    asked = {"L": set(), "R": set()}
    monkeypatch.setattr(mpo.TransferStack, "boundary",
                        lambda self, side, k, method=mpo.TransferStack.boundary:
                        asked[side].add(k) or method(self, side, k))
    state = fresh()
    order = np.random.default_rng(3).permutation(len(QUENCH_GRID))
    cached = {QUENCH_GRID[i]: _quench_point(ts, state, ops, QUENCH_GRID[i]) for i in order}
    st = state.transfer_stack(ts)
    assert {side: set(kept) for side, kept in st._kept.items()} == asked
    assert max(asked["L"]) == max(asked["R"]) == 11
    for point, value in cached.items():
        assert _quench_point(ts, fresh(), ops, point) == value, point


def test_boundaries_kept_per_requested_count(fib_ts):
    # a single late point keeps one vector per side, not one per cell; the
    # boundaries after no cell are K_L and K_R themselves
    state = mpo.MPSState.product([0, 0, 1], [0, 0, 1])
    st = state.transfer_stack(fib_ts)
    assert abs(mpo.expectation(fib_ts, np.eye(3), 1000, state) - 1) < 1e-9
    assert list(st._kept["L"]) == [1999] and list(st._kept["R"]) == [0]
    assert st.boundary("R", 0) is st.K_R
    assert abs(mpo.expectation(fib_ts, np.eye(3), 1000, state, x=0.5) - 1) < 1e-9
    assert sorted(st._kept["L"]) == sorted(st._kept["R"]) == [0, 1999]


def test_boundaries_are_per_state_and_tensor_set(fib_ts):
    # a stack never answers with another state's or tensor set's boundaries
    vectors = [([0, 0, 1], [0, 0, 1]), ([0, 1, 0], [1, 0, 0])]
    states = [mpo.MPSState.product(*vecs) for vecs in vectors]
    other_ts = dataclasses.replace(fib_ts)
    warm = [mpo.expectation(fib_ts, E_OPS[0], t, states[0], x=0.5) for t in (2.5, 3)]
    stacks = [st.transfer_stack(ts) for ts in (fib_ts, other_ts) for st in states]
    assert len({id(kept) for s in stacks for kept in s._kept.values()}) == 8
    assert all(not kept for s in stacks[1:] for kept in s._kept.values())
    for ts in (fib_ts, other_ts):
        for vecs, state in zip(vectors, states):
            for t in (2.5, 3):
                assert (mpo.expectation(ts, E_OPS[0], t, state, x=0.5)
                        == mpo.expectation(ts, E_OPS[0], t, mpo.MPSState.product(*vecs), x=0.5))
    assert warm != [mpo.expectation(fib_ts, E_OPS[0], t, states[1], x=0.5) for t in (2.5, 3)]
    assert not np.array_equal(stacks[0].boundary("R", 5), stacks[1].boundary("R", 5))


@pytest.mark.parametrize("x,t", [(4, 1), (2, 1), (5, 2), (1, 1), (0, 2)])
def test_two_point_matches_dense_program(quench_case, x, t):
    # O on column 4t - 1, O2 on column 2x, either one nearer the right
    # boundary; the reference is the full program of dense columns
    ts, state = quench_case
    st = state.transfer_stack(ts)
    rng = np.random.default_rng(x + 10 * t)
    O, O2 = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (ts.d_v, ts.d_rho))
    ops = {4 * t - 1: O, 2 * x: O2}
    ref = st.K_L
    for c in range(2 * (2 * t + x)):
        ref = ref @ column(st, "rho" if c % 2 == 0 else "v", ops.get(c))
    ref = complex(ref @ st.K_R)
    assert abs(mpo.two_point(ts, O, O2, x, t, state) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_saturation_onset_l20(fib_ts, fib_state):
    l = 20
    sat = mpo.renyi_replica(fib_ts, fib_state, l, l // 2 + 5, 2)
    onset = None
    for t in np.arange(1, l // 2 + 6):
        h = mpo.renyi_replica(fib_ts, fib_state, l, float(t), 2)
        if h >= 0.99 * sat:
            onset = t
            break
    assert onset is not None
    assert abs(onset - l / 2) <= 2


@pytest.mark.parametrize("i,j", [(i, j) for i in range(3) for j in range(3)])
def test_st_correlator_closed_form(fib_ts, i, j):
    for t in (0.5, 1, 1.5, 2):
        for x in np.arange(-t, t + 1, 1.0):
            got = mpo.st_correlator(fib_ts, E_OPS[i], E_OPS[j], float(x), t)
            assert abs(got - closed_form(i, j, float(x), t)) < 1e-8, (i, j, x, t)


def test_st_correlator_outside_lightcone(fib_ts):
    assert mpo.st_correlator(fib_ts, E_OPS[0], E_OPS[0], 3.0, 2) == 0.0
    assert mpo.st_correlator(fib_ts, E_OPS[0], E_OPS[0], -2.5, 1.5) == 0.0


def test_st_correlator_dual_unitary_vanishes_inside(d3_ts):
    # Hopf gates are dual unitary: strictly inside the cone the trace
    # correlator of traceless operators vanishes
    sz = np.diag([1.0, -1.0])
    for t in (1, 2):
        for x in np.arange(-t + 1, t, 1.0):
            val = mpo.st_correlator(d3_ts, sz, sz, float(x), t)
            assert abs(val) < 1e-10, (x, t)


def test_st_correlator_vs_dense_oracle(fib_ts):
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=4)
    for (i, j, x, t) in [(0, 1, 0.0, 1), (2, 2, 1.0, 1), (0, 0, -1.0, 1),
                         (0, 0, 0.0, 0), (2, 2, 0.0, 0)]:
        eng = mpo.st_correlator(fib_ts, E_OPS[i], E_OPS[j], x, t, ring_cells=4)
        ora = orc.oracle_st_correlator(circ, E_OPS[i], E_OPS[j], x, t)
        assert abs(eng - ora) < 1e-12


def test_otoc_identity_and_hopf_oracle(fib_ts, d3_ts):
    one = np.eye(3)
    assert abs(mpo.otoc(fib_ts, one, one, 0.0, 1) - 1) < 1e-10
    rng = np.random.default_rng(42)
    V, W = random_unitary(2, rng), random_unitary(2, rng)
    circ = orc.DenseCircuit.from_tensor_set(d3_ts, L=5, amplitude_cap=10 ** 7)
    for (x, t) in [(0.0, 1), (1.0, 1), (0.0, 0.5), (0.0, 0)]:
        eng = mpo.otoc(d3_ts, V, W, x, t, warn_nonunitary=False)
        ora = orc.oracle_otoc(circ, V, W, x, t)
        assert abs(eng - ora) < 1e-10, (x, t)


def test_otoc_ring_at_t0_vs_dense_oracle(fib_ts):
    # t = 0 runs the same layers as t > 0, ring closure included
    rng = np.random.default_rng(11)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=4)
    for x in (0.0, 1.0, -1.0):
        eng = mpo.otoc(fib_ts, V, W, x, 0, warn_nonunitary=False, ring_cells=4)
        ora = orc.oracle_otoc(circ, V, W, x, 0)
        assert abs(eng - ora) < 1e-12, x


def test_otoc_weak_vs_embedded_network(fib_ts):
    rng = np.random.default_rng(42)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=4)
    for (x, t) in [(0.0, 1), (1.0, 1), (0.0, 1.5), (1.0, 0.5), (-1.0, 1.0)]:
        leg = mpo.leg_of(x, t)
        block = orc.heisenberg_block(fib_ts.gate, V, t, leg)
        start = x - t + (0.5 if leg == "v" else 0.0)
        first = int(round(2 * start)) % circ.n_sites
        ora = orc.oracle_otoc_embedded(circ, block, first, W, t)
        eng = mpo.otoc(fib_ts, V, W, x, t, warn_nonunitary=False, ring_cells=4)
        assert abs(eng - ora) < 1e-12, (x, t)


def test_otoc_far_outside_constant_in_x(fib_ts):
    rng = np.random.default_rng(9)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    a = mpo.otoc(fib_ts, V, W, 4.0, 1, warn_nonunitary=False)
    b = mpo.otoc(fib_ts, V, W, 6.0, 1, warn_nonunitary=False)
    assert abs(a - b) < 1e-10


def test_otoc_plateau(fib_ts):
    rng = np.random.default_rng(42)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    vals = {}
    for t in np.arange(0.5, 7.5, 0.5):
        vals[t] = mpo.otoc(fib_ts, V, W, 0.0, t, warn_nonunitary=False)
    diffs = [abs(vals[t] - vals[t - 0.5]) for t in np.arange(1.0, 7.5, 0.5)]
    # four consecutive half-steps below 1e-3 signal the plateau
    runs = 0
    for d in diffs:
        runs = runs + 1 if d < 1e-3 else 0
        if runs >= 4:
            break
    assert runs >= 4, diffs


def test_otoc_nonunitary_warns(fib_ts):
    with pytest.warns(UserWarning, match="not unitary"):
        mpo.otoc(fib_ts, np.diag([1.0, 0.5, 1.0]), np.eye(3), 0.0, 0.5)


@pytest.mark.parametrize("name", ["z2-regular", "z3-regular", "swap", "xyx-z2",
                                  "xyx-z3", "dihedral-3", "fibonacci"])
def test_heisenberg_consistency_all_models(name):
    # <psi|O(t)|psi> from the MPO equals <psi(t)|O|psi(t)> from the dense
    # oracle for every square-gate zoo model
    ts = build_tensors(zoo.model(name))
    d = ts.d_v
    L = 5 if d == 2 else 4
    t_max = 2.5 if d == 2 else 2.0
    vec = np.ones(d) / np.sqrt(d)
    if name == "fibonacci":
        vec = np.zeros(d)
        vec[2] = 1.0
    state = mpo.MPSState.product(vec, vec)
    circ = orc.DenseCircuit.from_tensor_set(ts, L=L, amplitude_cap=10 ** 7)
    psi0 = orc.product_state(circ, [vec])
    O = np.diag(np.arange(1.0, d + 1))
    for t in np.arange(0.5, t_max + 0.25, 0.5):
        eng = mpo.expectation(ts, O, float(t), state, x=0.0)
        ora = orc.oracle_expectation(circ, psi0, O, 0.0, float(t))
        assert abs(eng - ora) < 1e-8, (name, t, eng, ora)


def test_fib_heisenberg_consistency_l5(fib_ts, fib_state):
    # t = 5/2 needs a 10-site window; the amplitude cap is raised locally
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=5, amplitude_cap=10 ** 6)
    psi0 = orc.basis_string_state(circ, [2] * 10)
    for O in (E_OPS[0], E_OPS[2]):
        eng = mpo.expectation(fib_ts, O, 2.5, fib_state, x=0.0)
        ora = orc.oracle_expectation(circ, psi0, O, 0.0, 2.5)
        assert abs(eng - ora) < 1e-8


def test_stationary_value_via_transfer_projector(fib_ts, fib_state):
    # the large-t limit of <O(t)> equals the unit-eigenspace-projected value
    st = mpo.TransferStack(fib_ts, fib_state)
    C = cell(st)
    vals, vr = np.linalg.eig(C)
    wl, vl = np.linalg.eig(C.T)
    R = vr[:, np.abs(vals - 1) < 1e-9]
    L = vl[:, np.abs(wl - 1) < 1e-9].T
    # spectral projector onto the (degenerate) eigenvalue-1 block
    P0 = R @ np.linalg.solve(L @ R, L)
    O = E_OPS[2]
    proj_val = complex(st.K_L @ P0 @ column(st, "rho") @ column(st, "v", O) @ P0 @ st.K_R)
    direct = mpo.expectation(fib_ts, O, 40, fib_state, x=0.0)
    assert abs(proj_val - direct) < 1e-8


def test_renyi_memory_cap(fib_ts, fib_state):
    # the cap holds at late (l <= 2t) and early (l > 2t) times alike
    for t in (8, 1):
        with pytest.raises(MemoryError):
            mpo.renyi_small(fib_ts, fib_state, 8, t, 2)


@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("l", [0, -1, 2.5])
@pytest.mark.parametrize("fn", [mpo.reduced_density_matrix, mpo.renyi_small, mpo.renyi_replica])
def test_block_size_must_be_a_positive_integer(fn, l, t, fib_ts, fib_state):
    # checked before any program is built, at t = 0 as well
    args = (fib_ts, fib_state, l, t) + (() if fn is mpo.reduced_density_matrix else (2,))
    with pytest.raises(ValueError, match="positive integer"):
        fn(*args)


RDM_STATES = {"fib": ([0, 0, 1], [0, 0, 1]), "d3": ([1, 1], [1, 1])}
RDM_POINTS = [(l, t) for l in (1, 2) for t in (0.5, 1, 2.5, 4)]


def _alpha_scan(ts, state, alphas):
    return {(l, t, a): mpo.renyi_small(ts, state, l, t, a) for l, t in RDM_POINTS for a in alphas}


@pytest.mark.parametrize("model", ["fib", "d3"])
def test_alpha_scan_is_bitwise_fresh(model, request):
    # one state answers an alpha-scan from one kept spectrum per (l, t), with
    # the bits of a fresh state at every point
    ts = request.getfixturevalue(f"{model}_ts")
    state = mpo.MPSState.product(*RDM_STATES[model])
    cached = _alpha_scan(ts, state, (2, 3, 4))
    assert set(state.transfer_stack(ts)._spectra) == {(l, 2 * t) for l, t in RDM_POINTS}
    for (l, t, a), value in cached.items():
        fresh = mpo.MPSState.product(*RDM_STATES[model])
        assert mpo.renyi_small(ts, fresh, l, t, a) == value, (l, t, a)


@pytest.mark.parametrize("model", ["fib", "d3"])
def test_alpha_order_does_not_change_values(model, request):
    ts = request.getfixturevalue(f"{model}_ts")
    up = _alpha_scan(ts, mpo.MPSState.product(*RDM_STATES[model]), (2, 3, 4))
    down = _alpha_scan(ts, mpo.MPSState.product(*RDM_STATES[model]), (4, 3, 2))
    assert up == down


def test_spectra_are_per_state_and_tensor_set(fib_ts):
    # a kept spectrum never answers for another state or tensor set
    vectors = [([0, 0, 1], [0, 0, 1]), ([0, 1, 0], [1, 0, 0])]
    states = [mpo.MPSState.product(*vecs) for vecs in vectors]
    other_ts = dataclasses.replace(fib_ts)
    l, t = 2, 1.5
    warm = mpo.renyi_small(fib_ts, states[0], l, t, 2)
    stacks = [st.transfer_stack(ts) for ts in (fib_ts, other_ts) for st in states]
    assert list(stacks[0]._spectra) == [(2, 3)]
    assert all(not s._spectra for s in stacks[1:])
    for ts in (fib_ts, other_ts):
        for vecs, state in zip(vectors, states):
            for a in (2, 3):
                assert (mpo.renyi_small(ts, state, l, t, a)
                        == mpo.renyi_small(ts, mpo.MPSState.product(*vecs), l, t, a))
    assert len({id(s._spectra) for s in stacks}) == 4
    assert all(list(s._spectra) == [(2, 3)] for s in stacks)
    assert warm != mpo.renyi_small(fib_ts, states[1], l, t, 2)


def test_kept_spectra_are_read_only(fib_ts):
    # the stack keeps the spectrum alone: (d_rho d_v)^l floats, not a view of
    # the RDM it came from
    state = mpo.MPSState.product([0, 0, 1], [0, 0, 1])
    mpo.renyi_small(fib_ts, state, 2, 2, 3)
    (vals,) = state.transfer_stack(fib_ts)._spectra.values()
    assert vals.shape == ((fib_ts.d_rho * fib_ts.d_v) ** 2,) and vals.dtype == float
    assert vals.base is None and not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 1.0


def test_renyi_scan_builds_one_rdm_per_time(d3_ts, tmp_path, monkeypatch):
    # the renyi_l3 entry of configs/d3_renyi.json, run as a batch: its 24
    # t > 0 points (alpha = 2, 3, 4) build one RDM per t
    from hopfbrick import cli
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "d3_renyi.json")
                        .read_text())
    config["quantities"] = [q for q in config["quantities"] if q["label"] == "renyi_l3"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    builds = []
    monkeypatch.setattr(mpo, "reduced_density_matrix",
                        lambda *args, build=mpo.reduced_density_matrix:
                        builds.append(args[2:]) or build(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(builds) == [(3, float(t)) for t in range(1, 9)]
    with (tmp_path / "out" / "renyi_l3.csv").open() as fh:
        assert len(fh.read().splitlines()) == 1 + 27


def test_oracle_quantities_batch(fib_ts):
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=3, amplitude_cap=10 ** 6)
    psi0 = orc.basis_string_state(circ, [2] * 6)
    rng = np.random.default_rng(2)
    V = random_unitary(3, rng)
    out = orc.oracle_quantities(
        circ, psi0, 1.0,
        observables={"e3": (E_OPS[2], 0.0)},
        two_points={"w11": (E_OPS[0], E_OPS[0], 1)},
        renyis={"h2": (1, 2)},
        otocs={"f": (V, V, 0.0)},
        st_corrs={"c33": (E_OPS[2], E_OPS[2], 0.0)},
    )
    assert abs(out["expectations"]["e3"].imag) < 1e-12
    assert out["renyi"]["h2"] >= 0
    assert set(out) == {"expectations", "two_point", "renyi", "otoc", "st_corr"}
