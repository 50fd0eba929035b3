import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from hopfbrick import build_projectors, build_tensors, zoo
from hopfbrick import oracle as orc


def test_swap_circuit_translates_sublattices():
    ts = build_tensors(zoo.model("swap"))
    circ = orc.DenseCircuit.from_tensor_set(ts, L=3)
    rng = np.random.default_rng(0)
    vecs = [v / np.linalg.norm(v) for v in
            (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))]
    psi = orc.product_state(circ, vecs)
    psi1 = orc.evolve(circ, psi, 1)
    # one period: even sites shift by +2, odd sites by -2 (chiral movers)
    shifted = [None] * 6
    for s in range(6):
        shifted[s] = vecs[(s + 2) % 6] if s % 2 == 0 else vecs[(s - 2) % 6]
    assert np.abs(psi1 - orc.product_state(circ, shifted)).max() < 1e-13


def test_regular_gate_layer_action():
    G = zoo.dihedral_group(3)
    ts = build_tensors(zoo.regular_group_gate(G))
    circ = orc.DenseCircuit.from_tensor_set(ts, L=2, amplitude_cap=10 ** 5)
    # one odd layer: |g0 g1 g2 g3> gates on (1,2),(3,0): U|g,h> = |h,hg>
    labels = [2, 5, 1, 4]
    psi = orc.basis_string_state(circ, labels)
    out = orc.apply_layer(circ, psi, "odd")
    want = [None] * 4
    # pair (1,2): (g1, g2) -> (g2, g2 g1); pair (3,0): (g3, g0) -> (g0, g0 g3)
    want_labels = labels.copy()
    want_labels[1] = labels[2]
    want_labels[2] = G.mul(labels[2], labels[1])
    want_labels[3] = labels[0]
    want_labels[0] = G.mul(labels[0], labels[3])
    assert np.abs(out - orc.basis_string_state(circ, want_labels)).max() < 1e-14


def test_fibonacci_two_gate_amplitudes(fib_ts):
    # |3333> at L=2, t=1: amplitudes from repeated single-gate applications
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=2)
    psi0 = orc.basis_string_state(circ, [2, 2, 2, 2])
    psi1 = orc.evolve(circ, psi0, 1)
    assert abs(np.linalg.norm(psi1) - 1) < 1e-12
    z = zoo.ZETA
    # amplitude to stay in |3333>: odd layer gives (-z^2)^2, even layer acts on
    # the rotated pairs; the exact value is reproducible by a 4-gate product
    ref = psi0.copy()
    for p in [1, 3, 0, 2]:
        ref = orc._apply_pair_op(ref, circ.gate, p, 4, 3)
    assert np.abs(psi1 - ref).max() < 1e-13


def test_norm_preservation_in_subspace(fib_ts):
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=3, amplitude_cap=10 ** 6)
    info = orc.subspace(circ)
    rng = np.random.default_rng(1)
    coeffs = rng.normal(size=info.dimension)
    psi = info.basis @ coeffs
    psi /= np.linalg.norm(psi)
    for steps in (0.5, 1, 2.5):
        out = orc.evolve(circ, psi, steps)
        assert abs(np.linalg.norm(out) - 1) < 1e-10
        # stays in the subspace
        assert np.abs(info.projector @ out - out).max() < 1e-10


def test_subspace_dimensions(fib_ts):
    pp = build_projectors(fib_ts.pair)
    dims = [orc.obc_constraint_dimension(pp.P, 3, N) for N in range(2, 9)]
    assert dims == [5, 8, 13, 21, 34, 55, 89]
    # PBC ring: Lucas numbers
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=2)
    info = orc.subspace(circ)
    assert info.dimension == 7
    assert info.invariance_residual < 1e-12


def test_subspace_growth_rate(fib_ts):
    pp = build_projectors(fib_ts.pair)
    d12 = orc.obc_constraint_dimension(pp.P, 3, 12)
    d11 = orc.obc_constraint_dimension(pp.P, 3, 11)
    phi = (1 + np.sqrt(5)) / 2
    assert abs(np.log(d12 / d11) - np.log(phi)) < 1e-3


def test_hopf_subspace_full(d3_ts):
    circ = orc.DenseCircuit.from_tensor_set(d3_ts, L=2)
    info = orc.subspace(circ)
    assert info.dimension == 2 ** 4


@pytest.mark.parametrize("name,L,divisor", [
    ("swap", 2, 2),
    ("z2-regular", 2, 4),
    ("fibonacci", 2, 10),
])
def test_minimal_period(name, L, divisor):
    ts = build_tensors(zoo.model(name))
    circ = orc.DenseCircuit.from_tensor_set(ts, L=L)
    t, phase = orc.minimal_period(circ, eta=divisor // L)
    assert divisor % t == 0
    assert abs(abs(phase) - 1) < 1e-9
    if name == "fibonacci":
        assert t == 10          # equality observed at L = 2, matching eta L
    if name == "swap":
        assert t == 2


def test_irf_gate_blocks_and_exponential():
    z = zoo.ZETA
    blocks = zoo.fibonacci_irf()
    assert np.abs(blocks["tt"] - np.array([[z ** 2, z], [z, -z ** 2]])).max() < 1e-15
    for key in ("It", "tI", "II"):
        assert np.abs(blocks[key] - np.diag([0.0, 1.0])).max() == 0.0
    # tau-tau block equals i exp(-i pi/2 (z sx + z^2 sz)) exactly
    sx = np.array([[0, 1], [1, 0]])
    sz = np.array([[1, 0], [0, -1]])
    h = z * sx + z ** 2 * sz
    assert np.abs(h @ h - np.eye(2)).max() < 1e-14
    assert np.abs(1j * expm(-1j * np.pi / 2 * h) - blocks["tt"]).max() < 1e-12


def test_irf_mapping_strings():
    irf_ref = [0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1]
    qut = orc.map_irf_qutrit_string(irf_ref)
    assert qut == [2, 1, 2, 1, 3, 3, 2, 1, 2, 1, 3, 3, 3, 3, 3]
    assert orc.map_qutrit_irf_string(qut) == irf_ref
    # a variant with one more 21-block: the rule marks its link I as well
    qut_extra = [2, 1, 2, 1, 3, 3, 2, 1, 2, 1, 3, 2, 1, 3, 3]
    got = orc.map_qutrit_irf_string(qut_extra)
    assert got == [0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1]
    assert orc.map_irf_qutrit_string(got) == qut_extra
    with pytest.raises(ValueError):
        orc.map_irf_qutrit_string([0, 0, 1])      # adjacent I's


@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_qutrit_irf_conjugacy(N, fib_ts):
    circ = orc.open_chain(fib_ts, N)
    iso, strings = orc.qutrit_irf_isometry(N)
    irf = orc.irf_circuit(N - 1)
    rng = np.random.default_rng(N)
    psi = np.zeros(3 ** N, dtype=complex)
    for s in strings:
        code = 0
        for v in s:
            code = code * 3 + (v - 1)
        psi[code] = rng.normal() + 1j * rng.normal()
    psi /= np.linalg.norm(psi)
    for steps in (0.5, 1, 2, 3):
        lhs = iso @ orc.evolve(circ, psi, steps)
        rhs = orc.irf_evolve(irf, orc.map_qutrit_irf(psi, N), steps)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_p0_dimension_fibonacci_numbers():
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    for N in range(2, 9):
        assert len(orc._p0_strings(N)) == fib[N]     # F_{N+1}


def test_shape_networks_small():
    # n = 1 of every shape is the bare gate
    ts = build_tensors(zoo.model("dihedral-3"))
    U = ts.gate
    tri = orc.network_triangle(U, 1)
    assert np.abs(tri - np.transpose(U, (1, 0, 2, 3))).max() < 1e-14   # (a,i,b,j)
    inv = orc.network_inverted_triangle(U, 1)
    assert np.abs(inv - np.transpose(U, (0, 1, 3, 2))).max() < 1e-14   # (i,a,j,b)
    dia = orc.network_diamond(U, 1)
    assert np.abs(dia - np.transpose(U, (1, 0, 2, 3)).reshape(4, 4)).max() < 1e-14


def test_oracle_leaves_engine_out():
    # the oracle is an independent ground truth: its shape networks,
    # Heisenberg blocks and traces never load the transfer-matrix engine
    code = ("import sys, numpy as np\n"
            "from hopfbrick import build_tensors, zoo, oracle as orc\n"
            "ts = build_tensors(zoo.model('fibonacci'))\n"
            "orc.network_triangle(ts.gate, 2); orc.network_diamond(ts.gate, 2, power=2)\n"
            "orc.network_inverted_triangle(ts.gate, 2)\n"
            "orc.heisenberg_block(ts.gate, np.diag([1, 0, 0]), 1, 'v')\n"
            "circ = orc.DenseCircuit.from_tensor_set(ts, L=2)\n"
            "orc.oracle_otoc(circ, np.diag([1, 0, 0]), np.diag([0, 1, 0]), 0.5, 1)\n"
            "print('hopfbrick.mpo' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_heisenberg_block_matches_direct():
    ts = build_tensors(zoo.model("fibonacci"))
    rng = np.random.default_rng(3)
    O = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    U = ts.gate
    direct = np.einsum("IAxy,Ii,iAbj->xybj", U.conj(), O, U).reshape(9, 9)
    got = orc.heisenberg_block(U, O, 0.5, "v")
    assert np.abs(got - direct).max() < 1e-13
    direct_r = np.einsum("iAxy,Aa,iabj->xybj", U.conj(), O, U).reshape(9, 9)
    got_r = orc.heisenberg_block(U, O, 0.5, "rho")
    assert np.abs(got_r - direct_r).max() < 1e-13


def _random_matrix(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


@pytest.mark.parametrize("chain,steps", [
    ("ring", 1), ("ring", 2.5), ("open5", 1.5), ("open5", 2),
])
def test_block_evolve_equals_column_by_column(chain, steps, fib_ts):
    # the ring's odd layer holds the wrapping pair (n-1, 0)
    circ = (orc.DenseCircuit.from_tensor_set(fib_ts, L=3) if chain == "ring"
            else orc.open_chain(fib_ts, 5))
    block = _random_matrix(circ.d ** circ.n_sites, 5, seed=4)
    for step in (orc.evolve, orc._evolve_back):
        got = step(circ, block, steps)
        want = np.stack([step(circ, block[:, k], steps) for k in range(5)], axis=1)
        assert got.shape == block.shape
        assert np.abs(got - want).max() < 1e-13
    O = _random_matrix(3, 3, seed=5)
    got = orc.apply_site_op(circ, block, O, 1.5)
    want = np.stack([orc.apply_site_op(circ, block[:, k], O, 1.5) for k in range(5)], axis=1)
    assert np.abs(got - want).max() < 1e-13


def test_trace_over_several_column_blocks(fib_ts, d3_ts, monkeypatch):
    V3, W3, A3, B3 = (_random_matrix(3, 3, seed=s) for s in range(4))
    V2, W2 = _random_matrix(2, 2, seed=5), _random_matrix(2, 2, seed=6)
    fib = orc.DenseCircuit.from_tensor_set(fib_ts, L=3)      # projector basis, D = 18
    d3 = orc.DenseCircuit.from_tensor_set(d3_ts, L=3)        # identity basis, D = 64
    block = orc.heisenberg_block(fib_ts.gate, V3, 1, "v")

    def values():
        return [orc.oracle_otoc(fib, V3, W3, 1.0, 1.5),
                orc.oracle_st_correlator(fib, A3, B3, 1.0, 1),
                orc.oracle_otoc_embedded(fib, block, 1, W3, 1),
                orc.oracle_otoc(d3, V2, W2, 0.5, 1),
                orc.oracle_st_correlator(d3, V2, W2, 1.0, 1.5)]

    one_block = values()
    # blocks of 5 columns on the 729-amplitude ring, 57 on the 64-amplitude one
    monkeypatch.setattr(orc, "COLUMN_BLOCK", 5 * 729 + 1)
    assert np.abs(np.array(values()) - one_block).max() < 1e-13
    # single columns on the larger ring, 7 per block on the smaller
    monkeypatch.setattr(orc, "COLUMN_BLOCK", 7 * 64)
    assert np.abs(np.array(values()) - one_block).max() < 1e-13


def test_otoc_on_odd_open_chain_matches_dense_matrices():
    ts = build_tensors(zoo.model("dihedral-3"))
    circ = orc.open_chain(ts, 5)
    V, W = _random_matrix(2, 2, seed=7), _random_matrix(2, 2, seed=8)
    assert abs(orc.oracle_otoc(circ, np.eye(2), np.diag([1.0, -1.0]), 1.0, 1.0) - 1) < 1e-13
    U = orc.evolution_matrix(circ, 1.0)
    V_x = np.kron(np.eye(4), np.kron(V, np.eye(4)))          # x = 1.0 is site 2 of 5
    W_0 = np.kron(W, np.eye(16))
    V_t = U.conj().T @ V_x @ U
    want = np.trace(W_0.conj().T @ V_t.conj().T @ W_0 @ V_t) / 32
    assert abs(orc.oracle_otoc(circ, V, W, 1.0, 1.0) - want) < 1e-12
    psi = _random_matrix(32, 1, seed=3)[:, 0]
    for steps in (-1, 0.3):
        with pytest.raises(ValueError):
            orc._evolve_back(circ, psi, steps)


def test_amplitude_cap():
    ts = build_tensors(zoo.model("fibonacci"))
    with pytest.raises(MemoryError):
        orc.DenseCircuit.from_tensor_set(ts, L=12)


def _pair_op_reference(psi, op, p, n, d):
    """The two-site gate as one batched matmul off the wrapping pair and a
    tensordot on it: the reference for `oracle._apply_pair_op`."""
    if p == n - 1:
        arr = psi.reshape((d,) * n + (-1,))
        out = np.tensordot(op.reshape(d, d, d, d), arr, axes=([2, 3], [n - 1, 0]))
        out = np.moveaxis(out, [0, 1], [n - 1, 0])
    else:
        out = np.matmul(op, psi.reshape(d ** p, d * d, -1))
    return out.reshape(psi.shape)


@pytest.mark.parametrize("d,n,k", [(3, 12, None), (3, 8, 2), (3, 6, 20), (2, 10, None),
                                   (2, 10, 3)])
def test_pair_gate_matches_reference(d, n, k):
    # every pair, the right end (rest below d^2) and the wrapping pair too,
    # on states and column blocks with O(1) entries
    rng = np.random.default_rng(n + d)
    shape = (d ** n,) if k is None else (d ** n, k)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    op = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    for p in range(n):
        out = orc._apply_pair_op(psi, op, p, n, d)
        assert out.shape == psi.shape
        assert np.abs(out - _pair_op_reference(psi, op, p, n, d)).max() <= 1e-13, p
