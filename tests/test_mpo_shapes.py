import numpy as np
import pytest

from hopfbrick import build_tensors, zoo
from hopfbrick import mpo
from hopfbrick import oracle as orc
from dense_reference import heisenberg_dense, normalization


ALL_MODELS = sorted(zoo.MODELS)


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_triangle_mpo_vs_network(name, n):
    ts = build_tensors(zoo.model(name))
    got = mpo.mpo_triangle(ts, n)
    want = orc.network_triangle(ts.gate, n)
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverted_triangle_mpo_vs_network(name, n):
    ts = build_tensors(zoo.model(name))
    got = mpo.mpo_inverted_triangle(ts, n)
    want = orc.network_inverted_triangle(ts.gate, n)
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("name", ALL_MODELS)
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 7)])
def test_diamond_power_mpo_vs_network(name, n, k):
    ts = build_tensors(zoo.model(name))
    got = mpo.mpo_diamond_power(ts, n, k)
    want = orc.network_diamond(ts.gate, n, power=k)
    assert np.abs(got - want).max() < 1e-10


def test_diamond_power_periodicity(fib_ts):
    # c^{k+5} = c^k for k >= 2 transfers to the diamond powers
    for n in (1, 2):
        d2 = mpo.mpo_diamond_power(fib_ts, n, 2)
        d7 = mpo.mpo_diamond_power(fib_ts, n, 7)
        assert np.abs(d7 - d2).max() < 1e-12
        d3 = mpo.mpo_diamond_power(fib_ts, n, 3)
        d8 = mpo.mpo_diamond_power(fib_ts, n, 8)
        assert np.abs(d8 - d3).max() < 1e-12


def test_heisenberg_mpo_identity_contracts_to_projected_identity(fib_ts, d3_ts):
    # identity operator: contraction against a normalized in-subspace product
    # state gives 1 at every time
    for ts, vec in ((d3_ts, np.array([1, 1]) / np.sqrt(2)), (fib_ts, [0, 0, 1])):
        state = mpo.MPSState.product(vec, vec)
        st = mpo.TransferStack(ts, state)
        for t in (0.5, 1, 1.5, 2, 5, 20):
            assert abs(normalization(st, t) - 1) < 1e-9


def test_heisenberg_mpo_bond_dim_and_support(d3_ts):
    hm = mpo.heisenberg_mpo(d3_ts, np.diag([1.0, -1.0]), 2.5, position=0.5)
    assert hm.leg == "v"                      # x - t integer
    assert hm.bond_dim == 36
    assert hm.n_columns == 10
    sup = hm.support()
    assert sup[0] == -1.5 and sup[-1] == 3.0   # [x-t+1/2, x+t]
    hm_r = mpo.heisenberg_mpo(d3_ts, np.diag([1.0, -1.0]), 2.0, position=0.5)
    assert hm_r.leg == "rho"
    assert hm_r.support()[0] == -1.5 and hm_r.support()[-1] == 2.0


def test_heisenberg_mpo_at_t0_has_no_columns(fib_ts):
    hm = mpo.heisenberg_mpo(fib_ts, np.diag([1.0, 2.0, 3.0]), 0)
    assert hm.support() == []
    with pytest.raises(ValueError):
        heisenberg_dense(hm)


def test_heisenberg_mpo_dense_vs_network_block(fib_ts):
    rng = np.random.default_rng(7)
    O = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for t, leg in [(0.5, "v"), (1.0, "v"), (1.0, "rho"), (1.5, "v")]:
        hm = mpo.HeisenbergMPO(fib_ts, O, t, leg)
        dim = 3 ** hm.n_columns
        got = heisenberg_dense(hm).reshape(dim, dim)
        want = orc.heisenberg_block(fib_ts.gate, O, t, leg)
        assert np.abs(got - want).max() < 1e-11


@pytest.mark.parametrize("name", ALL_MODELS)
def test_projector_mpo_cut_to_exact_rank(name):
    ts = build_tensors(zoo.model(name))
    mats = mpo.projector_mpo(ts)
    if name == "fibonacci":
        # v -> rho bond 2 of 9, rho -> v bond 9 of 9
        assert mats["v"].shape == (9, 2, 3, 3) and mats["rho"].shape == (2, 9, 3, 3)
    else:
        # Hopf tier: the projector is the identity, bond 1
        assert mats["v"].shape[:2] == (1, 1) and mats["rho"].shape[:2] == (1, 1)


@pytest.mark.parametrize("L,want", [(2, 7), (3, 18)])
def test_cut_projector_channel_traces_subspace_dimension(fib_ts, L, want):
    # Tr(E^L) of the per-cell channel is the rank of the ring projector
    E, lam, _, _ = mpo._trace_cache(fib_ts).environment()
    got = np.trace(np.linalg.matrix_power(E * lam, L))
    dim = orc.subspace(orc.DenseCircuit.from_tensor_set(fib_ts, L)).dimension
    assert dim == want
    assert abs(got - dim) < 1e-10


@pytest.mark.parametrize("name,L,ks", [
    ("dihedral-3", 2, (1, 2)),
    ("fibonacci", 2, (1, 2)),
    ("dihedral-3", 3, (1, 2, 3)),
])
def test_pbc_evolution_vs_brickwork(name, L, ks):
    ts = build_tensors(zoo.model(name))
    circ = orc.DenseCircuit.from_tensor_set(ts, L=L, amplitude_cap=10 ** 5)
    for k in ks:
        tk = (k * L + 1) / 2
        want = orc.evolution_matrix(circ, tk)
        pe = mpo.pbc_evolution_mpo(ts, L, k)
        assert np.abs(pe.operator - want).max() < 1e-10
        assert pe.translation_cells == k % 2


def test_pbc_entanglement_revival_structure(fib_ts):
    # U(t_k) is a bounded-bond MPO times a translation: acting on any product
    # state it cannot raise a block entropy above the log-bond bound
    pe = mpo.pbc_evolution_mpo(fib_ts, 2, 1)
    psi = np.zeros(81, dtype=complex)
    psi[np.ravel_multi_index((2, 2, 2, 2), (3,) * 4)] = 1.0
    out = pe.operator @ psi
    out /= np.linalg.norm(out)
    rho = out.reshape(9, 9) @ out.reshape(9, 9).conj().T
    vals = np.clip(np.linalg.eigvalsh(rho), 0, None)
    h2 = -np.log((vals ** 2).sum())
    assert h2 <= 2 * np.log(13 ** 3) + 1e-9


@pytest.mark.parametrize("name,want", [("fibonacci", 10), ("z2-regular", 4),
                                       ("dihedral-3", 12)])
def test_revival_time(name, want):
    ts = build_tensors(zoo.model(name))
    assert mpo.revival_time(ts, 2) == want
