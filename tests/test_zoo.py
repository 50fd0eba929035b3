import json

import numpy as np
import pytest

from hopfbrick import check_axioms, load_algebra, zoo
from hopfbrick.algebra import algebra_to_dict
from hopfbrick.zoo import GroupTable

ZOO_NAMES = sorted(zoo.MODELS)


def test_group_table_validation():
    with pytest.raises(Exception):
        GroupTable([[0, 1], [1, 1]])           # not a group
    G = zoo.cyclic_group(4)
    assert G.is_abelian()
    assert zoo.dihedral_group(3).is_abelian() is False
    assert zoo.dihedral_group(3).element_orders() == [1, 3, 3, 2, 2, 2]


def test_cocycle_validation():
    # the nontrivial 2-cocycle of Z2 x Z2 (Pauli phases)
    G = zoo.direct_product_group(zoo.cyclic_group(2), zoo.cyclic_group(2))
    w = np.ones((4, 4), dtype=complex)
    # elements: (a1, b1) packed as a1*2+b1; w((a,b),(c,d)) = (-1)^(b c)
    for x in range(4):
        for y in range(4):
            w[x, y] = (-1.0) ** ((x % 2) * (y // 2))
    Gw = GroupTable(G.table, name="Z2xZ2", cocycle=w)
    assert Gw.cocycle is not None
    bad = w.copy()
    bad[1, 1] = -bad[1, 1]
    with pytest.raises(Exception):
        GroupTable(G.table, cocycle=bad)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_zoo_axioms_pass_declared_tier(name):
    pair = zoo.model(name)
    rpt = check_axioms(pair.algebra, pair.algebra.tier)
    assert rpt["pass"], {k: v for k, v in rpt.items() if k != "pass"}


def test_group_algebra_dims():
    assert zoo.group_algebra(zoo.cyclic_group(2)).dim == 2
    assert zoo.group_algebra(zoo.dihedral_group(3)).dim == 6
    assert zoo.twisted_perm_algebra(zoo.cyclic_group(2), 2).dim == 8
    assert zoo.xyx_algebra(zoo.cyclic_group(2)).dim == 8
    assert zoo.xyx_algebra(zoo.cyclic_group(3)).dim == 18
    assert zoo.fibonacci_wha().dim == 13


def test_zeta_closed_form():
    z = zoo.ZETA
    assert abs(z ** 2 - (np.sqrt(5) - 1) / 2) < 1e-15
    assert abs(z ** 4 + z ** 2 - 1) < 1e-15


def test_fibonacci_gate_values(fib_ts):
    z = zoo.ZETA
    U = fib_ts.gate
    # U|2,1> = z^2 |2,1> + z |3,3>;  U|3,3> = z |2,1> - z^2 |3,3>
    assert abs(U[1, 0, 1, 0] - z ** 2) < 1e-15
    assert abs(U[2, 2, 1, 0] - z) < 1e-15
    assert abs(U[1, 0, 2, 2] - z) < 1e-15
    assert abs(U[2, 2, 2, 2] + z ** 2) < 1e-15
    # identity on the other projector-image pairs: U|b,j> = |i=b, a=j>
    for (b, j) in [(0, 1), (0, 2), (2, 1)]:
        col = U[:, :, b, j]
        want = np.zeros((3, 3))
        want[b, j] = 1.0
        assert np.abs(col - want).max() < 1e-15


def test_fibonacci_rho5_faithful():
    A = zoo.fibonacci_wha()
    rho2, rho3, rho5 = zoo.fibonacci_reps(A)
    mat = rho5.matrices.reshape(13, -1)
    assert np.linalg.matrix_rank(mat) == 13


def test_dihedral_gate_is_group_gate(d3_ts):
    # gate = X (rho(s) (+) rho(r) block structure): <i,a|U|b,j> = delta_ij rho(g_i)_ab
    G = zoo.dihedral_group(3)
    mats = zoo.dihedral_rep(3, 1)
    gs = [3, 1]
    U = d3_ts.gate
    for i in range(2):
        for j in range(2):
            blk = U[i, :, :, j]
            want = np.asarray(mats[gs[i]]) if i == j else np.zeros((2, 2))
            assert np.abs(blk - want).max() < 1e-14


def test_regular_gate_action():
    G = zoo.dihedral_group(3)
    from hopfbrick import build_tensors
    ts = build_tensors(zoo.regular_group_gate(G))
    U = ts.gate
    for g in range(6):
        for h in range(6):
            col = U[:, :, g, h]
            want = np.zeros((6, 6))
            want[h, G.mul(h, g)] = 1.0     # U|g,h> = |h, hg>
            assert np.abs(col - want).max() < 1e-14


def test_xyx_gate_action():
    G = zoo.cyclic_group(3)
    from hopfbrick import build_tensors
    ts = build_tensors(zoo.xyx_pair(G))
    U = ts.gate
    for h in range(3):
        for g in range(3):
            col = U[:, :, h, g]            # input |h, g>
            i = G.mul(g, G.inv(h))
            a = G.mul(i, G.inv(g))
            want = np.zeros((3, 3))
            want[i, a] = 1.0               # U|h,g> = |gh^-1, gh^-1 g^-1>
            assert np.abs(col - want).max() < 1e-14


def test_twisted_perm_explicit_tables():
    G = zoo.cyclic_group(2)
    mats = [np.array([[1.0]]), np.array([[-1.0]])]
    gs = [0, 1]
    from hopfbrick import build_tensors
    pair = zoo.twisted_perm_pair(G, mats, gs)
    ts = build_tensors(pair)
    gate, R, V, u, eps = zoo.twisted_perm_tensor_table(G, mats, gs)
    assert np.abs(ts.gate - gate).max() < 1e-14
    assert np.abs(ts.rho_tensor - np.transpose(R, (0, 1, 3, 2))).max() < 1e-14 or \
        np.abs(ts.rho_tensor - R).max() < 1e-14
    assert np.abs(ts.unit_vec - u).max() < 1e-14
    assert np.abs(ts.counit_vec - eps).max() < 1e-14


def test_xyx_explicit_tables():
    G = zoo.cyclic_group(2)
    from hopfbrick import build_tensors
    ts = build_tensors(zoo.xyx_pair(G))
    gate, R, V, u, eps = zoo.xyx_tensor_table(G)
    assert np.abs(ts.gate - gate).max() < 1e-14
    assert np.abs(ts.unit_vec - u).max() < 1e-14
    assert np.abs(ts.counit_vec - eps).max() < 1e-14


def test_abelian_gate_swap_times_phases():
    # with the characters as the (diagonal) representation, the gate is
    # SWAP x (phase gate) and every phase is an n-th root of unity
    from hopfbrick import build_tensors
    for n in (2, 3):
        G = zoo.cyclic_group(n)
        w = np.exp(2j * np.pi / n)
        mats = [np.diag([w ** (k * g) for k in range(n)]) for g in range(n)]
        ts = build_tensors(zoo.group_gate(G, mats, list(range(n))))
        d = n
        M = ts.gate_matrix
        X = np.zeros((d * d, d * d))
        for a in range(d):
            for b in range(d):
                X[b * d + a, a * d + b] = 1.0
        Phi = X.T @ M                     # swap removed: a diagonal phase gate
        off = Phi - np.diag(np.diag(Phi))
        assert np.abs(off).max() < 1e-14
        phases = np.diag(Phi)
        assert np.abs(np.abs(phases) - 1).max() < 1e-14
        assert np.abs(phases ** n - 1).max() < 1e-12


def test_export_roundtrip(tmp_path):
    for name in ZOO_NAMES:
        pair = zoo.model(name)
        doc = algebra_to_dict(pair.algebra, reps={"rho": pair.rho}, coreps={"v": pair.v})
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        loaded = load_algebra(json.loads(path.read_text()))
        assert np.abs(loaded.mult - pair.algebra.mult).max() < 1e-15
        assert loaded.tier == pair.algebra.tier
