import numpy as np
import pytest

from hopfbrick import (build_tensors, check_corepresentation,
                       check_representation, corep_to_dual_rep,
                       regular_corepresentation, regular_representation,
                       rep_to_dual_corep, restrict_gate, tensor_power_corep,
                       tensor_power_rep, zoo)
from hopfbrick.algebra import AxiomError, canonical_power
from hopfbrick.representation import Corepresentation, Representation


ZOO_NAMES = sorted(zoo.MODELS)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_zoo_pairs_pass_checks(name):
    pair = zoo.model(name)
    assert check_representation(pair.rho)["pass"]
    assert check_corepresentation(pair.v)["pass"]


def test_perturbed_rep_reports_residual(d3_ts):
    pair = zoo.model("dihedral-3")
    mats = pair.rho.matrices.copy()
    mats[1, 0, 0] += 1e-3
    bad = Representation(pair.algebra, mats, star=True)
    rpt = check_representation(bad)
    assert not rpt["pass"]
    assert 1e-4 < rpt["homomorphism"] < 1e-2


def test_unitary_corep_identities():
    # sum_k v*_{ki} v_{kj} = delta_ij 1 and the mirrored identity, as elements
    for name in ("dihedral-3", "z3-regular", "xyx-z2"):
        pair = zoo.model(name)
        A, v = pair.algebra, pair.v
        dv = v.dim
        star = lambda c: A.star @ np.conj(c)
        for i in range(dv):
            for j in range(dv):
                acc1 = np.zeros(A.dim, dtype=complex)
                acc2 = np.zeros(A.dim, dtype=complex)
                for k in range(dv):
                    acc1 += A.mult_coeffs(star(v.entries[k, i]), v.entries[k, j])
                    acc2 += A.mult_coeffs(v.entries[i, k], star(v.entries[j, k]))
                want = A.unit if i == j else np.zeros(A.dim)
                assert np.abs(acc1 - want).max() < 1e-12
                assert np.abs(acc2 - want).max() < 1e-12


def test_regular_representations():
    A = zoo.group_algebra(zoo.cyclic_group(2))
    reg = regular_representation(A)
    assert np.abs(reg.matrices[0] - np.eye(2)).max() < 1e-15
    assert np.abs(reg.matrices[1] - np.array([[0, 1], [1, 0]])).max() < 1e-15
    assert check_representation(reg)["pass"]
    corep = regular_corepresentation(A)
    assert check_corepresentation(corep)["pass"]
    F = zoo.fibonacci_wha()
    assert check_representation(regular_representation(F))["pass"]
    assert check_corepresentation(regular_corepresentation(F))["pass"]


def test_dual_bridges_roundtrip():
    for name in ("z2-regular", "dihedral-3", "fibonacci"):
        pair = zoo.model(name)
        w = rep_to_dual_corep(pair.rho)
        assert check_corepresentation(Corepresentation(w.algebra, w.entries))["pass"]
        r = corep_to_dual_rep(pair.v)
        assert check_representation(Representation(r.algebra, r.matrices))["pass"]
        # round trip: rep -> dual corep -> dual dual rep = original matrices
        rt = corep_to_dual_rep(w)
        assert np.abs(rt.matrices - pair.rho.matrices).max() < 1e-12


def test_fibonacci_corep_is_star_rep_of_dual():
    pair = zoo.model("fibonacci")
    r = corep_to_dual_rep(pair.v)
    D = r.algebra
    star = lambda c: D.star @ np.conj(c)
    res = 0.0
    for x in range(D.dim):
        lhs = r.apply(star(np.eye(D.dim)[x]))
        res = max(res, float(np.abs(lhs - r.apply(np.eye(D.dim)[x]).conj().T).max()))
    assert res < 1e-12


def test_tensor_power_rep():
    pair = zoo.model("dihedral-3")
    t1 = tensor_power_rep(pair.rho, 1)
    assert np.abs(t1.matrices - pair.rho.matrices).max() < 1e-15
    t2 = tensor_power_rep(pair.rho, 2)
    assert check_representation(t2)["pass"]
    # group-like comultiplication: rho2(g) = rho(g) (x) rho(g)
    for g in range(6):
        want = np.kron(pair.rho.matrices[g], pair.rho.matrices[g])
        assert np.abs(t2.matrices[g] - want).max() < 1e-13
    # coassociativity witness: power of a power
    t3 = tensor_power_rep(pair.rho, 3)
    mixed = tensor_power_rep(pair.rho, 2)
    A = pair.algebra
    for x in range(6):
        lhs = t3.matrices[x]
        rhs = np.zeros_like(lhs)
        for p, q in np.argwhere(A.comult[x] != 0):
            rhs += A.comult[x, p, q] * np.kron(pair.rho.matrices[p], mixed.matrices[q])
        assert np.abs(lhs - rhs).max() < 1e-12


def test_tensor_power_memory_guard():
    pair = zoo.model("dihedral-3")
    with pytest.raises(MemoryError):
        tensor_power_rep(pair.rho, 12)


def test_tensor_power_corep_matches_diamond():
    # (rho^(n) (x) v^(n)) applied to c^k reproduces the diamond power
    from hopfbrick.mpo import mpo_diamond_power
    pair = zoo.model("fibonacci")
    ts = build_tensors(pair)
    A = pair.algebra
    for n, k in [(1, 2), (2, 2), (2, 7)]:
        rn = tensor_power_rep(pair.rho, n)
        vn = tensor_power_corep(pair.v, n)
        ck = canonical_power(A, k).coeffs
        got = np.einsum("xy,xab,yij->aibj", ck, rn.matrices, vn.matrices)
        dr = pair.rho.dim ** n
        dv = pair.v.dim ** n
        got = got.reshape(dr * dv, dr * dv)
        want = mpo_diamond_power(ts, n, k)
        assert np.abs(got - want).max() < 1e-12


def test_fibonacci_subspace_rank_from_tensor_powers():
    # rank[(rho^(L) (x) v^(L))(c^2)] equals the ring solvable-subspace dimension
    pair = zoo.model("fibonacci")
    A = pair.algebra
    for L, lucas in [(2, 7), (3, 18)]:
        rn = tensor_power_rep(pair.rho, L)
        vn = tensor_power_corep(pair.v, L)
        c2 = canonical_power(A, 2).coeffs
        M = np.einsum("xy,xab,yij->aibj", c2, rn.matrices, vn.matrices)
        dim = 3 ** L
        M = M.reshape(dim * dim, dim * dim)
        assert np.linalg.matrix_rank(M, tol=1e-9) == lucas


def test_restrict_gate_full_space_is_identity(d3_ts):
    pair = zoo.model("dihedral-3")
    out = restrict_gate(pair, np.eye(2))
    assert np.abs(out.gate - d3_ts.gate).max() < 1e-14


def test_restrict_regular_to_dihedral_rep(d3_ts):
    # the 6-dim regular gate restricted to a 2-dim invariant subspace carrying
    # the faithful irrep is unitarily equivalent to the small dihedral gate
    G = zoo.dihedral_group(3)
    pair6 = zoo.group_gate(G, [m for m in _regular_mats(G)], [3, 1])
    rng = np.random.default_rng(5)
    mats = zoo.dihedral_rep(3, 1)
    reg = _regular_mats(G)
    X = rng.normal(size=(6, 2))
    S = sum(reg[g] @ X @ np.asarray(mats[G.inv(g)]) for g in range(6))
    subspace, _ = np.linalg.qr(S)
    out = restrict_gate(pair6, subspace, leg="rho")
    # unitarize the intertwiner by polar decomposition (Schur: W^dag W ~ 1)
    W = subspace.conj().T @ S                  # intertwines rho' W = W rho_ref
    u, s, vh = np.linalg.svd(W)
    Wu = u @ vh
    got = np.einsum("iabj,ak,bl->iklj", out.gate, Wu.conj(), Wu)
    ref = build_tensors(zoo.model("dihedral-3")).gate
    assert np.abs(got - ref).max() < 1e-10


def _regular_mats(G):
    n = G.order
    mats = []
    for x in range(n):
        m = np.zeros((n, n), dtype=complex)
        for g in range(n):
            m[G.mul(x, g), g] = 1.0
        mats.append(m)
    return mats


def test_restrict_gate_rejects_random_subspace():
    pair = zoo.model("dihedral-3")
    pair6 = zoo.group_gate(zoo.dihedral_group(3), _regular_mats(zoo.dihedral_group(3)), [3, 1])
    rng = np.random.default_rng(6)
    V, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    with pytest.raises(AxiomError, match="invariant"):
        restrict_gate(pair6, V, leg="rho")
