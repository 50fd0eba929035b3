import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from hopfbrick import (build_projectors, build_tensors, check_unitarity,
                       export_tensors, gate_tensor, import_tensors,
                       verify_pentagon, zoo)
from hopfbrick.algebra import AxiomError, canonical_power
from hopfbrick.representation import Corepresentation, RepPair

ZOO_NAMES = sorted(zoo.MODELS)
HOPF_NAMES = [n for n in ZOO_NAMES if n != "fibonacci"]


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_pentagon_all_models(name):
    ts = build_tensors(zoo.model(name))
    rpt = verify_pentagon(ts)
    for key, val in rpt.items():
        if key.startswith("bialgebra") and ts.is_weak():
            continue
        assert val < 1e-12, (key, val)


def _naive_exchange(ts):
    """The two exchange residuals with each right-hand side one naive
    three-operand einsum: the reference for `verify_pentagon`'s pairwise
    contractions."""
    R, V, Rp, Vp, U = ts.rho_tensor, ts.v_tensor, ts.rho_primed, ts.v_primed, ts.gate
    rhs = np.einsum("ikwy,acxw,kcbj->abijxy", V, R, U)
    rhsp = np.einsum("iack,cbxw,kjwy->abijxy", U, Rp, Vp)
    return {"exchange": float(np.abs(np.einsum("abwy,ijxw->abijxy", R, V) - rhs).max()),
            "exchange-primed": float(np.abs(np.einsum("ijxw,abwy->abijxy", Vp, Rp)
                                            - rhsp).max())}


def _perturbed_tensors(ts, seed):
    """`ts` with seeded noise on the gate and the four rho / v tensors."""
    rng = np.random.default_rng(seed)

    def noisy(a):
        return a + 0.1 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))

    return dataclasses.replace(ts, gate=noisy(ts.gate), rho_tensor=noisy(ts.rho_tensor),
                               v_tensor=noisy(ts.v_tensor), rho_primed=noisy(ts.rho_primed),
                               v_primed=noisy(ts.v_primed))


@pytest.mark.parametrize("seed,name", list(enumerate(ZOO_NAMES)))
def test_exchange_residuals_match_naive_einsum(seed, name):
    ts = build_tensors(zoo.model(name))
    perturbed = _perturbed_tensors(ts, seed)
    for case in (ts, perturbed):
        new, old = verify_pentagon(case), _naive_exchange(case)
        for key, val in old.items():
            assert abs(new[key] - val) <= 1e-12 * max(1.0, val), (key, new[key], val)
            if case is perturbed:
                assert val > 1e-3, (key, val)      # the noise reaches both identities


def test_pentagon_explicit_twisted_perm_table():
    # the published nonzero-element tables satisfy the exchange identity directly
    G = zoo.cyclic_group(2)
    mats = [np.array([[1.0]]), np.array([[-1.0]])]
    gate, R, V, u, eps = zoo.twisted_perm_tensor_table(G, mats, gs=[0, 1])
    _check_exchange(gate, R, V, u, eps)


def test_pentagon_explicit_xyx_table_z3():
    gate, R, V, u, eps = zoo.xyx_tensor_table(zoo.cyclic_group(3))
    _check_exchange(gate, R, V, u, eps)


def _check_exchange(gate, R, V, u, eps):
    # table tensors carry (quantum, quantum, x_arg, y_out) in the package order
    lhs = np.einsum("abwy,ijxw->abijxy", R, V)
    rhs = np.einsum("ikwy,acxw,kcbj->abijxy", V, R, gate)
    assert np.abs(lhs - rhs).max() < 1e-12
    res = np.einsum("y,ijxy->ijx", eps, V) - np.einsum("ij,x->ijx",
                                                       np.eye(V.shape[0]), eps)
    assert np.abs(res).max() < 1e-12
    res = np.einsum("x,abxy->aby", u, R) - np.einsum("ab,y->aby",
                                                     np.eye(R.shape[0]), u)
    assert np.abs(res).max() < 1e-12
    assert abs(eps @ u - 1) < 1e-12


def test_explicit_tables_match_constructed():
    G = zoo.cyclic_group(2)
    mats = [np.array([[1.0]]), np.array([[-1.0]])]
    ts = build_tensors(zoo.twisted_perm_pair(G, mats, [0, 1]))
    gate, R, V, u, eps = zoo.twisted_perm_tensor_table(G, mats, [0, 1])
    assert np.abs(ts.gate - gate).max() < 1e-14
    assert np.abs(ts.rho_tensor - R).max() < 1e-14
    assert np.abs(ts.v_tensor - V).max() < 1e-14
    ts3 = build_tensors(zoo.xyx_pair(zoo.cyclic_group(3)))
    gate3, R3, V3, u3, eps3 = zoo.xyx_tensor_table(zoo.cyclic_group(3))
    assert np.abs(ts3.gate - gate3).max() < 1e-14
    assert np.abs(ts3.rho_tensor - R3).max() < 1e-14
    assert np.abs(ts3.v_tensor - V3).max() < 1e-14


def test_pentagon_localizes_injected_defect():
    pair = zoo.model("dihedral-3")
    ts = build_tensors(pair)
    ts.v_tensor = ts.v_tensor.copy()
    idx = np.argwhere(np.abs(ts.v_tensor) > 0.5)[0]
    ts.v_tensor[tuple(idx)] = 0.0
    rpt = verify_pentagon(ts)
    flagged = {k for k, v in rpt.items() if v > 1e-3}
    assert flagged, rpt
    assert max(rpt.values()) > 0.5


def test_gate_from_canonical_element():
    for name in ZOO_NAMES:
        pair = zoo.model(name)
        c = canonical_power(pair.algebra, 1).coeffs
        vmats = np.transpose(pair.v.entries, (2, 0, 1))
        got = np.einsum("xy,xab,yij->iabj", c, pair.rho.matrices, vmats)
        assert np.abs(got - gate_tensor(pair)).max() < 1e-12


@pytest.mark.parametrize("name", HOPF_NAMES)
def test_hopf_gates_unitary_and_dual_unitary(name):
    ts = build_tensors(zoo.model(name))
    rpt = check_unitarity(ts)
    assert rpt["unitary"] and rpt["unitary_residual"] < 1e-12
    if ts.d_rho == ts.d_v:
        assert rpt["dual_unitary"] and rpt["dual_unitary_residual"] < 1e-12


def test_swap_gate_exact():
    ts = build_tensors(zoo.model("swap"))
    d = ts.d_rho
    X = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            X[b * d + a, a * d + b] = 1.0
    assert np.abs(ts.gate_matrix - X).max() == 0.0


def test_fibonacci_isometry_structure(fib_ts):
    rpt = check_unitarity(fib_ts)
    assert not rpt["unitary"]
    assert rpt["dual_unitary_residual"] > 0.1
    assert rpt["rank"] == 5
    assert rpt["isometry"]
    assert rpt["isometry_residual"] < 1e-12
    # image of the left projector = the five listed coordinate kets |i,a>
    P = rpt["left_projector"]
    want = {(2, 1), (3, 3), (1, 2), (1, 3), (3, 2)}
    diag = np.diag(P).real.reshape(3, 3)
    got = {(i + 1, a + 1) for i in range(3) for a in range(3) if diag[i, a] > 0.5}
    assert got == want
    assert np.abs(P - np.diag(np.diag(P))).max() < 1e-12


def test_projectors_fibonacci(fib_ts):
    pp = build_projectors(fib_ts.pair)
    assert np.abs(pp.P - pp.Q).max() < 1e-14            # P happens to equal Q
    assert int(round(np.trace(pp.P).real)) == 5
    for key, val in pp.residuals.items():
        assert val < 1e-12, (key, val)


def test_projectors_hopf_trivial():
    pp = build_projectors(zoo.model("dihedral-3"))
    assert np.abs(pp.P - np.eye(4)).max() < 1e-13
    assert np.abs(pp.Q - np.eye(4)).max() < 1e-13


def test_projectors_built_once_per_tensor_set(monkeypatch):
    # a weak model carries its ProjectorPair: the engine's projector MPO, the
    # state check's rule and the dense oracle read it instead of rebuilding it
    from hopfbrick import mpo, oracle, tensors
    calls = []

    def counted(pair, *args, **kw):
        calls.append(pair)
        return build_projectors(pair, *args, **kw)

    monkeypatch.setattr(tensors, "build_projectors", counted)
    ts = build_tensors(zoo.model("fibonacci"))
    assert ts.is_weak() and ts.projectors is ts.projectors
    for _ in range(3):
        mpo.projector_mpo(ts)
    circ = oracle.DenseCircuit.from_tensor_set(ts, L=2)
    assert np.abs(circ.projector - ts.projectors.P).max() == 0
    assert len(calls) == 1
    hopf = build_tensors(zoo.model("dihedral-3"))
    assert not hopf.is_weak() and hopf.projectors is None
    assert oracle.DenseCircuit.from_tensor_set(hopf, L=2).projector is None
    assert mpo.projector_mpo(hopf)["v"].shape == (1, 1, 2, 2)
    assert len(calls) == 1


def test_weak_rule_has_one_owner():
    # the weak-model rule reads the tier chain in tensors.py only (and the
    # axiom checks in algebra.py); every other module asks the tensor set
    code = ("import ast, pathlib, hopfbrick\n"
            "callers = set()\n"
            "for path in pathlib.Path(hopfbrick.__file__).parent.glob('*.py'):\n"
            "    for node in ast.walk(ast.parse(path.read_text())):\n"
            "        fn = getattr(node, 'func', None)\n"
            "        if getattr(fn, 'id', getattr(fn, 'attr', None)) == 'tier_chain':\n"
            "            callers.add(path.name)\n"
            "print(sorted(callers - {'algebra.py', 'tensors.py'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_projectors_need_star_tier():
    pair = zoo.model("dihedral-3")
    from hopfbrick.algebra import AlgebraData
    A = pair.algebra
    stripped = AlgebraData(dim=A.dim, basis_labels=A.basis_labels, mult=A.mult,
                           comult=A.comult, unit=A.unit, counit=A.counit,
                           antipode=A.antipode, tier="hopf")
    with pytest.raises(AxiomError):
        build_projectors(RepPair(stripped, pair.rho,
                                 Corepresentation(stripped, pair.v.entries)))


def test_cocycle_twisted_gate_satisfies_identities():
    # Z2 x Z2 with its nontrivial 2-cocycle through the central extension
    G0 = zoo.direct_product_group(zoo.cyclic_group(2), zoo.cyclic_group(2))
    w = np.ones((4, 4), dtype=complex)
    for x in range(4):
        for y in range(4):
            w[x, y] = (-1.0) ** ((x % 2) * (y // 2))
    G = zoo.GroupTable(G0.table, name="Z2xZ2", cocycle=w)
    pair = zoo.cocycle_gate(G, phase_order=2)
    ts = build_tensors(pair)                     # raises on identity failure
    rpt = check_unitarity(ts)
    assert rpt["unitary"]
    # gate action: U|g,h> = w(h,g) |h, hg>
    U = ts.gate
    for g in range(4):
        for h in range(4):
            col = U[:, :, g, h]
            assert abs(col[h, G.mul(h, g)] - w[h, g]) < 1e-13


def test_conj_tensors_derived(fib_ts):
    assert np.abs(fib_ts.conj_rho - np.conj(fib_ts.rho_tensor.transpose(1, 0, 2, 3))).max() == 0
    assert np.abs(fib_ts.conj_v - np.conj(fib_ts.v_tensor.transpose(1, 0, 2, 3))).max() == 0


def test_export_import_roundtrip(tmp_path, fib_ts):
    for fmt, suffix in (("json", ".json"), ("npz", ".npz")):
        path = tmp_path / f"tensors{suffix}"
        export_tensors(fib_ts, path, fmt=fmt)
        blobs = import_tensors(path)
        assert np.abs(blobs["gate"] - fib_ts.gate).max() < 1e-15
        assert np.abs(blobs["rho_primed"] - fib_ts.rho_primed).max() < 1e-15
