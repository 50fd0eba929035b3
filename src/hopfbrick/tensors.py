"""The solvable gate and its companion tensors, with every identity they obey.

Leg conventions, fixed once for the whole package:

* gate[i, a, b, j] = rho_ab(v_ij); as a matrix, row (i*d_rho + a), column
  (b*d_v + j), i.e. <i,a|U|b,j> with input pair (rho-site, v-site) and output
  pair (v-site, rho-site).
* rho_tensor[a, b, x, y]  = (delta_y (x) rho_ab) Delta(e_x): right leg x is the
  argument slot, left leg y the output slot; rows of tensors compose
  right-to-left (each argument is fed by the right neighbour's output).
* v_tensor[i, j, x, y]    = coefficient of e_y in e_x * v_ij.
* rho_primed[a, b, x, y]  = (rho_ab (x) delta_y) Delta(e_x): for the primed
  tensors the LEFT leg is the argument and rows compose left-to-right.
* v_primed[i, j, x, y]    = coefficient of e_y in v_ij * e_x.
* conj_rho[a, b, x, y]    = conj(rho_tensor[b, a, x, y]) and likewise conj_v:
  quantum legs swapped, entries conjugated, parameter legs unchanged.
* unit_vec[x] = coefficient of e_x in 1;  counit_vec[x] = eps(e_x).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algebra import AxiomError, TOL_ALG, _ce_product, _counit_products, tier_chain
from .representation import RepPair, check_corepresentation, check_representation

SINGULAR_ZERO = 1e-8   # singular values below this are exact zeros of a weak gate


def is_weak_algebra(A) -> bool:
    """The weak-model rule: a weak model (tier chain with weak-bialgebra, not
    bialgebra) carries projectors and is exempt from the bialgebra-* identities."""
    chain = tier_chain(A.tier)
    return "weak-bialgebra" in chain and "bialgebra" not in chain


def gate_tensor(pair: RepPair) -> np.ndarray:
    """gate[i,a,b,j] = rho_ab(v_ij)."""
    return np.einsum("ijx,xab->iabj", pair.v.entries, pair.rho.matrices)


@dataclass
class SolvableTensorSet:
    """All tensors of one solvable model plus their verification residuals."""

    pair: RepPair
    gate: np.ndarray
    rho_tensor: np.ndarray
    v_tensor: np.ndarray
    rho_primed: np.ndarray
    v_primed: np.ndarray
    unit_vec: np.ndarray
    counit_vec: np.ndarray
    residuals: dict = field(default_factory=dict)
    # built by the engine on first use and kept for this set only, so not
    # copied by `dataclasses.replace`: the projector MPO (`mpo.projector_mpo`)
    # and the trace-channel rows, maps and environment (`mpo._trace_cache`)
    _projector_mpo: dict | None = field(default=None, init=False, repr=False, compare=False)
    _trace_cache: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def algebra(self):
        return self.pair.algebra

    @property
    def d_rho(self):
        return self.gate.shape[1]

    @property
    def d_v(self):
        return self.gate.shape[0]

    @property
    def conj_rho(self):
        return np.conj(self.rho_tensor.transpose(1, 0, 2, 3))

    @property
    def conj_v(self):
        return np.conj(self.v_tensor.transpose(1, 0, 2, 3))

    @property
    def gate_matrix(self):
        dv, dr = self.d_v, self.d_rho
        return self.gate.reshape(dv * dr, dr * dv)

    def is_weak(self):
        return is_weak_algebra(self.algebra)

    @property
    def projectors(self) -> ProjectorPair | None:
        """The model's ProjectorPair, cached on its RepPair; None unless weak."""
        return self.pair.projectors


def build_tensors(pair: RepPair, tol=TOL_ALG) -> SolvableTensorSet:
    """Construct the gate / rho / v / primed tensors and verify the identities:
    every residual within `tol`, the bialgebra-* ones unless the model is weak."""
    A = pair.algebra
    Om, Lam = A.mult, A.comult
    mats, entries = pair.rho.matrices, pair.v.entries
    R = np.einsum("xpq,qab->abxp", Lam, mats, order="C")
    Rp = np.einsum("xpq,pab->abxq", Lam, mats, order="C")
    V = np.einsum("xzy,ijz->ijxy", Om, entries, order="C")
    Vp = np.einsum("xzy,ijx->ijzy", Om, entries, order="C")

    ts = SolvableTensorSet(
        pair=pair,
        gate=gate_tensor(pair),
        rho_tensor=R,
        v_tensor=V,
        rho_primed=Rp,
        v_primed=Vp,
        unit_vec=A.unit.copy(),
        counit_vec=A.counit.copy(),
    )
    rep_rpt = check_representation(pair.rho, tol)
    corep_rpt = check_corepresentation(pair.v, tol)
    ts.residuals["representation"] = max(v for k, v in rep_rpt.items() if k != "pass")
    ts.residuals["corepresentation"] = max(v for k, v in corep_rpt.items() if k != "pass")
    ts.residuals.update(verify_pentagon(ts))
    weak = ts.is_weak()
    bad = [k for k, v in ts.residuals.items()
           if not v <= tol and not (weak and k.startswith("bialgebra"))]
    if bad:
        k = bad[0]
        raise AxiomError(k, ts.residuals[k], f"solvable-tensor identity '{k}' fails: "
                                             f"{ts.residuals[k]:.3e}")
    return ts


def verify_pentagon(ts: SolvableTensorSet) -> dict:
    """Per-identity max residuals of the exchange/boundary tensor identities.

    Keys: 'exchange' (the rho-v swap emitting a gate), 'absorb-*' (the four
    triangle-boundary forms valid for any prebialgebra), 'exchange-primed',
    and the stronger 'bialgebra-*' absorption identities (not required of a
    weak model).
    """
    R, V = ts.rho_tensor, ts.v_tensor
    Rp, Vp = ts.rho_primed, ts.v_primed
    U = ts.gate
    mats, entries = ts.pair.rho.matrices, ts.pair.v.entries
    u, eps = ts.unit_vec, ts.counit_vec
    out = {}

    # the three-operand right-hand sides contract pairwise, the algebra leg
    # first: a single einsum over all nine indices is ~5x slower
    lhs = np.einsum("abwy,ijxw->abijxy", R, V)
    VR = np.tensordot(V, R, axes=([2], [3]))                     # [i, k, y, a, c, x]
    rhs = np.tensordot(VR, U, axes=([1, 4], [0, 1])).transpose(2, 4, 0, 5, 3, 1)
    out["exchange"] = float(np.abs(lhs - rhs).max())

    # rho-tensor against the bare-corepresentation triangle
    lhs2 = np.einsum("abwy,ijw->abijy", R, entries)
    rhs2 = np.einsum("iky,kabj->abijy", entries, U)
    out["absorb-v-triangle"] = float(np.abs(lhs2 - rhs2).max())

    # bare-representation triangle against the v-tensor
    lhs3 = np.einsum("wab,ijxw->abijx", mats, V)
    rhs3 = np.einsum("xac,icbj->abijx", mats, U)
    out["absorb-rho-triangle"] = float(np.abs(lhs3 - rhs3).max())

    # both triangles: reproduces the gate
    lhs4 = np.einsum("wab,ijw->iabj", mats, entries)
    out["absorb-both"] = float(np.abs(lhs4 - U).max())

    # primed exchange
    lhsp = np.einsum("ijxw,abwy->abijxy", Vp, Rp)
    RV = np.tensordot(Rp, Vp, axes=([3], [2]))                   # [c, b, x, k, j, y]
    rhsp = np.tensordot(U, RV, axes=([2, 3], [0, 3])).transpose(1, 2, 0, 4, 3, 5)
    out["exchange-primed"] = float(np.abs(lhsp - rhsp).max())

    # boundary absorptions (hold exactly at bialgebra tier and above)
    dv, dr = ts.d_v, ts.d_rho
    eye_v = np.eye(dv)
    eye_r = np.eye(dr)
    res = np.einsum("y,ijxy->ijx", eps, V) - np.einsum("ij,x->ijx", eye_v, eps)
    out["bialgebra-counit-into-v"] = float(np.abs(res).max())
    res = np.einsum("x,abxy->aby", u, R) - np.einsum("ab,y->aby", eye_r, u)
    out["bialgebra-unit-into-rho"] = float(np.abs(res).max())
    out["bialgebra-eps-of-unit"] = abs(complex(eps @ u) - 1.0)
    res = np.einsum("x,abxy->aby", u, Rp) - np.einsum("ab,y->aby", eye_r, u)
    out["bialgebra-unit-into-rho-primed"] = float(np.abs(res).max())
    res = np.einsum("y,ijxy->ijx", eps, Vp) - np.einsum("ij,x->ijx", eye_v, eps)
    out["bialgebra-counit-into-v-primed"] = float(np.abs(res).max())
    return out


def check_unitarity(ts: SolvableTensorSet, tol=TOL_ALG) -> dict:
    """Vertical and horizontal unitarity flags/residuals; isometry structure."""
    dv, dr = ts.d_v, ts.d_rho
    M = ts.gate_matrix
    eye_in = np.eye(dr * dv)
    eye_out = np.eye(dv * dr)
    res_v = max(float(np.abs(M.conj().T @ M - eye_in).max()),
                float(np.abs(M @ M.conj().T - eye_out).max()))
    report = {"unitary_residual": res_v, "unitary": res_v <= tol}
    if dr == dv:
        H = ts.gate.transpose(0, 2, 1, 3).reshape(dv * dr, dr * dv)   # rows (i,b), cols (a,j)
        res_h = max(float(np.abs(H.conj().T @ H - np.eye(dr * dv)).max()),
                    float(np.abs(H @ H.conj().T - np.eye(dv * dr)).max()))
        report["dual_unitary_residual"] = res_h
        report["dual_unitary"] = res_h <= tol
    if not report["unitary"]:
        W, s, Vh = np.linalg.svd(M)
        s_snap = np.where(s < SINGULAR_ZERO, 0.0, s)
        rank = int(np.count_nonzero(s_snap))
        unitary_part = W @ Vh
        P = W[:, :rank] @ W[:, :rank].conj().T
        Q = Vh[:rank].conj().T @ Vh[:rank]
        report.update({
            "isometry": bool(np.abs(s_snap[s_snap > 0] - 1.0).max() <= tol) if rank else False,
            "rank": rank,
            "unitary_part": unitary_part,
            "left_projector": P,
            "right_projector": Q,
            "isometry_residual": float(np.abs(M - P @ unitary_part).max()),
        })
    return report


@dataclass
class ProjectorPair:
    """The local projectors of a weak model."""

    P: np.ndarray               # on (v-site, rho-site) pairs
    Q: np.ndarray               # on (rho-site, v-site) pairs
    residuals: dict = field(default_factory=dict)


def _dual_star_matrix(A) -> np.ndarray:
    """Matrix of the dual star in the dual basis: (conj(star) @ S)^T."""
    if A.star is None or A.antipode is None:
        raise AxiomError("star", np.inf, "dual star needs star and antipode")
    return (np.conj(A.star) @ A.antipode).T


def build_projectors(pair: RepPair, tol=TOL_ALG) -> ProjectorPair:
    """P = (v (x) rho)(p), Q = (rho (x) v)(q) from p = swap(c c*), q = c* c."""
    A = pair.algebra
    chain = tier_chain(A.tier)
    if "weak-hopf" not in chain and "hopf" not in chain:
        raise AxiomError("tier", np.inf, "projectors need (weak) Hopf tier with star")
    if A.star is None:
        raise AxiomError("star", np.inf, "projectors need a star structure")
    c = np.eye(A.dim, dtype=complex)           # canonical element coefficients
    star_dual = _dual_star_matrix(A)
    # c* = sum_x x* (x) (delta_x)*
    c_star = np.einsum("yx,wx->yw", A.star, star_dual)
    q = _ce_product(A, c_star, c)
    cc = _ce_product(A, c, c_star)
    p = cc.T                                   # swap A (x) A* -> A* (x) A
    mats, entries = pair.rho.matrices, pair.v.entries
    vmats = np.transpose(entries, (2, 0, 1))   # [x][i,j] = v(delta_x)
    dv, dr = pair.v.dim, pair.rho.dim
    P = np.einsum("xy,xij,yab->iajb", p, vmats, mats).reshape(dv * dr, dv * dr)
    Q = np.einsum("xy,xab,yij->aibj", q, mats, vmats).reshape(dr * dv, dr * dv)

    residuals = {}
    # direct Sweedler-form cross-check: [P]^{ia}_{jb} = eps(1_(1) v_ij) rho_ab(1_(2))
    d1 = A.unit_comult_matrix()
    eps_pair = _counit_products(A)               # eps(e_i e_j)
    P_direct = np.einsum("pq,ps,ijs,qab->iajb", d1, eps_pair, entries, mats).reshape(dv * dr, dv * dr)
    Q_direct = np.einsum("pq,ijs,sq,pab->aibj", d1, entries, eps_pair, mats).reshape(dr * dv, dr * dv)
    residuals["P-direct-form"] = float(np.abs(P - P_direct).max())
    residuals["Q-direct-form"] = float(np.abs(Q - Q_direct).max())
    residuals["P-hermitian-idempotent"] = float(max(np.abs(P @ P - P).max(),
                                                    np.abs(P - P.conj().T).max()))
    residuals["Q-hermitian-idempotent"] = float(max(np.abs(Q @ Q - Q).max(),
                                                    np.abs(Q - Q.conj().T).max()))
    ts_gate = gate_tensor(pair).reshape(dv * dr, dr * dv)
    residuals["gate-WWdag-P"] = float(np.abs(ts_gate @ ts_gate.conj().T - P).max())
    residuals["gate-WdagW-Q"] = float(np.abs(ts_gate.conj().T @ ts_gate - Q).max())
    W, s, Vh = np.linalg.svd(ts_gate)
    unitary_part = W @ Vh
    residuals["polar-PU-UQ"] = float(max(np.abs(P @ unitary_part - ts_gate).max(),
                                         np.abs(unitary_part @ Q - ts_gate).max()))
    # commutation on three sites, both orders
    if dr == dv:
        dloc = dv
        A3 = np.kron(P, np.eye(dloc)) @ np.kron(np.eye(dloc), Q)
        B3 = np.kron(np.eye(dloc), Q) @ np.kron(P, np.eye(dloc))
        residuals["PQ-commute-vrv"] = float(np.abs(A3 - B3).max())
        A3 = np.kron(Q, np.eye(dloc)) @ np.kron(np.eye(dloc), P)
        B3 = np.kron(np.eye(dloc), P) @ np.kron(Q, np.eye(dloc))
        residuals["QP-commute-rvr"] = float(np.abs(A3 - B3).max())
        # local invariance on four sites: Q_23 (W (x) W)(1 (x) P_23 (x) 1) = (W (x) W)(1 (x) P_23 (x) 1)
        WW = np.kron(ts_gate, ts_gate)
        mid_P = np.kron(np.eye(dloc), np.kron(P, np.eye(dloc)))
        top_Q = np.kron(np.eye(dloc), np.kron(Q, np.eye(dloc)))
        lhs = top_Q @ WW @ mid_P
        rhs = WW @ mid_P
        residuals["four-site-invariance"] = float(np.abs(lhs - rhs).max())
    for key in ("P-hermitian-idempotent", "Q-hermitian-idempotent"):
        if residuals[key] > tol:
            raise AxiomError(key, residuals[key])
    return ProjectorPair(P=P, Q=Q, residuals=residuals)


# -- export ---------------------------------------------------------------------


def export_tensors(ts: SolvableTensorSet, path, fmt="json"):
    """Write the tensor set as a JSON blob (shape header + row-major [re, im])
    or as a .npz archive."""
    arrays = {
        "gate": ts.gate, "rho_tensor": ts.rho_tensor, "v_tensor": ts.v_tensor,
        "rho_primed": ts.rho_primed, "v_primed": ts.v_primed,
        "unit_vec": ts.unit_vec, "counit_vec": ts.counit_vec,
    }
    path = Path(path)
    if fmt == "npz":
        np.savez(path, **arrays)
        return path
    blob = {}
    for name, arr in arrays.items():
        flat = arr.reshape(-1)
        blob[name] = {"shape": list(arr.shape),
                      "data": [[float(v.real), float(v.imag)] for v in flat]}
    path.write_text(json.dumps(blob))
    return path


def import_tensors(path):
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as data:
            return {k: data[k] for k in data.files}
    blob = json.loads(path.read_text())
    out = {}
    for name, spec in blob.items():
        flat = np.array([complex(re, im) for re, im in spec["data"]], dtype=complex)
        out[name] = flat.reshape(spec["shape"])
    return out
