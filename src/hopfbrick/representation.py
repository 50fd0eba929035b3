"""Matrix representations and corepresentations of structure-constant algebras.

A Representation stores one matrix per basis element (extended linearly); a
Corepresentation stores a d_v x d_v matrix of coefficient vectors.  Both carry
report-style checks of their defining equations, and the module provides the
regular (co)representations, the dual-side bridges, tensor powers, and
restriction of a gate to an invariant subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraData, AxiomError, TOL_ALG, dual_algebra

TENSOR_POWER_ENTRY_CAP = 10 ** 6   # matrix entries a tensor power may hold


@dataclass
class Representation:
    """rho: one d_rho x d_rho matrix per basis element of the algebra."""

    algebra: AlgebraData
    matrices: np.ndarray        # shape (d_A, d_rho, d_rho)
    star: bool = False          # claim rho(x*) = rho(x)^dagger

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=complex)
        if self.matrices.shape[0] != self.algebra.dim:
            raise ValueError("need one matrix per basis element")

    @property
    def dim(self):
        return self.matrices.shape[1]

    def apply(self, coeffs) -> np.ndarray:
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.matrices, axes=(0, 0))


@dataclass
class Corepresentation:
    """v: d_v x d_v matrix of algebra elements, stored as coefficient vectors."""

    algebra: AlgebraData
    entries: np.ndarray         # shape (d_v, d_v, d_A)
    unitary: bool = False       # claim S(v_ij) = (v_ji)*

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape[2] != self.algebra.dim:
            raise ValueError("corepresentation entries must be coefficient vectors")

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass
class RepPair:
    """The (algebra, representation, corepresentation) seed of one model."""

    algebra: AlgebraData
    rho: Representation
    v: Corepresentation
    name: str = ""

    def __post_init__(self):
        if not self.name:
            self.name = self.algebra.name

    @cached_property
    def projectors(self):
        """The model's ProjectorPair, built on first use; None unless the
        model is weak.  The pair is its only input, so it owns the result."""
        from .tensors import build_projectors, is_weak_algebra

        return build_projectors(self) if is_weak_algebra(self.algebra) else None


def check_representation(rho: Representation, tol=TOL_ALG) -> dict:
    """Max residuals of rho(1) = id, rho(x)rho(y) = rho(xy), and the star law."""
    A = rho.algebra
    Om, m = A.mult, rho.matrices
    report = {"unit": float(np.abs(rho.apply(A.unit) - np.eye(rho.dim)).max())}
    # [y]: rho(e_x) rho(e_y) against rho(e_x e_y), one x at a time
    report["homomorphism"] = max(float(np.abs(m[x] @ m - np.tensordot(Om[x], m, 1)).max())
                                 for x in range(A.dim))
    if rho.star:
        if A.star is None:
            raise AxiomError("star", np.inf, "star undeclared on the algebra")
        # [x]: rho(e_x*) against rho(e_x)^dagger
        report["star"] = float(np.abs(np.tensordot(A.star, m, (0, 0))
                                      - m.conj().transpose(0, 2, 1)).max())
    report["pass"] = all(v <= tol for k, v in report.items() if k != "pass")
    return report


def check_corepresentation(v: Corepresentation, tol=TOL_ALG) -> dict:
    """Max residuals of Delta(v_ij) = sum_k v_ik (x) v_kj, eps(v_ij) = delta_ij."""
    A = v.algebra
    Lam, e = A.comult, v.entries
    # [j, a, b]: Delta(v_ij) against sum_k v_ik (x) v_kj, one row i at a time
    coaction = max(float(np.abs(np.tensordot(e[i], Lam, 1)
                                - np.einsum("ka,kjb->jab", e[i], e)).max())
                   for i in range(v.dim))
    report = {"coaction": coaction,
              "counit": float(np.abs(e @ A.counit - np.eye(v.dim)).max())}
    if v.unitary:
        if A.antipode is None or A.star is None:
            raise AxiomError("antipode", np.inf, "unitary corep needs antipode and star")
        # [i, j]: S(v_ij) against (v_ji)*
        report["unitary"] = float(np.abs(e @ A.antipode.T
                                         - e.transpose(1, 0, 2).conj() @ A.star.T).max())
    report["pass"] = all(val <= tol for k, val in report.items() if k != "pass")
    return report


def regular_representation(A: AlgebraData) -> Representation:
    """[rho(x)]_{zy} = Omega[x,y,z] (left multiplication in the basis)."""
    return Representation(A, A.mult.transpose(0, 2, 1).copy())


def regular_corepresentation(A: AlgebraData) -> Corepresentation:
    """v_{xz} = sum_y Lambda[z,x,y] e_y."""
    return Corepresentation(A, A.comult.transpose(1, 0, 2).copy())


def rep_to_dual_corep(rho: Representation) -> Corepresentation:
    """rho_ab reindexed as elements of the dual algebra: a corepresentation of A*."""
    dual = dual_algebra(rho.algebra)
    entries = np.transpose(rho.matrices, (1, 2, 0)).copy()
    return Corepresentation(dual, entries, unitary=rho.star and dual.antipode is not None)


def corep_to_dual_rep(v: Corepresentation) -> Representation:
    """v as a representation of A*: [v(delta_x)]_ij = coefficient x of v_ij."""
    dual = dual_algebra(v.algebra)
    mats = np.transpose(v.entries, (2, 0, 1)).copy()
    return Representation(dual, mats, star=v.unitary and dual.star is not None)


def _kron_sum(T, first, second) -> np.ndarray:
    """out[x] = sum_pq T[x,p,q] kron(first[p], second[q])."""
    out = np.einsum("xpq,pab,qcd->xacbd", T, first, second, optimize=True)
    n = first.shape[1] * second.shape[1]
    return out.reshape(T.shape[0], n, n)


def tensor_power_rep(rho: Representation, n: int) -> Representation:
    """rho^(n)(x) = (rho (x) ... (x) rho) Delta^(n-1)(x), first Sweedler leg first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    A = rho.algebra
    if (rho.dim ** n) ** 2 > TENSOR_POWER_ENTRY_CAP:
        raise MemoryError(f"tensor power dim {rho.dim ** n} exceeds entry cap")
    if n == 1:
        return Representation(A, rho.matrices.copy(), star=rho.star)
    lower = tensor_power_rep(rho, n - 1).matrices
    return Representation(A, _kron_sum(A.comult, rho.matrices, lower), star=rho.star)


def tensor_power_corep(v: Corepresentation, n: int) -> Representation:
    """The n-fold power of v as a representation of A*.

    Returns matrices W[x] with W[x][(i1..in),(j1..jn)] = delta_x(v_{i_n j_n} ... v_{i_1 j_1}),
    slot 1 slowest in the kron index; the algebra product runs in reverse slot order,
    matching the column order of the v-block in the diamond-shaped network.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    A = v.algebra
    if (v.dim ** n) ** 2 > TENSOR_POWER_ENTRY_CAP:
        raise MemoryError(f"tensor power dim {v.dim ** n} exceeds entry cap")
    base = np.transpose(v.entries, (2, 0, 1))          # [x][i,j] = coeff x of v_ij
    if n == 1:
        return Representation(dual_algebra(A), base.copy())
    lower = tensor_power_corep(v, n - 1).matrices
    # delta_x(B * v_{i1 j1}) = sum Omega[z,w,x] B-part(delta_z) v-part(delta_w)
    return Representation(dual_algebra(A), _kron_sum(A.mult.transpose(2, 1, 0), base, lower))


@dataclass
class RestrictedGate:
    """A gate restricted to an invariant subspace."""

    gate: np.ndarray            # restricted 4-leg tensor [i, a', b', j] (rho-side case)
    isometry: np.ndarray        # columns: orthonormal basis of the subspace
    leg: str                    # "rho" or "v"
    residual: float             # invariance violation of the original gate


def restrict_gate(pair: RepPair, subspace, leg="rho", tol=TOL_ALG) -> RestrictedGate:
    """Restrict the pair's gate to an invariant subspace of H_rho (or H_v).

    `subspace` is a (dim x k) matrix with orthonormal columns.  Invariance of
    the span under every U_ij (rho side) resp. U_ab (v side) is verified first.
    """
    from .tensors import gate_tensor

    U = gate_tensor(pair)                      # [i, a, b, j]
    V = np.asarray(subspace, dtype=complex)
    if V.ndim != 2:
        raise ValueError("subspace must be a matrix with orthonormal columns")
    if np.abs(V.conj().T @ V - np.eye(V.shape[1])).max() > 1e-12:
        raise ValueError("subspace columns are not orthonormal")
    if leg == "rho":
        blocks = np.transpose(U, (0, 3, 1, 2))     # [i, j][a, b]
    elif leg == "v":
        blocks = np.transpose(U, (1, 2, 0, 3))     # [a, b][i, j]
    else:
        raise ValueError("leg must be 'rho' or 'v'")
    proj = V @ V.conj().T
    comp = np.eye(proj.shape[0]) - proj
    residual = 0.0
    for bi in range(blocks.shape[0]):
        for bj in range(blocks.shape[1]):
            residual = max(residual, float(np.abs(comp @ blocks[bi, bj] @ proj).max()))
    if residual > tol:
        raise AxiomError("invariant-subspace", residual,
                         f"subspace is not invariant (residual {residual:.3e})")
    restricted = np.einsum("ijab,ak,bl->ijkl", blocks, V.conj(), V)
    if leg == "rho":
        gate = np.transpose(restricted, (0, 2, 3, 1))   # back to [i, a', b', j]
    else:
        gate = np.transpose(restricted, (2, 0, 1, 3))   # [i', a, b, j']
    return RestrictedGate(gate=gate, isometry=V, leg=leg, residual=residual)
