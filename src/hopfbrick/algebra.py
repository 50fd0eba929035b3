"""Finite-dimensional (pre/weak) bialgebra data via structure constants.

An algebra is stored by its multiplication constants Omega[x,y,z] (coefficient
of basis element z in x*y) and comultiplication constants Lambda[z,x,y]
(coefficient of x (x) y in Delta(z)), together with unit / counit coefficient
vectors and optional antipode / star matrices.  Everything downstream (gates,
transfer matrices, projectors) is built from these arrays.

Axioms are organized in tiers ("algebra" up to "cstar-weak-hopf"); every tier
check returns named max-norm residuals so that a failing identity can be
pinpointed.  Structure constants are kept sparse (COO triples) and densified
per slice, since the shipped models are all very sparse but some have dim > 100.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL_ALG = 1e-10

#: axiom tiers and their prerequisite chains, weakest first
TIERS = (
    "algebra",
    "coalgebra",
    "prebialgebra",
    "weak-bialgebra",
    "bialgebra",
    "hopf",
    "weak-hopf",
    "star-hopf",
    "star-weak-hopf",
    "cstar-hopf",
    "cstar-weak-hopf",
)

_TIER_PARENT = {
    "algebra": (),
    "coalgebra": (),
    "prebialgebra": ("algebra", "coalgebra"),
    "weak-bialgebra": ("prebialgebra",),
    "bialgebra": ("prebialgebra",),
    "hopf": ("bialgebra",),
    "weak-hopf": ("weak-bialgebra",),
    "star-hopf": ("hopf",),
    "star-weak-hopf": ("weak-hopf",),
    "cstar-hopf": ("star-hopf",),
    "cstar-weak-hopf": ("star-weak-hopf",),
}

_TIER_ALIASES = {
    "c*-hopf": "cstar-hopf",
    "c*-weak-hopf": "cstar-weak-hopf",
    "*-hopf": "star-hopf",
    "*-weak-hopf": "star-weak-hopf",
    "weak-hopf-algebra": "weak-hopf",
    "hopf-algebra": "hopf",
}


class AlgebraSpecError(ValueError):
    """Malformed algebra specification document."""


class AxiomError(ValueError):
    """An axiom identity fails beyond tolerance."""

    def __init__(self, axiom, residual, message=None):
        self.axiom = axiom
        self.residual = residual
        super().__init__(message or f"axiom '{axiom}' violated, max residual {residual:.3e}")


class ExponentCapError(RuntimeError):
    """Exponent search exceeded its cap; carries the partial power table."""

    def __init__(self, cap, powers):
        self.cap = cap
        self.powers = powers
        super().__init__(f"no repeat among canonical-element powers up to k={cap}")


def canonical_tier(name):
    key = name.strip().lower()
    key = _TIER_ALIASES.get(key, key)
    if key not in TIERS:
        raise AlgebraSpecError(f"unknown tier {name!r}; expected one of {', '.join(TIERS)}")
    return key


def tier_chain(tier):
    """Tier plus all its prerequisites, weakest first."""
    seen = []

    def walk(t):
        for p in _TIER_PARENT[t]:
            walk(p)
        if t not in seen:
            seen.append(t)

    walk(canonical_tier(tier))
    return seen


class SparseRank3:
    """Rank-3 complex tensor stored as COO triples, densified on demand."""

    def __init__(self, dim, idx, vals):
        self.dim = dim
        idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
        vals = np.asarray(vals, dtype=complex).reshape(-1)
        if idx.shape[0] != vals.shape[0]:
            raise AlgebraSpecError("index/value length mismatch in rank-3 tensor")
        if idx.size and (idx.min() < 0 or idx.max() >= dim):
            raise AlgebraSpecError("basis index out of range in rank-3 tensor")
        order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
        self.idx = idx[order]
        self.vals = vals[order]
        self._dense = None
        self._rows = None

    @classmethod
    def from_dict(cls, dim, entries):
        items = sorted(entries.items())
        idx = np.array([k for k, _ in items], dtype=np.int64).reshape(-1, 3)
        vals = np.array([v for _, v in items], dtype=complex)
        return cls(dim, idx, vals)

    def dense(self):
        if self._dense is None:
            d = self.dim
            out = np.zeros((d, d, d), dtype=complex)
            np.add.at(out, tuple(self.idx.T), self.vals)
            self._dense = out
        return self._dense

    def rows(self):
        """List of sparse slices: rows()[i] = [(j, k, val), ...]."""
        if self._rows is None:
            rows = [[] for _ in range(self.dim)]
            for (i, j, k), v in zip(self.idx, self.vals):
                rows[i].append((int(j), int(k), v))
            self._rows = rows
        return self._rows


@dataclass
class AlgebraData:
    """A finite-dimensional algebra/coalgebra with declared axiom tier."""

    dim: int
    basis_labels: list
    mult: SparseRank3            # Omega[x,y,z]: coeff of z in x*y
    comult: SparseRank3          # Lambda[z,x,y]: coeff of x (x) y in Delta(z)
    unit: np.ndarray             # coefficients of 1 in the basis
    counit: np.ndarray           # values of eps on the basis
    antipode: np.ndarray | None = None   # S matrix: coeffs of S(e_y) in column y
    star: np.ndarray | None = None       # star matrix, applied after conj of coeffs
    tier: str = "prebialgebra"
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.unit = np.asarray(self.unit, dtype=complex).reshape(self.dim)
        self.counit = np.asarray(self.counit, dtype=complex).reshape(self.dim)
        if self.antipode is not None:
            self.antipode = np.asarray(self.antipode, dtype=complex).reshape(self.dim, self.dim)
        if self.star is not None:
            self.star = np.asarray(self.star, dtype=complex).reshape(self.dim, self.dim)
        self.tier = canonical_tier(self.tier)
        if len(self.basis_labels) != self.dim:
            raise AlgebraSpecError("basis label count does not match dim")

    # -- element constructors -------------------------------------------------

    def element(self, coeffs):
        return AlgebraElement(self, np.asarray(coeffs, dtype=complex).reshape(self.dim))

    def basis_element(self, i):
        c = np.zeros(self.dim, dtype=complex)
        c[i] = 1.0
        return AlgebraElement(self, c)

    # -- coefficient-level operations -----------------------------------------

    def mult_coeffs(self, xc, yc):
        """Coefficients of x*y given coefficient vectors."""
        out = np.zeros(self.dim, dtype=complex)
        i, j, k = self.mult.idx.T
        np.add.at(out, k, self.mult.vals * xc[i] * yc[j])
        return out

    def comult_coeffs(self, xc):
        """Matrix M with Delta(x) = sum_{ab} M[a,b] e_a (x) e_b."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        z, a, b = self.comult.idx.T
        np.add.at(out, (a, b), self.comult.vals * xc[z])
        return out

    def counit_value(self, xc):
        return complex(self.counit @ xc)

    def antipode_coeffs(self, xc):
        if self.antipode is None:
            raise AxiomError("antipode", np.inf, "antipode undeclared for this algebra")
        return self.antipode @ xc

    def star_coeffs(self, xc):
        if self.star is None:
            raise AxiomError("star", np.inf, "star structure undeclared for this algebra")
        return self.star @ np.conj(xc)

    def left_mult_matrix(self, i):
        """Matrix L_i with (e_i * y)-coeffs = L_i @ y-coeffs."""
        key = ("lmat", i)
        if key not in self._cache:
            d = self.dim
            out = np.zeros((d, d), dtype=complex)
            for j, k, v in self.mult.rows()[i]:
                out[k, j] += v
            self._cache[key] = out
        return self._cache[key]

    def unit_comult_matrix(self):
        """Delta(1) as a dim x dim coefficient matrix."""
        if "d1" not in self._cache:
            self._cache["d1"] = self.comult_coeffs(self.unit)
        return self._cache["d1"]

    def sweedler_legs(self, xc, n=2):
        """Delta^{(n-1)} of x as a rank-n coefficient tensor (n >= 1)."""
        out = xc
        for _ in range(n - 1):
            # expand last leg: T[..., z] -> sum_z T[..., z] Lambda[z,a,b]
            z, a, b = self.comult.idx.T
            new = np.zeros(out.shape[:-1] + (self.dim, self.dim), dtype=complex)
            np.add.at(new.reshape(-1, self.dim, self.dim),
                      (slice(None), a, b), out.reshape(-1, self.dim)[:, z] * self.comult.vals)
            out = new
        return out


@dataclass
class AlgebraElement:
    """Coefficient vector over the basis of an algebra."""

    algebra: AlgebraData
    coeffs: np.ndarray

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs - other.coeffs)

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, complex(scalar) * self.coeffs)

    def _check(self, other):
        if other.algebra.dim != self.algebra.dim:
            raise ValueError("dimension mismatch between algebra elements")


@dataclass
class DualElement:
    """Coefficient covector over the dual basis delta_x of the dual space."""

    algebra: AlgebraData
    coeffs: np.ndarray

    def pair(self, x: AlgebraElement) -> complex:
        return complex(self.coeffs @ x.coeffs)


@dataclass
class CanonicalElementPower:
    """Coefficient matrix c^k_{xy} of the k-th power of sum_x x (x) delta_x."""

    k: int
    coeffs: np.ndarray


# -- element-level API ---------------------------------------------------------


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    x._check(y)
    return AlgebraElement(x.algebra, x.algebra.mult_coeffs(x.coeffs, y.coeffs))


def comultiply(x: AlgebraElement) -> np.ndarray:
    return x.algebra.comult_coeffs(x.coeffs)


def counit(x: AlgebraElement) -> complex:
    return x.algebra.counit_value(x.coeffs)


def antipode_apply(x: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(x.algebra, x.algebra.antipode_coeffs(x.coeffs))


def star_apply(x: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(x.algebra, x.algebra.star_coeffs(x.coeffs))


def source_target_maps(x: AlgebraElement):
    """(eps_s(x), eps_t(x)) built from the Sweedler legs of Delta(1)."""
    A = x.algebra
    chain = tier_chain(A.tier)
    if "weak-bialgebra" not in chain and "bialgebra" not in chain:
        raise AxiomError("tier", np.inf, "source/target maps need weak-bialgebra tier or higher")
    d1 = A.unit_comult_matrix()               # Delta(1)[p,q]
    eye = np.eye(A.dim, dtype=complex)
    # eps_s(x) = 1_(1) eps(x 1_(2));  eps_t(x) = eps(1_(1) x) 1_(2)
    eps_x_right = np.array([A.counit_value(A.mult_coeffs(x.coeffs, eye[q])) for q in range(A.dim)])
    eps_left_x = np.array([A.counit_value(A.mult_coeffs(eye[p], x.coeffs)) for p in range(A.dim)])
    return AlgebraElement(A, d1 @ eps_x_right), AlgebraElement(A, eps_left_x @ d1)


# -- axiom checks ---------------------------------------------------------------


def _residual_associativity(A: AlgebraData) -> float:
    d = A.dim
    res = 0.0
    L = np.stack([A.left_mult_matrix(i) for i in range(d)])   # L[x][k,j] = Omega[x,j,k]
    for x in range(d):
        # associativity <=> L_{x*e_j} = L_x L_j for all j
        lxy = np.tensordot(L[x], L, axes=([0], [0]))          # [j][a,b] = sum_k L[x][k,j] L[k][a,b]
        rhs = np.matmul(L[x][None, :, :], L)                  # [j][a,b] = (L_x L_j)[a,b]
        res = max(res, float(np.abs(lxy - rhs).max()))
    return res


def _residual_unitality(A: AlgebraData) -> float:
    d = A.dim
    eye = np.eye(d, dtype=complex)
    left = np.stack([A.mult_coeffs(A.unit, eye[i]) for i in range(d)])
    right = np.stack([A.mult_coeffs(eye[i], A.unit) for i in range(d)])
    return float(max(np.abs(left - eye).max(), np.abs(right - eye).max()))


def _residual_coassociativity(A: AlgebraData) -> float:
    d = A.dim
    res = 0.0
    uu, aa, bb = A.comult.idx.T
    vals = A.comult.vals
    for z in range(d):
        two = A.comult_coeffs(np.eye(d, dtype=complex)[z])
        # lhs[a,b,c] = sum_u Lambda[u,a,b] two[u,c];  rhs[a,b,c] = sum_u two[a,u] Lambda[u,b,c]
        lhs = np.zeros((d, d, d), dtype=complex)
        rhs = np.zeros((d, d, d), dtype=complex)
        np.add.at(lhs, (aa, bb), vals[:, None] * two[uu, :])
        np.add.at(rhs.transpose(1, 2, 0), (aa, bb), vals[:, None] * two[:, uu].T)
        res = max(res, float(np.abs(lhs - rhs).max()))
    return res


def _residual_counitality(A: AlgebraData) -> float:
    d = A.dim
    eye = np.eye(d, dtype=complex)
    res = 0.0
    for z in range(d):
        two = A.comult_coeffs(eye[z])
        left = A.counit @ two          # (eps (x) id) Delta(z)
        right = two @ A.counit         # (id (x) eps) Delta(z)
        res = max(res, float(np.abs(left - eye[z]).max()), float(np.abs(right - eye[z]).max()))
    return res


def _residual_delta_multiplicative(A: AlgebraData) -> float:
    d = A.dim
    eye = np.eye(d, dtype=complex)
    crow = A.comult.rows()
    res = 0.0
    for x in range(d):
        dx = crow[x]
        for y in range(d):
            prod = A.mult_coeffs(eye[x], eye[y])
            lhs = A.comult_coeffs(prod)
            rhs = np.zeros((d, d), dtype=complex)
            for (a, b, v1) in dx:
                for (c, e, v2) in crow[y]:
                    rhs += (v1 * v2) * np.outer(A.mult_coeffs(eye[a], eye[c]),
                                                A.mult_coeffs(eye[b], eye[e]))
            res = max(res, float(np.abs(lhs - rhs).max()))
    return res


def _residual_bialgebra_unit_counit(A: AlgebraData) -> float:
    d = A.dim
    eye = np.eye(d, dtype=complex)
    d1 = A.unit_comult_matrix()
    res = float(np.abs(d1 - np.outer(A.unit, A.unit)).max())
    eps_prod = np.array([[A.counit_value(A.mult_coeffs(eye[x], eye[y])) for y in range(d)]
                         for x in range(d)])
    res = max(res, float(np.abs(eps_prod - np.outer(A.counit, A.counit)).max()))
    res = max(res, abs(complex(A.counit @ A.unit) - 1.0))
    return res


def _residual_weak_unit(A: AlgebraData) -> float:
    """Delta^2(1) = [1 (x) Delta(1)][Delta(1) (x) 1] = [Delta(1) (x) 1][1 (x) Delta(1)]."""
    d = A.dim
    d2 = A.sweedler_legs(A.unit, 3)            # [p,q,r]
    d1 = A.unit_comult_matrix()
    # mid1[p,m,r] = sum d1[p,u] d1[w,r] Omega[u,w,m]   (1_(1) (x) 1_(2)1_(1') (x) 1_(2'))
    # mid2[p,m,r] = sum d1[p,u] d1[w,r] Omega[w,u,m]   (1_(1) (x) 1_(1')1_(2) (x) 1_(2'))
    mid1 = np.zeros((d, d, d), dtype=complex)
    mid2 = np.zeros((d, d, d), dtype=complex)
    for (i, j, k), v in zip(A.mult.idx, A.mult.vals):
        mid1[:, k, :] += v * np.outer(d1[:, i], d1[j, :])
        mid2[:, k, :] += v * np.outer(d1[:, j], d1[i, :])
    return float(max(np.abs(d2 - mid1).max(), np.abs(d2 - mid2).max()))


def _residual_weak_counit(A: AlgebraData) -> float:
    """eps(xyz) = eps(x y_(1)) eps(y_(2) z) = eps(x y_(2)) eps(y_(1) z) on basis triples."""
    d = A.dim
    eye = np.eye(d, dtype=complex)
    eps_xy = np.array([[A.counit_value(A.mult_coeffs(eye[x], eye[y])) for y in range(d)]
                       for x in range(d)])
    res = 0.0
    crow = A.comult.rows()
    for y in range(d):
        lhs = np.zeros((d, d), dtype=complex)
        for x in range(d):
            lhs[x, :] = np.array([A.counit_value(
                A.mult_coeffs(A.mult_coeffs(eye[x], eye[y]), eye[z])) for z in range(d)])
        mid1 = np.zeros((d, d), dtype=complex)
        mid2 = np.zeros((d, d), dtype=complex)
        for (a, b, v) in crow[y]:
            mid1 += v * np.outer(eps_xy[:, a], eps_xy[b, :])
            mid2 += v * np.outer(eps_xy[:, b], eps_xy[a, :])
        res = max(res, float(np.abs(lhs - mid1).max()), float(np.abs(lhs - mid2).max()))
    return res


def _residual_antipode(A: AlgebraData) -> float:
    """m(S (x) id)Delta(x) = m(id (x) S)Delta(x) = eps(x) 1 on the basis."""
    if A.antipode is None:
        raise AxiomError("antipode", np.inf, "antipode undeclared")
    d = A.dim
    eye = np.eye(d, dtype=complex)
    res = 0.0
    for x in range(d):
        two = A.comult_coeffs(eye[x])
        left = np.zeros(d, dtype=complex)
        right = np.zeros(d, dtype=complex)
        for a in range(d):
            for b in np.nonzero(two[a])[0]:
                left += two[a, b] * A.mult_coeffs(A.antipode[:, a], eye[b])
                right += two[a, b] * A.mult_coeffs(eye[a], A.antipode[:, b])
        target = A.counit[x] * A.unit
        res = max(res, float(np.abs(left - target).max()), float(np.abs(right - target).max()))
    return res


def _residual_weak_antipode(A: AlgebraData) -> float:
    """S(x_(1)) x_(2) = eps_s(x), x_(1) S(x_(2)) = eps_t(x), S(x_(1)) x_(2) S(x_(3)) = S(x)."""
    if A.antipode is None:
        raise AxiomError("antipode", np.inf, "antipode undeclared")
    d = A.dim
    eye = np.eye(d, dtype=complex)
    res = 0.0
    for x in range(d):
        el = A.basis_element(x)
        eps_s, eps_t = source_target_maps(el)
        two = A.comult_coeffs(eye[x])
        left = np.zeros(d, dtype=complex)
        right = np.zeros(d, dtype=complex)
        for a, b in zip(*np.nonzero(two)):
            left += two[a, b] * A.mult_coeffs(A.antipode[:, a], eye[b])
            right += two[a, b] * A.mult_coeffs(eye[a], A.antipode[:, b])
        res = max(res, float(np.abs(left - eps_s.coeffs).max()),
                  float(np.abs(right - eps_t.coeffs).max()))
        three = A.sweedler_legs(eye[x], 3)
        acc = np.zeros(d, dtype=complex)
        for a, b, c in zip(*np.nonzero(three)):
            acc += three[a, b, c] * A.mult_coeffs(
                A.mult_coeffs(A.antipode[:, a], eye[b]), A.antipode[:, c])
        res = max(res, float(np.abs(acc - A.antipode[:, x]).max()))
    return res


def _residual_star(A: AlgebraData) -> float:
    """Involution, anti-homomorphism, and Delta(x*) = Delta(x)^* (slotwise star)."""
    if A.star is None:
        raise AxiomError("star", np.inf, "star structure undeclared")
    d = A.dim
    eye = np.eye(d, dtype=complex)
    star = lambda c: A.star @ np.conj(c)
    res = 0.0
    for x in range(d):
        res = max(res, float(np.abs(star(star(eye[x])) - eye[x]).max()))
    for x in range(d):
        for y in range(d):
            lhs = star(A.mult_coeffs(eye[x], eye[y]))
            rhs = A.mult_coeffs(star(eye[y]), star(eye[x]))
            res = max(res, float(np.abs(lhs - rhs).max()))
    for x in range(d):
        lhs = A.comult_coeffs(star(eye[x]))
        two = A.comult_coeffs(eye[x])
        rhs = A.star @ np.conj(two) @ A.star.T
        res = max(res, float(np.abs(lhs - rhs).max()))
    return res


def _residual_star_rep_exists(A: AlgebraData) -> float:
    """C* witness: the designated faithful star-representation, when attached."""
    rep = A._cache.get("faithful_star_rep")
    if rep is None:
        # the regular representation is faithful for any unital algebra; it is a
        # star-rep exactly for the models where left multiplication preserves
        # the inner product, so only use it as a fallback witness when it works
        from .representation import Representation, check_representation, regular_representation
        reg = regular_representation(A)
        rep = Representation(A, reg.matrices, star=A.star is not None)
        rpt = check_representation(rep)
        res = float(max(v for k, v in rpt.items() if k != "pass"))
        return 0.0 if res <= 1e-9 else res
    from .representation import check_representation
    rpt = check_representation(rep)
    res = float(max(v for k, v in rpt.items() if k != "pass"))
    mat = rep.matrices.reshape(A.dim, -1)
    if np.linalg.matrix_rank(mat, tol=1e-10) < A.dim:
        res = max(res, 1.0)
    return res


_AXIOMS = {
    "algebra": [("associativity", _residual_associativity), ("unitality", _residual_unitality)],
    "coalgebra": [("coassociativity", _residual_coassociativity), ("counitality", _residual_counitality)],
    "prebialgebra": [("delta-multiplicative", _residual_delta_multiplicative)],
    "weak-bialgebra": [("weak-unit", _residual_weak_unit), ("weak-counit", _residual_weak_counit)],
    "bialgebra": [("unit-counit", _residual_bialgebra_unit_counit)],
    "hopf": [("antipode", _residual_antipode)],
    "weak-hopf": [("weak-antipode", _residual_weak_antipode)],
    "star-hopf": [("star", _residual_star)],
    "star-weak-hopf": [("star", _residual_star)],
    "cstar-hopf": [("faithful-star-rep", _residual_star_rep_exists)],
    "cstar-weak-hopf": [("faithful-star-rep", _residual_star_rep_exists)],
}


def check_axioms(A: AlgebraData, tier=None, tol=TOL_ALG):
    """Evaluate every axiom of `tier` (plus prerequisites); returns {name: residual}."""
    tier = canonical_tier(tier or A.tier)
    report = {}
    for t in tier_chain(tier):
        for name, fn in _AXIOMS[t]:
            if name in report:
                continue
            report[name] = fn(A)
    report["pass"] = all(v <= tol for k, v in report.items() if k != "pass")
    return report


def derive_tier(A: AlgebraData, tol=TOL_ALG):
    """Highest tier whose full axiom chain passes."""
    best = None
    for tier in TIERS:
        try:
            rpt = check_axioms(A, tier, tol)
        except AxiomError:
            continue
        if rpt["pass"]:
            best = tier
    return best


# -- duality --------------------------------------------------------------------


def dual_algebra(A: AlgebraData) -> AlgebraData:
    """The dual (pre/weak/Hopf) algebra on the dual basis.

    Multiplication of the dual is the transposed comultiplication and vice
    versa; unit <-> counit; antipode transposes; the star uses
    <f*, x> = conj(<f, S(x)*>).
    """
    if A.tier in ("algebra", "coalgebra"):
        raise AxiomError("tier", np.inf, "dual needs at least prebialgebra tier")
    d = A.dim
    mult_idx = A.comult.idx[:, [1, 2, 0]]      # Omega*[x,y,z] = Lambda[z,x,y]
    comult_idx = A.mult.idx[:, [2, 0, 1]]      # Lambda*[z,x,y] = Omega[x,y,z]
    antipode = None
    star = None
    if A.antipode is not None:
        antipode = A.antipode.T.copy()
        if A.star is not None:
            star = (np.conj(A.star) @ A.antipode).T.copy()
    labels = [f"d({lbl})" for lbl in A.basis_labels]
    return AlgebraData(
        dim=d,
        basis_labels=labels,
        mult=SparseRank3(d, mult_idx, A.comult.vals.copy()),
        comult=SparseRank3(d, comult_idx, A.mult.vals.copy()),
        unit=A.counit.copy(),
        counit=A.unit.copy(),
        antipode=antipode,
        star=star,
        tier=A.tier,
        name=f"dual({A.name})" if A.name else "dual",
    )


# -- canonical element powers and exponent ---------------------------------------


def _ce_product(A: AlgebraData, X, Y):
    """Product of two coefficient matrices in A (x) A*.

    (X Y)[r,s] = sum X[x,y] Y[z,w] Omega[x,z,r] Lambda[s,y,w].
    """
    d = A.dim
    mid = np.zeros((d, d, d), dtype=complex)   # mid[r,y,w] = sum_{x,z} X[x,y] Omega[x,z,r] Y[z,w]
    for (x, z, r), v in zip(A.mult.idx, A.mult.vals):
        mid[r] += v * np.outer(X[x], Y[z])
    out = np.zeros((d, d), dtype=complex)
    for (s, y, w), v in zip(A.comult.idx, A.comult.vals):
        out[:, s] += v * mid[:, y, w]
    return out


def canonical_unit(A: AlgebraData) -> np.ndarray:
    """Unit of A (x) A*: 1 (x) eps."""
    return np.outer(A.unit, A.counit)


def canonical_power(A: AlgebraData, k: int) -> CanonicalElementPower:
    """k-th power of the canonical element as a coefficient matrix."""
    if k < 0:
        raise ValueError("k must be non-negative")
    c = canonical_unit(A)
    one = np.eye(A.dim, dtype=complex)
    for _ in range(k):
        c = _ce_product(A, c, one)
    return CanonicalElementPower(k, c)


def exponent(A: AlgebraData, cap: int = 64, tol=TOL_ALG):
    """Smallest (eta, nu) with c^(eta+nu) = c^nu; nu = 0 for Hopf algebras."""
    powers = [canonical_unit(A)]
    one = np.eye(A.dim, dtype=complex)
    for k in range(1, cap + 1):
        nxt = _ce_product(A, powers[-1], one)
        for j, prev in enumerate(powers):
            if np.abs(nxt - prev).max() <= tol:
                return k - j, j
        powers.append(nxt)
    raise ExponentCapError(cap, powers)


# -- JSON (de)serialization -------------------------------------------------------

# a structure-constant entry: three basis indices, then the real and imaginary parts
_COO_ROW = {"type": "array", "minItems": 5, "maxItems": 5,
            "prefixItems": [{"type": "integer", "minimum": 0}] * 3}

_ALGEBRA_SCHEMA = {
    "type": "object",
    "required": ["dim", "basis", "mult", "comult", "unit", "counit", "tier"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "basis": {"type": "array", "items": {"type": "string"}},
        "mult": {"type": "array", "items": _COO_ROW},
        "comult": {"type": "array", "items": _COO_ROW},
        "unit": {"type": "array"},
        "counit": {"type": "array"},
        "antipode": {"type": "array"},
        "star_matrix": {"type": "array"},
        "tier": {"type": "string"},
        "name": {"type": "string"},
        "reps": {"type": "object"},
        "coreps": {"type": "object"},
    },
}


def _num(v):
    """A finite number, given as a number or a high-precision decimal string."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise AlgebraSpecError(f"expected number or decimal string, got {type(v).__name__}")
    try:
        x = float(v)
    except (ValueError, OverflowError):
        raise AlgebraSpecError(f"expected number or decimal string, got {v!r}") from None
    if not math.isfinite(x):
        raise AlgebraSpecError(f"expected a finite number, got {v!r}")
    return x


def _complex_array(raw, n, what):
    """`raw`, a list of n numbers or [re, im] pairs, as a complex array;
    its type and length are checked before anything is allocated."""
    if not isinstance(raw, list) or len(raw) != n:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise AlgebraSpecError(f"{what}: expected a list of {n} entries, got {got}")
    arr = np.zeros(n, dtype=complex)
    for i, item in enumerate(raw):
        if isinstance(item, (list, tuple)) and len(item) == 2:
            arr[i] = _num(item[0]) + 1j * _num(item[1])
        else:
            arr[i] = _num(item)
    return arr


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def algebra_to_dict(A: AlgebraData, reps=None, coreps=None) -> dict:
    doc = {
        "dim": A.dim,
        "basis": list(A.basis_labels),
        "tier": A.tier,
        "name": A.name,
        "mult": [[i, j, k, _fmt(re), _fmt(im)]
                 for i, j, k, re, im in ((int(a), int(b), int(c), v.real, v.imag)
                                         for (a, b, c), v in zip(A.mult.idx, A.mult.vals))],
        "comult": [[i, j, k, _fmt(re), _fmt(im)]
                   for i, j, k, re, im in ((int(a), int(b), int(c), v.real, v.imag)
                                           for (a, b, c), v in zip(A.comult.idx, A.comult.vals))],
        "unit": [[_fmt(v.real), _fmt(v.imag)] for v in A.unit],
        "counit": [[_fmt(v.real), _fmt(v.imag)] for v in A.counit],
    }
    if A.antipode is not None:
        doc["antipode"] = [[_fmt(v.real), _fmt(v.imag)] for v in A.antipode.reshape(-1)]
    if A.star is not None:
        doc["star_matrix"] = [[_fmt(v.real), _fmt(v.imag)] for v in A.star.reshape(-1)]
    if reps:
        doc["reps"] = {name: [[[_fmt(v.real), _fmt(v.imag)] for v in m.reshape(-1)]
                              for m in rep.matrices]
                       for name, rep in reps.items()}
    if coreps:
        doc["coreps"] = {name: [[_fmt(v.real), _fmt(v.imag)] for v in c.entries.reshape(-1)]
                         for name, c in coreps.items()}
    return doc


def load_algebra(source, tol=TOL_ALG) -> AlgebraData:
    """Load and validate an algebra spec (path, JSON string, or dict).

    The declared tier is re-derived by running check_axioms; loading fails if
    any axiom of the declared tier is violated beyond `tol`.
    """
    import jsonschema

    if isinstance(source, (str, Path)) and Path(str(source)).exists():
        doc = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise AlgebraSpecError(f"not valid JSON: {exc}") from exc
    else:
        doc = source
    try:
        jsonschema.validate(doc, _ALGEBRA_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise AlgebraSpecError(f"algebra spec schema violation: {exc.message}") from exc

    d = int(doc["dim"])

    def coo(raw, what):
        idx, vals = [], []
        for row in raw:
            i, j, k = int(row[0]), int(row[1]), int(row[2])
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise AlgebraSpecError(f"{what}: index ({i},{j},{k}) out of range for dim {d}")
            idx.append((i, j, k))
            vals.append(_num(row[3]) + 1j * _num(row[4]))
        return SparseRank3(d, np.array(idx, dtype=np.int64).reshape(-1, 3),
                           np.array(vals, dtype=complex))

    antipode = None
    if "antipode" in doc:
        antipode = _complex_array(doc["antipode"], d * d, "antipode").reshape(d, d)
    star = None
    if "star_matrix" in doc:
        star = _complex_array(doc["star_matrix"], d * d, "star_matrix").reshape(d, d)

    A = AlgebraData(
        dim=d,
        basis_labels=list(doc["basis"]),
        mult=coo(doc["mult"], "mult"),
        comult=coo(doc["comult"], "comult"),
        unit=_complex_array(doc["unit"], d, "unit"),
        counit=_complex_array(doc["counit"], d, "counit"),
        antipode=antipode,
        star=star,
        tier=doc["tier"],
        name=doc.get("name", ""),
    )
    report = check_axioms(A, A.tier, tol)
    if not report["pass"]:
        worst = max(((k, v) for k, v in report.items() if k != "pass"), key=lambda kv: kv[1])
        first = next((k, v) for k, v in report.items() if k != "pass" and not v <= tol)
        raise AxiomError(first[0], first[1],
                         f"declared tier '{A.tier}' not met: axiom '{first[0]}' residual "
                         f"{first[1]:.3e} (worst: '{worst[0]}' {worst[1]:.3e})")
    return A


def save_algebra(A: AlgebraData, path, reps=None, coreps=None):
    Path(path).write_text(json.dumps(algebra_to_dict(A, reps, coreps), indent=1))
