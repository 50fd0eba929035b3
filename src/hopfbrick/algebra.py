"""Finite-dimensional (pre/weak) bialgebra data via structure constants.

An algebra is stored by its multiplication constants Omega[x,y,z] (coefficient
of basis element z in x*y) and comultiplication constants Lambda[z,x,y]
(coefficient of x (x) y in Delta(z)), together with unit / counit coefficient
vectors and optional antipode / star matrices.  Everything downstream (gates,
transfer matrices, projectors) is built from these arrays.

Axioms are organized in tiers ("algebra" up to "cstar-weak-hopf"); every tier
check returns named max-norm residuals so that a failing identity can be
pinpointed.  Structure constants are stored dense, as read-only (dim, dim, dim)
arrays; `structure_tensor` builds one from COO triples, the form of the JSON
spec and of the zoo builders, and every check is a contraction of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL_ALG = 1e-10
MAX_DIM = 256       # 2^24 entries (268 MB) per dense structure tensor

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


def structure_tensor(dim, idx, vals) -> np.ndarray:
    """The dense (dim, dim, dim) tensor of the COO triples `idx` with values
    `vals`; repeated triples add.  A dim over MAX_DIM is refused before
    anything is allocated."""
    if dim > MAX_DIM:
        raise AlgebraSpecError(f"dim {dim} exceeds cap {MAX_DIM}")
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, 3)
    vals = np.asarray(vals, dtype=complex).reshape(-1)
    if idx.shape[0] != vals.shape[0]:
        raise AlgebraSpecError("index/value length mismatch in rank-3 tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise AlgebraSpecError("basis index out of range in rank-3 tensor")
    out = np.zeros((dim, dim, dim), dtype=complex)
    np.add.at(out, tuple(idx.T), vals)
    return out


@dataclass
class AlgebraData:
    """A finite-dimensional algebra/coalgebra with declared axiom tier."""

    dim: int
    basis_labels: list
    mult: np.ndarray             # Omega[x,y,z]: coeff of z in x*y
    comult: np.ndarray           # Lambda[z,x,y]: coeff of x (x) y in Delta(z)
    unit: np.ndarray             # coefficients of 1 in the basis
    counit: np.ndarray           # values of eps on the basis
    antipode: np.ndarray | None = None   # S matrix: coeffs of S(e_y) in column y
    star: np.ndarray | None = None       # star matrix, applied after conj of coeffs
    tier: str = "prebialgebra"
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for key in ("mult", "comult"):
            t = np.ascontiguousarray(getattr(self, key), dtype=complex)
            if t.shape != (self.dim,) * 3:
                raise AlgebraSpecError(f"{key}: expected shape {(self.dim,) * 3}, got {t.shape}")
            t.setflags(write=False)        # shared by every check and caller
            setattr(self, key, t)
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
        return yc @ np.tensordot(xc, self.mult, 1)

    def comult_coeffs(self, xc):
        """Matrix M with Delta(x) = sum_{ab} M[a,b] e_a (x) e_b."""
        return np.tensordot(xc, self.comult, 1)

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
        return self.mult[i].T

    def unit_comult_matrix(self):
        """Delta(1) as a dim x dim coefficient matrix."""
        if "d1" not in self._cache:
            self._cache["d1"] = self.comult_coeffs(self.unit)
        return self._cache["d1"]


@dataclass
class AlgebraElement:
    """Coefficient vector over the basis of an algebra."""

    algebra: AlgebraData
    coeffs: np.ndarray

    def _check(self, other):
        if other.algebra.dim != self.algebra.dim:
            raise ValueError("dimension mismatch between algebra elements")


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
    eps_s, eps_t = _source_target(x.algebra)
    return AlgebraElement(x.algebra, x.coeffs @ eps_s), AlgebraElement(x.algebra, x.coeffs @ eps_t)


# -- axiom checks ---------------------------------------------------------------
# Each residual contracts the dense structure constants Om = Omega and
# Lam = Lambda; a loop runs over at most one basis index (and the legs of one
# Delta(x)), so no intermediate exceeds dim^3 entries.


def _counit_products(A: AlgebraData) -> np.ndarray:
    """E[x, y] = eps(e_x e_y)."""
    return A.mult @ A.counit


def _source_target(A: AlgebraData):
    """Matrices whose row x holds eps_s(e_x) and eps_t(e_x), where
    eps_s(x) = 1_(1) eps(x 1_(2)) and eps_t(x) = eps(1_(1) x) 1_(2)."""
    chain = tier_chain(A.tier)
    if "weak-bialgebra" not in chain and "bialgebra" not in chain:
        raise AxiomError("tier", np.inf, "source/target maps need weak-bialgebra tier or higher")
    E, d1 = _counit_products(A), A.unit_comult_matrix()
    return E @ d1.T, E.T @ d1


def _convolution(A: AlgebraData, X, Y) -> np.ndarray:
    """Row x holds m(X (x) Y) Delta(e_x) for the linear maps with matrices X, Y."""
    return np.tensordot(X @ A.comult @ Y.T, A.mult, 2)


def _residual_associativity(A: AlgebraData) -> float:
    Om = A.mult
    # [y, z, w]: coefficient w of (e_x e_y) e_z, resp. e_x (e_y e_z)
    return max(float(np.abs(np.tensordot(Om[x], Om, 1) - Om @ Om[x]).max())
               for x in range(A.dim))


def _residual_unitality(A: AlgebraData) -> float:
    Om, eye = A.mult, np.eye(A.dim)
    left = np.tensordot(A.unit, Om, 1)             # [x, z]: 1 e_x
    right = np.tensordot(Om, A.unit, (1, 0))       # [x, z]: e_x 1
    return float(max(np.abs(left - eye).max(), np.abs(right - eye).max()))


def _residual_coassociativity(A: AlgebraData) -> float:
    Lam = A.comult
    # (Delta (x) id) Delta(e_z) as [c, a, b], (id (x) Delta) Delta(e_z) as [a, b, c]
    return max(float(np.abs(np.tensordot(Lam[z], Lam, (0, 0)).transpose(1, 2, 0)
                            - np.tensordot(Lam[z], Lam, (1, 0))).max())
               for z in range(A.dim))


def _residual_counitality(A: AlgebraData) -> float:
    Lam, eye = A.comult, np.eye(A.dim)
    left = np.tensordot(A.counit, Lam, (0, 1))     # (eps (x) id) Delta(e_z)
    right = Lam @ A.counit                         # (id (x) eps) Delta(e_z)
    return float(max(np.abs(left - eye).max(), np.abs(right - eye).max()))


def _residual_delta_multiplicative(A: AlgebraData) -> float:
    Om, Lam = A.mult, A.comult
    res = 0.0
    for x in range(A.dim):
        lhs = np.tensordot(Om[x], Lam, 1)          # [y, a, b]: Delta(e_x e_y)
        # Delta(e_x) Delta(e_y) = sum_pq Lam[x,p,q] (e_p (x) e_q) Delta(e_y)
        rhs = sum(Lam[x, p, q] * (Om[p].T @ Lam @ Om[q]) for p, q in zip(*np.nonzero(Lam[x])))
        res = max(res, float(np.abs(lhs - rhs).max()))
    return res


def _residual_bialgebra_unit_counit(A: AlgebraData) -> float:
    d1 = A.unit_comult_matrix()
    return float(max(np.abs(d1 - np.outer(A.unit, A.unit)).max(),
                     np.abs(_counit_products(A) - np.outer(A.counit, A.counit)).max(),
                     abs(A.counit @ A.unit - 1.0)))


def _residual_weak_unit(A: AlgebraData) -> float:
    """Delta^2(1) = [1 (x) Delta(1)][Delta(1) (x) 1] = [Delta(1) (x) 1][1 (x) Delta(1)]."""
    Om, d1 = A.mult, A.unit_comult_matrix()
    d2 = np.tensordot(d1, A.comult, 1)                       # [p, q, r]
    # mid1: 1_(1) (x) 1_(2) 1_(1') (x) 1_(2');  mid2: 1_(1) (x) 1_(1') 1_(2) (x) 1_(2')
    mid1 = np.tensordot(np.tensordot(d1, Om, (1, 0)), d1, (1, 0))
    mid2 = np.tensordot(np.tensordot(d1, Om, (1, 1)), d1, (1, 0))
    return float(max(np.abs(d2 - mid1).max(), np.abs(d2 - mid2).max()))


def _residual_weak_counit(A: AlgebraData) -> float:
    """eps(xyz) = eps(x y_(1)) eps(y_(2) z) = eps(x y_(2)) eps(y_(1) z) on basis triples."""
    E, Lam = _counit_products(A), A.comult
    lhs = A.mult @ E                       # [x, y, z]: eps((e_x e_y) e_z)
    mid1 = np.tensordot(E, Lam, (1, 1)) @ E
    mid2 = np.tensordot(E, Lam, (1, 2)) @ E
    return float(max(np.abs(lhs - mid1).max(), np.abs(lhs - mid2).max()))


def _residual_antipode(A: AlgebraData) -> float:
    """m(S (x) id)Delta(x) = m(id (x) S)Delta(x) = eps(x) 1 on the basis."""
    if A.antipode is None:
        raise AxiomError("antipode", np.inf, "antipode undeclared")
    S, eye = A.antipode, np.eye(A.dim)
    target = np.outer(A.counit, A.unit)
    return float(max(np.abs(_convolution(A, S, eye) - target).max(),
                     np.abs(_convolution(A, eye, S) - target).max()))


def _residual_weak_antipode(A: AlgebraData) -> float:
    """S(x_(1)) x_(2) = eps_s(x), x_(1) S(x_(2)) = eps_t(x), S(x_(1)) x_(2) S(x_(3)) = S(x)."""
    if A.antipode is None:
        raise AxiomError("antipode", np.inf, "antipode undeclared")
    eps_s, eps_t = _source_target(A)
    S, eye = A.antipode, np.eye(A.dim)
    Om, Lam = A.mult, A.comult
    res = float(max(np.abs(_convolution(A, S, eye) - eps_s).max(),
                    np.abs(_convolution(A, eye, S) - eps_t).max()))
    s_first = np.tensordot(S, Om, (0, 0))          # [a, b, m]: S(e_a) e_b
    for x in range(A.dim):
        three = np.tensordot(Lam[x], Lam, (1, 0))  # [a, b, c]: (id (x) Delta) Delta(e_x)
        pair = np.tensordot(s_first, three, ([0, 1], [0, 1]))     # [m, c]
        acc = np.tensordot(pair @ S.T, Om, 2)      # (S(x_(1)) x_(2)) S(x_(3))
        res = max(res, float(np.abs(acc - S[:, x]).max()))
    return res


def _residual_star(A: AlgebraData) -> float:
    """Involution, anti-homomorphism, and Delta(x*) = Delta(x)^* (slotwise star)."""
    if A.star is None:
        raise AxiomError("star", np.inf, "star structure undeclared")
    St, Om, Lam = A.star, A.mult, A.comult
    involution = np.abs(St @ St.conj() - np.eye(A.dim)).max()
    # [x, y, w]: (e_x e_y)* and e_y* e_x*
    anti = np.abs(Om.conj() @ St.T - np.tensordot(St, np.tensordot(St, Om, (0, 0)), (0, 1))).max()
    comult = np.abs(np.tensordot(St, Lam, (0, 0)) - St @ Lam.conj() @ St.T).max()
    return float(max(involution, anti, comult))


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
    antipode = None
    star = None
    if A.antipode is not None:
        antipode = A.antipode.T.copy()
        if A.star is not None:
            star = (np.conj(A.star) @ A.antipode).T.copy()
    labels = [f"d({lbl})" for lbl in A.basis_labels]
    return AlgebraData(
        dim=A.dim,
        basis_labels=labels,
        mult=A.comult.transpose(1, 2, 0),      # Omega*[x,y,z] = Lambda[z,x,y]
        comult=A.mult.transpose(2, 0, 1),      # Lambda*[z,x,y] = Omega[x,y,z]
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
    mid = np.tensordot(X, np.tensordot(A.mult, Y, (1, 0)), (0, 0))   # [y, r, w]
    return np.tensordot(mid, A.comult, ([0, 2], [1, 2]))


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


def _coo_rows(T) -> list:
    """The nonzeros of a structure tensor as spec rows, in C order."""
    return [[int(i), int(j), int(k), _fmt(T[i, j, k].real), _fmt(T[i, j, k].imag)]
            for i, j, k in np.argwhere(T != 0)]


def algebra_to_dict(A: AlgebraData, reps=None, coreps=None) -> dict:
    doc = {
        "dim": A.dim,
        "basis": list(A.basis_labels),
        "tier": A.tier,
        "name": A.name,
        "mult": _coo_rows(A.mult),
        "comult": _coo_rows(A.comult),
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
        return structure_tensor(d, idx, vals)

    mult, comult = coo(doc["mult"], "mult"), coo(doc["comult"], "comult")   # dim cap first
    antipode = None
    if "antipode" in doc:
        antipode = _complex_array(doc["antipode"], d * d, "antipode").reshape(d, d)
    star = None
    if "star_matrix" in doc:
        star = _complex_array(doc["star_matrix"], d * d, "star_matrix").reshape(d, d)

    A = AlgebraData(
        dim=d,
        basis_labels=list(doc["basis"]),
        mult=mult,
        comult=comult,
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
