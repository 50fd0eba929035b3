"""Loop-form reference for the axiom and (co)representation residuals.

Each function evaluates the same identity as its counterpart in
`hopfbrick.algebra` / `hopfbrick.representation`, but element by element:
products and coproducts are expanded from the COO triples (`idx`, `vals`) of
the structure constants' nonzero entries, with no contraction of the dense
tensors and no library helper.  The residuals returned are the same
max-norms, so the library's contractions can be compared with them on valid
and on perturbed algebras.
"""

import numpy as np

from hopfbrick.algebra import AxiomError


# -- coefficient-level helpers on the COO triples -------------------------------

_TRIPLES = {}       # id(T) -> (T, idx, vals); the tensors are read-only


def triples(T):
    """COO triples (idx, vals) of the nonzero entries of T, in C order; read
    once per tensor."""
    hit = _TRIPLES.get(id(T))
    if hit is None or hit[0] is not T:
        idx = np.argwhere(T != 0)
        hit = _TRIPLES[id(T)] = (T, idx, T[tuple(idx.T)])
    return hit[1], hit[2]


def rows(T):
    """Sparse slices of a rank-3 tensor: rows(T)[i] = [(j, k, val), ...]."""
    out = [[] for _ in range(T.shape[0])]
    for (i, j, k), v in zip(*triples(T)):
        out[i].append((int(j), int(k), v))
    return out


def mult(A, xc, yc):
    """Coefficients of x*y."""
    out = np.zeros(A.dim, dtype=complex)
    idx, vals = triples(A.mult)
    i, j, k = idx.T
    np.add.at(out, k, vals * xc[i] * yc[j])
    return out


def comult(A, xc):
    """Delta(x) as a coefficient matrix."""
    out = np.zeros((A.dim, A.dim), dtype=complex)
    idx, vals = triples(A.comult)
    z, a, b = idx.T
    np.add.at(out, (a, b), vals * xc[z])
    return out


def sweedler(A, xc, n):
    """Delta^{(n-1)} of x as a rank-n coefficient tensor, last leg expanded."""
    out = xc
    idx, vals = triples(A.comult)
    z, a, b = idx.T
    for _ in range(n - 1):
        new = np.zeros(out.shape[:-1] + (A.dim, A.dim), dtype=complex)
        np.add.at(new.reshape(-1, A.dim, A.dim),
                  (slice(None), a, b), out.reshape(-1, A.dim)[:, z] * vals)
        out = new
    return out


def left_mult(A, i):
    """Matrix L_i with (e_i * y)-coeffs = L_i @ y-coeffs."""
    out = np.zeros((A.dim, A.dim), dtype=complex)
    for j, k, v in rows(A.mult)[i]:
        out[k, j] += v
    return out


def source_target(A, xc):
    """(eps_s(x), eps_t(x)) from the Sweedler legs of Delta(1)."""
    d1 = comult(A, A.unit)
    eye = np.eye(A.dim, dtype=complex)
    eps_x_right = np.array([A.counit @ mult(A, xc, eye[q]) for q in range(A.dim)])
    eps_left_x = np.array([A.counit @ mult(A, eye[p], xc) for p in range(A.dim)])
    return d1 @ eps_x_right, eps_left_x @ d1


def star_of(A, c):
    return A.star @ np.conj(c)


# -- axiom residuals --------------------------------------------------------------


def associativity(A):
    d = A.dim
    res = 0.0
    L = np.stack([left_mult(A, i) for i in range(d)])
    for x in range(d):
        lxy = np.tensordot(L[x], L, axes=([0], [0]))
        rhs = np.matmul(L[x][None, :, :], L)
        res = max(res, float(np.abs(lxy - rhs).max()))
    return res


def unitality(A):
    eye = np.eye(A.dim, dtype=complex)
    left = np.stack([mult(A, A.unit, eye[i]) for i in range(A.dim)])
    right = np.stack([mult(A, eye[i], A.unit) for i in range(A.dim)])
    return float(max(np.abs(left - eye).max(), np.abs(right - eye).max()))


def coassociativity(A):
    d = A.dim
    res = 0.0
    idx, vals = triples(A.comult)
    uu, aa, bb = idx.T
    for z in range(d):
        two = comult(A, np.eye(d, dtype=complex)[z])
        lhs = np.zeros((d, d, d), dtype=complex)
        rhs = np.zeros((d, d, d), dtype=complex)
        np.add.at(lhs, (aa, bb), vals[:, None] * two[uu, :])
        np.add.at(rhs.transpose(1, 2, 0), (aa, bb), vals[:, None] * two[:, uu].T)
        res = max(res, float(np.abs(lhs - rhs).max()))
    return res


def counitality(A):
    eye = np.eye(A.dim, dtype=complex)
    res = 0.0
    for z in range(A.dim):
        two = comult(A, eye[z])
        res = max(res, float(np.abs(A.counit @ two - eye[z]).max()),
                  float(np.abs(two @ A.counit - eye[z]).max()))
    return res


def delta_multiplicative(A):
    d = A.dim
    eye = np.eye(d, dtype=complex)
    crow = rows(A.comult)
    res = 0.0
    for x in range(d):
        for y in range(d):
            lhs = comult(A, mult(A, eye[x], eye[y]))
            rhs = np.zeros((d, d), dtype=complex)
            for (a, b, v1) in crow[x]:
                for (c, e, v2) in crow[y]:
                    rhs += (v1 * v2) * np.outer(mult(A, eye[a], eye[c]), mult(A, eye[b], eye[e]))
            res = max(res, float(np.abs(lhs - rhs).max()))
    return res


def bialgebra_unit_counit(A):
    d = A.dim
    eye = np.eye(d, dtype=complex)
    d1 = comult(A, A.unit)
    res = float(np.abs(d1 - np.outer(A.unit, A.unit)).max())
    eps_prod = np.array([[A.counit @ mult(A, eye[x], eye[y]) for y in range(d)]
                         for x in range(d)])
    res = max(res, float(np.abs(eps_prod - np.outer(A.counit, A.counit)).max()))
    return max(res, abs(complex(A.counit @ A.unit) - 1.0))


def weak_unit(A):
    d = A.dim
    d2 = sweedler(A, A.unit, 3)
    d1 = comult(A, A.unit)
    mid1 = np.zeros((d, d, d), dtype=complex)
    mid2 = np.zeros((d, d, d), dtype=complex)
    for (i, j, k), v in zip(*triples(A.mult)):
        mid1[:, k, :] += v * np.outer(d1[:, i], d1[j, :])
        mid2[:, k, :] += v * np.outer(d1[:, j], d1[i, :])
    return float(max(np.abs(d2 - mid1).max(), np.abs(d2 - mid2).max()))


def weak_counit(A):
    d = A.dim
    eye = np.eye(d, dtype=complex)
    eps_xy = np.array([[A.counit @ mult(A, eye[x], eye[y]) for y in range(d)] for x in range(d)])
    crow = rows(A.comult)
    res = 0.0
    for y in range(d):
        lhs = np.zeros((d, d), dtype=complex)
        for x in range(d):
            lhs[x, :] = [A.counit @ mult(A, mult(A, eye[x], eye[y]), eye[z]) for z in range(d)]
        mid1 = np.zeros((d, d), dtype=complex)
        mid2 = np.zeros((d, d), dtype=complex)
        for (a, b, v) in crow[y]:
            mid1 += v * np.outer(eps_xy[:, a], eps_xy[b, :])
            mid2 += v * np.outer(eps_xy[:, b], eps_xy[a, :])
        res = max(res, float(np.abs(lhs - mid1).max()), float(np.abs(lhs - mid2).max()))
    return res


def antipode(A):
    if A.antipode is None:
        raise AxiomError("antipode", np.inf, "antipode undeclared")
    d = A.dim
    eye = np.eye(d, dtype=complex)
    res = 0.0
    for x in range(d):
        two = comult(A, eye[x])
        left = np.zeros(d, dtype=complex)
        right = np.zeros(d, dtype=complex)
        for a, b in zip(*np.nonzero(two)):
            left += two[a, b] * mult(A, A.antipode[:, a], eye[b])
            right += two[a, b] * mult(A, eye[a], A.antipode[:, b])
        target = A.counit[x] * A.unit
        res = max(res, float(np.abs(left - target).max()), float(np.abs(right - target).max()))
    return res


def weak_antipode(A):
    if A.antipode is None:
        raise AxiomError("antipode", np.inf, "antipode undeclared")
    d = A.dim
    eye = np.eye(d, dtype=complex)
    res = 0.0
    for x in range(d):
        eps_s, eps_t = source_target(A, eye[x])
        two = comult(A, eye[x])
        left = np.zeros(d, dtype=complex)
        right = np.zeros(d, dtype=complex)
        for a, b in zip(*np.nonzero(two)):
            left += two[a, b] * mult(A, A.antipode[:, a], eye[b])
            right += two[a, b] * mult(A, eye[a], A.antipode[:, b])
        res = max(res, float(np.abs(left - eps_s).max()), float(np.abs(right - eps_t).max()))
        three = sweedler(A, eye[x], 3)
        acc = np.zeros(d, dtype=complex)
        for a, b, c in zip(*np.nonzero(three)):
            acc += three[a, b, c] * mult(A, mult(A, A.antipode[:, a], eye[b]), A.antipode[:, c])
        res = max(res, float(np.abs(acc - A.antipode[:, x]).max()))
    return res


def star(A):
    if A.star is None:
        raise AxiomError("star", np.inf, "star structure undeclared")
    d = A.dim
    eye = np.eye(d, dtype=complex)
    res = 0.0
    for x in range(d):
        res = max(res, float(np.abs(star_of(A, star_of(A, eye[x])) - eye[x]).max()))
    for x in range(d):
        for y in range(d):
            lhs = star_of(A, mult(A, eye[x], eye[y]))
            rhs = mult(A, star_of(A, eye[y]), star_of(A, eye[x]))
            res = max(res, float(np.abs(lhs - rhs).max()))
    for x in range(d):
        lhs = comult(A, star_of(A, eye[x]))
        rhs = A.star @ np.conj(comult(A, eye[x])) @ A.star.T
        res = max(res, float(np.abs(lhs - rhs).max()))
    return res


#: reference residual per axiom name, for every axiom but faithful-star-rep
AXIOMS = {
    "associativity": associativity,
    "unitality": unitality,
    "coassociativity": coassociativity,
    "counitality": counitality,
    "delta-multiplicative": delta_multiplicative,
    "weak-unit": weak_unit,
    "weak-counit": weak_counit,
    "unit-counit": bialgebra_unit_counit,
    "antipode": antipode,
    "weak-antipode": weak_antipode,
    "star": star,
}


# -- (co)representation residuals ------------------------------------------------


def representation(rho):
    """{unit, homomorphism[, star]} residuals of a Representation."""
    A = rho.algebra
    m = rho.matrices
    report = {"unit": float(np.abs(rho.apply(A.unit) - np.eye(rho.dim)).max())}
    mrow = rows(A.mult)
    res = 0.0
    for x in range(A.dim):
        prod = np.matmul(m[x][None], m)
        target = np.zeros_like(prod)
        for j, k, v in mrow[x]:
            target[j] += v * m[k]
        res = max(res, float(np.abs(prod - target).max()))
    report["homomorphism"] = res
    if rho.star:
        eye = np.eye(A.dim, dtype=complex)
        report["star"] = max(float(np.abs(rho.apply(star_of(A, eye[x])) - m[x].conj().T).max())
                             for x in range(A.dim))
    return report


def corepresentation(v):
    """{coaction, counit[, unitary]} residuals of a Corepresentation."""
    A = v.algebra
    dv = v.dim
    res_d = res_e = 0.0
    for i in range(dv):
        for j in range(dv):
            lhs = comult(A, v.entries[i, j])
            rhs = np.tensordot(v.entries[i], v.entries[:, j], axes=(0, 0))
            res_d = max(res_d, float(np.abs(lhs - rhs).max()))
            res_e = max(res_e, abs(A.counit @ v.entries[i, j] - (1.0 if i == j else 0.0)))
    report = {"coaction": res_d, "counit": res_e}
    if v.unitary:
        report["unitary"] = max(
            float(np.abs(A.antipode @ v.entries[i, j] - star_of(A, v.entries[j, i])).max())
            for i in range(dv) for j in range(dv))
    return report
