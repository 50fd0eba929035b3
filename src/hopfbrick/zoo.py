"""Ready-built example algebras and gate seeds with their ground-truth fixtures.

Ships: group algebras C[G] for small finite groups (with dihedral and regular
gate seeds), a cocycle-twisted variant through central-extension data, the
cyclic-permutation-twisted extension, the conjugation ("xyx") extension, and
the 13-dimensional weak Hopf algebra with Fibonacci fusion rules together with
its qutrit gate and IRF data.
"""

from __future__ import annotations

import numpy as np

from .algebra import MAX_DIM, AlgebraData, AlgebraSpecError, structure_tensor
from .representation import Corepresentation, RepPair, Representation

ZETA = float(np.sqrt((np.sqrt(5.0) - 1.0) / 2.0))   # positive root of z^4 + z^2 - 1


class GroupTable:
    """Finite group as a Cayley table with identity at index 0."""

    def __init__(self, table, labels=None, name="G", cocycle=None):
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise AlgebraSpecError("Cayley table must be square")
        self.order = n
        self.table = table
        self.labels = list(labels) if labels else [str(i) for i in range(n)]
        self.name = name
        self.inverse = np.full(n, -1, dtype=np.int64)
        for g in range(n):
            hits = np.nonzero(table[g] == 0)[0]
            if len(hits) != 1:
                raise AlgebraSpecError(f"element {g} has {len(hits)} inverses")
            self.inverse[g] = hits[0]
        self._validate()
        self.cocycle = None
        if cocycle is not None:
            self.cocycle = np.asarray(cocycle, dtype=complex)
            self._validate_cocycle()

    def _validate(self):
        t = self.table
        n = self.order
        if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
            raise AlgebraSpecError("index 0 is not the identity")
        if not np.array_equal(t[t], t[:, t]):   # (gh)k vs g(hk)
            raise AlgebraSpecError("Cayley table is not associative")

    def _validate_cocycle(self):
        w = self.cocycle
        n = self.order
        if w.shape != (n, n):
            raise AlgebraSpecError("cocycle table must be |G| x |G|")
        if not (np.allclose(w[0, :], 1) and np.allclose(w[:, 0], 1)):
            raise AlgebraSpecError("cocycle not normalized: w(1,g) = w(g,1) = 1 required")
        t = self.table
        for f in range(n):
            for g in range(n):
                for h in range(n):
                    lhs = w[f, g] * w[t[f, g], h]
                    rhs = w[g, h] * w[f, t[g, h]]
                    if abs(lhs - rhs) > 1e-12:
                        raise AlgebraSpecError("2-cocycle condition violated")

    def mul(self, g, h):
        return int(self.table[g, h])

    def inv(self, g):
        return int(self.inverse[g])

    def is_abelian(self):
        return np.array_equal(self.table, self.table.T)

    def element_orders(self):
        orders = []
        for g in range(self.order):
            k, cur = 1, g
            while cur != 0:
                cur = self.mul(cur, g)
                k += 1
            orders.append(k)
        return orders


def cyclic_group(n):
    idx = np.arange(n)
    return GroupTable((idx[:, None] + idx[None, :]) % n,
                      labels=[f"g{i}" for i in range(n)], name=f"Z{n}")


def dihedral_group(n):
    """D_n of order 2n, ordered (1, r, ..., r^{n-1}, s, sr, ..., sr^{n-1})."""
    order = 2 * n

    def pack(flip, rot):
        return flip * n + rot

    table = np.zeros((order, order), dtype=np.int64)
    for f1 in range(2):
        for r1 in range(n):
            for f2 in range(2):
                for r2 in range(n):
                    # (s^f1 r^r1)(s^f2 r^r2) = s^(f1+f2) r^(r2 + r1*(-1)^f2)
                    f = (f1 + f2) % 2
                    r = (r2 + (r1 if f2 == 0 else -r1)) % n
                    table[pack(f1, r1), pack(f2, r2)] = pack(f, r)
    labels = [("1" if i == 0 else f"r{i}") for i in range(n)] + \
             [("s" if i == 0 else f"sr{i}") for i in range(n)]
    return GroupTable(table, labels=labels, name=f"D{n}")


def trivial_group():
    return GroupTable([[0]], labels=["1"], name="1")


def direct_product_group(g1: GroupTable, g2: GroupTable):
    n1, n2 = g1.order, g2.order
    table = np.zeros((n1 * n2, n1 * n2), dtype=np.int64)
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + b1, a2 * n2 + b2] = g1.mul(a1, a2) * n2 + g2.mul(b1, b2)
    labels = [f"({la},{lb})" for la in g1.labels for lb in g2.labels]
    return GroupTable(table, labels=labels, name=f"{g1.name}x{g2.name}")


# -- group algebras ---------------------------------------------------------------


def group_algebra(G: GroupTable) -> AlgebraData:
    """C[G]: Delta(g) = g (x) g, eps(g) = 1, S(g) = g^-1, g* = g^-1."""
    n = G.order
    mult_idx = [(g, h, G.mul(g, h)) for g in range(n) for h in range(n)]
    comult_idx = [(g, g, g) for g in range(n)]
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    perm = np.zeros((n, n), dtype=complex)
    for g in range(n):
        perm[G.inv(g), g] = 1.0
    return AlgebraData(
        dim=n,
        basis_labels=list(G.labels),
        mult=structure_tensor(n, mult_idx, np.ones(len(mult_idx))),
        comult=structure_tensor(n, comult_idx, np.ones(n)),
        unit=unit,
        counit=np.ones(n, dtype=complex),
        antipode=perm,
        star=perm.copy(),
        tier="cstar-hopf",
        name=f"C[{G.name}]",
    )


def group_rep(A: AlgebraData, G: GroupTable, mats) -> Representation:
    """Extend a group representation g -> mats[g] linearly to C[G]."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if len(mats) != G.order:
        raise AlgebraSpecError("need one matrix per group element")
    return Representation(A, np.stack(mats), star=True)


def dihedral_rep(n, k=1):
    """The 2-dim representation r -> diag(w^k, w^-k), s -> X of D_n."""
    w = np.exp(2j * np.pi * k / n)
    rot = np.diag([w, np.conj(w)])
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    mats = [np.linalg.matrix_power(rot, j) for j in range(n)]
    mats += [flip @ m for m in mats]
    return mats


def diagonal_corep(A: AlgebraData, group_elements) -> Corepresentation:
    """v_ij = delta_ij g_i for chosen group elements (C[G] corepresentation)."""
    d = len(group_elements)
    entries = np.zeros((d, d, A.dim), dtype=complex)
    for i, g in enumerate(group_elements):
        entries[i, i, g] = 1.0
    return Corepresentation(A, entries, unitary=True)


def group_gate(G: GroupTable, rho_mats, gs, name=None) -> RepPair:
    """Seed pair for the gate X (sum_i rho(g_i) (x) |i><i|) over C[G].

    The corepresentation dimension is len(gs) and need not equal the
    representation dimension.
    """
    A = group_algebra(G)
    if name:
        A.name = name
    rho = group_rep(A, G, rho_mats)
    v = diagonal_corep(A, gs)
    return RepPair(A, rho, v)


def regular_group_gate(G: GroupTable) -> RepPair:
    """Regular gate U|g,h> = |h,hg> from the regular rep and all group elements."""
    n = G.order
    mats = np.zeros((n, n, n), dtype=complex)
    for x in range(n):
        for g in range(n):
            mats[x, G.mul(x, g), g] = 1.0     # rho(x)|g> = |xg>
    A = group_algebra(G)
    rho = Representation(A, mats, star=True)
    v = diagonal_corep(A, list(range(n)))
    return RepPair(A, rho, v)


def cocycle_gate(G: GroupTable, phase_order: int) -> RepPair:
    """Cocycle-twisted regular gate U|g,h> = w(h,g)|h,hg>.

    Built from honest central-extension data: the extension Gtilde of G by
    Z_phase_order determined by the cocycle, its linear representation on C[G],
    and lifted diagonal corepresentation elements.
    """
    if G.cocycle is None:
        raise AlgebraSpecError("group table carries no 2-cocycle")
    n, m = G.order, phase_order
    w = G.cocycle
    # check cocycle values are m-th roots of unity
    if np.abs(w ** m - 1).max() > 1e-12:
        raise AlgebraSpecError(f"cocycle values are not order-{m} roots of unity")
    # central extension: elements (g, u), (g,u)(h,v) = (gh, u + v + log w(g,h))
    logw = np.round(np.angle(w) / (2 * np.pi / m)).astype(int) % m

    def pack(g, u):
        return g * m + u

    table = np.zeros((n * m, n * m), dtype=np.int64)
    for g in range(n):
        for u in range(m):
            for h in range(n):
                for v in range(m):
                    table[pack(g, u), pack(h, v)] = pack(G.mul(g, h), (u + v + logw[g, h]) % m)
    Gt = GroupTable(table, name=f"{G.name}~")
    A = group_algebra(Gt)
    # twisted regular representation on C^|G|: (g,u)|b> = zeta^u w(g,b)|gb>
    zeta = np.exp(2j * np.pi / m)
    mats = np.zeros((n * m, n, n), dtype=complex)
    for g in range(n):
        for u in range(m):
            for b in range(n):
                mats[pack(g, u), G.mul(g, b), b] = zeta ** u * w[g, b]
    rho = Representation(A, mats, star=True)
    v = diagonal_corep(A, [pack(g, 0) for g in range(n)])
    return RepPair(A, rho, v)


# -- twisted-permutation extension (cyclic twist of the group gate) ----------------


def _twisted_perm_codec(g_order, n):
    """pack(k, h_1..h_n) -> basis index of the twisted-permutation extension, and back."""

    def pack(k, hs):
        code = k
        for h in hs:
            code = code * g_order + h
        return code

    def unpack(code):
        hs = []
        for _ in range(n):
            hs.append(code % g_order)
            code //= g_order
        return code, tuple(reversed(hs))

    return pack, unpack


def twisted_perm_algebra(G: GroupTable, n: int) -> AlgebraData:
    """The n|G|^n-dimensional extension behind the cyclically permuted gate.

    Basis (k, h_1..h_n); multiplication is diagonal in k and pointwise in h;
    comultiplication splits k with a cyclic shift of the h-list.
    """
    g_order = G.order
    dim = n * g_order ** n
    if dim > MAX_DIM:         # before the O(dim^2) loops below
        raise AlgebraSpecError(f"dim {dim} exceeds cap {MAX_DIM}")
    pack, unpack = _twisted_perm_codec(g_order, n)

    mult_idx, mult_val = [], []
    for x in range(dim):
        k, hs = unpack(x)
        for y in range(dim):
            l, fs = unpack(y)
            if k != l:
                continue
            prod = tuple(G.mul(h, f) for h, f in zip(hs, fs))
            mult_idx.append((x, y, pack(k, prod)))
            mult_val.append(1.0)
    comult_idx, comult_val = [], []
    for x in range(dim):
        k, hs = unpack(x)
        for l in range(n):
            mshift = (k - l) % n
            shifted = tuple(hs[(i + mshift) % n] for i in range(n))
            comult_idx.append((x, pack(l, shifted), pack(mshift, hs)))
            comult_val.append(1.0)
    unit = np.zeros(dim, dtype=complex)
    for k in range(n):
        unit[pack(k, (0,) * n)] = 1.0
    counit = np.zeros(dim, dtype=complex)
    antipode = np.zeros((dim, dim), dtype=complex)
    star = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        k, hs = unpack(x)
        if k == 0:
            counit[x] = 1.0
        s_hs = tuple(G.inv(hs[(i + k) % n]) for i in range(n))
        antipode[pack((-k) % n, s_hs), x] = 1.0
        star[pack(k, tuple(G.inv(h) for h in hs)), x] = 1.0
    labels = [f"({unpack(x)[0]};{','.join(str(h) for h in unpack(x)[1])})" for x in range(dim)]
    return AlgebraData(dim, labels, structure_tensor(dim, mult_idx, mult_val),
                       structure_tensor(dim, comult_idx, comult_val), unit, counit,
                       antipode=antipode, star=star, tier="cstar-hopf",
                       name=f"Z{n}-twist[{G.name}]")


def twisted_perm_pair(G: GroupTable, rho_mats, gs) -> RepPair:
    """Canonical RepPair of the twisted-permutation extension (cyclic shift)."""
    d = len(gs)
    n = d                                     # cyclic shift i -> i+1 has order d
    A = twisted_perm_algebra(G, n)
    pack, unpack = _twisted_perm_codec(G.order, n)

    dr = np.asarray(rho_mats[0]).shape[0]
    mats = np.zeros((A.dim, dr, dr), dtype=complex)
    for x in range(A.dim):
        k, hs = unpack(x)
        if k == 1 % n:
            mats[x] = np.asarray(rho_mats[hs[0]], dtype=complex)
    rho = Representation(A, mats, star=True)
    entries = np.zeros((d, d, A.dim), dtype=complex)
    for i in range(d):
        for j in range(d):
            hs = tuple(gs[(j + l) % d] for l in range(n))
            entries[i, j, pack((i - j) % n, hs)] = 1.0
    v = Corepresentation(A, entries, unitary=True)
    return RepPair(A, rho, v)


def twisted_perm_tensor_table(G: GroupTable, rho_mats, gs):
    """The explicit nonzero-element tables of the twisted-permutation tensors.

    Returns (gate, rho_tensor, v_tensor, unit_vec, counit_vec) built directly
    from the published index rules, for entrywise comparison with the
    constructed tensors.
    """
    d = len(gs)
    n = d
    g_order = G.order
    dim = n * g_order ** n
    dr = np.asarray(rho_mats[0]).shape[0]

    def pack(k, hs):
        code = k % n
        for h in hs:
            code = code * g_order + h
        return code

    R = np.zeros((dr, dr, dim, dim), dtype=complex)
    V = np.zeros((d, d, dim, dim), dtype=complex)
    for k in range(n):
        for hs in np.ndindex(*([g_order] * n)):
            x = pack(k, hs)
            left = pack(k - 1, tuple(hs[1:]) + (hs[0],))
            R[:, :, x, left] = np.asarray(rho_mats[hs[0]], dtype=complex)
            for j in range(d):
                shifted = pack(k, tuple(G.mul(hs[l], gs[(j + l) % d]) for l in range(n)))
                V[(j + k) % d, j, x, shifted] = 1.0
    unit_vec = np.zeros(dim, dtype=complex)
    for k in range(n):
        unit_vec[pack(k, (0,) * n)] = 1.0
    counit_vec = np.zeros(dim, dtype=complex)
    for hs in np.ndindex(*([g_order] * n)):
        counit_vec[pack(0, hs)] = 1.0
    gate = np.zeros((d, dr, dr, d), dtype=complex)
    for j in range(d):
        gate[(j + 1) % d, :, :, j] = np.asarray(rho_mats[gs[j]], dtype=complex)
    return gate, R, V, unit_vec, counit_vec


# -- conjugation ("xyx") extension --------------------------------------------------


def _xyx_pack(ng):
    """pack(a, g, s) -> basis index of the xyx extension."""
    return lambda a, g, s: (a * ng + g) * 2 + s


def xyx_algebra(G: GroupTable) -> AlgebraData:
    """The 2|G|^2-dimensional extension behind the deterministic gate
    U|h,g> = |gh^-1, gh^-1g^-1>.  Basis (a, g, s) with a,g in G, s in {0,1}.
    """
    ng = G.order
    dim = 2 * ng * ng
    if dim > MAX_DIM:         # before the O(dim^2) loops below
        raise AlgebraSpecError(f"dim {dim} exceeds cap {MAX_DIM}")
    pack = _xyx_pack(ng)

    mult_idx, mult_val = [], []
    for a in range(ng):
        for g in range(ng):
            for s in range(2):
                for b in range(ng):
                    for h in range(ng):
                        for r in range(2):
                            # (a z^s d_g)(b z^r d_h) nonzero iff g^(1-2r) b = b h
                            gpow = g if r == 0 else G.inv(g)
                            if G.mul(gpow, b) != G.mul(b, h):
                                continue
                            mult_idx.append((pack(a, g, s), pack(b, h, r),
                                             pack(G.mul(a, b), h, (s + r) % 2)))
                            mult_val.append(1.0)
    comult_idx, comult_val = [], []
    for a in range(ng):
        for g in range(ng):
            for s in range(2):
                for h in range(ng):
                    f = G.mul(G.inv(h), g)    # hf = g
                    left = pack(a, h, s)
                    ah_s = G.mul(a, h) if s == 1 else a
                    comult_idx.append((pack(a, g, s), left, pack(ah_s, f, s)))
                    comult_val.append(1.0)
    unit = np.zeros(dim, dtype=complex)
    for g in range(ng):
        unit[pack(0, g, 0)] = 1.0
    counit = np.zeros(dim, dtype=complex)
    antipode = np.zeros((dim, dim), dtype=complex)
    star = np.zeros((dim, dim), dtype=complex)
    for a in range(ng):
        for g in range(ng):
            for s in range(2):
                x = pack(a, g, s)
                if g == 0:
                    counit[x] = 1.0
                ag_s = G.mul(a, g) if s == 1 else a
                g2s1 = g if s == 1 else G.inv(g)          # g^(2s-1)
                conj_s = G.mul(G.mul(a, g2s1), G.inv(a))
                antipode[pack(G.inv(ag_s), conj_s, s), x] = 1.0
                g12s = G.inv(g) if s == 1 else g          # g^(1-2s)
                conj_star = G.mul(G.mul(a, g12s), G.inv(a))
                star[pack(G.inv(a), conj_star, s), x] = 1.0
    labels = [f"({a},{g},{s})" for a in range(ng) for g in range(ng) for s in range(2)]
    return AlgebraData(dim, labels, structure_tensor(dim, mult_idx, mult_val),
                       structure_tensor(dim, comult_idx, comult_val), unit, counit,
                       antipode=antipode, star=star, tier="cstar-hopf",
                       name=f"xyx[{G.name}]")


def xyx_pair(G: GroupTable) -> RepPair:
    """Canonical RepPair for the xyx extension (both legs |G|-dimensional)."""
    A = xyx_algebra(G)
    ng = G.order
    pack = _xyx_pack(ng)

    mats = np.zeros((A.dim, ng, ng), dtype=complex)
    for a in range(ng):
        for g in range(ng):
            for s in range(2):
                # (a z^s d_g)|h> = delta_{g,h} |a h^(1-2s) a^-1>
                h = g
                hpow = h if s == 0 else G.inv(h)
                mats[pack(a, g, s), G.mul(G.mul(a, hpow), G.inv(a)), h] = 1.0
    rho = Representation(A, mats, star=True)
    entries = np.zeros((ng, ng, A.dim), dtype=complex)
    for i in range(ng):
        for h in range(ng):
            entries[i, h, pack(i, G.mul(G.inv(i), h), 1)] = 1.0
    v = Corepresentation(A, entries, unitary=True)
    return RepPair(A, rho, v)


def xyx_tensor_table(G: GroupTable):
    """Explicit nonzero-element tables for the xyx tensors (published rules)."""
    ng = G.order
    dim = 2 * ng * ng

    def pack(a, g, s):
        return (a * ng + g) * 2 + s

    R = np.zeros((ng, ng, dim, dim), dtype=complex)
    V = np.zeros((ng, ng, dim, dim), dtype=complex)
    for a in range(ng):
        for g in range(ng):
            for h in range(ng):
                gh1 = G.mul(g, G.inv(h))
                # s = 0 row:  up index a h a', down h, left (a, g h', 0)
                R[G.mul(G.mul(a, h), G.inv(a)), h, pack(a, g, 0), pack(a, gh1, 0)] = 1.0
                # s = 1 row:  up index a g h' g' a'
                up = G.mul(G.mul(a, G.mul(gh1, G.inv(g))), G.inv(a))
                R[up, h, pack(a, g, 1), pack(a, gh1, 1)] = 1.0
                for s in range(2):
                    left = pack(G.mul(G.mul(a, g), h),
                                G.mul(G.mul(G.inv(h), G.inv(g)), h), 1 - s)
                    V[G.mul(g, h), h, pack(a, g, s), left] = 1.0
    unit_vec = np.zeros(dim, dtype=complex)
    counit_vec = np.zeros(dim, dtype=complex)
    for a in range(ng):
        for g in range(ng):
            for s in range(2):
                if s == 0 and a == 0:
                    unit_vec[pack(a, g, s)] = 1.0
                if g == 0:
                    counit_vec[pack(a, g, s)] = 1.0
    gate = np.zeros((ng, ng, ng, ng), dtype=complex)
    for h in range(ng):
        for g in range(ng):
            gh1 = G.mul(g, G.inv(h))
            gate[gh1, G.mul(gh1, G.inv(g)), h, g] = 1.0
    return gate, R, V, unit_vec, counit_vec


# -- Fibonacci weak Hopf algebra -----------------------------------------------------


def _fib_index(block, i, j):
    if block == 1:
        return (i - 1) * 2 + (j - 1)
    return 4 + (i - 1) * 3 + (j - 1)


def fibonacci_wha() -> AlgebraData:
    """The 13-dimensional C*-weak Hopf algebra M2 + M3 with golden-ratio data."""
    z = ZETA
    dim = 13
    labels = [f"e1_{i}{j}" for i in (1, 2) for j in (1, 2)] + \
             [f"e2_{k}{l}" for k in (1, 2, 3) for l in (1, 2, 3)]
    # matrix units of M2 and M3: e_ij e_jl = e_il
    mult_idx = [(_fib_index(b, i, j), _fib_index(b, j, l), _fib_index(b, i, l))
                for b, n in ((1, 2), (2, 3)) for i in range(1, n + 1)
                for j in range(1, n + 1) for l in range(1, n + 1)]

    def e1(i, j):
        return _fib_index(1, i, j)

    def e2(i, j):
        return _fib_index(2, i, j)

    delta = {
        e1(1, 1): [(e1(1, 1), e1(1, 1), 1.0), (e2(1, 1), e2(2, 2), 1.0)],
        e1(1, 2): [(e1(1, 2), e1(1, 2), 1.0), (e2(1, 2), e2(2, 1), z ** 2),
                   (e2(1, 3), e2(2, 3), z)],
        e1(2, 2): [(e1(2, 2), e1(2, 2), 1.0), (e2(2, 2), e2(1, 1), z ** 4),
                   (e2(2, 3), e2(1, 3), z ** 3), (e2(3, 2), e2(3, 1), z ** 3),
                   (e2(3, 3), e2(3, 3), z ** 2)],
        e2(1, 1): [(e1(1, 1), e2(1, 1), 1.0), (e2(1, 1), e1(2, 2), 1.0),
                   (e2(1, 1), e2(3, 3), 1.0)],
        e2(1, 2): [(e1(1, 2), e2(1, 2), 1.0), (e2(1, 2), e1(2, 1), 1.0),
                   (e2(1, 3), e2(3, 2), 1.0)],
        # second term: printed as e2^11 (x) e1^22; the counit axiom and the
        # coaction Delta(v_23) = sum_k v_2k (x) v_k3 force e2^13 (x) e1^22
        e2(1, 3): [(e1(1, 2), e2(1, 3), 1.0), (e2(1, 3), e1(2, 2), 1.0),
                   (e2(1, 2), e2(3, 1), z), (e2(1, 3), e2(3, 3), -z ** 2)],
        e2(2, 2): [(e1(2, 2), e2(2, 2), 1.0), (e2(2, 2), e1(1, 1), 1.0),
                   (e2(3, 3), e2(2, 2), 1.0)],
        # second term: printed as e2^23 (x) e1^21; the coaction
        # Delta(v_32) = sum_k v_3k (x) v_k2 forces e2^23 (x) e1^12
        e2(2, 3): [(e1(2, 2), e2(2, 3), 1.0), (e2(2, 3), e1(1, 2), 1.0),
                   (e2(3, 2), e2(2, 1), z), (e2(3, 3), e2(2, 3), -z ** 2)],
        e2(3, 3): [(e1(2, 2), e2(3, 3), 1.0), (e2(3, 3), e1(2, 2), 1.0),
                   (e2(2, 2), e2(1, 1), z ** 2), (e2(2, 3), e2(1, 3), -z ** 3),
                   (e2(3, 2), e2(3, 1), -z ** 3), (e2(3, 3), e2(3, 3), z ** 4)],
    }
    # untabulated rows follow from the star symmetry of the table:
    # Delta(x*) = Delta(x)^(* slotwise); here * is blockwise Hermitian conjugation
    conj_pairs = {
        e1(2, 1): e1(1, 2), e2(2, 1): e2(1, 2), e2(3, 1): e2(1, 3), e2(3, 2): e2(2, 3),
    }
    star_perm = {}
    for i in (1, 2):
        for j in (1, 2):
            star_perm[e1(i, j)] = e1(j, i)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            star_perm[e2(i, j)] = e2(j, i)
    for target, source in conj_pairs.items():
        delta[target] = [(star_perm[a], star_perm[b], np.conj(v))
                         for a, b, v in delta[source]]
    comult_idx = [(zidx, a, b) for zidx, rows in delta.items() for a, b, _ in rows]
    comult_val = [v for rows in delta.values() for _, _, v in rows]

    unit = np.zeros(dim, dtype=complex)
    for idx in (e1(1, 1), e1(2, 2), e2(1, 1), e2(2, 2), e2(3, 3)):
        unit[idx] = 1.0
    counit = np.zeros(dim, dtype=complex)
    for i in (1, 2):
        for j in (1, 2):
            counit[e1(i, j)] = 1.0
    sigma = {1: 2, 2: 1, 3: 3}
    mu = {1: 1, 2: 3, 3: 2}
    antipode = np.zeros((dim, dim), dtype=complex)
    star = np.zeros((dim, dim), dtype=complex)
    for i in (1, 2):
        for j in (1, 2):
            antipode[e1(j, i), e1(i, j)] = 1.0
            star[e1(j, i), e1(i, j)] = 1.0
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            antipode[e2(sigma[l], sigma[k]), e2(k, l)] = z ** (mu[k] - mu[l])
            star[e2(l, k), e2(k, l)] = 1.0
    return AlgebraData(dim, labels, structure_tensor(dim, mult_idx, np.ones(len(mult_idx))),
                       structure_tensor(dim, comult_idx, comult_val), unit, counit,
                       antipode=antipode, star=star, tier="cstar-weak-hopf",
                       name="fibonacci")


def fibonacci_reps(A: AlgebraData):
    """(rho2, rho3, rho5): the M2 block, the M3 block, and their faithful sum."""
    m2 = np.zeros((13, 2, 2), dtype=complex)
    m3 = np.zeros((13, 3, 3), dtype=complex)
    for i in (1, 2):
        for j in (1, 2):
            m2[_fib_index(1, i, j), i - 1, j - 1] = 1.0
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            m3[_fib_index(2, k, l), k - 1, l - 1] = 1.0
    m5 = np.zeros((13, 5, 5), dtype=complex)
    m5[:, :2, :2] = m2
    m5[:, 2:, 2:] = m3
    return (Representation(A, m2, star=True),
            Representation(A, m3, star=True),
            Representation(A, m5, star=True))


def fibonacci_corep(A: AlgebraData) -> Corepresentation:
    z = ZETA
    e1, e2 = lambda i, j: _fib_index(1, i, j), lambda i, j: _fib_index(2, i, j)
    entries = np.zeros((3, 3, 13), dtype=complex)
    entries[0, 0, e1(2, 1)] = 1.0
    entries[0, 1, e2(2, 1)] = 1.0
    entries[0, 2, e2(3, 1)] = 1.0
    entries[1, 0, e2(1, 2)] = z ** 2
    entries[1, 1, e1(1, 2)] = 1.0
    entries[1, 2, e2(1, 3)] = z
    entries[2, 0, e2(3, 2)] = z
    entries[2, 1, e2(2, 3)] = 1.0
    entries[2, 2, e1(2, 2)] = 1.0
    entries[2, 2, e2(3, 3)] = -z ** 2
    return Corepresentation(A, entries, unitary=True)


def fibonacci_pair() -> RepPair:
    A = fibonacci_wha()
    rho2, rho3, rho5 = fibonacci_reps(A)
    A._cache["faithful_star_rep"] = rho5
    return RepPair(A, rho3, fibonacci_corep(A))


def fibonacci_irf():
    """IRF gate data: the tau-tau block and the projector-like control blocks."""
    z = ZETA
    u_tautau = np.array([[z ** 2, z], [z, -z ** 2]], dtype=complex)   # basis (I, tau)
    proj_tau = np.array([[0, 0], [0, 1]], dtype=complex)
    return {"tt": u_tautau, "It": proj_tau, "tI": proj_tau, "II": proj_tau}


# -- model registry -----------------------------------------------------------------


def swap_pair(d=2) -> RepPair:
    """The SWAP gate from the trivial group with a d-dimensional trivial rep."""
    G = trivial_group()
    return group_gate(G, [np.eye(d, dtype=complex)], [0] * d, name=f"C[1] swap d={d}")


def dihedral3_pair() -> RepPair:
    """The order-3 dihedral model: 2-dim rep (k=1), corep elements (s, r)."""
    G = dihedral_group(3)
    return group_gate(G, dihedral_rep(3, 1), [3, 1], name="C[D3]")


def z2_pair() -> RepPair:
    return regular_group_gate(cyclic_group(2))


def z3_pair() -> RepPair:
    return regular_group_gate(cyclic_group(3))


MODELS = {
    "fibonacci": fibonacci_pair,
    "dihedral-3": dihedral3_pair,
    "z2-regular": z2_pair,
    "z3-regular": z3_pair,
    "swap": swap_pair,
    "twisted-perm-z2": lambda: twisted_perm_pair(
        cyclic_group(2), [np.array([[1.0]]), np.array([[-1.0]])], [0, 1]),
    "xyx-z2": lambda: xyx_pair(cyclic_group(2)),
    "xyx-z3": lambda: xyx_pair(cyclic_group(3)),
}


def model(name: str) -> RepPair:
    if name not in MODELS:
        raise KeyError(f"unknown zoo model {name!r}; have {sorted(MODELS)}")
    return MODELS[name]()
