"""Transfer-matrix engine: every exactly contracted quantity of the circuits.

Triangle / diamond / inverted-triangle operator networks as bond-d_A matrix
products, Heisenberg-picture observables as two MPO rows (bra and ket, bond
d_A each at any time), quench expectation values and equal-time
correlators, Renyi entropies of finite blocks (explicit reduced density
matrix or replica transfer matrices) and of the half chain, equilibration
rates, normalized projector-trace spatiotemporal correlators and OTOCs, and
the periodic-chain evolution operator at its special times.

Column programs: a quench quantity is <K_L| C_0 C_1 ... C_{2n-1} |K_R> over
column transfer matrices alternating rho, v, with a local operator on some
columns (`_columns`; at t = 0 the columns are the state's site transfers).
The traced cells outside the operators depend only on the state and the
tensor set; the boundaries after k of them are kept at each k asked for
(`TransferStack.boundary`; at t = 0 the environments): a point costs the
cells between its operators, and a state each boundary cell once along a
time grid.
Columns are applied to the running vector, not built: a traced column is
one cached dense matrix, and a column with an operator is contracted as ket
half, operator, conjugate ket half on the reshaped vector
(`TransferStack.apply`), at O(d_p (d_A D_psi)^3) instead of the
O((d_A D_psi)^4) of its dense matrix.
A block entropy is one program, `_renyi_program`, whose open columns carry
the block's legs: kept open on one copy they give the reduced density
matrix, paired across replicas they give the replica trace.  Both forms
hold at every block size and time.

Segment programs: the replica trace is not stepped column by column.  Its
program is a few runs of one repeated two-column cell (`_runs`): two ramps,
each evaluated from the boundary it touches (the left one with transposed
steps) and restricted to the Krylov span its boundary vector reaches, a few
dimensions at any length; and a middle run whose cell keeps the replica
pairing, one small matrix per leg taken to its power.  A point costs
O(span + log t) (span cells plus log t small matrix products) instead of
l + 2t replica steps.  The channel, kept per alpha on the TransferStack,
keeps each ramp's span: a scan pays it once per (state, alpha, end), and a
later point one small matrix power per ramp plus its joining steps.

Time bookkeeping: one period applies the odd then the even gate layer, so a
Heisenberg operator at time t spans 2t column pairs (t in half-integers).
An operator at position x sits on a v-leg when x - t is an integer (integer
positions are v-sites of the t = 0 lattice), on a rho-leg otherwise.

Normalized-trace convention: infinite-chain traces (spatiotemporal
correlator, OTOC) divide by the same projector-channel contraction without
operator insertions, so C(1,1,x,t) = F(1,1,x,t) = 1 exactly.

Trace channels on their live support: the vector swept through a trace
window lives on the product of every layer's bond, but only a bounded set
of its entries can be nonzero at any t (Fibonacci OTOC: at most 875 of
257 049, measured up to t = 400).  The sweep carries it on that exact
support, one sparse map per site (`_sweep_cuts`), and divides out the
channel's growth once per cell.  What a channel takes from the tensor set
alone is kept on the set (`_TraceCache`): the Heisenberg rows, which are
the same base tensors at every t, their adjoints, the projector cell
channel's environment, and the map of every site built only from those
tensors, keyed by the site's tensors and live rows.  So the maps outlive a
call: an OTOC or st_correlator scan builds each interior map once, and a
point pays only the sites that carry its own operators.  Replica channels
likewise run on the slot values that carry an exact nonzero entry of a
traced column (Fibonacci: 8 of 13), and the column factors are taken on the
columns' live rows.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .algebra import canonical_power, exponent
from .tensors import SolvableTensorSet

TOL_NUM = 1e-9
MEMORY_CAP = 2 ** 26        # complex entries one engine intermediate may hold
RANK_CUT = 1e-12            # relative singular-value cut of the column factors
KRYLOV_MAX = 64             # basis vectors of one Arnoldi cycle before a restart
REAL_FORM_MIN = 16          # smaller swap-closed blocks: the real form saves less than it costs


def leg_of(x, t) -> str:
    """Leg type of an operator at position x and time t (half-integer grid)."""
    return "v" if abs((x - t) - round(x - t)) < 1e-9 else "rho"


def _half_steps(t) -> int:
    n = int(round(2 * t))
    if abs(2 * t - n) > 1e-12 or n < 0:
        raise ValueError(f"time {t} must be a non-negative multiple of 1/2")
    return n


def _chain(left, sites, right):
    """<left| W_1 ... W_n |right> with every physical leg left open.

    Each site is [bond_in, bond_out] or [bond_in, bond_out, out, in]; the
    result carries all out legs, then all in legs, each in site order.
    """
    n = len(sites)
    operands, outs, ins = [left, [0]], [], []
    for k, W in enumerate(sites):
        legs = [n + 1 + 2 * k, n + 2 + 2 * k][:W.ndim - 2]
        operands += [W, [k, k + 1, *legs]]
        outs += legs[:1]
        ins += legs[1:]
    operands += [right, [n], outs + ins]
    return np.einsum(*operands, optimize=True)


def _columns(boundary, apply, n_cells, ops) -> complex:
    """<K_L| C_0 C_1 ... C_{2n-1} |K_R>, where apply(kind, ops.get(c), vec)
    returns C_c @ vec and boundary(side, k) is the boundary after k cells.

    Kinds alternate rho, v from column 0; only the cells from the first key
    of `ops` to the last are stepped, one column at a time, the last first.
    """
    first, last = min(ops) // 2, max(ops) // 2
    vec = boundary("R", n_cells - 1 - last)
    for c in reversed(range(2 * first, 2 * last + 2)):
        vec = apply("rho" if c % 2 == 0 else "v", ops.get(c), vec)
    return complex(boundary("L", first) @ vec)


# -- states -------------------------------------------------------------------------


@dataclass
class MPSState:
    """Translation-invariant two-site-cell MPS (product states have bond 1).

    Site tensors carry (physical, left bond, right bond); the unit cell is
    (rho-site, v-site).  Environments are the principal left/right fixed
    points of the cell transfer matrix, rescaled so the leading eigenvalue
    is one and <L|R> = 1.
    """

    rho_site: np.ndarray
    v_site: np.ndarray
    _env: tuple | None = field(default=None, repr=False)
    _stacks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.rho_site = np.asarray(self.rho_site, dtype=complex)
        self.v_site = np.asarray(self.v_site, dtype=complex)

    @classmethod
    def product(cls, rho_vec, v_vec):
        r = np.asarray(rho_vec, dtype=complex).reshape(-1, 1, 1)
        v = np.asarray(v_vec, dtype=complex).reshape(-1, 1, 1)
        return cls(rho_site=r / np.linalg.norm(r), v_site=v / np.linalg.norm(v))

    @property
    def bond_dim(self):
        return self.rho_site.shape[1]

    def site_transfer(self, kind, op=None):
        """Transfer matrix of one site, with `op` between ket and bra."""
        A = self.rho_site if kind == "rho" else self.v_site
        ket = A if op is None else np.tensordot(op, A, axes=1)
        return np.einsum("pmn,pMN->mMnN", ket, A.conj()).reshape(
            A.shape[1] ** 2, A.shape[2] ** 2)

    def environments(self):
        """(Lambda_L, Lambda_R) of the cell transfer matrix.

        Raises ValueError, leaving the sites untouched, when the leading
        eigenvalue is zero, not finite or not simple (a non-injective state
        has no unique fixed point).
        """
        if self._env is None:
            lam, L, R = _leading_environment(self.site_transfer("rho") @ self.site_transfer("v"))
            if len(L) > 1:
                raise ValueError("MPS cell transfer matrix has a degenerate leading "
                                 "eigenvalue (non-injective state)")
            if abs(lam - 1.0) > 1e-12:
                scale = abs(lam) ** (-0.25)
                self.rho_site = self.rho_site * scale
                self.v_site = self.v_site * scale
            self._env = (L[0], R[:, 0])
        return self._env

    def transfer_stack(self, ts) -> "TransferStack":
        """The TransferStack of `ts` on this state, built on first use.

        Keyed by the tensor set's identity; the stack holds `ts`, so that id
        cannot be reused while the entry lives.
        """
        stack = self._stacks.get(id(ts))
        if stack is None:
            stack = self._stacks[id(ts)] = TransferStack(ts, self)
        return stack

    def pair_rdm(self, first, second):
        """Normalized two-site reduced density matrix of adjacent sites."""
        lam_l, lam_r = self.environments()
        D = self.bond_dim
        L = lam_l.reshape(D, D)
        R = lam_r.reshape(D, D)
        T = np.einsum("mM,pmn,PMN->pPnN", L, first, first.conj())
        T = np.einsum("pPnN,qnk,QNK->pqPQkK", T, second, second.conj())
        rdm = np.einsum("pqPQkK,kK->pqPQ", T, R)
        d1, d2 = first.shape[0], second.shape[0]
        rdm = rdm.reshape(d1 * d2, d1 * d2)
        return rdm / np.trace(rdm)

    def check_projector_invariance(self, pair) -> float:
        """Residual of the solvable-subspace membership, checked on a window
        with the model's `pair.projectors`; 0 for a model that carries none."""
        pp = pair.projectors
        if pp is None:
            return 0.0
        rdm_vr = self.pair_rdm(self.v_site, self.rho_site)
        rdm_rv = self.pair_rdm(self.rho_site, self.v_site)
        res = abs(1.0 - np.trace(pp.P @ rdm_vr).real) + \
            abs(1.0 - np.trace(pp.Q @ rdm_rv).real)
        return float(res)


# -- transfer matrices ---------------------------------------------------------------


class TransferStack:
    """Column transfer matrices of one model/state combination.

    Virtual layout per cut: (ket A-bond, bra A-bond, ket psi-bond, bra
    psi-bond), flattened.  K_L carries (counit, conj counit, Lambda_L) and
    pairs with output slots; K_R carries (unit, conj unit, Lambda_R).  The
    traced columns T(kind) are built once; `apply` inserts an operator
    between a column's ket and bra halves.  Engine quantities take the stack
    from `MPSState.transfer_stack`, so it is built once per state.
    """

    def __init__(self, ts: SolvableTensorSet, state: MPSState):
        self.ts = ts
        # a weak proxy: the state owns its cached stacks, and a strong
        # reference back would keep both alive until a cyclic collection
        self.state = weakref.proxy(state)
        lam_l, lam_r = state.environments()
        d = ts.algebra.dim
        Dpsi = state.bond_dim
        self.dim = d * d * Dpsi * Dpsi
        # ket half of each column: [out, left A-bond, left psi-bond, right
        # A-bond, right psi-bond]
        self._kets = {kind: np.einsum("apxy,pmn->aymxn", W, A)
                      for kind, W, A in (("rho", ts.rho_tensor, state.rho_site),
                                         ("v", ts.v_tensor, state.v_site))}
        self._traced = {kind: self._pair(K, K.conj()) for kind, K in self._kets.items()}
        eps, u = ts.counit_vec, ts.unit_vec
        lamL = lam_l.reshape(Dpsi, Dpsi)
        lamR = lam_r.reshape(Dpsi, Dpsi)
        self.K_L = np.einsum("y,Y,mM->yYmM", eps, eps.conj(), lamL).reshape(-1)
        self.K_R = np.einsum("x,X,nN->xXnN", u, u.conj(), lamR).reshape(-1)
        self._factors = {}
        self._channels = {}
        self._kept = {"L": {}, "R": {}}

    def _pair(self, ket, bra):
        """sum_a ket[a] (x) bra[a] in the cut layout."""
        out = np.tensordot(ket, bra, axes=([0], [0]))       # [ymxn, YMXN]
        return out.transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(self.dim, self.dim)

    def T(self, kind):
        """The traced column `kind` as a dense matrix."""
        return self._traced[kind]

    def apply(self, kind, op, vec):
        """The column `kind`, with `op` between its ket and bra, on `vec`.

        The bra half (op folded in) contracts the vector's bra legs, then the
        ket half its ket legs: two contractions of O(d_p (d_A D_psi)^3).
        """
        if op is None:
            return self._traced[kind] @ vec
        K = self._kets[kind]                               # [a, y, m, x, n]
        dA, D = K.shape[1], K.shape[2]
        bra = np.tensordot(np.asarray(op, dtype=complex).T, K.conj(), axes=1)
        half = np.tensordot(bra, vec.reshape(dA, dA, D, D),
                            axes=([3, 4], [1, 3]))          # [a, Y, M, x, n]
        out = np.tensordot(K, half, axes=([0, 3, 4], [0, 3, 4]))   # [y, m, Y, M]
        return out.transpose(0, 2, 1, 3).reshape(-1)

    def boundary(self, side, k):
        """<K_L| (T_rho T_v)^k (side "L") or (T_rho T_v)^k |K_R> ("R"), kept at
        k; stepped on from the largest kept k below, so never order-dependent."""
        kept, T = self._kept[side], self._traced
        if k not in kept:
            j = max((j for j in kept if j < k), default=0)
            vec = kept.get(j, self.K_L if side == "L" else self.K_R)
            for _ in range(k - j):
                vec = vec @ T["rho"] @ T["v"] if side == "L" else T["rho"] @ (T["v"] @ vec)
            kept[k] = vec
        return kept[k]

    def open(self, kind):
        """Column `kind` with its physical legs open: [left group, bra, ket,
        right group]."""
        K = self._kets[kind]
        dp = K.shape[0]
        return np.einsum("aymxn,BYMXN->yYmMBaxXnN", K, K.conj()).reshape(
            self.dim, dp, dp, self.dim)

    def factors(self, kind):
        """(U, V) with T(kind) = U @ V.T, computed once per stack.

        An SVD of the live block, the rows and columns of T that hold an exact
        nonzero entry (Fibonacci: 34 of 169 each), whose singular values below
        RANK_CUT * sigma_max are dropped: the block is exactly low rank, so
        the cut removes round-off only.  U and V are exactly zero outside the
        live rows and columns.
        """
        if kind not in self._factors:
            T = self._traced[kind]
            rows = np.flatnonzero(np.any(T != 0, axis=1))
            cols = np.flatnonzero(np.any(T != 0, axis=0))
            u, s, vh = np.linalg.svd(T[np.ix_(rows, cols)])
            r = int(np.count_nonzero(s > RANK_CUT * s[0]))
            U = np.zeros((self.dim, r), dtype=complex)
            V = np.zeros((self.dim, r), dtype=complex)
            U[rows] = u[:, :r] * s[:r]
            V[cols] = vh[:r].T
            self._factors[kind] = (U, V)
        return self._factors[kind]

    def replica_channel(self, alpha) -> "ReplicaChannel":
        """The alpha-replica channel of this stack (one tensor set on one
        state), built on first use; the points of a scan share its steps and
        ramp spans."""
        channel = self._channels.get(int(alpha))
        if channel is None:
            channel = self._channels[int(alpha)] = ReplicaChannel(self.ts, self.state, alpha)
        return channel


# -- operator-shape MPOs ----------------------------------------------------------------


def mpo_triangle(ts: SolvableTensorSet, n: int) -> np.ndarray:
    """Dense triangular operator from the bond-d_A matrix product.

    Output axes: (a1, i1, ..., an, in, b1, j1, ..., bn, jn).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    R = ts.rho_tensor.transpose(3, 2, 0, 1)        # [out, arg, a, b]
    V = ts.v_tensor.transpose(3, 2, 0, 1)
    return _chain(ts.counit_vec, [R, V] * n, ts.unit_vec)


def mpo_diamond_power(ts: SolvableTensorSet, n: int, k: int = 1) -> np.ndarray:
    """k-th matrix power of the diamond operator via canonical-element powers.

    Matrix with rows (a-block, i-block), columns (b-block, j-block).
    """
    if n < 1 or k < 1:
        raise ValueError("n, k must be >= 1")
    ck = canonical_power(ts.algebra, k).coeffs
    R = ts.rho_tensor.transpose(3, 2, 0, 1)
    V = ts.v_tensor.transpose(3, 2, 0, 1)
    block = _chain(ts.counit_vec, [R] * n + [ck] + [V] * n, ts.unit_vec)
    dr, dv = ts.d_rho, ts.d_v
    return block.reshape(dr ** n * dv ** n, dr ** n * dv ** n)


def mpo_inverted_triangle(ts: SolvableTensorSet, n: int) -> np.ndarray:
    """Dense inverted-triangle operator from the primed matrix product.

    Output axes: (i1, a1, ..., in, an, j1, b1, ..., jn, bn).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    Rp = ts.rho_primed.transpose(2, 3, 0, 1)       # primed: arg fed from the left
    Vp = ts.v_primed.transpose(2, 3, 0, 1)
    return _chain(ts.unit_vec, [Vp, Rp] * n, ts.counit_vec)


# -- Heisenberg MPOs ----------------------------------------------------------------------


@dataclass
class HeisenbergMPO:
    """A time-evolved single-site operator O(t) as two MPO rows, bra and
    ket, each of bond d_A at every cut, independent of t
    (`_heisenberg_rows`); `bond_dim` is the product of the two, d_A^2.

    Columns alternate rho, v over 2t pairs; the operator inserts on the last
    v column (v-leg) or the first rho column (rho-leg).  At t = 0 there are
    no columns: O sits on the identity row at `position`.
    """

    ts: SolvableTensorSet
    op: np.ndarray
    t: float
    leg: str
    position: float = 0.0

    def __post_init__(self):
        _half_steps(self.t)
        d_phys = self.ts.d_v if self.leg == "v" else self.ts.d_rho
        self.op = np.asarray(self.op, dtype=complex)
        if self.op.shape != (d_phys, d_phys):
            raise ValueError("operator dimension does not match the leg type")

    @property
    def n_columns(self):
        return 2 * _half_steps(self.t)

    @property
    def bond_dim(self):
        return self.ts.algebra.dim ** 2

    def support(self):
        """Column positions on the half-integer site grid."""
        start = self.position - self.t + (0.5 if self.leg == "v" else 0.0)
        return [start + 0.5 * k for k in range(self.n_columns)]


def heisenberg_mpo(ts, O, t, position=0.0) -> HeisenbergMPO:
    return HeisenbergMPO(ts=ts, op=np.asarray(O, dtype=complex), t=t,
                         leg=leg_of(position, t), position=position)


# -- quench expectation values ----------------------------------------------------------


def _state_columns(state: MPSState, n_cells, ops) -> complex:
    """A t = 0 program over the state's site transfers, normalized by the
    same program with its operators removed; the environments are the boundaries."""
    env = dict(zip("LR", state.environments()))

    def apply(kind, op, vec):
        return state.site_transfer(kind, op) @ vec

    return (_columns(lambda side, k: env[side], apply, n_cells, ops)
            / _columns(lambda side, k: env[side], apply, n_cells, dict.fromkeys(ops)))


def expectation(ts, O, t, state: MPSState, x=0.0) -> complex:
    """<O_x(t)> in the quench from a translation-invariant state.

    2t cells with O on the last column (v-leg) or on column 0 (rho-leg); at
    t = 0 one cell of the state.
    """
    leg = leg_of(x, t)
    n = _half_steps(t)
    if n == 0:
        return _state_columns(state, 1, {1 if leg == "v" else 0: O})
    st = state.transfer_stack(ts)
    return _columns(st.boundary, st.apply, n, {2 * n - 1 if leg == "v" else 0: O})


def two_point(ts, O, O2, x, t, state: MPSState, connected=False) -> complex:
    """<O_0(t) O2_{x+1/2}(t)>; O at integer site 0, O2 at site x + 1/2, t integer.

    2t + x cells with O on column 4t - 1 and O2 on column 2x; at t = 0,
    x + 2 cells of the state with O on column 1 and O2 on column 2x + 2.
    """
    if int(round(t)) != t:
        raise ValueError("two_point is defined at integer times")
    if x < 0 or int(round(x)) != x:
        raise ValueError("x must be a non-negative integer")
    t, x = int(round(t)), int(round(x))
    if t == 0:
        val = _state_columns(state, x + 2, {1: O, 2 * x + 2: O2})
    else:
        st = state.transfer_stack(ts)
        val = _columns(st.boundary, st.apply, 2 * t + x, {4 * t - 1: O, 2 * x: O2})
    if not connected:
        return val
    e1 = expectation(ts, O, t, state, x=0.0)
    e2 = expectation(ts, O2, t, state, x=x + 0.5)
    return val - e1 * e2


# -- Renyi entropies ---------------------------------------------------------------------


def _entropy_from_rdm(M, alpha) -> float:
    tr = np.trace(M)
    if not np.isfinite(tr) or tr == 0:
        raise FloatingPointError(f"reduced density matrix has trace {tr:.3e}")
    M = M / tr
    vals = np.linalg.eigvalsh((M + M.conj().T) / 2)
    vals = np.clip(vals.real, 0.0, None)
    return float(np.log(float((vals ** alpha).sum())) / (1 - alpha))


def _renyi_program(l, n):
    """(kind, open) columns of a 2l-site block after n half steps.

    With k = min(l, n): k (rho*, v), l - k (rho*, v*), n - k (rho, v) and
    k (rho, v*) cells, where * marks an open column (a leg of the block).
    """
    k = min(l, n)
    return ([("rho", True), ("v", False)] * k + [("rho", True), ("v", True)] * (l - k)
            + [("rho", False), ("v", False)] * (n - k) + [("rho", False), ("v", True)] * k)


def reduced_density_matrix(ts, state, l, t) -> np.ndarray:
    """The rotated reduced density matrix of a 2l-qudit block, at every (l, t).

    `_renyi_program(l, 2t)` on one copy with the open columns' legs kept: the
    program is split where each half holds l open columns and each half is
    contracted from its boundary.  Rows are the ket legs and columns the bra
    legs of the open columns, in program order.
    """
    dr, dv = ts.d_rho, ts.d_v
    if (dr * dv) ** (2 * l) > MEMORY_CAP:
        raise MemoryError("reduced density matrix exceeds the memory cap")
    st = state.transfer_stack(ts)
    D = st.dim
    program = _renyi_program(l, _half_steps(t))
    opened = {kind: st.open(kind) for kind in ("rho", "v")}
    split = int(np.searchsorted(np.cumsum([0] + [is_open for _, is_open in program]), l))
    left = st.K_L.reshape(1, D)                 # [open legs, cut]
    for kind, is_open in program[:split]:
        left = (left @ opened[kind].reshape(D, -1)).reshape(-1, D) if is_open \
            else left @ st.T(kind)
    right = st.K_R.reshape(D, 1)                # [cut, open legs]
    for kind, is_open in reversed(program[split:]):
        right = (opened[kind].reshape(-1, D) @ right).reshape(D, -1) if is_open \
            else st.T(kind) @ right
    # one (bra, ket) leg pair per open column, in program order
    dims = [dr if kind == "rho" else dv for kind, is_open in program if is_open]
    M = (left @ right).reshape([d for d in dims for _ in range(2)])
    M = M.transpose(list(range(1, 4 * l, 2)) + list(range(0, 4 * l, 2)))
    return M.reshape(dr ** l * dv ** l, dr ** l * dv ** l)


def renyi_small(ts, state, l, t, alpha) -> float:
    """H_alpha of a 2l-qudit block via the explicit reduced density matrix."""
    if alpha < 2 or int(alpha) != alpha:
        raise ValueError("alpha must be an integer >= 2")
    if _half_steps(t) == 0:
        return 0.0
    M = reduced_density_matrix(ts, state, l, t)
    return _entropy_from_rdm(M, alpha)


class ReplicaChannel:
    """The alpha-replica transfer operators, applied in the rank-r pair basis.

    The replica space has 2*alpha slots, slot 2r the ket and slot 2r+1 the
    bra of replica r (product states only).  An unprimed step applies a
    column operator T to every slot pair (2r, 2r+1); a primed step applies
    its ket<->bra transpose to the pairs (2r+1, 2r+2 mod 2*alpha).  A slot
    takes only its live values (`live`, d of the algebra's d_A): those on a
    row or column of either traced column that holds an exact nonzero entry
    (Fibonacci: 8 of 13, the Rydberg constraint; dihedral-3: all 6).  Every
    factor is exactly zero on the other values, so factors, boundaries and
    steps are restricted to the live values and drop nothing but zeros.
    Each column operator factors exactly as T = U V^T with rank r (34 of 169
    for Fibonacci), so after a step the replica vector is
    sum_k c[k_0, ..., k_{alpha-1}] (x)_r U[:, k_r] over that step's pairs.
    What is carried is the alpha-leg tensor c of shape (r,) * alpha, in the
    basis of the operator applied last; `apply` maps it to the basis of the
    operator it applies.

    - Same pairing (unprimed after unprimed, primed after primed): the
      (r2, r1) matrix V2^T U1 on each of the alpha legs.
    - Pairing switch: the old pairs' U and the new pairs' V overlap on
      shifted slots, a ring.  An opening contraction expands one leg into its
      two slots; then, alpha - 1 times, the next leg is expanded by U and the
      pending slot with its neighbour is contracted into a new leg by V; a
      closing contraction turns the last two slots into the last new leg.
      The largest intermediate has d_live^2 r^(alpha-2) max(r, d_live^2)
      entries, d_live = d the live count (Fibonacci alpha = 3: 64 * 34 * 64,
      was 169 * 34 * 169 on all 13 values); the memory cap is checked on it.

    Both boundaries are products over slots, so they are rank-one in either
    pairing: `start` returns the right boundary as c = [1] and `trace`
    contracts c with the left one (`left` is that boundary as a tensor).
    The step between two bases is built once per channel, on first use.

    `apply` steps one column at a time.  Segment programs (`_replica_trace`)
    take the steps from `step` instead, in both directions, and repeat a
    cell by `power`, or by `ramp` from a boundary.  A channel is built once
    per (state, tensor set, alpha) by `TransferStack.replica_channel`, and
    keeps one Arnoldi span per ramp.  The transpose of a same-pairing step
    is the transposed per-leg matrix, and that of a pairing switch src ->
    dst is the switch back, dst -> src, with the roles of the two factors
    swapped (V_dst expands, U_src contracts).
    """

    def __init__(self, ts, state, alpha):
        if state.bond_dim != 1:
            raise ValueError("replica transfer matrices support product states")
        self.alpha = int(alpha)
        st = state.transfer_stack(ts)
        dA = ts.algebra.dim
        # live slot values: those on a row or column of either traced column
        # with an exact nonzero entry; every other value is zero in each factor
        live_pairs = np.zeros((dA, dA), dtype=bool)
        for kind in ("rho", "v"):
            nonzero = st.T(kind) != 0
            live_pairs |= (nonzero.any(axis=0) | nonzero.any(axis=1)).reshape(dA, dA)
        self.live = np.flatnonzero(live_pairs.any(axis=0) | live_pairs.any(axis=1))
        d = self.d = len(self.live)
        pairs = (self.live[:, None] * dA + self.live).reshape(-1)
        self._uv = {kind: [f[pairs].reshape(d, d, -1) for f in st.factors(kind)]
                    for kind in ("rho", "v")}
        r = max(U.shape[2] for U, _ in self._uv.values())
        if d * d * r ** (self.alpha - 2) * max(r, d * d) > MEMORY_CAP:
            raise MemoryError(f"alpha = {self.alpha} replica steps at rank {r} exceed "
                              f"the memory cap of {MEMORY_CAP} entries")
        self.kr_pair = np.kron(ts.unit_vec, ts.unit_vec.conj())[pairs]
        self.kl_pair = np.kron(ts.counit_vec, ts.counit_vec.conj())[pairs]
        self._steps = {}
        self._spans = {}
        self._basis = None
        self._work = {}

    def start(self):
        """The right boundary, a rank-one tensor."""
        self._basis = "R"
        return np.ones((1,) * self.alpha, dtype=complex)

    def apply(self, kind, vec, primed=False):
        """The column operator (kind, primed) on `vec`, which is in the basis
        of the previous `apply` (or `start`); returns the new basis tensor."""
        step = self.step(self._basis, (kind, primed))
        self._basis = (kind, primed)
        return step(vec)

    def trace(self, vec, basis=None) -> complex:
        """<L| replica vector>, with `vec` in `basis` (by default that of the
        last `apply`)."""
        z = self._left_pair(basis or self._basis)
        return complex(self._same(z[:, None])(vec).reshape(()))

    def left(self, basis):
        """<L| as a tensor in `basis`: the product of one pair overlap per leg,
        so that `trace(vec)` is the plain bilinear sum(left * vec)."""
        return self._same(self._left_pair(basis)[None, :])(
            np.ones((1,) * self.alpha, dtype=complex))

    def step(self, src, dst, transpose=False):
        """The column operator `dst` on a tensor in basis `src` ("R" for the
        right boundary), or with `transpose` its transpose, from basis `dst`
        to `src`; built once per channel."""
        key = (src, dst, transpose)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = self._build(*key)
        return step

    def power(self, cell, reps, vec):
        """(x, s) with C^reps vec = e^s x, |x| = 1, for C the map of one
        (rho, v) cell that keeps the pairing, between its v columns: one
        r x r matrix per leg, taken to its power."""
        rho, v = cell
        if rho[1] != v[1]:
            raise ValueError("power takes a cell that keeps the pairing")
        if reps == 0:
            return _unit(vec)
        Mt = self._overlap(v, rho) @ self._overlap(rho, v)
        P, s = _matrix_power(Mt, reps)
        vec, s_unit = _unit(self._same(P)(vec))
        return vec, self.alpha * s + s_unit

    def ramp(self, cell, reps, transpose=False):
        """(x, s) with C^reps b = e^s x, |x| = 1, for C the map of one
        pairing-switching (rho, v) cell between its v columns and b its ramp's
        start, one step from the right boundary, step("R", v)(start()), or
        with `transpose` (C^T) from the left one, left(rho).  That start
        depends on the cell alone, so its Arnoldi span is kept, per (cell,
        direction, KRYLOV_MAX, TOL_NUM), and `_krylov_power` extends it on
        demand.  A span that fills KRYLOV_MAX without closing is not kept: it
        is the largest a span gets, and every run past it restarts anyway."""
        rho, v = cell
        fwd, back = self.step(v, rho, transpose), self.step(rho, v, transpose)
        cell_map = (lambda c: fwd(back(c))) if transpose else (lambda c: back(fwd(c)))
        key = (cell, transpose, KRYLOV_MAX, TOL_NUM)
        if key not in self._spans:
            start = self.step(v, rho, transpose=True)(self.left(rho)) if transpose \
                else self.step("R", v)(self.start())
            self._spans[key] = _Span(start)
        self._spans[key].extend(cell_map, reps)
        if len(self._spans[key].basis) == KRYLOV_MAX:
            # handed over without a local name, so a restart frees it
            return _krylov_power(cell_map, self._spans.pop(key), reps)
        return _krylov_power(cell_map, self._spans[key], reps)

    def _overlap(self, src, dst):
        """M^T of a same-pairing step src -> dst, the per-leg (r1, r2) matrix."""
        A, B = self._uv[src[0]][0], self._uv[dst[0]][1]
        return np.tensordot(A, B, axes=([0, 1], [0, 1]))

    def _left_pair(self, basis):
        return self.kl_pair @ self._uv[basis[0]][0].reshape(self.d * self.d, -1)

    def _build(self, src, dst, transpose):
        kind, primed = dst
        B = self._uv[kind][1]                           # [ket, bra, k']
        if src == "R":
            # the boundary is the same product in either pairing
            return self._same((self.kr_pair @ B.reshape(self.d * self.d, -1))[None, :])
        if src[1] == primed:
            Mt = self._overlap(src, dst)
            return self._same(Mt.T if transpose else Mt)
        A = self._uv[src[0]][0]                         # [ket, bra, k]
        # the transposed switch is the switch back with the factors' roles swapped
        return self._switch(B, A, to_primed=src[1]) if transpose \
            else self._switch(A, B, to_primed=primed)

    def _same(self, Mt):
        """c -> (M (x) ... (x) M) c for Mt = M^T of shape (r1, r2): one GEMM
        per leg, each moving the leading leg to the back."""
        alpha = self.alpha
        r1, r2 = Mt.shape

        def step(c):
            for _ in range(alpha):
                c = c.reshape(r1, -1).T @ Mt
            return c.reshape((r2,) * alpha)

        return step

    def _switch(self, A, B, to_primed):
        """The pairing switch on a ring of slots s_0 .. s_{2 alpha - 1} whose
        old pairs (s_2r, s_2r+1) carry Ar[s_2r, s_2r+1, k_r] and new pairs
        (s_2r+1, s_2r+2) carry Br[s_2r+1, s_2r+2, k'_r].  Unprimed -> primed:
        s_j is slot j.  Primed -> unprimed: s_j is slot j - 1, so old pair 0
        is the last leg of c, and the opening contraction takes that one."""
        alpha, d = self.alpha, self.d
        r1, r2 = A.shape[2], B.shape[2]
        Ar, Br = (A, B.transpose(1, 0, 2)) if to_primed else (A.transpose(1, 0, 2), B)
        opening = np.ascontiguousarray(Ar.transpose(1, 2, 0))      # [s_1, k, s_0]
        expand = np.ascontiguousarray(Ar).reshape(d * d, r1)      # [(s, s'), k]
        contract = np.ascontiguousarray(Br).reshape(d * d, r2)    # [(s, s'), k']
        pool = self._work           # not self, which stores this step: no cycle

        def step(c):
            c = c.reshape(r1, -1).T if to_primed else c.reshape(-1, r1)
            # [k_0, rest] -> [s_1, rest, s_0]
            x = np.matmul(c, opening, out=_workspace(pool, 0, (d, c.shape[0], d)))
            for _ in range(alpha - 1):
                # [s_2j-1, k_j, rest] -> [s_2j-1, s_2j, s_2j+1, rest]
                #                     -> [s_2j+1, rest, k'_j-1]
                x = x.reshape(d, r1, -1)
                x = np.matmul(expand, x, out=_workspace(pool, 1, (d, d * d, x.shape[2])))
                x = x.reshape(d * d, -1).T
                x = np.matmul(x, contract, out=_workspace(pool, 2, (x.shape[0], r2)))
            # [s_2alpha-1, s_0, k'_0 ..] -> [k'_0 .., k'_alpha-1]
            return (x.reshape(d * d, -1).T @ contract).reshape((r2,) * alpha)

        return step


def _workspace(pool, site, shape):
    """An output array for one GEMM site of the replica steps, carved from a
    buffer kept in `pool`: intermediates are large, and fresh ones cost page
    faults on every step."""
    n = math.prod(shape)
    buf = pool.get(site)
    if buf is None or buf.size < n:
        buf = pool[site] = np.empty(n, dtype=complex)
    return buf[:n].reshape(shape)


def _runs(program):
    """The program as [cell, reps] runs of one repeated (rho, v) column pair."""
    runs = []
    for cell in zip(program[0::2], program[1::2]):
        if runs and runs[-1][0] == cell:
            runs[-1][1] += 1
        else:
            runs.append([cell, 1])
    return runs


def _unit(vec):
    """(vec / |vec|, log |vec|), dividing `vec` in place; a vanishing vector
    raises before the division."""
    norm = np.linalg.norm(vec)
    if not norm > 0:
        raise FloatingPointError("replica vector vanishes")
    vec /= norm
    return vec, float(np.log(norm))


def _matrix_power(M, reps):
    """(P, s) with M^reps = e^s P, by binary powering; each product is
    renormalized and its scale carried as a logarithm."""
    power, log_p = np.eye(len(M), dtype=complex), 0.0
    square, log_sq = M, 0.0
    while reps:
        if reps & 1:
            power, s = _unit(power @ square)
            log_p += log_sq + s
        reps >>= 1
        if reps:
            square, s = _unit(square @ square)
            log_sq = 2 * log_sq + s
    return power, log_p


class _Span:
    """The Arnoldi span of one start vector: its unit `basis`, flat, and H =
    Q^H C Q in a KRYLOV_MAX square, grown by `extend`.  Each Arnoldi step
    depends only on the steps before it, so a span extended in parts holds
    the same numbers as one built at once."""

    def __init__(self, vec):
        self.shape = vec.shape
        q, self.log_norm = _unit(vec.reshape(-1))
        self.basis = [q]
        self.H = np.zeros((KRYLOV_MAX, KRYLOV_MAX), dtype=complex)
        self.largest = 0.0
        self.closed = False

    def extend(self, cell, reps):
        """Arnoldi with re-orthogonalized Gram-Schmidt, until the span closes
        or holds min(reps + 1, KRYLOV_MAX) vectors.  It closes when a new
        residual falls below TOL_NUM times the largest |C q| seen."""
        basis, H = self.basis, self.H
        while not self.closed and len(basis) < min(reps + 1, len(H)):
            j = len(basis) - 1
            w = cell(basis[j].reshape(self.shape)).reshape(-1)
            self.largest = max(self.largest, np.linalg.norm(w))
            for _ in range(2):
                for i, q in enumerate(basis):
                    h = np.vdot(q, w)
                    H[i, j] += h
                    w -= h * q
            beta = np.linalg.norm(w)
            self.closed = beta <= TOL_NUM * self.largest
            if not self.closed:
                H[j + 1, j] = beta
                basis.append(w / beta)


def _krylov_power(cell, span, reps):
    """(x, s) with cell^reps b = e^s x, |x| = 1, b the start vector of `span`.

    The span is extended as far as reps needs.  A closed span of n vectors
    gives cell^reps = Q H^reps Q^H on b for any reps >= n.  Below closure
    the first reps + 1 vectors hold the cells applied so far exactly: their H
    with a zero last column, whatever the span holds beyond them.  A span of
    KRYLOV_MAX vectors that has not closed restarts, in a fresh span, from
    the iterate it reaches.
    """
    log_scale = span.log_norm
    if not reps:
        return span.basis[0].reshape(span.shape).copy(), log_scale
    while True:
        span.extend(cell, reps)
        n = len(span.basis)
        if span.closed and reps >= n:
            applied, H = reps, span.H[:n, :n]
        else:
            applied = min(reps, n - 1)
            H = span.H[:applied + 1, :applied + 1].copy()
            H[:, applied] = 0
        P, s = _matrix_power(H, applied)
        vec, term = np.zeros_like(span.basis[0]), np.empty_like(span.basis[0])
        for c, q in zip(P[:, 0], span.basis):     # sum()'s start and order, in place
            vec += np.multiply(c, q, out=term)
        vec, s_unit = _unit(vec)
        log_scale += s + s_unit
        reps -= applied
        if not reps:
            return vec.reshape(span.shape), log_scale
        span = _Span(vec.reshape(span.shape))
        log_scale += span.log_norm


def _replica_trace(ch, program):
    """(tr, s): the replica trace of `program` is tr e^s.

    The program is evaluated as runs of repeated cells (`_runs`), with every
    vector at a v column in that column's rank basis.  The runs after the
    first go forward from the right boundary, one forward cell joining each
    to the run on its left; then the first run goes transposed from the left
    boundary, and the two vectors meet at its last v column (a first run of
    one cell is stepped forward instead).  The last and the first run start
    at a boundary, each one `ReplicaChannel.ramp` on its kept span; each run
    between them is one `ReplicaChannel.power`.
    """
    runs = _runs(program)
    # a single run is the first run too, powered from the left below
    vec, log_r = ch.ramp(runs[-1][0], runs[-1][1] - 1 if len(runs) > 1 else 0)
    for j in range(len(runs) - 1, 0, -1):
        (rho, v), reps = runs[j]
        if j < len(runs) - 1:
            vec, s = ch.power((rho, v), reps - 1, vec)
            log_r += s
        vec = ch.step(v, rho)(vec)
        vec, s_unit = _unit(ch.step(rho, runs[j - 1][0][1])(vec))
        log_r += s_unit
    (rho, v), reps = runs[0]
    if reps == 1:
        # nothing to power: one forward step onto the rank-one boundary, which
        # is never expanded into a full tensor
        return ch.trace(ch.step(v, rho)(vec), rho), log_r
    left, log_l = ch.ramp((rho, v), reps - 1, transpose=True)
    return complex(np.sum(left * vec)), log_l + log_r


def _replica_entropy(ts, state, t, alpha, program) -> float:
    """H_alpha = log Tr(rho^alpha) / (1 - alpha), the trace by a replica
    program (`_replica_trace`); zero at t = 0."""
    if alpha < 2 or int(alpha) != alpha:
        raise ValueError("alpha must be an integer >= 2")
    if _half_steps(t) == 0:
        return 0.0
    # vectors are kept at unit norm, their scale carried as a logarithm: long
    # programs shrink the trace to e^(-(alpha - 1) H), into the subnormal range
    tr, log_scale = _replica_trace(state.transfer_stack(ts).replica_channel(alpha), program)
    if abs(tr.imag) > TOL_NUM * max(1.0, abs(tr.real)):
        raise FloatingPointError(f"replica trace has imaginary part {tr.imag:.3e}")
    if tr.real <= 0:
        raise FloatingPointError(f"replica trace {tr.real:.3e} is not positive")
    h = float((np.log(tr.real) + log_scale) / (1 - alpha))
    # H_alpha of a normalized state is at most the log of its open legs'
    # dimension; beyond it the trace is the round-off of a vanishing one
    h_max = sum(np.log(ts.d_rho if kind == "rho" else ts.d_v) for kind, is_open in program
                if is_open)
    if h > h_max + TOL_NUM * max(1.0, h_max):
        raise FloatingPointError(f"replica entropy {h:.3e} exceeds the bound {h_max:.3e} "
                                 "of a normalized state")
    return h


def renyi_replica(ts, state, l, t, alpha) -> float:
    """H_alpha via the replica transfer matrices (product initial states)."""
    return _replica_entropy(ts, state, t, alpha, _renyi_program(l, _half_steps(t)))


def renyi_half_chain(ts, state, t, alpha) -> float:
    """H_alpha of the semi-infinite right half chain."""
    program = [("rho", True), ("v", False)] * _half_steps(t)
    return _replica_entropy(ts, state, t, alpha, program)


def _sectors(M):
    """Index arrays of the connected components of M's exact nonzero pattern.

    Indices i and j are linked when M[i, j] or M[j, i] is nonzero (no
    threshold), so M is block diagonal on the sectors: every entry between
    two sectors is exactly zero.  Each index carries a label, at first
    itself; a round lowers every label to the least label across its links
    and then to its label's label, until no label moves.  A label is always
    an index of the same component and never rises, so the labels settle on
    each component's smallest index.  Sectors come in the order of their
    smallest index, each in increasing order.
    """
    i, j = np.divmod(np.flatnonzero(M), len(M))
    ends, nbrs = np.concatenate((i, j)), np.concatenate((j, i))
    label = np.arange(len(M))
    while True:
        low = label.copy()
        np.minimum.at(low, ends, label[nbrs])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order], prepend=-1, append=len(M))).tolist()
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def _cell_spectrum(ts, state):
    T_rho, T_v = map(state.transfer_stack(ts).T, ("rho", "v"))
    d, D = ts.algebra.dim, state.bond_dim
    swap = np.arange(len(T_rho)).reshape(d, d, D, D).transpose(1, 0, 3, 2).reshape(-1)
    sectors = _sectors(T_rho.astype(bool) | T_v.astype(bool))
    flat, sizes = np.concatenate(sectors), np.fromiter(map(len, sectors), int, len(sectors))
    starts = np.cumsum(sizes) - sizes
    lab = np.empty_like(flat)                           # the sector of each index
    lab[flat] = np.repeat(np.arange(len(sectors)), sizes)
    heads, image = flat[starts], np.minimum.reduceat(swap[flat], starts)
    # 0 swap-closed, 1 / -1 pair member solved / not; 2 if round-off broke the symmetry
    kind = np.where((lab[swap] == lab[image][lab]).all(), np.clip(image - heads, -1, 1), 2)
    parts, groups = [(T_rho.diagonal() * T_v.diagonal())[heads[sizes == 1]]], {}
    for k in np.flatnonzero((sizes > 1) & (kind >= 0)).tolist():
        groups.setdefault((sizes[k], kind[k] == 0 and sizes[k] >= REAL_FORM_MIN), []).append(k)
    for (n, real), ks in sorted(groups.items()):
        idx = flat[starts[ks, None] + np.arange(n)]
        B = T_rho[idx[:, :, None], idx[:, None, :]] @ T_v[idx[:, :, None], idx[:, None, :]]
        if real:            # idx[k, loc[k, j]] = swap[idx[k, j]]: B[k][:, loc[k]] is B[k] P
            loc = (swap[idx][:, :, None] == idx[:, None, :]).argmax(2)
            R = np.take_along_axis(B.imag, loc[:, None, :], axis=2)
            B = np.subtract(B.real, R, out=R)
        vals = np.linalg.eigvals(B)
        parts += [vals.ravel(), vals[kind[ks] == 1].conj().ravel()]
    return np.concatenate(parts)


def equilibration(ts, state):
    """(lambda_1, info): subleading transfer eigenvalue and decay data.

    Both columns are block diagonal on the `_sectors` of their joint exact
    nonzero pattern; `_cell_spectrum` forms only the cell blocks
    B = T_rho[s, s] T_v[s, s], one batched `eigvals` per size and form.  A
    column is sum K (x) conj K, so the ket <-> bra swap P of the cut layout
    has P T P = conj T and maps sectors onto sectors.  A swap-closed block
    of `REAL_FORM_MIN` or more is solved in its Hermitian basis, as the real
    S B S^dag = Re B - Im B P, S = (i + P) / sqrt 2; of a pair s, P s, only
    the one of smaller least index, its spectrum also conjugated.
    Dihedral-3 at bond 4: four real 96 x 96 `eigvals` and one complex.
    lambda_1 is the largest-modulus eigenvalue strictly inside the unit
    circle, and the rate is -log of that modulus; among the eigenvalues
    within `TOL_NUM` of it, lambda_1 is the one with Im >= -TOL_NUM, then the
    largest real part, so it does not depend on the order of the sectors.
    Equilibration of an L_A-cell block happens at t* = L_A/2 + O(log 1/|l1|).
    """
    vals = _cell_spectrum(ts, state)
    radius = float(np.abs(vals).max())
    if abs(radius - 1.0) > 1e-6:
        raise FloatingPointError(f"transfer spectral radius {radius:.6f} != 1")
    inside = vals[np.abs(vals) < 1 - TOL_NUM]
    unit_count = int(np.count_nonzero(np.abs(vals) >= 1 - TOL_NUM))
    if not inside.size:
        raise FloatingPointError("no eigenvalue strictly inside the unit circle")
    top = float(np.abs(inside).max())
    ties = inside[np.abs(inside) >= top - TOL_NUM]
    lam1 = complex(min(ties, key=lambda v: (v.imag < -TOL_NUM, -v.real)))
    return lam1, {"rate": -math.log(top) if top > 0 else math.inf,
                  "unit_multiplicity": unit_count}


# -- projector MPO and trace channels ------------------------------------------------------


def projector_mpo(ts: SolvableTensorSet):
    """Per-site MPO tensors of the global projector, built from
    `ts.projectors` once per tensor set and kept on it, read-only; bond 1
    for a model that carries no projectors.

    Axes [bond_left, bond_right, out, in].  The v-site (integer position)
    sits between a Q bond on its left cut and a P bond on its right cut; the
    rho-site between a P bond (left) and a Q bond (right).  Each bond is cut
    to its exact rank (Fibonacci: v -> rho 2 of 9, rho -> v 9 of 9).
    """
    if ts._projector_mpo is None:
        ts._projector_mpo = _build_projector_mpo(ts)
        for W in ts._projector_mpo.values():
            W.flags.writeable = False
    return ts._projector_mpo


def _build_projector_mpo(ts):
    pp = ts.projectors
    if pp is None:
        return {"v": np.eye(ts.d_v, dtype=complex)[None, None],
                "rho": np.eye(ts.d_rho, dtype=complex)[None, None]}
    dv, dr = ts.d_v, ts.d_rho
    P = pp.P.reshape(dv, dr, dv, dr)        # [i, a, j, b]
    Q = pp.Q.reshape(dr, dv, dr, dv)        # [a, i, b, j]
    # exact splits with matrix-unit bonds on the rho sites:
    #   Q = sum_{(a,b)} E_ab (rho side) (x) QR[(a,b)],  QR[(a,b)][i,j] = Q[a,i,b,j]
    #   P = sum_{(a,b)} PL[(a,b)] (x) E_ab (rho side),  PL[(a,b)][i,j] = P[i,a,j,b]
    # v-site: in -> QR[bond_left] -> mid -> PL[bond_right] -> out
    W_v = np.einsum("oCmD,AmBi->ABCDoi", P, Q, optimize=True)
    W_v = W_v.reshape(dr * dr, dr * dr, dv, dv)
    # rho-site: the two matrix units compose to delta_{bP,aQ} |aP><bQ|
    W_r = np.zeros((dr, dr, dr, dr, dr, dr), dtype=complex)
    for aP in range(dr):
        for bP in range(dr):
            for bQ in range(dr):
                W_r[aP, bP, bP, bQ, aP, bQ] = 1.0
    W_r = W_r.reshape(dr * dr, dr * dr, dr, dr)
    W_v, W_r = _cut_bond(W_v, W_r)
    W_r, W_v = _cut_bond(W_r, W_v)
    return {"v": W_v, "rho": W_r}


def _cut_bond(left, right):
    """(left, right) with the bond between them cut to its exact rank: an SVD
    of `left` over that bond, singular values below RANK_CUT * sigma_max
    dropped (round-off only), the kept right factor moved into `right`."""
    b = left.shape[1]
    u, s, vh = np.linalg.svd(left.transpose(0, 2, 3, 1).reshape(-1, b), full_matrices=False)
    r = int(np.count_nonzero(s > RANK_CUT * s[0]))
    if r == b:
        return left, right
    bl, _, d_out, d_in = left.shape
    left = (u[:, :r] * s[:r]).reshape(bl, d_out, d_in, r).transpose(0, 3, 1, 2)
    return left, np.tensordot(vh[:r], right, axes=1)


def _leading_environment(M):
    """(lam, L, R) of a transfer or channel matrix M: lam its leading
    eigenvalue, R (n, k) the right and L (k, n) the left eigenvectors of every
    eigenvalue on the leading circle |lam|, biorthonormal (L R = 1), so that
    R L is the spectral projector onto that eigenspace.

    Raises ValueError, before any division, when M is not finite or its
    leading eigenvalue is zero.
    """
    if not np.isfinite(M).all():
        raise ValueError("transfer matrix is not finite")
    vals, R = np.linalg.eig(M)
    wl, L = np.linalg.eig(M.T)
    lam = vals[np.argmax(np.abs(vals))]
    if abs(lam) <= TOL_NUM * np.linalg.norm(M):
        raise ValueError("transfer matrix has leading eigenvalue zero")
    lead = np.abs(vals) >= abs(lam) * (1 - TOL_NUM)
    R = R[:, lead]
    L = L[:, np.argsort(-np.abs(wl))[:len(R.T)]].T
    return lam, np.linalg.solve(L @ R, L), R


# A trace channel is a list of layers, outermost first; a layer is one MPO
# tensor [bond_left, bond_right, out, in] per window site.  Single-site
# operators are multiplied into the site tensor of an adjacent layer.


class _TraceCache:
    """What a trace channel takes from its tensor set alone, built on first
    use and kept on the set (`_trace_cache`), every array read-only.

    `row(kind, first, last)` is a column's Heisenberg row pair (K, B),
    `eye[d]` the identity row, `adjoint(row)` a row's adjoint and
    `environment()` the projector cell channel with its environments.
    `maps` holds the site maps of `_sweep_cuts`, keyed by (ids of the site
    tensors, live rows), of the sites whose every tensor is kept.  `owned`
    holds each kept tensor by id, so no other array can take the id of a
    key while the cache lives; a tensor with a call's operator folded in is
    never kept, nor is its site's map, so a scan over operators adds none.
    """

    def __init__(self, ts):
        self._base = ts.rho_tensor, ts.v_tensor, ts.counit_vec, ts.unit_vec
        self._env = None
        self.owned, self.rows, self.adj, self.maps = {}, {}, {}, {}
        self._proj = projector_mpo(ts)
        for W in self._proj.values():
            self.keep(W)
        self.eye = {d: self.keep(np.eye(d, dtype=complex)[None, None])
                    for d in {ts.d_v, ts.d_rho}}

    def keep(self, W):
        W.flags.writeable = False
        self.owned[id(W)] = W
        return W

    def row(self, kind, first, last):
        """(K, B) of a rho (kind 0) or v (kind 1) column, closed by the counit
        on the left if `first` and by the unit on the right if `last`."""
        key = (kind, first, last)
        if key not in self.rows:
            rho, v, counit, unit = self._base
            base = v if kind else rho
            # ket row: phys in (down leg) -> internal out (up leg), bonds (y, x)
            K = np.transpose(base, (3, 2, 0, 1))          # [y, x, up, down]
            B = np.conj(np.transpose(base, (3, 2, 1, 0)))  # conj row: in = up of ket
            if first:
                K = np.einsum("l,lrxy->rxy", counit, K)[None]
                B = np.einsum("l,lrxy->rxy", counit.conj(), B)[None]
            if last:
                K = np.einsum("lrxy,r->lxy", K, unit)[:, None]
                B = np.einsum("lrxy,r->lxy", B, unit.conj())[:, None]
            self.rows[key] = self.keep(K), self.keep(B)
        return self.rows[key]

    def adjoint(self, row):
        """Every site tensor of `row` with out and in legs swapped and
        conjugated; the adjoint of a kept tensor is kept."""
        out = []
        for W in row:
            if id(W) not in self.owned:
                out.append(np.conj(np.swapaxes(W, 2, 3)))
                continue
            if id(W) not in self.adj:
                self.adj[id(W)] = self.keep(np.conj(np.swapaxes(W, 2, 3)))
            out.append(self.adj[id(W)])
        return out

    def environment(self):
        """(E, lam, lefts, rights): the per-cell (v-site then rho-site)
        channel E of the projector MPO divided by its spectral radius lam,
        and its leading left (k, n) and right (n, k) eigenvectors."""
        if self._env is None:
            E = _pure_cell_channel(self._proj)
            lam, lefts, rights = _leading_environment(E)
            lam = abs(lam)
            E = E / lam
            for a in (E, lefts, rights):
                a.flags.writeable = False
            self._env = E, lam, lefts, rights
        return self._env


def _trace_cache(ts) -> _TraceCache:
    """The trace cache of `ts`, built on first use."""
    if ts._trace_cache is None:
        ts._trace_cache = _TraceCache(ts)
    return ts._trace_cache


class _Layers(list):
    """A trace channel's layers with the trace cache of their tensor set,
    whose site maps `_sweep_cuts` reuses and extends."""

    def __init__(self, layers, cache):
        super().__init__(layers)
        self.cache = cache


def _projector_row(ts, window):
    mats = projector_mpo(ts)
    return [mats[leg_of(p, 0)] for p in window]


def _fold(row, where, op, inner=False):
    """`row` with `op` on the out leg of site `where` (on its in leg if
    `inner`)."""
    row = list(row)
    row[where] = row[where] @ op if inner else op @ row[where]
    return row


def _heisenberg_rows(hmpo: HeisenbergMPO, window):
    """The embedded MPO of O(t) as two rows, [bra, ket], with O on the ket
    row's out leg; the rows of O(t)^dag are [adjoint(ket), adjoint(bra)].

    Splitting the rows keeps every bond at d_A instead of d_A^2, which is
    what makes the four-row OTOC channel affordable.  At t = 0 both rows are
    identities and O sits on the ket row at the operator's position.  Every
    site tensor but O's is kept by the trace cache, shared by every call.
    """
    ts = hmpo.ts
    cache = _trace_cache(ts)
    n = hmpo.n_columns
    pos_to_col = {round(2 * p): k for k, p in enumerate(hmpo.support())}
    op_col = n - 1 if hmpo.leg == "v" else 0
    kets, bras = [], []
    for p in window:
        k = pos_to_col.get(round(2 * p))
        if k is None:
            kets.append(cache.eye[ts.d_v if leg_of(p, 0) == "v" else ts.d_rho])
            bras.append(kets[-1])
            continue
        K, B = cache.row(k % 2, k == 0, k == n - 1)
        kets.append(hmpo.op @ K if k == op_col else K)
        bras.append(B)
    if not pos_to_col:
        kets = _fold(kets, window.index(hmpo.position), hmpo.op)
    return bras, kets


def _join(keys, table):
    """Every pair (q, e) with keys[q] == table[e], in order of q."""
    order = np.argsort(table, kind="stable")
    lo = np.searchsorted(table[order], keys, "left")
    count = np.searchsorted(table[order], keys, "right") - lo
    q = np.repeat(np.arange(len(keys)), count)
    e = order[np.arange(len(q)) + np.repeat(lo - np.cumsum(count) + count, count)]
    return q, e


def _site_map(site, live):
    """One window site as a sparse map on the live rows `live`, an
    (n_in, n_layers) array of bond indices: (src, val, starts, out, cols).

    A path picks one nonzero entry [b, c, out, in] of every layer, with b
    the row's bond, each in leg the next layer's out leg and the last in leg
    the first out leg (the trace).  Its value adds to the map entry from row
    src to the output bonds (c_0, c_1, ...); entries are sorted by output,
    `starts` opens each output's run, `out` holds the output rows and
    `cols` their flat index into the output bond shape.
    """
    for k, W in enumerate(site):
        b, c, o, i = np.nonzero(W)
        if k == 0:
            r, e = _join(live[:, 0], b)
            first, col, val = o[e], c[e], W[b[e], c[e], o[e], i[e]]
        else:
            q, e = _join(live[r, k] * W.shape[2] + last, b * W.shape[2] + o)
            r, first = r[q], first[q]
            col = col[q] * W.shape[1] + c[e]
            val = val[q] * W[b[e], c[e], o[e], i[e]]
        last = i[e]
    closed = last == first
    n_in = len(live)
    keys, inv = np.unique(col[closed] * n_in + r[closed], return_inverse=True)
    val = val[closed]
    val = (np.bincount(inv, val.real, len(keys))
           + 1j * np.bincount(inv, val.imag, len(keys)))
    dst, src = np.divmod(keys, n_in)
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    cols = dst[starts]
    out = np.stack(np.unravel_index(cols, tuple(W.shape[1] for W in site)), axis=1)
    return src, val, starts, out, cols


def _sweep_cuts(layers, lefts, lam):
    """Left boundary vectors `lefts` (batch, bond), on the first layer's
    bond, swept through the window: yields (cols, vec) after each site, the
    live flat indices into that cut's bonds and the vector on them.

    The live set is the exact nonzero pattern: the boundary's nonzero
    entries, then every output a nonzero path reaches.  It contains the
    vector's numerical support, so the restriction drops nothing but exact
    zeros.  One map is built per distinct (site tensors, live rows).  When
    `layers` carries its tensor set's trace cache (`_Layers`), the map of a
    site whose every tensor the cache keeps is kept there and outlives the
    call: the interior columns are the same tensors at every t, so a scan
    builds each of their maps once.  A site with a call's operator folded
    in keeps its map for this call only.  The window is whole cells (v-site,
    rho-site), and the vector is divided by `lam` once per cell.
    """
    cache = getattr(layers, "cache", None)
    kept, owned = (cache.maps, cache.owned) if cache else ({}, {})
    maps = {}
    cols = np.flatnonzero(np.any(lefts != 0, axis=0))
    live = np.zeros((len(cols), len(layers)), dtype=np.intp)
    live[:, 0] = cols
    vec = lefts[:, cols]
    for s, site in enumerate(zip(*layers)):
        ids = tuple(map(id, site))
        table = kept if all(i in owned for i in ids) else maps
        key = (ids, live.tobytes())
        if key not in table:
            table[key] = _site_map(site, live)
            if table is kept:
                for a in table[key]:
                    a.flags.writeable = False
        src, val, starts, live, cols = table[key]
        vec = np.add.reduceat(vec[:, src] * val, starts, axis=1)
        if s % 2:
            vec = vec / lam
        yield cols, vec


def _sweep_channel(layers, lefts, lam):
    """`_sweep_cuts` to the window's end: the swept vectors on the full
    product of the last site's bonds, (batch, bonds)."""
    for cols, vec in _sweep_cuts(layers, lefts, lam):
        pass
    out = np.zeros((len(lefts), math.prod(row[-1].shape[1] for row in layers)), dtype=complex)
    out[:, cols] = vec
    return out


def _pure_cell_channel(mats):
    """Per-cell (v-site then rho-site) trace channel of the projector MPO."""
    Nv = np.einsum("lrxx->lr", mats["v"])
    Nr = np.einsum("lrxx->lr", mats["rho"])
    return Nv @ Nr


def _cell_window(positions):
    """Whole unit cells (p, p + 1/2) covering `positions`."""
    cells = range(int(np.floor(min(positions))), int(np.ceil(max(positions) - 0.5)) + 1)
    return [q for p in cells for q in (float(p), p + 0.5)]


def st_correlator(ts, A_op, B_op, x, t, ring_cells=None) -> complex:
    """Normalized infinite-chain trace Tr[P A_0(t) B_x(0)] / Tr[P].

    A sits at position 0 at time t, B at position x at time 0; both on the
    legs their coordinates dictate.  Zero outside the lightcone |x| > t.
    Layers, at every t: the projector and the two rows of A_0(t), B on the
    ket row's in leg.
    """
    if abs((x - t) - round(x - t)) > 1e-9:
        raise ValueError("need x - t integer")
    _half_steps(t)
    if abs(x) > t:
        return 0.0 + 0.0j
    hm = heisenberg_mpo(ts, A_op, t, position=0.0)
    window = _cell_window(hm.support() + [0.0, x])
    bra, ket = _heisenberg_rows(hm, window)
    ket = _fold(ket, window.index(float(x)), np.asarray(B_op), inner=True)
    return _st_value(ts, window, [_projector_row(ts, window), bra, ket],
                     ring_cells=ring_cells)


def _st_value(ts, window, layers, ring_cells=None) -> complex:
    """Normalized projector trace: infinite chain (environments) by default,
    or closed periodically over `ring_cells` unit cells for exact comparison
    with a finite-ring dense trace.  Layer 0 is the unfolded projector row.
    The per-cell channel E of the projector MPO, its environments and its
    spectral radius lam come from the tensor set's trace cache, which the
    sweep also reuses for its site maps; lam is divided out once per cell,
    from E and from the swept vector alike, so both stay finite at any t."""
    cache = _trace_cache(ts)
    E, lam, lefts, rights = cache.environment()
    if ring_cells is not None:
        extra = ring_cells - len(window) // 2
        if extra < 0:
            raise ValueError("ring smaller than the operator window")
        # Tr(E^extra M) = Tr(Vh M U S) over the exact rank of E^extra
        u, s, vh = np.linalg.svd(np.linalg.matrix_power(E, extra))
        r = int(np.count_nonzero(s > RANK_CUT * s[0]))
        lefts, rights = vh[:r], (u[:, :r] * s[:r]).T
    else:
        rights = rights.T
    num = np.sum(_sweep_channel(_Layers(layers, cache), lefts, lam) * rights)
    den = np.sum(lefts @ np.linalg.matrix_power(E, len(window) // 2) * rights)
    return complex(num / den)


def otoc(ts, V_op, W_op, x, t, warn_nonunitary=True, ring_cells=None) -> complex:
    """F(V, W, x, t) = normalized Tr[P W_0^dag V_x(t)^dag W_0 V_x(t)].

    Layers, at every t: the projector, the two rows of V_x(t)^dag and the
    two of V_x(t), with W^dag and W on the out legs of the rows that follow
    them.
    """
    import warnings

    V_op = np.asarray(V_op, dtype=complex)
    W_op = np.asarray(W_op, dtype=complex)
    if warn_nonunitary:
        for name, op in (("V", V_op), ("W", W_op)):
            if np.abs(op @ op.conj().T - np.eye(op.shape[0])).max() > 1e-9:
                warnings.warn(f"{name} is not unitary; OTOC computed anyway")
    hm = heisenberg_mpo(ts, V_op, t, position=x)
    window = _cell_window(hm.support() + [0.0, x])
    w_at = window.index(0.0)
    bra, ket = _heisenberg_rows(hm, window)
    cache = _trace_cache(ts)
    layers = [
        _projector_row(ts, window),
        _fold(cache.adjoint(ket), w_at, W_op.conj().T), cache.adjoint(bra),
        _fold(bra, w_at, W_op), ket,
    ]
    return _st_value(ts, window, layers, ring_cells=ring_cells)


# -- PBC evolution and revivals -------------------------------------------------------


@dataclass
class PbcEvolution:
    """The ring evolution operator at t_k = (kL + 1)/2 as composed shape MPOs.

    `operator` acts on the 2L-site ring in site order (0, 1, ..., 2L-1) with
    v-sites at even indices; `translation_cells` records the outstanding
    translation power (T_{L/2})^k, included in `operator`.
    """

    L: int
    k: int
    operator: np.ndarray
    translation_cells: int


def pbc_evolution_mpo(ts, L, k=1) -> PbcEvolution:
    """U(t_k) on the 2L-site ring: translation o inverted-triangle o diamond^{k-1}
    o triangle, with legs aligned so the result equals the brickwork product of
    kL + 1 layers (projector-dressed in the weak case).
    """
    if ts.d_rho != ts.d_v:
        raise ValueError("the ring operator needs d_rho = d_v")
    d = ts.d_rho
    n = 2 * L
    dim = d ** n
    M = mpo_triangle(ts, L).reshape(dim, dim)
    if k >= 2:
        # (a-block, i-block) -> (a1, i1, ...) on both sides
        pairs = [ax for kk in range(L) for ax in (kk, L + kk)]
        mid = mpo_diamond_power(ts, L, k - 1).reshape((d,) * (2 * n))
        M = mid.transpose(pairs + [n + ax for ax in pairs]).reshape(dim, dim) @ M
    # the inverted triangle's lower legs are ordered (j1, b1, ...) while the
    # stack below produces (a1, i1, ...): pairing j_k <-> i_k, b_k <-> a_k is a
    # swap within each pair
    inv = mpo_inverted_triangle(ts, L)
    inv = inv.transpose(list(range(n)) + [n + (ax ^ 1) for ax in range(n)])
    M = (inv.reshape(dim, dim) @ M).reshape((d,) * (2 * n))
    # ring embedding (calibrated against the dense brickwork): leg m of either
    # side, in the order (b1, j1, ..., bL, jL) resp. (i1, a1, ...), sits at
    # site m + 1 mod 2L; the translation T_{L/2}^k moves the output by kL sites
    shift = (k * L) % n
    order = [(s - 1 - shift) % n for s in range(n)] + [n + (s - 1) % n for s in range(n)]
    return PbcEvolution(L=L, k=k, operator=M.transpose(order).reshape(dim, dim),
                        translation_cells=k % 2)


def revival_time(ts, L) -> int:
    """The eta * L upper bound on the ring revival time."""
    eta, _nu = exponent(ts.algebra)
    return eta * L
