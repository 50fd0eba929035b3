"""Dense references for the engine's matrix-free column and MPO paths.

Each builds in full what the engine never forms: a column transfer matrix
with an operator inserted, the whole two-column cell, the program of a
quench without operators, the operator O(t) on the sites its Heisenberg MPO
covers, and the replica channel on every value of every slot.
"""

import math

import numpy as np

from hopfbrick import mpo


def column(st, kind, op=None):
    """Column `kind` of the TransferStack `st` as a dense matrix, with `op`
    between its ket and bra; the reference for `st.apply(kind, op, vec)`."""
    if op is None:
        return st.T(kind)
    K = st._kets[kind]
    # sum_{a, B} op[B, a] K[a] (x) conj(K[B])
    return st._pair(K, np.tensordot(np.asarray(op, dtype=complex).T, K.conj(), axes=1))


def cell(st):
    """The two-column cell T(rho) T(v) of the TransferStack `st` as one dense
    matrix; `mpo.equilibration` forms only its diagonal sector blocks."""
    return st.T("rho") @ st.T("v")


def normalization(st, t) -> complex:
    """<K_L| C_0 ... C_{2n-1} |K_R> with no operator, stepped one column at a
    time from K_R: 1 on a solvable state."""
    vec = st.K_R
    for _ in range(mpo._half_steps(t)):
        vec = st.T("rho") @ (st.T("v") @ vec)
    return complex(st.K_L @ vec)


def heisenberg_dense(hm):
    """Dense O(t) of the HeisenbergMPO `hm` on its covered sites: axes
    (out_1.., in_1..), in column order."""
    n = hm.n_columns
    if n == 0:
        raise ValueError("O(t) covers no columns at t = 0")
    one = np.ones(1)
    bra, ket = (mpo._chain(one, row, one) for row in mpo._heisenberg_rows(hm, hm.support()))
    dense = (bra.reshape(math.prod(bra.shape[:n]), -1)
             @ ket.reshape(math.prod(ket.shape[:n]), -1))
    return dense.reshape(bra.shape[:n] + ket.shape[n:])


class FullSlotChannel(mpo.ReplicaChannel):
    """The replica channel on all d_A values of every slot: factors from an
    SVD of the whole traced column, and every step one einsum over the slot
    ring.  The reference for `mpo.ReplicaChannel`, which keeps only the live
    slot values; the segment programs run on it unchanged."""

    def __init__(self, ts, state, alpha):
        self.alpha = int(alpha)
        d = self.d = ts.algebra.dim
        st = state.transfer_stack(ts)
        self._uv = {}
        for kind in ("rho", "v"):
            u, s, vh = np.linalg.svd(st.T(kind))
            r = int(np.count_nonzero(s > mpo.RANK_CUT * s[0]))
            self._uv[kind] = [(u[:, :r] * s[:r]).reshape(d, d, r), vh[:r].T.reshape(d, d, r)]
        self.kr_pair = np.kron(ts.unit_vec, ts.unit_vec.conj())
        self.kl_pair = np.kron(ts.counit_vec, ts.counit_vec.conj())
        self._steps = {}
        self._spans = {}
        self._basis = None

    def _same(self, Mt):
        legs = range(self.alpha)
        return _contraction([Mt] * self.alpha, [[k, self.alpha + k] for k in legs],
                            list(legs), [self.alpha + k for k in legs])

    def _switch(self, A, B, to_primed):
        """Leg k of the unprimed pairing is F[slot 2k, slot 2k+1], of the
        primed one F[slot 2k+2, slot 2k+1] (slots mod 2 alpha)."""
        alpha = self.alpha
        n = 2 * alpha

        def legs(primed, first):
            return [[(2 * k + 2) % n if primed else 2 * k, 2 * k + 1, first + k]
                    for k in range(alpha)]

        return _contraction([A] * alpha + [B] * alpha,
                            legs(not to_primed, n) + legs(to_primed, n + alpha),
                            list(range(n, n + alpha)), list(range(n + alpha, n + 2 * alpha)))


def _contraction(factors, labels, c_labels, out_labels):
    """c -> einsum(c, *factors) with these integer labels, by pairwise
    contractions on a path found at the first call."""
    path = []

    def step(c):
        operands = [c, c_labels] + [x for pair in zip(factors, labels) for x in pair]
        if not path:
            path.extend(np.einsum_path(*operands, out_labels, optimize=("greedy", 2 ** 30))[0])
        return np.einsum(*operands, out_labels, optimize=path)

    return step


def replica_entropy(ts, state, program, alpha) -> float:
    """H_alpha of a replica program on the full-slot channel."""
    tr, log_scale = mpo._replica_trace(FullSlotChannel(ts, state, alpha), program)
    return float((np.log(tr.real) + log_scale) / (1 - alpha))
