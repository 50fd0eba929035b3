"""Dense references for the engine's matrix-free column and MPO paths.

Each builds in full what the engine never forms: a column transfer matrix
with an operator inserted, the program of a quench without operators, and
the operator O(t) on the sites its Heisenberg MPO covers.
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


def normalization(st, t) -> complex:
    """<K_L| C_0 ... C_{2n-1} |K_R> with no operator: 1 on a solvable state."""
    return mpo._columns(st.K_L, st.apply, mpo._half_steps(t), {}, st.K_R)


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
