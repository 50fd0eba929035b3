"""Dense brute-force simulator of the brickwork circuit on small chains.

The ground truth for the transfer-matrix engine: direct state evolution,
projector subspaces, reduced density matrices, OTOCs, spatiotemporal traces,
minimal revival periods, and the three-site IRF variant with its qutrit map.

Site conventions: the ring has 2L sites for L unit cells; physical position
p (in half-integers) sits at site index 2p mod 2L.  At integer times even
sites carry v-legs and odd sites rho-legs.  A full period applies the odd
layer (pairs (2j-1, 2j), wrapping) and then the even layer (pairs (2j, 2j+1)).

A state is a vector of d**n amplitudes or a block (d**n, k) of k state
columns; every gate is one matmul on a reshaped view (`_apply_pair_op`), so a
block costs one pass per layer.  Traces push the subspace basis through in column blocks of
at most `COLUMN_BLOCK` amplitudes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_AMPLITUDE_CAP

DENSE_U_CAP = 256
COLUMN_BLOCK = 2 ** 20        # amplitudes per block of basis columns in a trace
GEMM_ROWS = 2 ** 12           # rows per GEMM of a right-end gate


@dataclass
class DenseCircuit:
    """Brickwork circuit data for dense simulation (PBC unless obc=True)."""

    L: int                       # unit cells; the chain has 2L sites
    d: int                       # local dimension (d_rho = d_v)
    gate: np.ndarray             # two-site matrix, rows (v,rho)-out, cols (rho,v)-in
    projector: np.ndarray | None = None   # local P-hat on (v,rho) pairs
    projector_q: np.ndarray | None = None  # local Q-hat on (rho,v) pairs
    obc: bool = False
    amplitude_cap: int = DEFAULT_AMPLITUDE_CAP
    sites: int | None = None     # open chains may override the 2L site count

    def __post_init__(self):
        self.gate = np.asarray(self.gate, dtype=complex)
        dd = self.d * self.d
        if self.gate.shape != (dd, dd):
            raise ValueError("gate must be a d^2 x d^2 matrix")
        if self.sites is not None and not self.obc:
            raise ValueError("explicit site count is only for open chains")
        if self.d ** self.n_sites > self.amplitude_cap:
            raise MemoryError(f"Hilbert dimension {self.d ** self.n_sites} exceeds cap")

    @property
    def n_sites(self):
        return self.sites if self.sites is not None else 2 * self.L

    @classmethod
    def from_tensor_set(cls, ts, L, **kw):
        """Build from a SolvableTensorSet (requires d_rho = d_v)."""
        if ts.d_rho != ts.d_v:
            raise ValueError("dense oracle needs d_rho = d_v")
        pp = ts.projectors
        return cls(L=L, d=ts.d_rho, gate=ts.gate_matrix,
                   projector=None if pp is None else pp.P,
                   projector_q=None if pp is None else pp.Q, **kw)


def product_state(circuit: DenseCircuit, site_vectors) -> np.ndarray:
    """Dense product state from per-site vectors (cycled to fill the chain)."""
    n = circuit.n_sites
    vecs = [np.asarray(site_vectors[i % len(site_vectors)], dtype=complex)
            for i in range(n)]
    psi = vecs[0]
    for v in vecs[1:]:
        psi = np.kron(psi, v)
    return psi


def basis_string_state(circuit: DenseCircuit, labels) -> np.ndarray:
    """Product of computational basis states given per-site indices."""
    eye = np.eye(circuit.d, dtype=complex)
    return product_state(circuit, [eye[i] for i in labels])


def _apply_pair_op(psi, op, p, n, d):
    """Apply a two-site operator on sites (p, p+1 mod n) of a state or column block.

    The gate is one matmul over the d^p blocks (d^2, rest) of the state.  At
    the right end of the chain rest is below d^2, and those would be d^p tiny
    products: there the gate is one 2-D GEMM of the rows (d^2 rest) with
    op (x) 1_rest instead.  The wrapping pair (n-1, 0) is one 2-D GEMM on the
    transposed view whose rows are its two sites.
    """
    dd = d * d
    if p == n - 1:
        # [site 0, middle, site n-1, columns], gate rows (site n-1, site 0)
        x = psi.reshape(d, -1, d, psi.size // d ** n)
        out = op @ x.transpose(2, 0, 1, 3).reshape(dd, -1)
        return out.reshape(d, d, x.shape[1], x.shape[3]).transpose(1, 2, 0, 3).reshape(psi.shape)
    rest = psi.size // d ** (p + 2)
    if rest >= dd:
        return np.matmul(op, psi.reshape(d ** p, dd, rest)).reshape(psi.shape)
    # in slabs of rows: one GEMM over all d^p rows lets threaded BLAS take
    # working memory of the state's size
    x = psi.reshape(d ** p, dd * rest)
    gate = np.kron(op.T, np.eye(rest))
    out = np.empty(x.shape, dtype=np.result_type(x, gate))
    for i in range(0, len(x), GEMM_ROWS):
        np.matmul(x[i:i + GEMM_ROWS], gate, out=out[i:i + GEMM_ROWS])
    return out.reshape(psi.shape)


def apply_layer(circuit: DenseCircuit, psi, layer) -> np.ndarray:
    """Apply one brickwork layer: 'odd' = pairs (2j-1, 2j), 'even' = (2j, 2j+1)."""
    return _apply_gates(circuit, psi, circuit.gate, layer)


def _apply_gates(circuit: DenseCircuit, psi, op, layer) -> np.ndarray:
    """Apply the two-site `op` on every pair of a layer (the pairs are disjoint)."""
    n, d = circuit.n_sites, circuit.d
    for p in _layer_pairs(circuit, layer):
        psi = _apply_pair_op(psi, op, p, n, d)
    return psi


def _layer_pairs(circuit: DenseCircuit, layer):
    """Start sites of the layer's gates; the pair (n-1, 0) wraps on the ring."""
    n = circuit.n_sites
    if layer == "odd":
        pairs = list(range(1, n, 2))
    elif layer == "even":
        pairs = list(range(0, n, 2))
    else:
        raise ValueError("layer must be 'odd' or 'even'")
    if circuit.obc:
        pairs = [p for p in pairs if p + 1 < n]
    return pairs


def _layer_sequence(steps) -> list:
    """The layers of `steps` periods in order of application, odd layer first."""
    n_half = int(round(2 * steps))
    if abs(2 * steps - n_half) > 1e-12 or n_half < 0:
        raise ValueError("steps must be a non-negative multiple of 1/2")
    return [("odd", "even")[k % 2] for k in range(n_half)]


def evolve(circuit: DenseCircuit, psi, steps) -> np.ndarray:
    """Evolve a state or a (dim, k) column block by `steps` periods."""
    out = np.array(psi, dtype=complex)
    for layer in _layer_sequence(steps):
        out = apply_layer(circuit, out, layer)
    return out


def _evolve_back(circuit: DenseCircuit, psi, steps) -> np.ndarray:
    """Apply the adjoint circuit (undo `steps` periods) to a state or column block."""
    adjoint = circuit.gate.conj().T
    out = np.array(psi, dtype=complex)
    for layer in reversed(_layer_sequence(steps)):
        out = _apply_gates(circuit, out, adjoint, layer)
    return out


def evolution_matrix(circuit: DenseCircuit, steps=1) -> np.ndarray:
    dim = circuit.d ** circuit.n_sites
    if dim > DENSE_U_CAP:
        raise MemoryError(f"dense evolution operator dim {dim} exceeds {DENSE_U_CAP}")
    return evolve(circuit, np.eye(dim, dtype=complex), steps)


# -- projector subspace ------------------------------------------------------------


@dataclass
class SubspaceInfo:
    dimension: int
    projector: np.ndarray | None          # global P-hat (dense) when it fits
    projector_half: np.ndarray | None
    basis: np.ndarray | None              # orthonormal columns spanning the subspace
    invariance_residual: float = 0.0


def _global_two_layer(circuit: DenseCircuit, first, second):
    """Dense product (second-layer op) (first-layer op) of local two-site ops.

    `first` acts on odd pairs (2j-1, 2j), `second` on even pairs (2j, 2j+1).
    """
    eye = np.eye(circuit.d ** circuit.n_sites, dtype=complex)
    return _apply_gates(circuit, _apply_gates(circuit, eye, first, "odd"), second, "even")


def subspace(circuit: DenseCircuit) -> SubspaceInfo:
    """The solvable subspace: P-hat = (even P layer)(odd Q layer), its dim, basis."""
    n, d = circuit.n_sites, circuit.d
    dim = d ** n
    if circuit.projector is None:
        return SubspaceInfo(dimension=dim, projector=None, projector_half=None,
                            basis=None, invariance_residual=0.0)
    P, Q = circuit.projector, circuit.projector_q
    if Q is None:
        Q = P
    Pg = _global_two_layer(circuit, Q, P)
    Pg_half = _global_two_layer(circuit, P, Q)
    D = int(round(np.trace(Pg).real))
    vals, vecs = np.linalg.eigh((Pg + Pg.conj().T) / 2)
    basis = vecs[:, vals > 0.5]
    # invariance: P_half U_o P = U_o P on the dense layer
    Uo = apply_layer(circuit, np.eye(dim, dtype=complex), "odd")
    resid = float(np.abs(Pg_half @ Uo @ Pg - Uo @ Pg).max())
    return SubspaceInfo(dimension=D, projector=Pg, projector_half=Pg_half,
                        basis=basis, invariance_residual=resid)


def open_chain(ts, n_sites, **kw) -> DenseCircuit:
    """Open-boundary chain with an explicit (possibly odd) number of sites."""
    if ts.d_rho != ts.d_v:
        raise ValueError("dense oracle needs d_rho = d_v")
    return DenseCircuit(L=(n_sites + 1) // 2, d=ts.d_rho, gate=ts.gate_matrix,
                        obc=True, sites=n_sites, **kw)


def obc_constraint_dimension(P: np.ndarray, d: int, N: int) -> int:
    """Tr of the product of a DIAGONAL two-site projector over an OBC N-site chain.

    Counted through the transfer (adjacency) recursion, so N can exceed any
    dense cap.  Raises if P is not diagonal.
    """
    P = np.asarray(P)
    if np.abs(P - np.diag(np.diag(P))).max() > 1e-12:
        raise ValueError("constraint counting needs a diagonal projector")
    adj = np.round(np.diag(P).real).reshape(d, d).astype(np.int64)
    vec = np.ones(d, dtype=np.int64)
    for _ in range(N - 1):
        vec = adj @ vec
    return int(vec.sum())


# -- dense quantities ---------------------------------------------------------------


def site_of(circuit: DenseCircuit, x) -> int:
    s = int(round(2 * x))
    if circuit.obc:
        if not 0 <= s < circuit.n_sites:
            raise ValueError(f"position {x} outside open chain")
        return s
    return s % circuit.n_sites


def apply_site_op(circuit: DenseCircuit, psi, O, x) -> np.ndarray:
    """Apply a one-site operator at position x to a state or column block."""
    d = circuit.d
    psi = np.asarray(psi, dtype=complex)
    out = np.matmul(np.asarray(O, dtype=complex), psi.reshape(d ** site_of(circuit, x), d, -1))
    return out.reshape(psi.shape)


def oracle_expectation(circuit, psi0, O, x, t) -> complex:
    psit = evolve(circuit, psi0, t)
    return complex(np.vdot(psit, apply_site_op(circuit, psit, O, x)))


def oracle_two_point(circuit, psi0, O, O2, x, t, connected=False):
    """<O_0(t) O2_{x+1/2}(t)> and optionally the connected version."""
    psit = evolve(circuit, psi0, t)
    right = apply_site_op(circuit, psit, O2, x + 0.5)
    right = apply_site_op(circuit, right, O, 0.0)
    val = complex(np.vdot(psit, right))
    if not connected:
        return val
    e1 = complex(np.vdot(psit, apply_site_op(circuit, psit, O, 0.0)))
    e2 = complex(np.vdot(psit, apply_site_op(circuit, psit, O2, x + 0.5)))
    return val - e1 * e2


def reduced_density_matrix(circuit, psi, n_keep, offset=0) -> np.ndarray:
    """Partial trace keeping `n_keep` contiguous sites starting at `offset`."""
    n, d = circuit.n_sites, circuit.d
    psi = np.asarray(psi, dtype=complex).reshape((d,) * n)
    psi = np.moveaxis(psi, [(offset + k) % n for k in range(n_keep)], list(range(n_keep)))
    block = psi.reshape(d ** n_keep, d ** (n - n_keep))
    return block @ block.conj().T


def oracle_renyi(circuit, psi0, l, t, alpha, offset=0) -> float:
    """Renyi entropy of a 2l-site block of the evolved state."""
    psit = evolve(circuit, psi0, t)
    rho = reduced_density_matrix(circuit, psit, 2 * l, offset=offset)
    vals = np.linalg.eigvalsh(rho)
    vals = np.clip(vals.real, 0.0, None)
    tr = float((vals ** alpha).sum())
    return float(np.log(tr) / (1 - alpha))


def _subspace_basis_vectors(circuit: DenseCircuit):
    """Orthonormal basis of the global projector image (full space if none)."""
    n, d = circuit.n_sites, circuit.d
    dim = d ** n
    if circuit.projector is None:
        return None, dim                      # identity projector
    P = circuit.projector
    if np.abs(P - np.diag(np.diag(P))).max() < 1e-12:
        # diagonal constraint: the allowed strings, in ascending code order
        allowed = np.round(np.diag(P).real).reshape(d, d) != 0
        digits = np.indices((d,) * n, sparse=True)
        ok = np.ones((d,) * n, dtype=bool)
        for k in range(n if not circuit.obc else n - 1):
            ok &= allowed[digits[k], digits[(k + 1) % n]]
        codes = np.flatnonzero(ok)
        basis = np.zeros((dim, codes.size), dtype=complex)
        basis[codes, np.arange(codes.size)] = 1.0
        return basis, codes.size
    info = subspace(circuit)
    return info.basis, info.dimension


def _trace(circuit: DenseCircuit, bra_ket) -> complex:
    """Sum over the subspace basis of <bra_k|ket_k>, divided by Tr[P].

    `bra_ket(block)` maps a (dim, k) block of basis columns to the (bra, ket)
    blocks; blocks hold at most `COLUMN_BLOCK` amplitudes (one column if the
    ring is larger), so an identity trace never forms a dim x dim array.
    """
    basis, D = _subspace_basis_vectors(circuit)
    dim = circuit.d ** circuit.n_sites
    width = max(1, COLUMN_BLOCK // dim)
    total = 0.0 + 0.0j
    for start in range(0, D, width):
        k = min(width, D - start)
        if basis is None:
            block = np.zeros((dim, k), dtype=complex)
            block[np.arange(start, start + k), np.arange(k)] = 1.0
        else:
            block = basis[:, start:start + k]
        total += np.vdot(*bra_ket(block))
    return complex(total / D)


def oracle_st_correlator(circuit, A_op, B_op, x, t) -> complex:
    """Tr[P A_0(t) B_x(0)] / Tr[P] on the finite ring."""

    def bra_ket(block):
        # <vec| U(t)^dag A U(t) B |vec>: the bra side is evolved forward too
        w = evolve(circuit, apply_site_op(circuit, block, B_op, x), t)
        return evolve(circuit, block, t), apply_site_op(circuit, w, A_op, 0.0)

    return _trace(circuit, bra_ket)


def oracle_otoc(circuit, V_op, W_op, x, t) -> complex:
    """(normalized) Tr[P W_0^dag V_x(t)^dag W_0 V_x(t)] / Tr[P]."""
    V_op, W_op = np.asarray(V_op, dtype=complex), np.asarray(W_op, dtype=complex)

    def v_heis(block, V):
        w = apply_site_op(circuit, evolve(circuit, block, t), V, x)
        return _evolve_back(circuit, w, t)

    def bra_ket(block):
        w = apply_site_op(circuit, v_heis(block, V_op), W_op, 0.0)
        w = v_heis(w, V_op.conj().T)
        return block, apply_site_op(circuit, w, W_op.conj().T, 0.0)

    return _trace(circuit, bra_ket)


def heisenberg_block(gate, O, t, leg) -> np.ndarray:
    """Time-evolved single-site operator as a dense block, from triangle networks.

    Contracts the bra and ket triangular gate networks directly with O
    inserted on the apex leg (the i_n leg for a v-leg operator, a_1 for a
    rho-leg operator).  Covers 2 * (2t) sites; returns the (out, in) matrix.
    """
    n = int(round(2 * t))
    if abs(2 * t - n) > 1e-12 or n < 1:
        raise ValueError("t must be a positive multiple of 1/2")
    T = network_triangle(gate, n)
    dv, dr = gate.shape[0], gate.shape[1]
    up = 2 * n
    if leg == "v":
        axis = 2 * n - 1                      # i_n among (a1, i1, ..., an, in)
        op_dim = dv
    else:
        axis = 0                              # a_1
        op_dim = dr
    O = np.asarray(O, dtype=complex)
    if O.shape != (op_dim, op_dim):
        raise ValueError("operator dimension does not match the leg")
    ketO = np.moveaxis(np.tensordot(O, T, axes=([1], [axis])), 0, axis)
    dim = dr ** n * dv ** n
    block = np.tensordot(ketO.reshape(dim, dim), T.reshape(dim, dim).conj(),
                         axes=([0], [0]))
    return block.T                            # rows: bra-side (out), cols: ket-side (in)


def embed_operator(circuit: DenseCircuit, block, first_site) -> "callable":
    """Return op(psi): apply a dense operator block starting at a given site."""
    n, d = circuit.n_sites, circuit.d
    block = np.asarray(block, dtype=complex)
    width = int(round(np.log(block.shape[0]) / np.log(d)))

    def apply(psi):
        """Apply the block to a state or column block."""
        sites = [(first_site + k) % n for k in range(width)]
        psi = np.asarray(psi, dtype=complex)
        arr = np.moveaxis(psi.reshape((d,) * n + (-1,)), sites, range(width))
        arr = (block @ arr.reshape(d ** width, -1)).reshape(arr.shape)
        return np.moveaxis(arr, range(width), sites).reshape(psi.shape)

    return apply


def oracle_otoc_embedded(circuit: DenseCircuit, heis_block, first_site, W_op, t) -> complex:
    """OTOC trace with the time-evolved operator supplied as a dense block.

    Used for weak models, where the engine's computable OTOC dresses the
    Heisenberg operators with the cone-local projector pattern of the gate
    network; the block (an independently contracted cone network) is embedded
    on the ring and traced against the global projector with the W's.
    """
    W_op = np.asarray(W_op, dtype=complex)
    V_t = embed_operator(circuit, heis_block, first_site)
    Vd_t = embed_operator(circuit, heis_block.conj().T, first_site)

    def bra_ket(block):
        w = Vd_t(apply_site_op(circuit, V_t(block), W_op, 0.0))
        return block, apply_site_op(circuit, w, W_op.conj().T, 0.0)

    return _trace(circuit, bra_ket)


def oracle_quantities(circuit, psi0, t, observables=(), two_points=(), renyis=(),
                      otocs=(), st_corrs=()) -> dict:
    """Evaluate a batch of quantities densely; see the individual functions."""
    out = {"expectations": {}, "two_point": {}, "renyi": {}, "otoc": {}, "st_corr": {}}
    for key, (O, x) in dict(observables).items():
        out["expectations"][key] = oracle_expectation(circuit, psi0, O, x, t)
    for key, (O, O2, x) in dict(two_points).items():
        out["two_point"][key] = oracle_two_point(circuit, psi0, O, O2, x, t, connected=True)
    for key, (l, alpha) in dict(renyis).items():
        out["renyi"][key] = oracle_renyi(circuit, psi0, l, t, alpha)
    for key, (V, W, x) in dict(otocs).items():
        out["otoc"][key] = oracle_otoc(circuit, V, W, x, t)
    for key, (A, B, x) in dict(st_corrs).items():
        out["st_corr"][key] = oracle_st_correlator(circuit, A, B, x, t)
    return out


def minimal_period(circuit: DenseCircuit, eta=None):
    """Smallest integer t with U(t) = phase * identity on the solvable subspace.

    Returns (t, phase).  The search caps at 4 * eta * L when eta is given
    (else 4 * 64 * L).
    """
    dim = circuit.d ** circuit.n_sites
    U = evolution_matrix(circuit, 1)          # raises MemoryError above DENSE_U_CAP
    basis, D = _subspace_basis_vectors(circuit)
    if basis is None:
        basis = np.eye(dim, dtype=complex)
    cap = 4 * (eta if eta else 64) * circuit.L
    M = np.eye(dim, dtype=complex)
    for t in range(1, cap + 1):
        M = U @ M
        block = basis.conj().T @ M @ basis
        phase = block[0, 0]
        if abs(phase) > 1e-8 and np.abs(block - phase * np.eye(D)).max() <= 1e-8 * max(1, abs(phase)):
            return t, complex(phase / abs(phase))
    raise RuntimeError(f"no revival found up to t = {cap}")


# -- dense gate-network contractions (shape oracles) --------------------------------
# Each operator shape is its gate network contracted by one einsum; the engine
# builds the same shapes from its own matrix products and shares no code here.


def _gate_network(gate, crossings, out):
    """Contract one gate at each crossing of a rho worldline with a v worldline.

    Gate axes are (i, a, b, j): i up-left, a up-right, b down-left, j
    down-right.  Rho line m enters on leg b_m, passes each of its gates from b
    to a and leaves on a_m; v line m enters on j_m, passes j -> i and leaves on
    i_m.  `crossings` lists (rho line, v line) pairs, 1-based, so that every
    line meets its crossings in order; `out` names the output legs, such as
    ("a", 1), in axis order.
    """
    n = max(max(pair) for pair in crossings)
    legs = [(leg, m) for leg in "aibj" for m in range(1, n + 1)]
    label = {leg: k for k, leg in enumerate(legs, start=1)}
    line = {leg: label[leg] for leg in legs if leg[0] in "bj"}   # open label, keyed by entry leg
    left = Counter([("b", r) for r, _ in crossings] + [("j", v) for _, v in crossings])
    fresh, operands = len(legs), []
    for r, v in crossings:
        entering = [line["b", r], line["j", v]]
        for key, end in ((("j", v), ("i", v)), (("b", r), ("a", r))):
            left[key] -= 1
            fresh += left[key] > 0
            line[key] = fresh if left[key] else label[end]
        operands += [gate, [line["j", v], line["b", r]] + entering]
    return np.einsum(*operands, [label[leg] for leg in out], optimize=True)


def network_triangle(gate, n):
    """Direct contraction of the n-layer triangular gate network.

    Output axes: (a1, i1, ..., an, in, b1, j1, ..., bn, jn).
    """
    crossings = [(c, r + c - 1) for r in range(1, n + 1) for c in range(1, n - r + 2)]
    out = [(leg, k) for pair in ("ai", "bj") for k in range(1, n + 1) for leg in pair]
    return _gate_network(gate, crossings, out)


def network_diamond(gate, n, power=1):
    """Direct contraction of the n x n diamond gate network, matrix power applied.

    Output axes: (a1..an, i1..in, b1..bn, j1..jn) in blocks, matching the
    (rho-block, v-block) index grouping of the diamond operator.
    """
    crossings = [(n - p, q + 1) for p in range(n) for q in range(n)]
    block = _gate_network(gate, crossings, [(leg, k) for leg in "aibj" for k in range(1, n + 1)])
    dv, dr = gate.shape[0], gate.shape[1]
    mat = block.reshape(dr ** n * dv ** n, dr ** n * dv ** n)
    return np.linalg.matrix_power(mat, power)


def network_inverted_triangle(gate, n):
    """Direct contraction of the inverted-triangle gate network.

    Output axes: (i1, a1, ..., in, an, j1, b1, ..., jn, bn).
    """
    crossings = [(n - r + c, c) for r in range(1, n + 1) for c in range(1, r + 1)]
    out = [(leg, k) for pair in ("ia", "jb") for k in range(1, n + 1) for leg in pair]
    return _gate_network(gate, crossings, out)


# -- IRF model ----------------------------------------------------------------------


@dataclass
class IrfCircuit:
    """Three-site controlled-gate brickwork on an OBC qubit chain.

    The gate applies a single-qubit operation to qubit k controlled by its two
    neighbours; missing neighbours at the chain ends act as the unconstrained
    control.  Basis order per site: (I, tau) = (0, 1).
    """

    n_sites: int
    blocks: dict                 # {"tt": 2x2, "It": 2x2, "tI": 2x2, "II": 2x2}
    amplitude_cap: int = DEFAULT_AMPLITUDE_CAP

    def __post_init__(self):
        if 2 ** self.n_sites > self.amplitude_cap:
            raise MemoryError("IRF chain exceeds amplitude cap")

    def gate_matrix(self):
        """Dense three-site gate (left control, target, right control)."""
        out = np.zeros((8, 8), dtype=complex)
        key = {(1, 1): "tt", (0, 1): "It", (1, 0): "tI", (0, 0): "II"}
        for a in (0, 1):
            for b in (0, 1):
                blk = np.asarray(self.blocks[key[(a, b)]], dtype=complex)
                for s in (0, 1):
                    for r in (0, 1):
                        out[(a * 2 + s) * 2 + b, (a * 2 + r) * 2 + b] = blk[s, r]
        return out


def irf_circuit(n_sites: int, blocks=None) -> IrfCircuit:
    from .zoo import fibonacci_irf
    return IrfCircuit(n_sites=n_sites, blocks=blocks or fibonacci_irf())


def _irf_apply_center(circ: IrfCircuit, psi, k):
    """Apply the controlled gate centered on qubit k (0-based)."""
    n = circ.n_sites
    psi = np.asarray(psi, dtype=complex).reshape((2,) * n)
    key = {(1, 1): "tt", (0, 1): "It", (1, 0): "tI", (0, 0): "II"}
    out = np.zeros_like(psi)
    for a in (0, 1) if k > 0 else (1,):
        for b in (0, 1) if k < n - 1 else (1,):
            blk = np.asarray(circ.blocks[key[(a, b)]], dtype=complex)
            sel = [slice(None)] * n
            if k > 0:
                sel[k - 1] = a
            if k < n - 1:
                sel[k + 1] = b
            sub = psi[tuple(sel)]
            axis = k - (1 if k > 0 else 0)
            acted = np.moveaxis(np.tensordot(blk, sub, axes=([1], [axis])), 0, axis)
            view = out[tuple(sel)]
            view += acted
            out[tuple(sel)] = view
    return out.reshape(-1)


def irf_evolve(circ: IrfCircuit, psi, steps) -> np.ndarray:
    """Brickwork evolution: odd layer centers {1, 3, ...}, even {0, 2, ...}."""
    n_half = int(round(2 * steps))
    if abs(2 * steps - n_half) > 1e-12:
        raise ValueError("steps must be a multiple of 1/2")
    out = np.asarray(psi, dtype=complex).reshape(-1).copy()
    layer = "odd"
    for _ in range(n_half):
        centers = range(1, circ.n_sites, 2) if layer == "odd" else range(0, circ.n_sites, 2)
        for k in centers:
            out = _irf_apply_center(circ, out, k)
        layer = "even" if layer == "odd" else "odd"
    return out


def map_qutrit_irf_string(s) -> list:
    """Map a qutrit basis string in the reachable sector to an IRF link string.

    Link k is I (0) when (s[k], s[k+1]) == (2, 1) in 1-based labels, else tau (1).
    """
    out = []
    for k in range(len(s) - 1):
        out.append(0 if (s[k], s[k + 1]) == (2, 1) else 1)
    return out


def map_irf_qutrit_string(links) -> list:
    """Inverse map: I-links force 2,1 on their endpoints; the rest are 3."""
    n = len(links) + 1
    s = [3] * n
    for k, val in enumerate(links):
        if val == 0:
            if k + 1 < n and s[k] == 3 and s[k + 1] == 3:
                s[k], s[k + 1] = 2, 1
            else:
                raise ValueError("IRF string violates the hard-core constraint")
    return s


def _p0_strings(N):
    """Qutrit basis strings of the sector reachable from |33...3> (N sites)."""
    out = []

    def rec(prefix):
        if len(prefix) == N:
            out.append(tuple(prefix))
            return
        rec(prefix + [3])
        if len(prefix) + 2 <= N:
            rec(prefix + [2, 1])

    rec([])
    return out


def qutrit_irf_isometry(N):
    """Columns map P0-sector qutrit basis states to IRF basis states (N-1 qubits)."""
    strings = _p0_strings(N)
    rows = 2 ** (N - 1)
    iso = np.zeros((rows, 3 ** N), dtype=complex)
    for s in strings:
        links = map_qutrit_irf_string(s)
        col = 0
        for v in s:
            col = col * 3 + (v - 1)
        row = 0
        for v in links:
            row = row * 2 + v
        iso[row, col] = 1.0
    return iso, strings


def map_qutrit_irf(psi, N):
    """Apply the sector isometry to a dense qutrit state (must lie in P0)."""
    iso, strings = qutrit_irf_isometry(N)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    out = iso @ psi
    # check support: the isometry must preserve the norm on P0 states
    if abs(np.linalg.norm(out) - np.linalg.norm(psi)) > 1e-10:
        raise ValueError("state has weight outside the reachable sector")
    return out
