"""Dense reference for the trace-channel sweep: every cut's full vector.

This is the engine's former sweep, kept as the reference that the
exact-support kernel (`mpo._sweep_cuts`) is checked against.
"""

import numpy as np


def dense_sweep_cuts(layers, lefts):
    """Left boundary vectors `lefts` (batch, bond), on the first layer's
    bond, swept through the window: yields (batch, bonds) after each site.

    Every site is contracted along a fixed sequential path, one layer after
    the next.  The physical trace is cyclic, so the first layer goes first
    where it narrows the bond and last where it widens it; the other layers
    then act on the narrower vector.  A step's two legs, the previous layer's
    in leg and this layer's bond, are kept adjacent ([done, (out, bond),
    rest]), so each step is one batched GEMM on the intermediate as it lies;
    only the vector between sites is reordered.
    """
    n, batch = len(layers), len(lefts)
    vec = lefts.reshape(lefts.shape + (1,) * (n - 1))       # [batch, bond per layer]
    for site in zip(*layers):
        first = 0 if site[0].shape[1] < site[0].shape[0] else 1
        order = [(first + j) % n for j in range(n)]
        # first layer: [batch, bond, rest] -> [batch, (out, c, in), rest]
        b, c, po, pi = site[order[0]].shape
        x = vec.transpose([0] + [1 + k for k in order]).reshape(batch, b, -1)
        x = site[order[0]].transpose(2, 1, 3, 0).reshape(-1, b) @ x
        done = batch * po * c
        for k in order[1:-1]:
            # [done, (out, bond), rest] -> [done, (c, in), rest]
            b, c, po, pi = site[k].shape
            x = site[k].transpose(1, 3, 2, 0).reshape(c * pi, po * b) @ \
                x.reshape(done, po * b, -1)
            done *= c
        # the last layer's in leg is the first layer's out leg: the trace
        b, c, po, pi = site[order[-1]].shape
        x = x.reshape(batch, pi, -1, po * b)
        T = site[order[-1]].transpose(3, 2, 0, 1).reshape(pi, po * b, c)
        x = sum(x[:, p] @ T[p] for p in range(pi))
        vec = x.reshape(batch, *(site[k].shape[1] for k in order)).transpose(
            [0] + [1 + order.index(k) for k in range(n)])
        yield vec.reshape(batch, -1)


def dense_sweep_channel(layers, lefts, lam, keys=None, kept=None):
    """The last cut's vector, divided by `lam` once per (v, rho) cell as the
    engine's sweep is; `keys` and `kept`, the engine's site-map cache, are
    not used."""
    for vec in dense_sweep_cuts(layers, lefts):
        pass
    return vec / lam ** (len(layers[0]) // 2)
