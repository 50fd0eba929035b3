import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfbrick import mpo


@pytest.mark.parametrize("model,ranks", [("fib", (34, 34)), ("d3", (36, 18))])
def test_column_factors_exact(model, ranks, request):
    ts = request.getfixturevalue(f"{model}_ts")
    state = request.getfixturevalue(f"{model}_state")
    stack = state.transfer_stack(ts)
    for kind, rank in zip(("rho", "v"), ranks):
        U, V = stack.factors(kind)
        T = stack.T(kind)
        assert U.shape[1] == V.shape[1] == rank
        assert np.linalg.norm(U @ V.T - T) <= 1e-13 * np.linalg.norm(T)


def test_replica_vector_in_rank_basis(fib_ts, fib_state):
    # the carried tensor has one rank-34 leg per replica: 34^3, not 13^6
    ch = mpo.ReplicaChannel(fib_ts, fib_state, 3)
    vec = ch.start()
    for kind, primed in reversed(mpo._renyi_program(2, 1)):
        vec = ch.apply(kind, vec, primed=primed)
        assert vec.shape == (34,) * 3


def test_transfer_stack_built_once_per_state(fib_ts, d3_ts, monkeypatch):
    builds = []
    init = mpo.TransferStack.__init__
    monkeypatch.setattr(mpo.TransferStack, "__init__",
                        lambda self, *args: builds.append(1) or init(self, *args))
    state = mpo.MPSState.product([0, 0, 1], [0, 0, 1])
    for t in (0.5, 1.0, 2.0):
        mpo.expectation(fib_ts, np.diag([1.0, 0, 0]), t, state)
        mpo.two_point(fib_ts, np.diag([1.0, 0, 0]), np.diag([0, 0, 1.0]), 1, 1, state,
                      connected=True)
    mpo.renyi_replica(fib_ts, state, 3, 1, 2)
    mpo.renyi_half_chain(fib_ts, state, 2, 3)
    mpo.equilibration(fib_ts, state)
    assert len(builds) == 1
    # another state gets its own stack, once
    plus = mpo.MPSState.product([1, 1], [1, 1])
    mpo.expectation(d3_ts, np.diag([1.0, 0]), 1.0, plus)
    assert plus.transfer_stack(d3_ts) is plus.transfer_stack(d3_ts)
    assert len(builds) == 2


def test_replica_memory_guard_raises_before_allocating(fib_ts, fib_state):
    # alpha = 6 would need 13^4 * 34^4 entries per step; the guard fires first
    for kind in ("rho", "v"):
        fib_state.transfer_stack(fib_ts).factors(kind)
    tracemalloc.start()
    try:
        for fn, args in ((mpo.renyi_replica, (5, 2, 6)), (mpo.renyi_half_chain, (2, 6))):
            with pytest.raises(MemoryError):
                fn(fib_ts, fib_state, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=15, deadline=None, derandomize=True)
@given(model=st.sampled_from(["d3", "fib"]), l=st.integers(1, 2),
       n=st.integers(1, 6), alpha=st.integers(2, 3))
def test_renyi_replica_matches_rdm(model, l, n, alpha, fib_ts, fib_state, d3_ts, d3_state):
    ts, state = (fib_ts, fib_state) if model == "fib" else (d3_ts, d3_state)
    hs = mpo.renyi_small(ts, state, l, n / 2, alpha)
    hr = mpo.renyi_replica(ts, state, l, n / 2, alpha)
    assert abs(hs - hr) < 1e-8
