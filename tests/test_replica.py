import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfbrick import mpo
from dense_reference import FullSlotChannel, replica_entropy


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


BASES = [(kind, primed) for kind in ("rho", "v") for primed in (False, True)]


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("model", ["fib", "d3"])
def test_transposed_step_is_transpose(model, alpha, request):
    # <y, S x> = <S^T y, x> for every step, the bilinear pairing of the trace
    ts = request.getfixturevalue(f"{model}_ts")
    state = request.getfixturevalue(f"{model}_state")
    ch = mpo.ReplicaChannel(ts, state, alpha)
    rng = np.random.default_rng(7)
    stack = state.transfer_stack(ts)
    rank = {kind: stack.factors(kind)[0].shape[1] for kind in ("rho", "v")}

    def tensor(kind):
        shape = (rank[kind],) * alpha
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for src, dst in itertools.product(BASES, BASES):
        x, y = tensor(src[0]), tensor(dst[0])
        forward = np.sum(y * ch.step(src, dst)(x.copy()))
        back = np.sum(ch.step(src, dst, transpose=True)(y.copy()) * x)
        assert abs(forward - back) <= 1e-13 * abs(forward), (src, dst)


def _stepped_entropy(ts, state, program, alpha):
    """The replica entropy stepped one column at a time through
    `ReplicaChannel.apply`, the vector renormalized after every step."""
    ch = mpo.ReplicaChannel(ts, state, alpha)
    vec, log_scale = ch.start(), 0.0
    for kind, primed in reversed(program):
        vec = ch.apply(kind, vec, primed=primed)
        norm = np.linalg.norm(vec)
        vec, log_scale = vec / norm, log_scale + np.log(norm)
    return float((np.log(ch.trace(vec).real) + log_scale) / (1 - alpha))


# (l, n): n < l, n = l and n > l with ramps that outlast every span (at most
# 12 cells), short ramps that end before their span closes, and a left ramp
# of one cell
BLOCKS = [(16, 8), (14, 14), (14, 30), (4, 3), (3, 4), (2, 2), (5, 1)]


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("model", ["fib", "d3"])
def test_segment_program_matches_stepping(model, alpha, request):
    ts = request.getfixturevalue(f"{model}_ts")
    state = request.getfixturevalue(f"{model}_state")
    for l, n in BLOCKS:
        program = mpo._renyi_program(l, n)
        assert abs(mpo.renyi_replica(ts, state, l, n / 2, alpha)
                   - _stepped_entropy(ts, state, program, alpha)) <= 1e-10, (l, n)
    for n in (1, 3, 20):
        program = [("rho", True), ("v", False)] * n
        assert abs(mpo.renyi_half_chain(ts, state, n / 2, alpha)
                   - _stepped_entropy(ts, state, program, alpha)) <= 1e-10, n


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("model", ["fib", "d3"])
def test_segment_program_restarts(model, alpha, request, monkeypatch):
    # two basis vectors per Arnoldi cycle: every ramp cell restarts the basis
    ts = request.getfixturevalue(f"{model}_ts")
    state = request.getfixturevalue(f"{model}_state")
    sizes = []
    power = mpo._matrix_power
    monkeypatch.setattr(mpo, "KRYLOV_MAX", 2)
    monkeypatch.setattr(mpo, "_matrix_power",
                        lambda M, reps: sizes.append(len(M)) or power(M, reps))
    l, n = 14, 30
    h = mpo.renyi_replica(ts, state, l, n / 2, alpha)
    # one cycle per ramp cell; the middle run's per-leg power is r x r
    assert sum(size == 2 for size in sizes) == 2 * (l - 1)
    assert all(size == 2 or size > 10 for size in sizes)
    assert abs(h - _stepped_entropy(ts, state, mpo._renyi_program(l, n), alpha)) <= 1e-10


def test_segment_memory_in_v_basis(d3_ts, d3_state):
    # dihedral-3 alpha = 3: a Krylov vector in the v basis (rank 18) has 5 832
    # entries, in the rho basis (rank 36) 46 656 (746 KB); six of the latter
    # overrun the bound, about twice the measured 4.7 MB peak
    for kind in ("rho", "v"):
        d3_state.transfer_stack(d3_ts).factors(kind)
    tracemalloc.start()
    try:
        mpo.renyi_replica(d3_ts, d3_state, 300, 30, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_segment_memory_in_v_basis_on_cold_channel(d3_ts):
    # the session state's channel may hold every step, buffer and span from
    # earlier tests; a fresh state builds them under the same bound
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    state = mpo.MPSState.product(plus, plus)
    test_segment_memory_in_v_basis(d3_ts, state)
    assert state.transfer_stack(d3_ts).replica_channel(3)._spans


@pytest.mark.parametrize("model", ["fib", "d3"])
def test_replica_matches_full_slot_reference(model, request):
    # the channel on its live slot values against the full-slot reference:
    # the dropped slot values carry exact zeros only
    ts = request.getfixturevalue(f"{model}_ts")
    state = request.getfixturevalue(f"{model}_state")
    for alpha in (2, 3):
        for l, n in ((1, 2), (3, 1), (2, 5), (5, 1)):
            ref = replica_entropy(ts, state, mpo._renyi_program(l, n), alpha)
            assert abs(mpo.renyi_replica(ts, state, l, n / 2, alpha) - ref) <= 1e-12, \
                (alpha, l, n)
        for n in (1, 4):
            ref = replica_entropy(ts, state, [("rho", True), ("v", False)] * n, alpha)
            assert abs(mpo.renyi_half_chain(ts, state, n / 2, alpha) - ref) <= 1e-12, \
                (alpha, n)


@pytest.mark.parametrize("model,n_live", [("fib", 8), ("d3", 6)])
def test_live_slot_support_is_exact(model, n_live, request):
    ts = request.getfixturevalue(f"{model}_ts")
    state = request.getfixturevalue(f"{model}_state")
    stack = state.transfer_stack(ts)
    ch = mpo.ReplicaChannel(ts, state, 2)
    dA = ts.algebra.dim
    assert ch.d == len(ch.live) == n_live
    pairs = (ch.live[:, None] * dA + ch.live).reshape(-1)
    for kind in ("rho", "v"):
        T = stack.T(kind)
        # every nonzero entry of the traced column sits on live slot values
        rows, cols = np.nonzero(T)
        assert np.isin(np.divmod(rows, dA), ch.live).all()
        assert np.isin(np.divmod(cols, dA), ch.live).all()
        # the restricted factors reproduce the column on the live pairs
        U, V = (F.reshape(n_live ** 2, -1) for F in ch._uv[kind])
        T_live = T[np.ix_(pairs, pairs)]
        assert np.linalg.norm(U @ V.T - T_live) <= 1e-13 * np.linalg.norm(T)
        # the stack's factors are exactly zero off the column's live rows
        U, V = stack.factors(kind)
        assert not U[~np.any(T != 0, axis=1)].any()
        assert not V[~np.any(T != 0, axis=0)].any()


STATES = {"fib": ([0, 0, 1], [0, 0, 1]), "d3": ([1, 1], [1, 1])}
# (l, n) blocks, and half chains as (None, n)
SCAN = BLOCKS + [(40, 20), (40, 60), (None, 1), (None, 3), (None, 20)]


def _scan_point(ts, state, alpha, point):
    l, n = point
    if l is None:
        return mpo.renyi_half_chain(ts, state, n / 2, alpha)
    return mpo.renyi_replica(ts, state, l, n / 2, alpha)


def _program(point):
    l, n = point
    return [("rho", True), ("v", False)] * n if l is None else mpo._renyi_program(l, n)


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("model", ["fib", "d3"])
def test_cached_scan_is_bitwise_fresh(model, alpha, request, monkeypatch):
    # one state's channel answers a whole scan, in shuffled order, with the
    # bits of a fresh channel at every point, and within 1e-12 of the
    # full-slot reference, which builds a channel per call
    ts = request.getfixturevalue(f"{model}_ts")
    builds = []
    for cls in (mpo.ReplicaChannel, FullSlotChannel):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=cls.__init__:
                            builds.append(type(self)) or init(self, *args))
    state = mpo.MPSState.product(*STATES[model])
    order = np.random.default_rng(alpha).permutation(len(SCAN))
    cached = {SCAN[i]: _scan_point(ts, state, alpha, SCAN[i]) for i in order}
    assert builds == [mpo.ReplicaChannel]
    # the blocks' two ramps and the half chain's right boundary vector
    assert len(state.transfer_stack(ts).replica_channel(alpha)._spans) == 3
    for point, value in cached.items():
        assert _scan_point(ts, mpo.MPSState.product(*STATES[model]), alpha, point) == value, point
        ref = replica_entropy(ts, state, _program(point), alpha)
        assert abs(value - ref) <= 1e-12, point
    assert builds.count(mpo.ReplicaChannel) == 1 + len(SCAN)
    assert builds.count(FullSlotChannel) == len(SCAN)


def test_channel_cache_is_per_tensor_set_state_and_alpha(fib_ts):
    # a warm channel never answers for another tensor set, state or alpha
    vectors = {"3": STATES["fib"], "21": ([0, 1, 0], [1, 0, 0])}
    states = {label: mpo.MPSState.product(*vecs) for label, vecs in vectors.items()}
    other_ts = dataclasses.replace(fib_ts)
    point = (14, 30)
    for alpha in (2, 3):
        _scan_point(fib_ts, states["3"], alpha, point)
    channels = [st.transfer_stack(ts).replica_channel(alpha)
                for ts in (fib_ts, other_ts) for st in states.values() for alpha in (2, 3)]
    assert len(set(map(id, channels))) == 8
    for ts in (fib_ts, other_ts):
        for label, st in states.items():
            for alpha in (2, 3):
                fresh = _scan_point(ts, mpo.MPSState.product(*vectors[label]), alpha, point)
                assert _scan_point(ts, st, alpha, point) == fresh, (label, alpha)
    assert _scan_point(fib_ts, states["3"], 2, point) != _scan_point(fib_ts, states["21"], 2, point)


@pytest.mark.parametrize("name,value", [("KRYLOV_MAX", 3), ("TOL_NUM", 1e-6)])
def test_spans_are_keyed_on_krylov_constants(name, value, fib_ts, monkeypatch):
    # spans built under the default constants never answer under others:
    # the warm channel gives a fresh channel's bits under the new value
    state = mpo.MPSState.product(*STATES["fib"])
    ch = state.transfer_stack(fib_ts).replica_channel(3)
    point = (14, 30)
    _scan_point(fib_ts, state, 3, point)
    warm = dict(ch._spans)
    sizes = {key: len(span.basis) for key, span in warm.items()}
    monkeypatch.setattr(mpo, name, value)
    used = []
    krylov = mpo._krylov_power
    monkeypatch.setattr(mpo, "_krylov_power",
                        lambda cell, span, reps: used.append(span) or krylov(cell, span, reps))
    h = _scan_point(fib_ts, state, 3, point)
    assert len(used) == len(warm)
    assert not any(span is warm_span for span in used for warm_span in warm.values())
    assert h == _scan_point(fib_ts, mpo.MPSState.product(*STATES["fib"]), 3, point)
    # spans that fill KRYLOV_MAX = 3 without closing are not kept
    assert all(key[2:] == (mpo.KRYLOV_MAX, mpo.TOL_NUM) for key in set(ch._spans) - set(warm))
    assert all(ch._spans[key] is span and len(span.basis) == sizes[key]
               for key, span in warm.items())


def test_full_span_is_not_kept(fib_ts, monkeypatch):
    # a ramp span that fills KRYLOV_MAX without closing is dropped, and a
    # later point rebuilds it to the same bits
    monkeypatch.setattr(mpo, "KRYLOV_MAX", 4)
    state = mpo.MPSState.product(*STATES["fib"])
    ch = state.transfer_stack(fib_ts).replica_channel(2)
    long, short = (14, 30), (3, 2)
    values = [_scan_point(fib_ts, state, 2, long)]
    assert not ch._spans
    values.append(_scan_point(fib_ts, state, 2, short))
    # each ramp of the short block powers one cell: two vectors, kept
    assert [len(span.basis) for span in ch._spans.values()] == [2, 2]
    values.append(_scan_point(fib_ts, state, 2, long))
    assert not ch._spans
    fresh = [_scan_point(fib_ts, mpo.MPSState.product(*STATES["fib"]), 2, point)
             for point in (long, short)]
    assert values == fresh + fresh[:1]


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("model", ["fib", "d3"])
def test_segment_program_restarts_after_warm_cache(model, alpha, request, monkeypatch):
    # the session fixtures' channel holds spans built at the default
    # KRYLOV_MAX before the restart count runs, in any test order
    ts = request.getfixturevalue(f"{model}_ts")
    state = request.getfixturevalue(f"{model}_state")
    mpo.renyi_replica(ts, state, 14, 15, alpha)
    spans = state.transfer_stack(ts).replica_channel(alpha)._spans
    assert any(key[2] == mpo.KRYLOV_MAX for key in spans)
    test_segment_program_restarts(model, alpha, request, monkeypatch)
