"""The exact-support trace-channel kernel against the dense sweep.

`mpo._sweep_cuts` carries the swept vector only on its live index set; the
dense reference in `dense_channel` carries every entry.  The two agree to
round-off on every zoo model, on the infinite chain and on rings, and the
live set at every cut holds every nonzero entry of the dense vector.  The
site tensors, maps and environment a tensor set keeps for its trace
channels (`mpo._TraceCache`, keyed by what each site is) change no value
bitwise, answer for no other tensor set, do not grow with a point's
operators and hold no reference back to the set.
"""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfbrick import build_tensors, mpo, zoo
from conftest import random_unitary
from dense_channel import dense_sweep_channel, dense_sweep_cuts

E1 = np.diag([1.0, 0, 0])


def leg_dim(ts, x, t):
    return ts.d_v if mpo.leg_of(x, t) == "v" else ts.d_rho


def dense_value(monkeypatch, fn, *args, **kwargs):
    """`fn(*args, **kwargs)` with the dense sweep in place of the kernel."""
    with monkeypatch.context() as m:
        m.setattr(mpo, "_sweep_channel", dense_sweep_channel)
        return fn(*args, **kwargs)


def captured_sweeps(monkeypatch, fn, *args, **kwargs):
    """Every (layers, lefts, lam, keys, kept) that `fn(*args, **kwargs)` sweeps."""
    calls = []

    def spy(layers, lefts, lam, keys, kept):
        calls.append((layers, lefts, lam, keys, kept))
        return kernel(layers, lefts, lam, keys, kept)

    kernel = mpo._sweep_channel
    with monkeypatch.context() as m:
        m.setattr(mpo, "_sweep_channel", spy)
        fn(*args, **kwargs)
    return calls


@pytest.mark.parametrize("name", sorted(zoo.MODELS))
def test_kernel_equals_dense_sweep_on_zoo(monkeypatch, name):
    ts = build_tensors(zoo.model(name))
    rng = np.random.default_rng(7)
    for x, t in ((0.0, 0.5), (1.0, 1.0), (0.0, 1.5)):
        V, W = random_unitary(leg_dim(ts, x, t), rng), random_unitary(ts.d_v, rng)
        args = (ts, V, W, x, t, False)
        assert abs(mpo.otoc(*args) - dense_value(monkeypatch, mpo.otoc, *args)) <= 1e-12
    for x, t in ((0.0, 1.0), (1.0, 1.0), (0.5, 1.5)):
        A = rng.normal(size=(leg_dim(ts, 0.0, t),) * 2)
        B = rng.normal(size=(leg_dim(ts, x, 0.0),) * 2)
        args = (ts, A, B, x, t)
        got = mpo.st_correlator(*args)
        assert abs(got - dense_value(monkeypatch, mpo.st_correlator, *args)) <= 1e-12


@pytest.mark.parametrize("x,t", [(0.0, 0.5), (0.0, 3.0), (1.0, 1.0), (0.0, 20.0)])
def test_fibonacci_otoc_equals_dense_sweep(monkeypatch, fib_ts, x, t):
    rng = np.random.default_rng(42)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    got = mpo.otoc(fib_ts, V, W, x, t, warn_nonunitary=False)
    want = dense_value(monkeypatch, mpo.otoc, fib_ts, V, W, x, t, warn_nonunitary=False)
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("x,t", [(0.0, 1.0), (1.0, 2.0), (-0.5, 1.5), (3.0, 3.0)])
def test_fibonacci_st_correlator_equals_dense_sweep(monkeypatch, fib_ts, x, t):
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    got = mpo.st_correlator(fib_ts, A, B, x, t)
    want = dense_value(monkeypatch, mpo.st_correlator, fib_ts, A, B, x, t)
    assert abs(got - want) <= 1e-12


def test_zero_operator_empties_the_live_set(fib_ts):
    zero = np.zeros((3, 3))
    assert mpo.st_correlator(fib_ts, zero, E1, 0.0, 1.0) == 0
    assert mpo.otoc(fib_ts, zero, np.eye(3), 0.0, 1.0, warn_nonunitary=False) == 0


@pytest.mark.parametrize("ring_cells", [4, 6])
def test_ring_path_equals_dense_sweep(monkeypatch, fib_ts, d3_ts, ring_cells):
    rng = np.random.default_rng(5)
    for ts in (fib_ts, d3_ts):
        d = ts.d_v
        V, W = random_unitary(d, rng), random_unitary(d, rng)
        for x, t in ((0.0, 0.0), (0.0, 0.5), (1.0, 1.0)):
            args = (ts, V, W, x, t, False, ring_cells)
            assert abs(mpo.otoc(*args) - dense_value(monkeypatch, mpo.otoc, *args)) <= 1e-12
        A, B = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        args = (ts, A, B, 1.0, 1.0, ring_cells)
        got = mpo.st_correlator(*args)
        assert abs(got - dense_value(monkeypatch, mpo.st_correlator, *args)) <= 1e-12


@pytest.mark.parametrize("otoc_ring,st_ring", [(None, None), (5, 6)])
def test_live_set_holds_the_dense_support_at_every_cut(monkeypatch, fib_ts, otoc_ring, st_ring):
    rng = np.random.default_rng(1)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    sweeps = captured_sweeps(monkeypatch, mpo.otoc, fib_ts, V, W, 0.0, 1.5,
                             warn_nonunitary=False, ring_cells=otoc_ring)
    sweeps += captured_sweeps(monkeypatch, mpo.st_correlator, fib_ts, E1, E1, 1.0, 2.0,
                              ring_cells=st_ring)
    assert len(sweeps) == 2
    for layers, lefts, lam, keys, kept in sweeps:
        cuts = list(zip(mpo._sweep_cuts(layers, lefts, lam, keys, kept),
                        dense_sweep_cuts(layers, lefts)))
        assert len(cuts) == len(layers[0])
        for s, ((cols, vec), dense) in enumerate(cuts):
            assert set(np.flatnonzero(np.any(dense != 0, axis=0))) <= set(cols), s
            full = np.zeros_like(dense)
            full[:, cols] = vec * lam ** ((s + 1) // 2)
            assert np.abs(full - dense).max() <= 1e-12 * np.abs(dense).max(), s


def test_large_t_values_stay_finite(fib_ts):
    # the channel grows by phi^2 per cell; without rescaling it overflows
    # to nan from t ~ 380
    want = (3 - math.sqrt(5)) / 10
    assert abs(mpo.st_correlator(fib_ts, E1, E1, 0.0, 400) - want) <= 1e-10
    rng = np.random.default_rng(42)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    F = mpo.otoc(fib_ts, V, W, 0.0, 400, warn_nonunitary=False)
    assert np.isfinite(F) and abs(F) <= 1
    ring = mpo.st_correlator(fib_ts, E1, E1, 0.0, 400, ring_cells=1000)
    assert np.isfinite(ring) and abs(ring - want) <= 1e-10


def test_projector_mpo_built_once_per_tensor_set(monkeypatch):
    # the projector MPO depends only on the tensor set: a second otoc on the
    # same set takes no SVD (building it costs two), and its tensors are shared
    ts = build_tensors(zoo.model("fibonacci"))
    rng = np.random.default_rng(5)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    first = mpo.otoc(ts, V, W, 0.0, 1.0)
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    assert mpo.otoc(ts, V, W, 0.0, 1.0) == first
    assert svds == []
    assert mpo.projector_mpo(ts) is mpo.projector_mpo(ts)
    assert not any(M.flags.writeable for M in mpo.projector_mpo(ts).values())


# -- the trace cache: rows, maps and environment kept per tensor set -----------------------

SCAN = [(0.0, t / 2) for t in range(1, 21)] + [(1.0, float(t)) for t in range(1, 11)]


def scan_values(ts, points, seed=8):
    rng = np.random.default_rng(seed)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    out = {}
    for x, t in points:
        out["otoc", x, t] = mpo.otoc(ts, V, W, x, t, warn_nonunitary=False)
        out["ring", x, t] = mpo.otoc(ts, V, W, x, t, False, ring_cells=2 * int(t) + 4)
        if mpo.leg_of(0.0, t) == "v":
            out["st", x, t] = mpo.st_correlator(ts, A, B, x, t)
    return out


def kept_ids(ts):
    """Ids of every site array the trace cache of `ts` keeps."""
    return {id(a) for site in ts._trace_cache.sites.values() for a in site}


def counted_builds(monkeypatch):
    """A list that grows by one for every `_site_map` build while
    `monkeypatch` (a fixture or one of its contexts) is active."""
    builds = []
    build = mpo._site_map
    monkeypatch.setattr(mpo, "_site_map", lambda *a: builds.append(1) or build(*a))
    return builds


def test_cached_values_equal_fresh_tensor_set_values(fib_ts):
    # a warm cache (every point of the scan already evaluated) against a
    # fresh tensor set per point: bitwise equal
    points = SCAN[::3]
    scan_values(fib_ts, SCAN)
    warm = scan_values(fib_ts, points)
    for p in points:
        fresh = scan_values(build_tensors(zoo.model("fibonacci")), [p])
        assert all(warm[k] == v for k, v in fresh.items()), p


def test_scan_order_does_not_change_values():
    forward = scan_values(build_tensors(zoo.model("fibonacci")), SCAN)
    backward = scan_values(build_tensors(zoo.model("fibonacci")), SCAN[::-1])
    assert forward == backward


def test_second_tensor_set_builds_its_own_maps(monkeypatch, fib_ts):
    rng = np.random.default_rng(2)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    first = mpo.otoc(fib_ts, V, W, 0.0, 2.0, warn_nonunitary=False)
    builds = counted_builds(monkeypatch)
    for other in (dataclasses.replace(fib_ts), build_tensors(zoo.model("fibonacci"))):
        assert other._trace_cache is None
        del builds[:]
        assert mpo.otoc(other, V, W, 0.0, 2.0, warn_nonunitary=False) == first
        cold = len(builds)
        del builds[:]
        mpo.otoc(fib_ts, V, W, 0.0, 2.0, warn_nonunitary=False)
        assert cold > len(builds)
        assert other._trace_cache is not fib_ts._trace_cache
        assert not kept_ids(other) & kept_ids(fib_ts)


def test_operators_do_not_grow_the_cache():
    # 20 OTOCs with different random V: only their folded sites are built
    # per call, so the cache holds what the first one left
    ts = build_tensors(zoo.model("fibonacci"))
    rng = np.random.default_rng(4)
    W = random_unitary(3, rng)
    sizes = set()
    for _ in range(20):
        mpo.otoc(ts, random_unitary(3, rng), W, 1.0, 3.0, warn_nonunitary=False)
        cache = ts._trace_cache
        sizes.add((len(cache.maps), len(cache.sites)))
    assert len(sizes) == 1


def test_cached_arrays_are_read_only(fib_ts):
    scan_values(fib_ts, SCAN[:4])
    cache = fib_ts._trace_cache
    assert cache.maps and cache.sites
    kept = [a for site in cache.sites.values() for a in site] + list(cache.proj.values())
    kept += [a for m in cache.maps.values() for a in m]
    kept += [a for a in cache.environment() if isinstance(a, np.ndarray)]
    assert not any(a.flags.writeable for a in kept)
    K = next(site for key, site in cache.sites.items() if key[2] is not None)[-1]
    with pytest.raises(ValueError):
        K[...] = 0


def test_repeated_point_builds_only_its_folded_sites(monkeypatch):
    ts = build_tensors(zoo.model("fibonacci"))
    rng = np.random.default_rng(6)
    for x, t in ((0.0, 2.5), (1.0, 3.0), (0.0, 0.0)):
        V, W = random_unitary(3, rng), random_unitary(3, rng)
        sweeps = captured_sweeps(monkeypatch, mpo.otoc, ts, V, W, x, t, warn_nonunitary=False)
        (layers, *_), = sweeps
        # counted from the tensors, not the keys: a folded site holds an
        # array that is none of the kept site arrays
        kept = kept_ids(ts)
        folded = sum(not all(id(M) in kept for M in site) for site in zip(*layers))
        assert 1 <= folded <= 2
        with monkeypatch.context() as m:
            builds = counted_builds(m)
            mpo.otoc(ts, V, W, x, t, warn_nonunitary=False)
        assert len(builds) == folded, (x, t)


def test_otoc_scan_build_count(monkeypatch):
    # the two OTOC scans of configs/fib_otoc.json on one fresh tensor set:
    # 329 map builds with maps kept per call, 81 with the trace cache
    ts = build_tensors(zoo.model("fibonacci"))
    builds = counted_builds(monkeypatch)
    rng = np.random.default_rng(42)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    for x, t in SCAN:
        mpo.otoc(ts, V, W, x, t, warn_nonunitary=False)
    assert len(builds) <= 81


# -- site keys name their tensors ------------------------------------------------------


def trace_values(ts, x, t, ring_cells):
    """otoc, and st_correlator where x - t is an integer, at (x, t) with
    operators drawn from a seed of the point alone."""
    rng = np.random.default_rng([int(2 * x) + 16, int(2 * t)])
    V, W = random_unitary(leg_dim(ts, x, t), rng), random_unitary(ts.d_v, rng)
    out = [mpo.otoc(ts, V, W, x, t, False, ring_cells)]
    if mpo.leg_of(x, t) == "v":
        A = rng.normal(size=(leg_dim(ts, 0.0, t),) * 2)
        d_b = leg_dim(ts, x, 0.0)
        B = rng.normal(size=(d_b, d_b)) + 1j * rng.normal(size=(d_b, d_b))
        out.append(mpo.st_correlator(ts, A, B, x, t, ring_cells))
    return out


@pytest.fixture(scope="module")
def warm_sets():
    """One tensor set per model, warmed by every example before."""
    return {}


@pytest.mark.parametrize("name", sorted(zoo.MODELS))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(points=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                       min_size=1, max_size=4, unique=True),
       ring=st.booleans())
def test_site_keys_name_their_tensors(warm_sets, name, points, ring):
    # on one tensor set warmed by every earlier example, in any point order,
    # each value is bitwise the value of a fresh set and the dense sweep's to
    # round-off; twisted-perm-z2's identity sites differ by leg (d_rho = 1,
    # d_v = 2), so a key without the leg would hand one the other's map
    ring_cells = 8 if ring else None
    warm = warm_sets.setdefault(name, build_tensors(zoo.model(name)))
    for x2, t2 in points:
        x, t = x2 / 2, t2 / 2
        got = trace_values(warm, x, t, ring_cells)
        assert got == trace_values(build_tensors(zoo.model(name)), x, t, ring_cells), (x, t)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mpo, "_sweep_channel", dense_sweep_channel)
            dense = trace_values(warm, x, t, ring_cells)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, dense)), (x, t)


def test_trace_cache_holds_no_reference_to_its_tensor_set():
    # with the cyclic collector off, a tensor set that has served OTOC and
    # st_correlator points is freed by reference counting alone: its trace
    # cache holds base arrays, never the set
    rng = np.random.default_rng(9)
    V, W = random_unitary(3, rng), random_unitary(3, rng)
    gc.collect()
    gc.disable()
    try:
        ts = build_tensors(zoo.model("fibonacci"))
        for ring_cells in (None, 6):
            mpo.otoc(ts, V, W, 1.0, 1.5, False, ring_cells)
            mpo.st_correlator(ts, E1, E1, 1.0, 2.0, ring_cells)
        assert ts._trace_cache.maps and ts._trace_cache.sites
        ref = weakref.ref(ts)
        del ts
        assert ref() is None
    finally:
        gc.enable()
