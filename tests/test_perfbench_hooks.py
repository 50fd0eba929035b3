"""The benchmark's trace hooks name callables that exist, and run on them.

`perfbench/spans.py` wraps hopfbrick functions by module and attribute name,
and its hooks read the wrapped calls' arguments by position; a rename or a
reordered signature in the library would leave `perfbench/run.py --trace 1`
without them, or make it fail.  The file is read and executed here without
importing it as a module, so no bytecode is written next to it.
"""

import contextlib
import inspect
import io
import json
import runpy
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import hopfbrick.cli  # noqa: F401  (loads every layer module)
from hopfbrick import mpo
from hopfbrick import oracle as orc
from conftest import random_unitary

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"),
                       run_name="perfbench_spans")["SPANS"]


def test_every_span_resolves_on_hopfbrick():
    assert SPANS
    for mod_name, attr, name in SPANS:
        obj = import_module(f"hopfbrick.{mod_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), (mod_name, attr, name)
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, attr, name)


def test_trace_channel_hook_reads_the_window():
    # the "mpo.trace_channel" hook reads the window as the second argument
    assert list(inspect.signature(mpo._st_value).parameters)[:2] == ["ts", "window"]


def test_hooks_run_on_traced_points(fib_ts, d3_ts):
    # one small point per hooked layer, each on fresh states so that every
    # environment and transfer stack is built inside the trace
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"),
                           run_name="perfbench_spans")
    tracer = spans["Tracer"]()
    uninstall = spans["install"](tracer)
    try:
        rng = np.random.default_rng(5)
        sites = [rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
                 for _ in range(2)]
        mps = mpo.MPSState(rho_site=sites[0], v_site=sites[1])
        mpo.expectation(d3_ts, np.diag([1.0, -1.0]), 1, mps)
        mpo.equilibration(d3_ts, mps)
        fib = mpo.MPSState.product([0, 0, 1], [0, 0, 1])
        mpo.renyi_replica(fib_ts, fib, 1, 1, 2)
        mpo.otoc(fib_ts, random_unitary(3, rng), random_unitary(3, rng), 0, 1)
        assert fib.check_projector_invariance(fib_ts.pair) < 1e-12
    finally:
        uninstall()
    assert not tracer.stack
    for name in ("mpo.environment", "mpo.transfer.build", "mpo.solvability_check",
                 "mpo.trace_channel", "mpo.renyi_replica", "mpo.equilibration"):
        assert tracer.calls(name) >= 1, name
    # the hooks read the stack, the window and alpha from the calls' arguments
    assert (d3_ts.pair.name, 2, 6 * 6 * 2 * 2) in tracer.sizes["transfer.dim"]
    assert tracer.counts["mpo.renyi_replica_s.a2"] > 0
    assert tracer.sizes["trace.window_sites"]
    # every wrapper is gone again
    assert mpo.expectation.__module__ == "hopfbrick.mpo"
    assert "perfbench" not in inspect.getsourcefile(mpo.MPSState.check_projector_invariance)


@pytest.mark.parametrize("k", [None, 4])
@pytest.mark.parametrize("t", [1, 2.5])
def test_oracle_counters_see_every_layer(fib_ts, t, k):
    # the layer counter wraps `oracle.apply_layer`: an evolve of a state or a
    # (dim, k) block by t periods is 2t layers on d**n amplitudes, whatever
    # the gate kernel inside the layer does
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"),
                           run_name="perfbench_spans")
    circ = orc.DenseCircuit.from_tensor_set(fib_ts, L=3)
    dim = circ.d ** circ.n_sites
    psi = np.ones(dim if k is None else (dim, k), dtype=complex)
    tracer = spans["Tracer"]()
    uninstall = spans["install"](tracer)
    try:
        out = orc.evolve(circ, psi, t)
    finally:
        uninstall()
    assert out.shape == psi.shape
    assert tracer.calls("oracle.evolve") == 1
    assert tracer.counts["oracle.layers_applied"] == 2 * t
    assert tracer.maxima["oracle.amplitudes_max"] == dim


def test_traced_alpha_scan_counts_every_renyi_small_point(d3_ts, tmp_path):
    # the block's RDM spectrum is shared across alpha, but each (l, t, alpha)
    # is still one outermost `renyi_small` call: the harness's point count of
    # renyi_block's dihedral-3 entry stays 27
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"),
                           run_name="perfbench_spans")
    config = {"model": "zoo:dihedral-3", "initial_state": "+",
              "quantities": [{"name": "renyi", "label": "renyi_l3", "l": [3],
                              "alpha": [2, 3, 4], "t": {"start": 0, "stop": 8, "step": 1}}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    tracer = spans["Tracer"]()
    uninstall = spans["install"](tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert hopfbrick.cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    finally:
        uninstall()
    assert tracer.calls("mpo.renyi_small") == 27
    assert len(tracer.point_times_ms()["renyi_small"]) == 27
