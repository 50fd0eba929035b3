"""Spans around calls into hopfbrick's layers, recorded from outside the library.

`install(tracer)` replaces the traced functions and methods of the hopfbrick
modules with wrappers that open a span on entry and close it on exit, and
returns a function that puts the originals back.  A function imported by name
into another hopfbrick module (``from .tensors import build_tensors`` in the
CLI) is replaced there too, so calls between layers are seen wherever they
come from.  Spans carry name, layer, start, end and parent; they are kept in
memory and summarised when the pass ends.  Nothing here changes a result.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("zoo", "algebra", "representation", "tensors", "mpo", "oracle", "cli")

# (module, attribute, span name); a dotted attribute names a method
SPANS = [
    ("zoo", "model", "zoo.model"),
    ("algebra", "check_axioms", "algebra.check_axioms"),
    ("representation", "check_representation", "representation.check"),
    ("representation", "check_corepresentation", "representation.check"),
    ("tensors", "build_tensors", "tensors.build_tensors"),
    ("tensors", "verify_pentagon", "tensors.verify"),
    ("tensors", "check_unitarity", "tensors.check_unitarity"),
    ("tensors", "build_projectors", "tensors.build_projectors"),
    ("mpo", "MPSState.check_projector_invariance", "mpo.solvability_check"),
    ("mpo", "TransferStack.__init__", "mpo.transfer.build"),
    ("mpo", "expectation", "mpo.expectation"),
    ("mpo", "two_point", "mpo.two_point"),
    ("mpo", "renyi_small", "mpo.renyi_small"),
    ("mpo", "renyi_replica", "mpo.renyi_replica"),
    ("mpo", "renyi_half_chain", "mpo.renyi_half_chain"),
    ("mpo", "equilibration", "mpo.equilibration"),
    ("mpo", "ReplicaChannel.__init__", "mpo.replica.channel_build"),
    ("mpo", "ReplicaChannel.apply", "mpo.replica.apply"),
    ("mpo", "st_correlator", "mpo.st_correlator"),
    ("mpo", "otoc", "mpo.otoc"),
    ("mpo", "projector_mpo", "mpo.projector_mpo"),
    ("mpo", "_st_value", "mpo.trace_channel"),
    ("mpo", "_leading_environment", "mpo.environment"),
    ("oracle", "evolve", "oracle.evolve"),
    ("oracle", "reduced_density_matrix", "oracle.rdm"),
    ("oracle", "_subspace_basis_vectors", "oracle.subspace"),
    ("oracle", "oracle_expectation", "oracle.expectation"),
    ("oracle", "oracle_two_point", "oracle.two_point"),
    ("oracle", "oracle_renyi", "oracle.renyi"),
    ("oracle", "oracle_st_correlator", "oracle.trace"),
    ("oracle", "oracle_otoc", "oracle.trace"),
    ("oracle", "oracle_otoc_embedded", "oracle.trace"),
    ("oracle", "heisenberg_block", "oracle.heisenberg_block"),
    ("cli", "main", "cli.main"),
]

# quantity functions whose outermost calls are the points of a workload
POINT_KINDS = ("expectation", "two_point", "renyi_small", "renyi_replica",
               "renyi_half_chain", "equilibration", "st_correlator", "otoc")

COMPLEX_BYTES = 16


class Tracer:
    """In-memory span recorder plus counters and maxima for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.sizes: dict[str, set] = defaultdict(set)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(math.nan)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.names[i].startswith(prefix) for i in self.stack)

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    # -- summaries ---------------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def total(self, name: str) -> float:
        return sum(d for n, d in zip(self.names, self.durations()) if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for n, own in zip(self.names, self.self_times()):
            out[n.split(".")[0]] += own
        return out

    def top_level_time(self) -> float:
        return sum(d for p, d in zip(self.parents, self.durations()) if p < 0)

    def point_times_ms(self) -> dict[str, list[float]]:
        """Durations of the outermost quantity calls, grouped by kind."""
        kinds = {f"mpo.{k}": k for k in POINT_KINDS}
        out: dict[str, list[float]] = {k: [] for k in POINT_KINDS}
        dur = self.durations()
        for i, n in enumerate(self.names):
            if n not in kinds:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in kinds:
                p = self.parents[p]
            if p < 0:
                out[kinds[n]].append(1e3 * dur[i])
        return out


def _hopfbrick_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hopfbrick" or name.startswith("hopfbrick."))]


def _hooks(tracer: Tracer):
    """Per-span extras: counters and sizes read from the call's arguments."""

    def transfer_build(args, kwargs, seconds):
        stack = args[0]
        tracer.note_max("mpo.transfer.dim", stack.dim)
        tracer.sizes["transfer.dim"].add((stack.ts.pair.name, stack.state.bond_dim, stack.dim))

    def replica_apply(args, kwargs, seconds):
        channel, vec = args[0], args[2]
        primed = kwargs.get("primed", args[3] if len(args) > 3 else False)
        # one tensordot pass per replica, plus the two translations when primed;
        # each pass reads and writes the whole vector
        passes = channel.alpha + (2 if primed else 0)
        nbytes = 2 * passes * COMPLEX_BYTES * vec.size
        tracer.counts["mpo.replica.bytes_computed"] += nbytes
        tracer.note_max("mpo.replica.vec_len_max", vec.size)
        tracer.sizes["replica.vec_len"].add((channel.alpha, vec.size,
                                             2 * channel.alpha * COMPLEX_BYTES * vec.size,
                                             2 * (channel.alpha + 2) * COMPLEX_BYTES * vec.size))

    def trace_channel(args, kwargs, seconds):
        window = args[1]
        tracer.note_max("mpo.trace.window_sites_max", len(window))
        tracer.sizes["trace.window_sites"].add(len(window))

    def renyi_replica(args, kwargs, seconds):
        alpha = kwargs.get("alpha", args[4] if len(args) > 4 else 0)
        tracer.counts[f"mpo.renyi_replica_s.a{int(alpha)}"] += seconds

    return {
        "mpo.transfer.build": transfer_build,
        "mpo.replica.apply": replica_apply,
        "mpo.trace_channel": trace_channel,
        "mpo.renyi_replica": renyi_replica,
    }


def _wrap(fn, name: str, tracer: Tracer, hook=None):
    is_oracle = name.startswith("oracle.")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if is_oracle and not tracer.inside("oracle.") and tracer.inside("mpo."):
            tracer.counts["oracle.engine_calls"] += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(args, kwargs, tracer.ends[idx] - tracer.starts[idx])
        return result

    return traced


def _count_layers(fn, tracer: Tracer):
    """oracle.apply_layer is called per gate layer: count it, open no span."""

    @functools.wraps(fn)
    def counted(circuit, psi, layer):
        tracer.counts["oracle.layers_applied"] += 1
        tracer.note_max("oracle.amplitudes_max", len(psi))
        tracer.sizes["oracle.amplitudes"].add((circuit.n_sites, len(psi)))
        return fn(circuit, psi, layer)

    return counted


def install(tracer: Tracer):
    """Wrap every traced hopfbrick callable; return a function that undoes it."""
    import hopfbrick.cli  # noqa: F401  (loads every layer module)

    modules = _hopfbrick_modules()
    hooks = _hooks(tracer)
    undo = []

    def replace_everywhere(original, replacement):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    for mod_name, attr, name in SPANS:
        mod = sys.modules[f"hopfbrick.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrap(original, name, tracer, hooks.get(name)))
        else:
            original = getattr(mod, attr)
            replace_everywhere(original, _wrap(original, name, tracer, hooks.get(name)))
    orc = sys.modules["hopfbrick.oracle"]
    replace_everywhere(orc.apply_layer, _count_layers(orc.apply_layer, tracer))

    def uninstall():
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)

    return uninstall
