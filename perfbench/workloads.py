"""The five benchmark workloads: inputs from a seed, one timed pass, and checks.

A pass is one workload run as a user would make it: model load, tensor
build, initial state and its solvability check, every point, and every
output written.  Points go through hopfbrick's public functions, or through
`hopfbrick run` on a generated config where the CLI can express them.

Each workload also names, once per benchmark run, the values its points must
match: dense-oracle values wherever a point fits a ring, and invariants that
hold for every seed.  Recorded reference values are checked in `run.py`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hopfbrick import cli, mpo, tensors, zoo
from hopfbrick import oracle as orc

# Tolerances by quantity, as the test suite applies them to engine values
# (tests/test_engine.py, tests/test_acceptance.py).
TOL = {
    "expectation": 1e-10,
    "two_point": 1e-10,
    "renyi": 1e-8,
    "renyi_half_chain": 1e-9,
    "equilibration": 1e-9,
    "st_correlator": 1e-10,
    "otoc": 1e-10,
    "verify": 0.0,
}

E = [np.diag(v).astype(complex) for v in np.eye(3)]       # Fibonacci e1, e2, e3
P = [np.diag(v).astype(complex) for v in np.eye(2)]       # dihedral-3 projectors
PLUS = np.ones(2) / np.sqrt(2)


@dataclass
class Point:
    key: str
    kind: str
    value: complex
    seeded: bool = False       # True when the value depends on the seed


@dataclass
class Check:
    """A value a point must match (oracle) or a relation points must satisfy."""

    keys: tuple                # the points it covers
    expected: complex | None   # for a single-point comparison
    tol: float
    source: str
    relation: object = None    # callable(values) -> residual, for invariants


@dataclass
class Model:
    pair: object
    ts: object
    state: object


def haar_unitary(d, rng):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(A)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian(d, rng):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (A + A.conj().T) / 2


def point_key(model, label, x=0.0, t=0.0, alpha="", l=""):
    return f"{model}/{label}/x={float(x):g}/t={float(t):g}/a={alpha}/l={l}"


def fib_state():
    return mpo.MPSState.product(E[2].diagonal(), E[2].diagonal())      # |33...>


def d3_state():
    return mpo.MPSState.product(PLUS, PLUS)


def grid_values(spec):
    """A CLI grid: a list of values, or start/stop/step with stop included."""
    if isinstance(spec, dict):
        return list(np.arange(spec["start"], spec["stop"] + 1e-9, spec.get("step", 1.0)))
    return [float(v) for v in spec]


def dense_ring_otoc(ts, circ, V, W, x, t):
    """Dense OTOC on a ring with the cone-local Heisenberg block of V embedded."""
    leg = mpo.leg_of(x, t)
    first = int(round(2 * (x - t + (0.5 if leg == "v" else 0.0)))) % circ.n_sites
    block = orc.heisenberg_block(ts.gate, V, t, leg)
    return orc.oracle_otoc_embedded(circ, block, first, W, t)


def prepare(name, state=None) -> Model:
    """Model load, tensor build with identity checks, state and solvability check."""
    pair = zoo.model(name)
    ts = tensors.build_tensors(pair)
    if state is not None:
        resid = state.check_projector_invariance(pair)
        if resid > 1e-8:
            raise ValueError(f"{name}: initial state outside the solvable subspace ({resid:.2e})")
    return Model(pair, ts, state)


class Workload:
    """Base class: subclasses define inputs, set-up, a pass and checks."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out = out_dir / self.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.rng = np.random.default_rng(seed)
        self.failures: list[tuple[str, str]] = []
        self.make_inputs()

    def make_inputs(self):
        pass

    def set_up(self) -> dict:
        raise NotImplementedError

    def run_pass(self) -> list[Point]:
        raise NotImplementedError

    def checks(self) -> list[Check]:
        return []

    # -- helpers -----------------------------------------------------------------

    def evaluate(self, points, key, kind, fn, *args, seeded=False, **kwargs):
        """Evaluate one point; an exception is a failure of that point."""
        try:
            value = complex(fn(*args, **kwargs))
        except Exception as exc:          # reported with its point, never fatal
            self.failures.append((key, f"raised {type(exc).__name__}: {exc}"))
            return
        points.append(Point(key, kind, value, seeded))

    def write_config(self, stem, config) -> Path:
        path = self.out / f"{stem}.json"
        path.write_text(json.dumps(config, indent=1))
        return path

    def run_cli(self, config_path: Path, kinds: dict) -> list[Point]:
        """`hopfbrick run` on a config; rows come back from the CSVs it wrote."""
        out = self.out / config_path.stem
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", str(config_path), "--out", str(out)])
        if rc != 0:
            self.failures.append((config_path.stem, f"hopfbrick run exited {rc}"))
            return []
        manifest = json.loads((out / "manifest.json").read_text())
        for err in manifest.get("errors", []):
            self.failures.append((f"{config_path.stem}/{err['point']}", f"skipped: {err['error']}"))
        points = []
        for name in manifest["files"]:
            if not name.endswith(".csv"):
                continue
            with (out / name).open() as fh:
                for row in csv.DictReader(fh):
                    key = point_key(row["model"], row["quantity"], row["x"], row["t"],
                                    row["alpha"], row["l"])
                    value = complex(float(row["re"]), float(row["im"]))
                    points.append(Point(key, kinds[row["quantity"]], value))
        return points

    def write_points(self, points):
        with (self.out / "points.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "re", "im"])
            for p in points:
                writer.writerow([p.key, f"{p.value.real:.17g}", f"{p.value.imag:.17g}"])


def _sum_is(target):
    return lambda values: abs(sum(values) - target)


def _non_increasing(values):
    return max([0.0] + [b.real - a.real for a, b in zip(values, values[1:])])


def _renyi_bounds(l, d):
    cap = 2 * l * np.log(d)
    return lambda values: max(0.0, -values[0].real, values[0].real - cap)


# -- quench ---------------------------------------------------------------------------


class Quench(Workload):
    """Fibonacci quench grids through the CLI, plus a seeded dihedral-3 MPS."""

    name = "quench"
    BOND = 4                          # transfer dim 36 * 4^2 = 576, 3.4x Fibonacci's 169
    MPS_T = (0.5, 1.0, 2.0, 3.0, 5.0)
    MPS_XT = ((0, 1), (2, 2))
    RING = 5                          # oracle ring of 10 Fibonacci sites

    def make_inputs(self):
        shape = (2, self.BOND, self.BOND)
        self.mps = [self.rng.normal(size=shape) + 1j * self.rng.normal(size=shape)
                    for _ in range(2)]
        grid_t = {"start": 0, "stop": 10, "step": 0.5}
        grid_xt = {"x": [0, 1, 2, 3, 4], "t": {"start": 1, "stop": 5, "step": 1}}
        self.config = self.write_config("fib_quench", {
            "model": "zoo:fibonacci", "initial_state": "3", "json_mirror": True,
            "quantities": [
                {"name": "expectation", "O": "e1", "label": "quench_e1", "t": grid_t},
                {"name": "expectation", "O": "e2", "label": "quench_e2", "t": grid_t},
                {"name": "expectation", "O": "e3", "label": "quench_e3", "t": grid_t},
                {"name": "two_point", "O": "e1", "O2": "e1", "label": "w11",
                 "connected": True, **grid_xt},
                {"name": "two_point", "O": "e3", "O2": "e2", "label": "w32",
                 "connected": True, **grid_xt},
            ]})
        self.kinds = {"quench_e1": "expectation", "quench_e2": "expectation",
                      "quench_e3": "expectation", "w11": "two_point", "w32": "two_point"}

    def set_up(self):
        return {"fibonacci": prepare("fibonacci", fib_state()),
                "dihedral-3": prepare("dihedral-3", mpo.MPSState(*[a.copy() for a in self.mps]))}

    def run_pass(self):
        points = self.run_cli(self.config, self.kinds)
        models = self.set_up()
        fib, d3 = models["fibonacci"], models["dihedral-3"]
        self.evaluate(points, "fibonacci/equilibration/rate", "equilibration",
                      lambda: mpo.equilibration(fib.ts, fib.state)[1]["rate"])
        for t in self.MPS_T:
            for k, op in enumerate(P):
                self.evaluate(points, point_key("mps", f"P{k + 1}", t=t), "expectation",
                              mpo.expectation, d3.ts, op, t, d3.state, seeded=True)
        for x, t in self.MPS_XT:
            for k, op in enumerate(P):
                self.evaluate(points, point_key("mps", f"P1P{k + 1}", x, t), "two_point",
                              mpo.two_point, d3.ts, P[0], op, x, t, d3.state,
                              connected=True, seeded=True)
        self.evaluate(points, "mps/equilibration/rate", "equilibration",
                      lambda: mpo.equilibration(d3.ts, d3.state)[1]["rate"], seeded=True)
        self.write_points(points)
        return points

    def checks(self):
        fib = tensors.build_tensors(zoo.model("fibonacci"))
        circ = orc.DenseCircuit.from_tensor_set(fib, L=self.RING, amplitude_cap=10 ** 6)
        psi0 = orc.basis_string_state(circ, [2] * circ.n_sites)
        out = []
        for t in np.arange(0, 10.25, 0.5):
            keys = tuple(point_key("fibonacci", f"quench_e{k}", t=t) for k in (1, 2, 3))
            out.append(Check(keys, None, TOL["expectation"], "e1+e2+e3 = 1", _sum_is(1.0)))
            if 4 * t > 2 * self.RING:
                continue
            psit = orc.evolve(circ, psi0, t)
            for k, key in enumerate(keys):
                val = np.vdot(psit, orc.apply_site_op(circ, psit, E[k], 0.0))
                out.append(Check((key,), val, TOL["expectation"], f"oracle ring L={self.RING}"))
        for label, (a, b) in (("w11", (0, 0)), ("w32", (2, 1))):
            for x in range(5):
                for t in range(1, 6):
                    if 2 * x + 1 + 4 * t > 2 * self.RING:
                        continue
                    val = orc.oracle_two_point(circ, psi0, E[a], E[b], x, t, connected=True)
                    out.append(Check((point_key("fibonacci", label, x, t),), val,
                                     TOL["two_point"], f"oracle ring L={self.RING}"))
        for t in self.MPS_T:
            keys = (point_key("mps", "P1", t=t), point_key("mps", "P2", t=t))
            out.append(Check(keys, None, TOL["expectation"], "P1+P2 = 1", _sum_is(1.0)))
        for x, t in self.MPS_XT:
            keys = (point_key("mps", "P1P1", x, t), point_key("mps", "P1P2", x, t))
            out.append(Check(keys, None, TOL["two_point"], "connected <P1 (P1+P2)> = 0",
                             _sum_is(0.0)))
        return out


# -- Renyi entropies ---------------------------------------------------------------------


class RenyiWorkload(Workload):
    """Renyi batches through the CLI, one config per model."""

    CONFIGS: dict = {}
    LOCAL_DIM = {"fibonacci": 3, "C[D3]": 2}      # keyed by the name rows carry
    STATES = {"fibonacci": "3", "dihedral-3": "+"}

    def make_inputs(self):
        self.configs = []
        self.kinds = {}
        for model, quantities in self.CONFIGS.items():
            for q in quantities:
                self.kinds[q["label"]] = q["name"]
            self.configs.append(self.write_config(model, {
                "model": f"zoo:{model}", "initial_state": self.STATES[model],
                "quantities": quantities}))

    def set_up(self):
        states = {"fibonacci": fib_state, "dihedral-3": d3_state}
        return {m: prepare(m, states[m]()) for m in self.CONFIGS}

    def run_pass(self):
        points = []
        for config in self.configs:
            points += self.run_cli(config, self.kinds)
        return points

    def grid(self):
        """(CSV model name, label, l, alpha, t) for every renyi point of the configs."""
        for model, quantities in self.CONFIGS.items():
            shown = zoo.model(model).name
            for q in quantities:
                if q["name"] != "renyi":
                    continue
                ts = grid_values(q["t"])
                for l in q["l"]:
                    for alpha in q["alpha"]:
                        for t in ts:
                            yield shown, q["label"], l, alpha, t

    def checks(self):
        out = []
        by_block = {}
        for model, label, l, alpha, t in self.grid():
            key = point_key(model, label, t=t, alpha=alpha, l=l)
            out.append(Check((key,), None, TOL["renyi"], "0 <= H <= 2 l log d",
                             _renyi_bounds(l, self.LOCAL_DIM[model])))
            by_block.setdefault((model, l, t), []).append((alpha, key))
        for (model, l, t), entries in by_block.items():
            if len(entries) > 1:
                keys = tuple(k for _, k in sorted(entries))
                out.append(Check(keys, None, TOL["renyi"], "H_alpha non-increasing in alpha",
                                 _non_increasing))
        return out


class RenyiBlock(RenyiWorkload):
    """Small blocks: the alpha=3 replica vector (13^6 entries) and explicit RDMs."""

    name = "renyi_block"
    CONFIGS = {
        "fibonacci": [
            {"name": "renyi", "label": "renyi_l5_a2", "l": [5], "alpha": [2],
             "t": {"start": 0, "stop": 8, "step": 1}},
            {"name": "renyi", "label": "renyi_l5_a3", "l": [5], "alpha": [3], "t": [0.5]},
        ],
        "dihedral-3": [
            {"name": "renyi", "label": "renyi_l3", "l": [3], "alpha": [2, 3, 4],
             "t": {"start": 0, "stop": 8, "step": 1}},
        ],
    }
    RING = 8                          # 16 dihedral-3 sites, 65 536 amplitudes

    def checks(self):
        out = super().checks()
        d3 = tensors.build_tensors(zoo.model("dihedral-3"))
        circ = orc.DenseCircuit.from_tensor_set(d3, L=self.RING, amplitude_cap=10 ** 6)
        psi0 = orc.product_state(circ, [PLUS])
        for _, label, l, alpha, t in self.grid():
            if label != "renyi_l3" or t == 0 or 2 * l + 4 * t > 2 * self.RING:
                continue
            offset = 1 if int(round(2 * t)) % 2 == 0 else 0
            val = orc.oracle_renyi(circ, psi0, l, t, alpha, offset=offset)
            out.append(Check((point_key(d3.pair.name, label, t=t, alpha=alpha, l=l),), val,
                             TOL["renyi"], f"oracle ring L={self.RING}"))
        return out


class RenyiScan(RenyiWorkload):
    """Large blocks: hundreds of replica steps on cache-resident vectors."""

    name = "renyi_scan"
    CONFIGS = {
        "fibonacci": [
            {"name": "renyi", "label": "renyi_l200", "l": [200], "alpha": [2], "t": [100]},
            {"name": "renyi", "label": "renyi_l300", "l": [300], "alpha": [2], "t": [150]},
            {"name": "renyi_half_chain", "label": "renyi_half", "alpha": [2],
             "t": {"start": 0, "stop": 8, "step": 1}},
        ],
        "dihedral-3": [
            {"name": "renyi", "label": "renyi_l200", "l": [200], "alpha": [2],
             "t": [20, 100, 110]},
            {"name": "renyi", "label": "renyi_l300", "l": [300], "alpha": [2, 3], "t": [30]},
            {"name": "renyi", "label": "renyi_l300_late", "l": [300], "alpha": [2],
             "t": [150, 160]},
        ],
    }
    WIDE_BLOCK = 12

    def checks(self):
        out = super().checks()
        # at early times a wide block has two independent half-chain boundaries
        fib = tensors.build_tensors(zoo.model("fibonacci"))
        for t in (1.0, 2.0, 3.0):
            wide = mpo.renyi_replica(fib, fib_state(), self.WIDE_BLOCK, t, 2)
            out.append(Check((point_key("fibonacci", "renyi_half", t=t, alpha=2),), wide / 2,
                             TOL["renyi_half_chain"], f"half of an l={self.WIDE_BLOCK} block"))
        return out


# -- OTOC and spatiotemporal correlators --------------------------------------------------


class Otoc(Workload):
    """Infinite-chain OTOCs with seeded unitaries, plus st_correlator points."""

    name = "otoc"
    OTOC_XT = ((0.0, 0.5), (0.0, 1.0), (0.0, 3.0), (1.0, 1.0))
    ST_POINTS = [(0, 2, t, x) for t in (1.0, 2.0, 4.0) for x in (0.0, t)] + \
                [(2, 2, 2.0, 0.0), (2, 2, 2.0, 2.0)]
    RING = 4

    def make_inputs(self):
        self.V = haar_unitary(3, self.rng)
        self.W = haar_unitary(3, self.rng)

    def set_up(self):
        return {"fibonacci": prepare("fibonacci")}

    def run_pass(self):
        points = []
        fib = self.set_up()["fibonacci"]
        for x, t in self.OTOC_XT:
            self.evaluate(points, point_key("fibonacci", "otoc", x, t), "otoc",
                          mpo.otoc, fib.ts, self.V, self.W, x, t, warn_nonunitary=False,
                          seeded=True)
        for a, b, t, x in self.ST_POINTS:
            self.evaluate(points, point_key("fibonacci", f"st_e{a + 1}e{b + 1}", x, t),
                          "st_correlator", mpo.st_correlator, fib.ts, E[a], E[b], x, t)
        self.write_points(points)
        return points

    def checks(self):
        """Seed-independent relations, evaluated once per run outside the passes."""
        fib = tensors.build_tensors(zoo.model("fibonacci"))
        one = np.eye(3)
        out = []
        for what, value, want in (
                ("F(1,1,0,1/2) = 1", mpo.otoc(fib, one, one, 0.0, 0.5), 1.0),
                ("F(V,W,1,0) = 1", mpo.otoc(fib, self.V, self.W, 1.0, 0.0,
                                            warn_nonunitary=False), 1.0),
                ("C(1,1,0,1) = 1", mpo.st_correlator(fib, one, one, 0.0, 1.0), 1.0)):
            out.append(Check((), None, TOL["otoc"], what, lambda _, v=value, w=want: abs(v - w)))
        # the seeded unitaries on the ring-closed engine path against the dense oracle
        circ = orc.DenseCircuit.from_tensor_set(fib, L=self.RING)
        ring = mpo.otoc(fib, self.V, self.W, 0.0, 0.5, warn_nonunitary=False,
                        ring_cells=self.RING)
        dense = dense_ring_otoc(fib, circ, self.V, self.W, 0.0, 0.5)
        out.append(Check((), None, TOL["otoc"], f"ring OTOC vs oracle L={self.RING}",
                         lambda _: abs(ring - dense)))
        return out


# -- verification path ---------------------------------------------------------------------


class Crosscheck(Workload):
    """`hopfbrick verify` on every zoo model, then engine against dense oracle."""

    name = "crosscheck"
    FIB_RING = 6                      # 12 qutrits, 531 441 amplitudes
    D3_RING = 6
    TRACE_RING = 4
    OTOC_RING_XT = ((0.0, 0.5), (1.0, 0.5))

    def make_inputs(self):
        self.O_f = hermitian(3, self.rng)
        self.A_f = hermitian(3, self.rng)
        self.B_f = hermitian(3, self.rng)
        self.V_f = haar_unitary(3, self.rng)
        self.W_f = haar_unitary(3, self.rng)
        self.O_d = hermitian(2, self.rng)

    def set_up(self):
        return {"fibonacci": prepare("fibonacci", fib_state()),
                "dihedral-3": prepare("dihedral-3", d3_state()),
                **{m: prepare(m) for m in sorted(zoo.MODELS)
                   if m not in ("fibonacci", "dihedral-3")}}

    def pair(self, points, key, kind, engine, dense):
        """An engine point and its oracle value, stored under "<key>/oracle"."""
        self.evaluate(points, key, kind, *engine, seeded=True)
        self.evaluate(points, key + "/oracle", kind, *dense, seeded=True)

    def run_pass(self):
        points = []
        for m in sorted(zoo.MODELS):
            report = self.out / f"verify_{m}.json"

            def verify(m=m, report=report):
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(["verify", f"zoo:{m}", "--json", str(report)])
            self.evaluate(points, f"{m}/verify/exit", "verify", verify)
        models = self.set_up()
        fib, d3 = models["fibonacci"], models["dihedral-3"]
        self.fib_ring(points, fib)
        self.d3_ring(points, d3)
        self.trace_ring(points, fib)
        self.write_points(points)
        return points

    def fib_ring(self, points, fib):
        circ = orc.DenseCircuit.from_tensor_set(fib.ts, L=self.FIB_RING, amplitude_cap=10 ** 6)
        psi0 = orc.basis_string_state(circ, [2] * circ.n_sites)
        O = self.O_f
        for t in (1.0, 2.0):
            self.pair(points, point_key("fibonacci", "exp_O", t=t), "expectation",
                      (mpo.expectation, fib.ts, O, t, fib.state),
                      (orc.oracle_expectation, circ, psi0, O, 0.0, t))
        self.pair(points, point_key("fibonacci", "two_point_OA", 1, 2), "two_point",
                  (mpo.two_point, fib.ts, O, self.A_f, 1, 2, fib.state, True),
                  (orc.oracle_two_point, circ, psi0, O, self.A_f, 1, 2, True))
        for alpha in (2, 3):
            self.pair(points, point_key("fibonacci", "renyi", t=1, alpha=alpha, l=2), "renyi",
                      (mpo.renyi_small, fib.ts, fib.state, 2, 1.0, alpha),
                      (orc.oracle_renyi, circ, psi0, 2, 1.0, alpha, 1))

    def d3_ring(self, points, d3):
        circ = orc.DenseCircuit.from_tensor_set(d3.ts, L=self.D3_RING, amplitude_cap=10 ** 6)
        psi0 = orc.product_state(circ, [PLUS])
        O = self.O_d
        for t in (0.5, 1.0, 1.5, 2.0, 2.5):
            self.pair(points, point_key("dihedral-3", "exp_O", t=t), "expectation",
                      (mpo.expectation, d3.ts, O, t, d3.state),
                      (orc.oracle_expectation, circ, psi0, O, 0.0, t))
        for x, t in ((0, 1), (1, 1), (2, 1), (0, 2), (1, 2)):
            self.pair(points, point_key("dihedral-3", "two_point_OP1", x, t), "two_point",
                      (mpo.two_point, d3.ts, O, P[0], x, t, d3.state, True),
                      (orc.oracle_two_point, circ, psi0, O, P[0], x, t, True))
        for l, t, alpha in ((1, 1.0, 2), (2, 1.0, 2), (2, 2.0, 2), (1, 2.5, 2), (2, 2.0, 3)):
            offset = 1 if int(round(2 * t)) % 2 == 0 else 0
            self.pair(points, point_key("dihedral-3", "renyi", t=t, alpha=alpha, l=l), "renyi",
                      (mpo.renyi_small, d3.ts, d3.state, l, t, alpha),
                      (orc.oracle_renyi, circ, psi0, l, t, alpha, offset))

    def trace_ring(self, points, fib):
        circ = orc.DenseCircuit.from_tensor_set(fib.ts, L=self.TRACE_RING)
        for x in (0.0, 1.0):
            self.pair(points, point_key("fibonacci", "st_ring", x, 1.0), "st_correlator",
                      (mpo.st_correlator, fib.ts, self.A_f, self.B_f, x, 1.0, self.TRACE_RING),
                      (orc.oracle_st_correlator, circ, self.A_f, self.B_f, x, 1.0))
        for x, t in self.OTOC_RING_XT:
            self.pair(points, point_key("fibonacci", "otoc_ring", x, t), "otoc",
                      (mpo.otoc, fib.ts, self.V_f, self.W_f, x, t, False, self.TRACE_RING),
                      (dense_ring_otoc, fib.ts, circ, self.V_f, self.W_f, x, t))

    def checks(self):
        # every "<key>/oracle" point is compared with "<key>" in run.py
        return [Check((f"{m}/verify/exit",), 0.0, TOL["verify"], "hopfbrick verify PASS")
                for m in sorted(zoo.MODELS)]


WORKLOADS = {cls.name: cls for cls in (Quench, RenyiBlock, RenyiScan, Otoc, Crosscheck)}
