"""Command-line front end: verify models, run computations, emit CSV results.

Subcommands:
  verify       check every algebra axiom, tensor identity, and gate property
  run          batch-evaluate quantities from a JSON config into CSV files
  oracle       dense brute-force quantities on a small ring
  revival      exponent, revival-time bound, and optional dense confirmation
  export-spec  write a zoo model as a JSON algebra-spec document

Result CSVs carry columns (model, quantity, x, t, alpha, l, re, im) with
17-significant-digit decimals; `run` also writes a manifest with the config
hash, library version, and tolerances, sufficient to re-run the batch.

Exit codes: 0 success; 1 a check failed (verify), the initial state is
outside the solvable subspace or a point was skipped (run, after every CSV
and the manifest are written; a non-finite value or a numeric error skips
its point); 2 unreadable or invalid input: an unknown or malformed model
(a spec over the dim cap included), state or operator, or a config value of
the wrong JSON type (every subcommand; one error line, no traceback; `run`
checks operators per point), a malformed quantity entry, an empty grid or
one of more than GRID_POINTS_MAX points (run, before any CSV is written) or,
for oracle, a ring over the amplitude cap.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import DEFAULT_AMPLITUDE_CAP, __version__, mpo, zoo
from .algebra import (AlgebraSpecError, AxiomError, ExponentCapError, TOL_ALG,
                      _complex_array, algebra_to_dict, check_axioms, exponent,
                      load_algebra)
from .representation import RepPair, Representation, Corepresentation
from .tensors import build_tensors, check_unitarity


GRID_POINTS_MAX = 10 ** 6      # points one quantity entry may hold


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_model(name: str, tol=TOL_ALG):
    """Resolve 'zoo:<name>' or a JSON algebra-spec path into a RepPair."""
    if not isinstance(name, str):
        raise AlgebraSpecError(f"model {name!r} is not a 'zoo:<name>' or spec path string")
    if name.startswith("zoo:"):
        if name[4:] not in zoo.MODELS:
            raise AlgebraSpecError(f"unknown zoo model {name[4:]!r}; have {sorted(zoo.MODELS)}")
        return zoo.model(name[4:])
    doc = json.loads(Path(name).read_text())
    A = load_algebra(doc, tol=tol)
    reps = doc.get("reps", {})
    coreps = doc.get("coreps", {})
    if not reps or not coreps:
        raise AlgebraSpecError("spec file must carry at least one rep and corep")
    # the first rep is A.dim flat d_rho x d_rho matrices, the first corep one
    # flat (d_v, d_v, A.dim) block; each side is the d >= 1 nearest to the
    # entry count, and `_complex_array` then checks every count exactly
    rep, corep = reps[sorted(reps)[0]], coreps[sorted(coreps)[0]]
    if not isinstance(rep, list) or len(rep) != A.dim:
        raise AlgebraSpecError(f"rep: expected a list of {A.dim} matrices")
    d_rho = max(1, round(math.sqrt(len(rep[0])))) if isinstance(rep[0], list) else 1
    d_v = max(1, round(math.sqrt(len(corep) / A.dim))) if isinstance(corep, list) else 1
    mats = [_complex_array(m, d_rho * d_rho, f"rep matrix {x}") for x, m in enumerate(rep)]
    rho = Representation(A, np.reshape(mats, (A.dim, d_rho, d_rho)), star=A.star is not None)
    v = Corepresentation(A, _complex_array(corep, d_v * d_v * A.dim, "corep").reshape(
        d_v, d_v, A.dim), unitary=A.antipode is not None and A.star is not None)
    return RepPair(A, rho, v, name=A.name or name)


def _site_index(label, d) -> int:
    """0-based index of a 1-based site label digit string."""
    k = int(label)
    if not 1 <= k <= d:
        raise ValueError(f"site label {label!r} is outside 1..{d}")
    return k - 1


def _single_site_operator(spec, d):
    """Named single-site operators: eK = |k><k|, eJK = |j><k|, or a matrix."""
    if isinstance(spec, str):
        if spec == "id":
            return np.eye(d, dtype=complex)
        idx = spec[1:]
        if spec.startswith("e") and idx.isdigit() and len(idx) <= 2:
            j, k = (_site_index(c, d) for c in (idx if len(idx) == 2 else idx * 2))
            out = np.zeros((d, d), dtype=complex)
            out[j, k] = 1.0
            return out
        raise ValueError(f"unknown operator name {spec!r}")
    return _numeric(spec, (d, d), "operator")


def _numeric(spec, shape, what):
    """`spec` as a complex array of `shape`; ValueError if it is not one."""
    try:
        return np.asarray(spec, dtype=complex).reshape(shape)
    except TypeError:
        raise ValueError(f"{what} {spec!r} is not a numeric array") from None


def _site_vector(spec, d, site):
    """The `site` ("rho" or "v") vector of the initial state from a label or
    a list of d amplitudes; ValueError, naming the site and the cause, on a
    vector of another length, a null or non-finite entry, or all zeros."""
    named = {"+": np.ones(d) / np.sqrt(d)}
    if isinstance(spec, str):
        if spec in named:
            return named[spec]
        out = np.zeros(d)
        out[_site_index(spec, d)] = 1.0
        return out
    what = f"initial state {site} vector"
    if spec is None:
        raise ValueError(f"{what} is null")
    vec = _numeric(spec, -1, what)
    if len(vec) != d:
        raise ValueError(f"{what} {spec!r} has {len(vec)} entries, not the site dimension {d}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} {spec!r} has a null or non-finite entry")
    if not vec.any():
        raise ValueError(f"{what} {spec!r} is zero")
    return vec


def _initial_state(spec, d):
    """Product state from a site-label string like '33' or '+,+', or from
    {"rho": ..., "v": ...} site labels or vectors."""
    if isinstance(spec, dict) and {"rho", "v"} <= spec.keys():
        return mpo.MPSState.product(_site_vector(spec["rho"], d, "rho"),
                                    _site_vector(spec["v"], d, "v"))
    if not isinstance(spec, str):
        raise ValueError(f"initial state {spec!r} is not a label string or a {{rho, v}} object")
    labels = spec.split(",") if "," in spec else list(spec)
    if len(labels) == 1:
        labels = labels * 2
    v_vec = _site_vector(labels[0], d, "v")
    rho_vec = _site_vector(labels[1], d, "rho")
    return mpo.MPSState.product(rho_vec, v_vec)


def _dense_initial_state(circ, spec, d):
    """The product state `spec` on every site of the dense ring `circ`."""
    from . import oracle
    state = _initial_state(spec, d)
    rho_vec = state.rho_site.reshape(-1)
    v_vec = state.v_site.reshape(-1)
    return oracle.product_state(circ, [(v_vec if k % 2 == 0 else rho_vec)
                                       for k in range(circ.n_sites)])


def _grid(spec):
    """Grid values: a list, one number, or {start, stop, step} with stop
    included.  ValueError on anything else, a non-finite value, a step that
    is not positive or a range of more than GRID_POINTS_MAX points, which is
    counted before anything is allocated."""
    if isinstance(spec, dict):
        start, stop, step = bounds = [spec.get("start"), spec.get("stop"), spec.get("step", 1.0)]
        if not all(_is_number(v) for v in bounds) or not step > 0:
            raise ValueError(f"grid {spec!r} needs numbers start, stop and a positive step")
        if not (stop - start) / step < GRID_POINTS_MAX:
            raise ValueError(f"grid {spec!r} has more than {GRID_POINTS_MAX} points")
        return list(np.arange(start, stop + 1e-9, step))
    values = spec if isinstance(spec, list) else [spec]
    if not all(_is_number(v) for v in values):
        raise ValueError(f"grid {spec!r} holds a value that is not a finite number")
    return [float(v) for v in values]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _rand_unitary(d, rng):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(A)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        pair = _load_model(args.model, tol=args.tol)
    except (AlgebraSpecError, json.JSONDecodeError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AxiomError as exc:
        print(f"axiom failure: {exc}", file=sys.stderr)
        return 1
    A = pair.algebra
    report = {"model": pair.name, "tier": A.tier, "dim": A.dim}
    ax = check_axioms(A, A.tier, tol=args.tol)
    report["axioms"] = {k: (v if isinstance(v, bool) else float(v)) for k, v in ax.items()}
    try:
        ts = build_tensors(pair, tol=args.tol)
        report["tensor_identities"] = {k: float(v) for k, v in ts.residuals.items()
                                       if k not in ("representation", "corepresentation")}
        uni = check_unitarity(ts, tol=args.tol)
        report["gate"] = {k: (v if isinstance(v, (bool, int)) else float(np.real(v)))
                          for k, v in uni.items() if not isinstance(v, np.ndarray)}
    except AxiomError as exc:
        print(f"tensor identity failure: {exc}", file=sys.stderr)
        return 1
    ok = ax["pass"]        # build_tensors has checked every required identity
    print(f"model {pair.name}: tier {A.tier}, dim {A.dim}")
    for k, v in sorted(report["axioms"].items()):
        if k != "pass":
            print(f"  axiom {k:28s} {v:.3e}")
    for k, v in sorted(report["tensor_identities"].items()):
        mark = " (not required at weak tier)" if k.startswith("bialgebra") and ts.is_weak() else ""
        print(f"  identity {k:25s} {v:.3e}{mark}")
    print(f"  gate unitary: {report['gate'].get('unitary')}, "
          f"dual-unitary: {report['gate'].get('dual_unitary', 'n/a')}, "
          f"rank: {report['gate'].get('rank', 'full')}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1, default=float))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- run --------------------------------------------------------------------------

# the keys each quantity needs besides its grids
_QUANTITY_KEYS = {"expectation": ("O",), "two_point": ("O", "O2"), "renyi": ("l", "alpha"),
                  "renyi_half_chain": ("alpha",), "st_correlator": ("A", "B"), "otoc": ()}


def _quantity_points(q):
    """Every (x, t, alpha, l) point of the quantity entry `q`, in grid order.

    ValueError on a malformed entry: an unknown or missing name, a missing
    key, a malformed grid, an alpha or l that is not an integer, no point at
    all or more than GRID_POINTS_MAX.  Operators and off-grid points are
    checked per point."""
    if not isinstance(q, dict) or q.get("name") not in _QUANTITY_KEYS:
        name = q.get("name") if isinstance(q, dict) else q
        raise ValueError(f"quantity {name!r} is not one of {', '.join(_QUANTITY_KEYS)}")
    missing = [k for k in _QUANTITY_KEYS[q["name"]] if k not in q]
    if missing:
        raise ValueError(f"quantity {q['name']!r} lacks {', '.join(missing)}")
    grids = [_grid(q.get("t", [0.0])), _grid(q.get("x", [0.0]))]
    for key in ("alpha", "l"):
        values = q.get(key, [None])
        values = values if isinstance(values, list) else [values]
        if key in q and not all(_is_number(v) and int(v) == v for v in values):
            raise ValueError(f"quantity {q['name']!r}: {key} {q[key]!r} is not an integer grid")
        grids.append(values)
    if math.prod(map(len, grids)) > GRID_POINTS_MAX:
        raise ValueError(f"quantity {q.get('label', q['name'])!r} has more than "
                         f"{GRID_POINTS_MAX} points")
    points = []
    for t, x, alpha, l in itertools.product(*grids):
        pt = {"x": x, "t": t}
        if alpha is not None:
            pt["alpha"] = alpha
        if l is not None:
            pt["l"] = l
        points.append(pt)
    if not points:
        raise ValueError(f"quantity {q.get('label', q['name'])!r} has an empty grid")
    return points


def _eval_point(pair, ts, state, q, point):
    kind = q["name"]
    x = point.get("x", 0.0)
    t = point.get("t", 0.0)
    alpha = point.get("alpha")
    l = point.get("l")
    d = ts.d_v
    if kind == "expectation":
        O = _single_site_operator(q["O"], d)
        val = mpo.expectation(ts, O, t, state, x=x)
    elif kind == "two_point":
        O = _single_site_operator(q["O"], d)
        O2 = _single_site_operator(q["O2"], d)
        val = mpo.two_point(ts, O, O2, x, t, state, connected=q.get("connected", True))
    elif kind == "renyi":
        l_int = int(l)
        if (ts.d_rho * ts.d_v) ** (2 * l_int) <= 2 ** 20:
            val = mpo.renyi_small(ts, state, l_int, t, int(alpha))
        else:
            val = mpo.renyi_replica(ts, state, l_int, t, int(alpha))
    elif kind == "renyi_half_chain":
        val = mpo.renyi_half_chain(ts, state, t, int(alpha))
    elif kind == "st_correlator":
        A_op = _single_site_operator(q["A"], d)
        B_op = _single_site_operator(q["B"], d)
        val = mpo.st_correlator(ts, A_op, B_op, x, t)
    else:       # otoc: `_quantity_points` admits no other name
        val = mpo.otoc(ts, point["_V"], point["_W"], x, t, warn_nonunitary=False)
    val = complex(val)
    if not cmath.isfinite(val):
        raise FloatingPointError(f"non-finite value {val}")
    return {"model": pair.name, "quantity": q.get("label", kind), "x": x, "t": t,
            "alpha": alpha if alpha is not None else "", "l": l if l is not None else "",
            "re": _fmt(val.real), "im": _fmt(val.imag)}


def cmd_run(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
        missing = [k for k in ("model", "initial_state", "quantities")
                   if not isinstance(config, dict) or k not in config]
        if missing:
            raise ValueError(f"config lacks {', '.join(missing)}")
        if not isinstance(config["quantities"], list):
            raise ValueError("config quantities must be a list")
        plans = [(q, _quantity_points(q)) for q in config["quantities"]]
        pair = _load_model(config["model"], tol=args.tol)
        ts = build_tensors(pair)
        state = _initial_state(config["initial_state"], ts.d_v)
        resid = state.check_projector_invariance(pair)
    except (ValueError, OSError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out or config.get("output", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    rng = np.random.default_rng(seed)
    if resid > 1e-8:
        print(f"initial state is outside the solvable subspace (residual {resid:.2e})",
              file=sys.stderr)
        return 1
    manifest = {
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "seed": seed,
        "tolerances": {"tol": args.tol},
        "files": [],
    }
    for q, points in plans:
        if q["name"] == "otoc":
            extras = {"_V": _rand_unitary(ts.d_v, rng), "_W": _rand_unitary(ts.d_v, rng)}
            points = [{**pt, **extras} for pt in points]
        errors = []

        def work(pt):
            try:
                return _eval_point(pair, ts, state, q, pt)
            except (ValueError, ArithmeticError, MemoryError) as exc:
                errors.append({"point": {k: v for k, v in pt.items()
                                         if not k.startswith("_")}, "error": str(exc)})
                return None

        rows = [r for r in map(work, points) if r is not None]
        rows.sort(key=lambda r: (r["quantity"], float(r["t"]), float(r["x"]),
                                 str(r["alpha"]), str(r["l"])))
        label = q.get("label", q["name"])
        path = out_dir / f"{label}.csv"
        fields = ["model", "quantity", "x", "t", "alpha", "l", "re", "im"]
        if args.oracle_check and ts.d_rho == ts.d_v:
            rows = _with_oracle_dev(ts, config, q, rows, int(args.oracle_check))
            fields.append("oracle_dev")
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        manifest["files"].append(str(path.name))
        if config.get("json_mirror"):
            jpath = out_dir / f"{label}.json"
            jpath.write_text(json.dumps(rows, indent=1))
            manifest["files"].append(str(jpath.name))
        if errors:
            manifest.setdefault("errors", []).extend(errors)
            for e in errors:
                print(f"  [{label}] skipped {e['point']}: {e['error']}", file=sys.stderr)
        print(f"wrote {path} ({len(rows)} rows)")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    print(f"wrote {out_dir / 'manifest.json'}")
    if "errors" in manifest:
        print(f"{len(manifest['errors'])} point(s) skipped", file=sys.stderr)
        return 1
    return 0


def _with_oracle_dev(ts, config, q, rows, L):
    """`rows` with an oracle-vs-engine deviation column, empty for the points
    that do not fit densely."""
    from . import oracle
    circ = oracle.DenseCircuit.from_tensor_set(ts, L=L)
    psi0 = _dense_initial_state(circ, config["initial_state"], ts.d_v)
    out_rows = []
    for row in rows:
        dev = ""
        t = float(row["t"])
        x = float(row["x"])
        try:
            if q["name"] == "expectation" and 4 * t <= 2 * L:
                O = _single_site_operator(q["O"], ts.d_v)
                ora = oracle.oracle_expectation(circ, psi0, O, x, t)
                dev = _fmt(abs(complex(float(row["re"]), float(row["im"])) - ora))
            elif q["name"] == "renyi" and row["l"] and 2 * int(row["l"]) + 4 * t <= 2 * L:
                parity = 1 if int(round(2 * t)) % 2 == 0 else 0
                ora = oracle.oracle_renyi(circ, psi0, int(row["l"]), t,
                                          int(row["alpha"]), offset=parity)
                dev = _fmt(abs(float(row["re"]) - ora))
        except (ValueError, MemoryError):
            dev = ""
        out_rows.append({**row, "oracle_dev": dev})
    return out_rows


# -- oracle -----------------------------------------------------------------------


def cmd_oracle(args) -> int:
    from . import oracle
    cap = DEFAULT_AMPLITUDE_CAP if args.cap is None else args.cap
    try:
        ts = build_tensors(_load_model(args.model, tol=args.tol))
        O = _single_site_operator(args.O, ts.d_v)
        circ = oracle.DenseCircuit.from_tensor_set(ts, L=args.L, amplitude_cap=cap)
        psi0 = _dense_initial_state(circ, args.state, ts.d_v)
        times = _grid({"start": 0.0, "stop": args.t, "step": 0.5})
    except (ValueError, OSError, MemoryError) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 2
    info = oracle.subspace(circ)
    print(f"ring of {circ.n_sites} sites, Hilbert dim {circ.d ** circ.n_sites}, "
          f"solvable subspace dim {info.dimension}")
    for t in times:
        val = oracle.oracle_expectation(circ, psi0, O, 0.0, t)
        print(f"  t={t:4.1f}  <O_0(t)> = {val.real:+.12f} {val.imag:+.3e}j")
    return 0


# -- revival ----------------------------------------------------------------------


def cmd_revival(args) -> int:
    try:
        pair = _load_model(args.model, tol=args.tol)
        eta, nu = exponent(pair.algebra, cap=64 if args.cap is None else args.cap)
        if args.dense:
            from . import oracle
            circ = oracle.DenseCircuit.from_tensor_set(build_tensors(pair), L=args.L)
            t_min, phase = oracle.minimal_period(circ, eta=eta)
    except (ValueError, OSError, MemoryError, ExponentCapError) as exc:
        print(f"revival error: {exc}", file=sys.stderr)
        return 2
    print(f"exponent: eta = {eta}, nu = {nu}")
    print(f"revival-time bound for L = {args.L}: eta * L = {eta * args.L}")
    if args.dense:
        divides = (eta * args.L) % t_min == 0
        print(f"dense minimal period on the solvable subspace: {t_min} "
              f"(phase {phase:+.6f}), divides eta*L: {divides}")
    return 0


# -- export-spec --------------------------------------------------------------------


def cmd_export_spec(args) -> int:
    try:
        pair = _load_model(args.model, tol=args.tol)
    except (ValueError, OSError) as exc:
        print(f"export-spec error: {exc}", file=sys.stderr)
        return 2
    doc = algebra_to_dict(pair.algebra, reps={"rho": pair.rho},
                          coreps={"v": pair.v})
    Path(args.out).write_text(json.dumps(doc, indent=1))
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hopfbrick",
                                     description="solvable brickwork circuits from algebra data")
    parser.add_argument("--tol", type=float, default=TOL_ALG,
                        help="axiom/identity tolerance")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--cap", type=int, default=None,
                        help="search cap (revival, default 64) or amplitude cap "
                             f"(oracle, default {DEFAULT_AMPLITUDE_CAP})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check axioms, tensor identities, gate properties")
    p.add_argument("model", help="zoo:<name> or path to a JSON algebra spec")
    p.add_argument("--json", help="also write the full report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run a batch config into CSV files")
    p.add_argument("config", help="JSON run configuration")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--oracle-check", metavar="L", default=None,
                   help="append oracle deviation columns using a 2L-site ring")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="dense quantities on a small ring")
    p.add_argument("model")
    p.add_argument("--L", type=int, default=3, help="unit cells")
    p.add_argument("--state", default="3", help="initial product state labels")
    p.add_argument("--O", default="e3", help="observable")
    p.add_argument("--t", type=float, default=2.0, help="max time")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("revival", help="exponent and revival times")
    p.add_argument("model")
    p.add_argument("--L", type=int, default=2, help="unit cells")
    p.add_argument("--dense", action="store_true",
                   help="confirm with the dense minimal period")
    p.set_defaults(func=cmd_revival)

    p = sub.add_parser("export-spec", help="write a model as a JSON algebra spec")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_spec)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
