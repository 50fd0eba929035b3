"""hopfbrick benchmark: one workload, timed end to end, with its outputs checked.

    python3 perfbench/run.py --workload quench --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from `src/`.
A run sets up the workload several times (the median is `setup_s`), then
repeats whole workload passes for `--seconds`, one caller evaluating points
one after another; the first pass of the process warms it up and `wall_s` is
the median of the others.  `--trace 1` alternates untraced and traced passes and
reports per-layer metrics from the traced ones.  Every pass is checked
against recorded references, the dense oracle and invariants.  The last line
of standard output is one JSON object; every metric is also printed above it
by name with its unit.  `--record` stores the pass values as references.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("quench", "renyi_block", "renyi_scan", "otoc", "crosscheck")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "points_per_s": "1/s"}


# -- machine ------------------------------------------------------------------------------


def blas_threads() -> int:
    """Thread count of the OpenBLAS that numpy loaded, or -1 if not found."""
    import numpy as np
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        llc = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(), "numpy": np.__version__, "scipy": scipy_version,
            "python": platform.python_version(), "llc_bytes": llc, "git_sha": git_sha()}


# -- timing helpers -------------------------------------------------------------------------


def import_seconds() -> float:
    """Median time of `import hopfbrick.cli` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hopfbrick.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    Below 21 samples that percentile would not exceed the median, so the
    median is reported with percentile 50.
    """
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# -- checks ---------------------------------------------------------------------------------


def load_references(workload: str) -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text()).get(workload, {})


def check_pass(points, exceptions, checks, refs, seed, tol, recording=False) -> dict:
    """Failing point keys of one pass, each with the reason.

    References apply to seed-free points always and to seeded points when
    they were recorded at this seed; `recording` skips them altogether.
    """
    values = {p.key: p.value for p in points}
    kinds = {p.key: p.kind for p in points}
    fails = dict(exceptions)
    seeded_refs = refs.get("seed") == seed
    wanted = {} if recording else dict(refs.get("seed_free", {}))
    if seeded_refs and not recording:
        wanted.update(refs.get("seeded", {}))
    for key, (re, im) in wanted.items():
        if key not in values:
            fails.setdefault(key, "missing from the output")
        elif abs(values[key] - complex(re, im)) > tol[kinds[key]]:
            fails[key] = f"got {values[key]:.15g}, reference {complex(re, im):.15g}"
    for p in points:
        if p.key.endswith("/oracle"):
            base = p.key[:-len("/oracle")]
            if base not in values:
                fails.setdefault(base, "engine point missing")
            elif abs(values[base] - p.value) > tol[p.kind]:
                fails[base] = f"engine {values[base]:.15g}, oracle {p.value:.15g}"
        elif not recording and p.key not in wanted and (seeded_refs or not p.seeded):
            fails.setdefault(p.key, "no reference recorded")
    for c in checks:
        if not c.keys:
            continue
        missing = [k for k in c.keys if k not in values]
        if missing:
            for k in missing:
                fails.setdefault(k, f"missing ({c.source})")
            continue
        if c.relation is not None:
            resid = c.relation([values[k] for k in c.keys])
        else:
            resid = abs(values[c.keys[0]] - c.expected)
        if not resid <= c.tol:
            for k in c.keys:
                fails[k] = f"{c.source}: residual {resid:.3e} > {c.tol:.0e}"
    return fails


def run_checks_once(checks) -> dict:
    """Relations that involve no pass value: evaluated once per run."""
    fails = {}
    for c in checks:
        if c.keys:
            continue
        resid = c.relation([])
        if not resid <= c.tol:
            fails[c.source] = f"residual {resid:.3e} > {c.tol:.0e}"
    return fails


# -- per-layer summary ----------------------------------------------------------------------


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    m = {}
    t = tracer.total
    c = tracer.counts
    mx = tracer.maxima
    m["setup.model_load_s"] = (t("zoo.model"), "s")
    m["setup.build_tensors_s"] = (t("tensors.build_tensors"), "s")
    m["setup.solvability_check_s"] = (t("mpo.solvability_check"), "s")
    m["algebra.check_axioms_s"] = (t("algebra.check_axioms"), "s")
    m["tensors.verify_s"] = (t("tensors.verify"), "s")
    m["tensors.build_projectors_calls"] = (tracer.calls("tensors.build_projectors"), "count")
    m["mpo.transfer.builds"] = (tracer.calls("mpo.transfer.build"), "count")
    m["mpo.transfer.build_s"] = (t("mpo.transfer.build"), "s")
    m["mpo.transfer.dim"] = (mx.get("mpo.transfer.dim", 0), "count")
    for kind in ("expectation", "two_point", "renyi_small", "equilibration",
                 "renyi_half_chain", "otoc", "st_correlator"):
        m[f"mpo.{kind}_s"] = (t(f"mpo.{kind}"), "s")
    m["mpo.environment_s"] = (t("mpo.environment"), "s")
    m["mpo.replica.channel_builds"] = (tracer.calls("mpo.replica.channel_build"), "count")
    m["mpo.replica.apply_calls"] = (tracer.calls("mpo.replica.apply"), "count")
    m["mpo.replica.apply_s"] = (t("mpo.replica.apply"), "s")
    m["mpo.replica.vec_len_max"] = (mx.get("mpo.replica.vec_len_max", 0), "count")
    m["mpo.replica.bytes_computed"] = (c["mpo.replica.bytes_computed"], "B")
    m["mpo.renyi_replica_s.a2"] = (c["mpo.renyi_replica_s.a2"], "s")
    m["mpo.renyi_replica_s.a3"] = (c["mpo.renyi_replica_s.a3"], "s")
    m["mpo.projector_mpo_calls"] = (tracer.calls("mpo.projector_mpo"), "count")
    m["mpo.trace.window_sites_max"] = (mx.get("mpo.trace.window_sites_max", 0), "count")
    m["oracle.evolve_calls"] = (tracer.calls("oracle.evolve"), "count")
    m["oracle.evolve_s"] = (t("oracle.evolve"), "s")
    m["oracle.layers_applied"] = (c["oracle.layers_applied"], "count")
    m["oracle.amplitudes_max"] = (mx.get("oracle.amplitudes_max", 0), "count")
    m["oracle.rdm_s"] = (t("oracle.rdm"), "s")
    m["oracle.subspace_s"] = (t("oracle.subspace"), "s")
    m["oracle.trace_s"] = (t("oracle.trace"), "s")
    m["oracle.engine_calls"] = (c["oracle.engine_calls"], "count")
    own = tracer.layer_self()
    for layer in spans.LAYERS:
        m["cli.self_s" if layer == "cli" else f"self_s.{layer}"] = (own[layer], "s")
    m["self_s.harness"] = (wall - tracer.top_level_time(), "s")
    for kind, samples in tracer.point_times_ms().items():
        value, pct = tail(samples) if samples else (0.0, 0.0)
        m[f"point_ms.p50.{kind}"] = (median_or_zero(samples), "ms")
        m[f"point_ms.tail.{kind}"] = (value, "ms")
        m[f"point_ms.tail_pct.{kind}"] = (pct, "%")
        m[f"point_ms.n.{kind}"] = (len(samples), "count")
    return m


def cli_output_size(out_dir: Path) -> tuple[int, int]:
    """(rows, bytes) of the CSV/JSON files `hopfbrick run` wrote in one pass."""
    rows = size = 0
    for manifest in out_dir.glob("*/manifest.json"):
        files = json.loads(manifest.read_text())["files"]
        for name in files + ["manifest.json"]:
            path = manifest.parent / name
            size += path.stat().st_size
            if name.endswith(".csv"):
                rows += max(0, len(path.read_text().splitlines()) - 1)
    return rows, size


# -- main -----------------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="run one pass and store its values as the references")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hopfbrick" / "cli.py").is_file():
        print(f"error: no hopfbrick sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    machine = machine_info()
    import_s = import_seconds()

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.set_up()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    if args.record:
        return record(wl, args)

    checks = wl.checks()
    run_fails = run_checks_once(checks)
    refs = load_references(args.workload)

    walls, traced_walls, layer_runs = [], [], []
    attempted, failed = len([c for c in checks if not c.keys]), len(run_fails)
    for source, why in run_fails.items():
        print(f"FAIL [{args.workload}] check {source}: {why}")
    start = time.perf_counter()
    n_points = 0
    while True:
        traced = args.trace == 1 and (len(walls) + len(traced_walls)) % 2 == 1
        tracer = spans.Tracer() if traced else None
        uninstall = spans.install(tracer) if traced else None
        wl.failures = []
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            points = wl.run_pass()
        finally:
            if uninstall is not None:
                uninstall()
        wall = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        n_points = len(points)
        fails = check_pass(points, wl.failures, checks, refs, args.seed, workloads.TOL)
        attempted += len({p.key for p in points} | set(fails))
        failed += len(fails)
        for key, why in sorted(fails.items()):
            print(f"FAIL [{args.workload}] {key}: {why}")
        if traced:
            traced_walls.append(wall)
            metrics = layer_metrics(tracer, wall)
            rows, size = cli_output_size(wl.out)
            metrics["cli.rows"] = (rows, "count")
            metrics["cli.bytes_written"] = (size, "B")
            metrics["proc.cpu_s"] = (cpu_s, "s")
            metrics["trace.wall_s"] = (wall, "s")
            layer_runs.append((metrics, tracer))
        else:
            walls.append(wall)
        elapsed = time.perf_counter() - start
        need_more = len(walls) < 2 if args.trace == 0 else not (walls and traced_walls)
        if not need_more and elapsed + wall > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the first pass of a process runs 1.3-1.5x slower on some workloads; timed
    # on its own, it would weigh more in runs that fit fewer passes
    wall_s = statistics.median(walls[1:] or walls)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)} untraced (first is"
          f" the warm-up)"
          f" + {len(traced_walls)} traced  points/pass {n_points}")
    print("  pass wall s: " + " ".join(f"{w:.3f}" for w in walls)
          + ("  traced: " + " ".join(f"{w:.3f}" for w in traced_walls) if traced_walls else ""))
    for key, value in machine.items():
        print(f"  machine.{key:14s} {value}")
    print(f"  failed_frac {failed / attempted:.6g}  ({failed} of {attempted} points and checks)")

    if args.trace == 0:
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                   "points_per_s": n_points / wall_s}
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        out = summarize_layers(layer_runs, wall_s, import_s, machine)
    for name, m in out.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def summarize_layers(layer_runs, untraced_wall, import_s, machine) -> dict:
    """Median of each per-layer metric over the traced passes, plus sizes."""
    names = list(layer_runs[0][0])
    out = {}
    for name in names:
        values = [metrics[name][0] for metrics, _ in layer_runs]
        out[name] = {"value": float(statistics.median(values)), "unit": layer_runs[0][0][name][1]}
    out["setup.import_s"] = {"value": import_s, "unit": "s"}
    out["proc.blas_threads"] = {"value": machine["blas_threads"], "unit": "count"}
    out["trace.overhead_s"] = {"value": out["trace.wall_s"]["value"] - untraced_wall,
                               "unit": "s"}
    tracer = layer_runs[-1][1]
    print("  kernel sizes (bytes computed from array sizes, not measured traffic):")
    for model, bond, dim in sorted(tracer.sizes["transfer.dim"]):
        print(f"    transfer dim {dim:8d}  ({model}, state bond {bond})")
    for alpha, vec_len, b_plain, b_primed in sorted(tracer.sizes["replica.vec_len"]):
        print(f"    replica alpha={alpha}: vector {vec_len} entries, {b_plain} B per apply"
              f" ({b_primed} B primed)")
    for n_sites, amps in sorted(tracer.sizes["oracle.amplitudes"]):
        print(f"    oracle ring/chain of {n_sites} sites: {amps} amplitudes")
    for sites in sorted(tracer.sizes["trace.window_sites"]):
        print(f"    trace window {sites} sites")
    last = layer_runs[-1][0]
    own = sum(v for name, (v, _) in last.items()
              if name.startswith("self_s.") or name == "cli.self_s")
    print(f"  last traced pass: layer self times + harness = {own:.6g} s,"
          f" traced wall {last['trace.wall_s'][0]:.6g} s")
    return out


def record(wl, args) -> int:
    """Store one pass's values as the references, if it passes every other check."""
    import workloads

    wl.failures = []
    points = wl.run_pass()
    checks = wl.checks()
    fails = {**run_checks_once(checks),
             **check_pass(points, wl.failures, checks, {}, args.seed, workloads.TOL,
                          recording=True)}
    if fails:
        for key, why in sorted(fails.items()):
            print(f"FAIL {key}: {why}", file=sys.stderr)
        return 1
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    entry = {"seed": args.seed, "seed_free": {}, "seeded": {}}
    for p in points:
        if p.key.endswith("/oracle"):
            continue
        entry["seeded" if p.seeded else "seed_free"][p.key] = [p.value.real, p.value.imag]
    refs[args.workload] = entry
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(points)} values for {args.workload} at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
