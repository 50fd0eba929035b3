import json
import subprocess
import sys
import warnings

import pytest

from hopfbrick import cli, mpo, tensors, zoo
from hopfbrick.algebra import MAX_DIM, algebra_to_dict
from hopfbrick.cli import _initial_state, _single_site_operator, main


def run_cli(args):
    return main(args)


def spec_doc(name):
    """The JSON algebra spec of zoo model `name`, as `export-spec` writes it."""
    pair = zoo.model(name)
    return algebra_to_dict(pair.algebra, reps={"rho": pair.rho}, coreps={"v": pair.v})


# dihedral-3 specs with one rep/corep block broken, by file name
MALFORMED_SPECS = {
    "rep-missing-matrix.json": lambda doc: doc["reps"]["rho"].pop(),
    "rep-scalar-matrices.json": lambda doc: doc["reps"].update(rho=[1.0] * doc["dim"]),
    "corep-truncated.json": lambda doc: doc["coreps"]["v"].pop(),
}


def write_malformed_spec(directory, name):
    doc = spec_doc("dihedral-3")
    MALFORMED_SPECS[name](doc)
    (directory / name).write_text(json.dumps(doc))


@pytest.fixture
def argv(request, tmp_path):
    """A CLI argument list; a `run` of `run-<spec>` gets that malformed spec
    and a config naming it written to tmp_path."""
    argv = request.param
    if argv[0] == "run":
        spec = argv[1].removeprefix("run-")
        write_malformed_spec(tmp_path, spec)
        (tmp_path / argv[1]).write_text(json.dumps({
            "model": spec, "initial_state": "+",
            "quantities": [{"name": "expectation", "O": "e1", "t": [1]}]}))
    return argv


def test_verify_zoo_models(capsys):
    assert run_cli(["verify", "zoo:fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "cstar-weak-hopf" in out
    assert "dual-unitary: False" in out
    assert "rank: 5" in out
    assert run_cli(["verify", "zoo:dihedral-3"]) == 0
    out = capsys.readouterr().out
    assert "dual-unitary: True" in out


def test_verify_corrupted_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["verify", str(path)]) == 2
    # well-formed but axiom-breaking
    assert run_cli(["export-spec", "zoo:z2-regular", "--out", str(tmp_path / "z2.json")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "z2.json").read_text())
    doc["mult"][0][3] = "5.0"
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(doc))
    assert run_cli(["verify", str(bad2)]) == 1


def test_export_spec_roundtrip_verifies(tmp_path, capsys):
    out = tmp_path / "fib.json"
    assert run_cli(["export-spec", "zoo:fibonacci", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["verify", str(out)]) == 0


def test_run_config_and_determinism(tmp_path, capsys):
    config = {
        "model": "zoo:fibonacci",
        "initial_state": "3",
        "seed": 11,
        "quantities": [
            {"name": "expectation", "O": "e3", "label": "q",
             "t": {"start": 0, "stop": 1.5, "step": 0.5}},
            {"name": "renyi", "alpha": [2], "l": [1], "t": [1], "label": "r"},
            {"name": "otoc", "x": [0], "t": [0.5], "label": "f"},
        ],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert run_cli(["run", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["run", str(cfg), "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("q.csv", "r.csv", "f.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"] == config
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["files"]) == {"q.csv", "r.csv", "f.csv"}
    rows = (out1 / "q.csv").read_text().strip().splitlines()
    assert rows[0] == "model,quantity,x,t,alpha,l,re,im"
    assert len(rows) == 5
    # 17-significant-digit values parse back exactly
    val = rows[2].split(",")[6]
    assert abs(float(val) - 0.3819660112501051) < 1e-16


def test_run_rejects_state_outside_subspace(tmp_path, capsys):
    config = {
        "model": "zoo:fibonacci",
        "initial_state": "1",          # |11...> violates the constraint
        "quantities": [{"name": "expectation", "O": "e1", "t": [1]}],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("label", ["e0", "e4", "e40", "e123"])
def test_bad_operator_label_raises(label):
    # indices outside 1..d and names longer than two digits are rejected
    with pytest.raises(ValueError):
        _single_site_operator(label, 3)


@pytest.mark.parametrize("label", ["0", "4", "14"])
def test_bad_site_label_raises(label):
    with pytest.raises(ValueError):
        _initial_state(label, 3)


def test_run_records_bad_operator_label(tmp_path, capsys):
    # a bad label and a matrix operator that is not numeric skip their point
    for op, message in (("e4", "outside 1..3"), ({"x": 1}, "not a numeric array")):
        config = {
            "model": "zoo:fibonacci",
            "initial_state": "3",
            "quantities": [{"name": "expectation", "O": op, "label": "q", "t": [1]}],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = run_cli(["run", str(cfg), "--out", str(tmp_path / "o")])
        capsys.readouterr()
        assert rc == 1
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert message in manifest["errors"][0]["error"]
        assert (tmp_path / "o" / "q.csv").read_text().strip().count("\n") == 0


def test_run_skips_two_point_off_the_integer_grid(tmp_path, capsys):
    # two_point is defined at integer x and t: other grid points are skipped,
    # never evaluated at a truncated (x, t)
    config = {
        "model": "zoo:fibonacci",
        "initial_state": "3",
        "quantities": [{"name": "two_point", "O": "e1", "O2": "e1", "label": "q",
                        "x": [0, 0.5], "t": [1, 1.5]}],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = run_cli(["run", str(cfg), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert rc == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    skipped = sorted((e["point"]["x"], e["point"]["t"]) for e in manifest["errors"])
    assert skipped == [(0.0, 1.5), (0.5, 1.0), (0.5, 1.5)]
    rows = (tmp_path / "o" / "q.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[2:4] for r in rows] == [["0.0", "1.0"]]


@pytest.mark.parametrize("text", [
    json.dumps({"model": "zoo:fibonacci", "initial_state": "4", "quantities": []}),
    json.dumps({"model": "zoo:no-such-model", "initial_state": "3", "quantities": []}),
    json.dumps({"model": "zoo:fibonacci", "quantities": []}),
    json.dumps(["zoo:fibonacci"]),
    "{not json",
], ids=["bad-state-label", "unknown-model", "missing-key", "not-an-object", "not-json"])
def test_run_bad_input_exits_cleanly(tmp_path, capsys, text):
    # bad set-up input is one line on stderr and exit code 2, never a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error:") and err.count("\n") == 1
    assert run_cli(["run", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("key,value", [
    ("model", 5), ("initial_state", 5), ("initial_state", {"rho": "3"}),
], ids=["model-number", "state-number", "state-without-v"])
def test_run_config_value_of_wrong_type_exits_2(key, value, tmp_path, capsys):
    # a config value of the wrong JSON type is one error line and exit code
    # 2, with no CSV written
    config = {"model": "zoo:fibonacci", "initial_state": "3",
              "quantities": [{"name": "expectation", "O": "e1", "t": [1]}], key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("vector,cause", [
    ([1, 0], "has 2 entries, not the site dimension 3"),
    ([0, 0, 0], "is zero"),
    (None, "is null"),
    ([None, 0, 1], "null or non-finite entry"),
    ([float("nan"), 0, 1], "null or non-finite entry"),
    ([float("inf"), 0, 1], "null or non-finite entry"),
], ids=["wrong-length", "zero", "null", "null-entry", "nan-entry", "inf-entry"])
def test_run_bad_site_vector_exits_2(vector, cause, tmp_path, capsys):
    # a {rho, v} vector that is no state of a qutrit site is one error line
    # naming the site and the cause, exit code 2 and no warning
    with pytest.raises(ValueError, match="initial state rho vector") as err:
        _initial_state({"rho": vector, "v": [0, 0, 1]}, 3)
    assert cause in str(err.value)
    config = {"model": "zoo:fibonacci", "initial_state": {"rho": vector, "v": "3"},
              "quantities": [{"name": "expectation", "O": "e1", "t": [1]}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error: initial state rho vector") and err.count("\n") == 1
    assert cause in err


def test_run_oracle_check_columns(tmp_path, capsys):
    config = {
        "model": "zoo:fibonacci",
        "initial_state": "3",
        "quantities": [
            {"name": "expectation", "O": "e1", "label": "q", "t": [0.5, 1.0]},
        ],
        "json_mirror": True,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["run", str(cfg), "--out", str(tmp_path / "o"),
                    "--oracle-check", "3"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "o" / "q.csv").read_text().strip().splitlines()
    assert rows[0].endswith("oracle_dev")
    devs = [float(r.split(",")[-1]) for r in rows[1:]]
    assert max(devs) < 1e-10
    # the JSON mirror carries the same column
    mirror = json.loads((tmp_path / "o" / "q.json").read_text())
    assert [float(r["oracle_dev"]) for r in mirror] == devs


def test_revival_command(capsys):
    assert run_cli(["revival", "zoo:fibonacci", "--L", "2", "--dense"]) == 0
    out = capsys.readouterr().out
    assert "eta = 5, nu = 2" in out
    assert "eta * L = 10" in out
    assert "minimal period on the solvable subspace: 10" in out


def test_oracle_command(capsys):
    assert run_cli(["oracle", "zoo:fibonacci", "--L", "2", "--state", "3",
                    "--O", "e3", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "solvable subspace dim 7" in out


def test_oracle_command_honours_explicit_cap(capsys):
    # an explicit --cap 64 is the amplitude cap: a 4-site Fibonacci ring has
    # 81 amplitudes, so the command stops with one error line and exit code 2
    assert run_cli(["--cap", "64", "oracle", "zoo:fibonacci", "--L", "2",
                    "--t", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("oracle error:") and err.count("\n") == 1


def test_revival_exponent_cap_exits_2_with_one_line(capsys):
    # --cap 1 stops the exponent search before Fibonacci's powers repeat: one
    # error line and exit code 2, never a traceback
    assert run_cli(["--cap", "1", "revival", "zoo:fibonacci"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("revival error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["oracle", "zoo:nope"],
    ["revival", "zoo:nope"],
    ["export-spec", "zoo:nope", "--out", "unused.json"],
    ["oracle", "zoo:fibonacci", "--state", "9"],
    ["oracle", "zoo:fibonacci", "--O", "e9"],
    *(["run", f"run-{spec}"] for spec in MALFORMED_SPECS),
    ["revival", "zoo:fibonacci", "--L", "3", "--dense"],
], indirect=True)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    # an unknown model, state or operator, or a ring too large for the dense
    # revival check, is one error line and exit code 2
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]} error:") and err.count("\n") == 1
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("module", ["scipy", "jsonschema", "hopfbrick.oracle"])
def test_cli_import_leaves_module_out(module):
    # scipy is a test-only dependency: the library must not import it;
    # jsonschema is imported only when load_algebra reads a spec, and the
    # oracle only by the commands and options that run it
    code = f"import sys, hopfbrick.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_quench_layer_leaves_scipy_out():
    # the sector finder and the operator columns are numpy only
    code = ("import sys, numpy as np; from hopfbrick import build_tensors, mpo, zoo; "
            "ts = build_tensors(zoo.model('dihedral-3')); "
            "state = mpo.MPSState.product([1, 1], [1, 1]); "
            "mpo.equilibration(ts, state); mpo.expectation(ts, np.diag([1, 0]), 1.5, state); "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hopfbrick.cli", "verify",
                           "zoo:z2-regular"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


@pytest.mark.parametrize("spec", sorted(MALFORMED_SPECS))
def test_verify_malformed_rep_exits_2_with_one_line(spec, tmp_path, capsys):
    # a missing rep matrix, scalars for matrices or a truncated corep is one
    # parse error line and exit code 2, never a traceback
    write_malformed_spec(tmp_path, spec)
    assert run_cli(["verify", str(tmp_path / spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


def write_run_config(path, model, quantities, initial_state):
    path.write_text(json.dumps({"model": model, "initial_state": initial_state,
                                "quantities": quantities}))
    return str(path)


def test_prebialgebra_spec_runs_like_the_zoo_model(tmp_path, capsys):
    # dihedral-3 declared at prebialgebra tier is not weak: it carries no
    # projectors, so `run` gives the zoo model's rows byte for byte
    doc = spec_doc("dihedral-3")
    doc["tier"] = "prebialgebra"
    (tmp_path / "pre.json").write_text(json.dumps(doc))
    assert run_cli(["verify", str(tmp_path / "pre.json")]) == 0
    quantities = [{"name": "expectation", "O": "e1", "label": "e", "t": [0, 0.5, 1.5]},
                  {"name": "st_correlator", "A": "e1", "B": "e2", "label": "st",
                   "x": [0, 1], "t": [1, 2]}]
    for tag, model in (("zoo", "zoo:dihedral-3"), ("pre", str(tmp_path / "pre.json"))):
        cfg = write_run_config(tmp_path / f"{tag}.cfg.json", model, quantities, "+")
        assert run_cli(["run", cfg, "--out", str(tmp_path / tag)]) == 0
    capsys.readouterr()
    for name in ("e.csv", "st.csv"):
        assert (tmp_path / "pre" / name).read_bytes() == (tmp_path / "zoo" / name).read_bytes()


def test_weak_bialgebra_spec_without_star_exits_2(tmp_path, capsys):
    # Fibonacci declared at weak-bialgebra tier, without antipode and star,
    # verifies; its projectors need a star, so `run` stops with one error line
    doc = spec_doc("fibonacci")
    del doc["antipode"], doc["star_matrix"]
    doc["tier"] = "weak-bialgebra"
    (tmp_path / "wb.json").write_text(json.dumps(doc))
    assert run_cli(["verify", str(tmp_path / "wb.json")]) == 0
    capsys.readouterr()
    cfg = write_run_config(tmp_path / "cfg.json", str(tmp_path / "wb.json"),
                           [{"name": "expectation", "O": "e1", "t": [1]}], "3")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error:") and err.count("\n") == 1


def test_run_st_correlator_rows_equal_engine(tmp_path, capsys, fib_ts):
    A, B = _single_site_operator("e1", 3), _single_site_operator("e3", 3)
    cfg = write_run_config(tmp_path / "cfg.json", "zoo:fibonacci",
                           [{"name": "st_correlator", "A": "e1", "B": "e3", "label": "st",
                             "x": [0, 1], "t": [1, 2]}], "3")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    rows = (tmp_path / "o" / "st.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    for row in rows:
        _, _, x, t, _, _, re, im = row.split(",")
        want = complex(mpo.st_correlator(fib_ts, A, B, float(x), float(t)))
        assert complex(float(re), float(im)) == want


def test_run_oracle_check_renyi(tmp_path, capsys):
    cfg = write_run_config(tmp_path / "cfg.json", "zoo:dihedral-3",
                           [{"name": "renyi", "alpha": [2, 3], "l": [1], "t": [0.5, 1],
                             "label": "r"}], "+")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o"), "--oracle-check", "3"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "o" / "r.csv").read_text().strip().splitlines()
    assert rows[0].endswith("oracle_dev")
    devs = [r.split(",")[-1] for r in rows[1:]]
    assert len(devs) == 4 and all(devs)
    assert max(map(float, devs)) <= 1e-8


def test_run_non_finite_value_is_a_skipped_point(tmp_path, capsys, monkeypatch):
    # a nan or inf value is a failed point: an `errors` entry and exit 1, never a row
    engine = mpo.st_correlator

    def nan_at_t2(ts, A, B, x, t, ring_cells=None):
        return complex("nan") if t == 2 else engine(ts, A, B, x, t, ring_cells)

    monkeypatch.setattr(mpo, "st_correlator", nan_at_t2)
    cfg = write_run_config(tmp_path / "cfg.json", "zoo:fibonacci",
                           [{"name": "st_correlator", "A": "e1", "B": "e3", "label": "st",
                             "x": [0], "t": [1, 2]}], "3")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "skipped" in capsys.readouterr().err
    text = (tmp_path / "o" / "st.csv").read_text()
    assert "nan" not in text and len(text.strip().splitlines()) == 2
    errors = json.loads((tmp_path / "o" / "manifest.json").read_text())["errors"]
    assert [e["point"] for e in errors] == [{"x": 0.0, "t": 2.0}]
    assert "non-finite" in errors[0]["error"]


def test_run_floating_point_error_skips_the_point(tmp_path, capsys, monkeypatch):
    # a FloatingPointError at one point leaves every CSV and the manifest written
    engine = mpo.expectation

    def fails_at_t1(ts, O, t, state, x=0.0):
        if t == 1:
            raise FloatingPointError("forced")
        return engine(ts, O, t, state, x=x)

    monkeypatch.setattr(mpo, "expectation", fails_at_t1)
    cfg = write_run_config(tmp_path / "cfg.json", "zoo:fibonacci",
                           [{"name": "expectation", "O": "e1", "label": "e", "t": [0.5, 1]},
                            {"name": "st_correlator", "A": "e1", "B": "e3", "label": "st",
                             "x": [0], "t": [1]}], "3")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    capsys.readouterr()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["files"] == ["e.csv", "st.csv"]
    for name, rows in (("e.csv", 1), ("st.csv", 1)):
        assert len((tmp_path / "o" / name).read_text().strip().splitlines()) == 1 + rows
    assert manifest["errors"] == [{"point": {"x": 0.0, "t": 1.0}, "error": "forced"}]


def test_verify_computes_tensor_identities_once(tmp_path, capsys, monkeypatch):
    calls = []
    identities = tensors.verify_pentagon

    def counted(ts):
        calls.append(ts)
        return identities(ts)

    monkeypatch.setattr(tensors, "verify_pentagon", counted)
    assert run_cli(["verify", "zoo:fibonacci", "--json", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    report = json.loads((tmp_path / "r.json").read_text())
    assert list(report["tensor_identities"]) == list(identities(calls[0]))


@pytest.mark.parametrize("path,value", [
    (("mult", 0, 0), None), (("mult", 0, 3), "nan"), (("mult", 0, 4), "1e400"),
    (("dim",), 10 ** 6),
], ids=["null-index", "nan-value", "overflow-value", "huge-dim"])
def test_verify_malformed_field_exits_2_with_one_line(path, value, tmp_path, capsys):
    doc = spec_doc("z2-regular")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    assert run_cli(["verify", str(tmp_path / "bad.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1


def test_spec_over_the_dim_cap_exits_2_with_one_line(tmp_path, capsys):
    # a spec whose lists all match its dim, one over the cap, is refused
    # before any dim^3 structure tensor is allocated
    d = MAX_DIM + 1
    diag = [[i, i, i, "1", "0"] for i in range(d)]
    doc = {"dim": d, "basis": [f"e{i}" for i in range(d)], "mult": diag, "comult": diag,
           "unit": ["1"] * d, "counit": ["1"] * d, "tier": "bialgebra",
           "reps": {"rho": [["1"]] * d}, "coreps": {"v": ["1"] * d}}
    (tmp_path / "big.json").write_text(json.dumps(doc))
    assert run_cli(["verify", str(tmp_path / "big.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and err.count("\n") == 1 and "exceeds cap" in err
    cfg = write_run_config(tmp_path / "cfg.json", str(tmp_path / "big.json"),
                           [{"name": "expectation", "O": "e1", "t": [1]}], "1")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error:") and err.count("\n") == 1 and "exceeds cap" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("quantity", [
    {"name": "expectation", "O": "e1", "t": {"start": 0, "stop": 1, "step": 0}},
    {"O": "e1", "t": [1]},
    {"name": "expectation", "O": "e1", "t": "abc"},
    {"name": "renyi", "alpha": [2], "t": [1]},
    {"name": "expectation", "O": "e1", "t": {"start": 0, "stop": 1, "step": -0.5}},
    # counted before any array is built: not a 7 TiB allocation
    {"name": "expectation", "O": "e1", "t": {"start": 0, "stop": 1e12, "step": 1}},
    {"name": "expectation", "O": "e1", "t": {"start": -1e308, "stop": 1e308, "step": 0.5}},
], ids=["zero-step", "no-name", "text-grid", "renyi-without-l", "negative-step",
        "1e12-points", "overflowing-span"])
def test_run_malformed_quantity_exits_2_before_any_csv(quantity, tmp_path, capsys):
    # a malformed entry anywhere in the list stops the run up front: one
    # error line, exit code 2, and no CSV, not even for the good entries
    good = {"name": "expectation", "O": "e3", "label": "good", "t": [0.5]}
    cfg = write_run_config(tmp_path / "cfg.json", "zoo:fibonacci", [good, quantity], "3")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_run_grid_product_over_the_point_limit_exits_2(tmp_path, capsys, monkeypatch):
    # two grids under the limit whose product is over it
    monkeypatch.setattr(cli, "GRID_POINTS_MAX", 100)
    grid = {"start": 0, "stop": 10, "step": 1}
    cfg = write_run_config(tmp_path / "cfg.json", "zoo:fibonacci",
                           [{"name": "st_correlator", "A": "e3", "B": "e3", "t": grid,
                             "x": grid}], "3")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run error:") and "more than 100 points" in err
    assert not (tmp_path / "o").exists()


def test_oracle_oversized_time_grid_exits_2(capsys):
    assert run_cli(["oracle", "zoo:fibonacci", "--t", "1e12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("oracle error:") and err.count("\n") == 1


def test_weak_run_builds_one_projector_pair(tmp_path, capsys, monkeypatch):
    # the pair owns its ProjectorPair: the initial-state check and the trace
    # channel of a weak run read the same one
    calls = []
    build = tensors.build_projectors

    def counted(pair, *args, **kw):
        calls.append(pair)
        return build(pair, *args, **kw)

    monkeypatch.setattr(tensors, "build_projectors", counted)
    cfg = write_run_config(tmp_path / "cfg.json", "zoo:fibonacci",
                           [{"name": "st_correlator", "A": "e1", "B": "e3", "label": "st",
                             "x": [0, 1], "t": [1, 2]}], "3")
    assert run_cli(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    ts = tensors.build_tensors(zoo.model("fibonacci"))
    assert ts.projectors is ts.pair.projectors is not None
