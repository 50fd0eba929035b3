import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopfbrick import (AlgebraSpecError, AxiomError, ExponentCapError,
                       algebra, canonical_power, check_axioms, comultiply,
                       counit, derive_tier, dual_algebra, exponent,
                       load_algebra, multiply, save_algebra,
                       source_target_maps, star_apply, antipode_apply, zoo)
from hopfbrick.algebra import algebra_to_dict, canonical_unit


def test_z2_loads_as_cstar_hopf(tmp_path):
    A = zoo.group_algebra(zoo.cyclic_group(2))
    doc = algebra_to_dict(A)
    loaded = load_algebra(doc)
    assert loaded.tier == "cstar-hopf"
    assert loaded.dim == 2
    rpt = check_axioms(loaded, "cstar-hopf")
    assert rpt["pass"]


def test_fibonacci_tier_and_bialgebra_failure():
    A = zoo.fibonacci_wha()
    rpt = check_axioms(A, "cstar-weak-hopf")
    assert rpt["pass"]
    # Delta(1) != 1 (x) 1: the bialgebra unit axiom fails by a large margin
    rpt_b = check_axioms(A, "bialgebra")
    assert rpt_b["unit-counit"] > 0.1
    assert not rpt_b["pass"]
    assert derive_tier(A) == "cstar-weak-hopf"


def test_load_rejects_broken_associativity():
    A = zoo.group_algebra(zoo.cyclic_group(2))
    doc = algebra_to_dict(A)
    doc["mult"][0][3] = "2.0"          # corrupt one structure constant by 1.0
    with pytest.raises(AxiomError) as err:
        load_algebra(doc)
    assert err.value.axiom in ("associativity", "unitality", "delta-multiplicative",
                               "unit-counit", "counitality", "antipode", "star")
    assert err.value.residual >= 0.5


def test_load_rejects_malformed_document():
    with pytest.raises(AlgebraSpecError):
        load_algebra({"dim": 2, "basis": ["a", "b"]})
    with pytest.raises(AlgebraSpecError):
        load_algebra('{"dim": dim}')


def test_multiply_group_elements():
    G = zoo.dihedral_group(3)
    A = zoo.group_algebra(G)
    r = A.basis_element(1)
    s = A.basis_element(3)
    rs = multiply(r, s)
    # r * s = the basis element of index table[r][s]
    assert np.argmax(np.abs(rs.coeffs)) == G.mul(1, 3)
    assert abs(rs.coeffs.sum() - 1) < 1e-14


def test_multiply_fibonacci_matrix_units():
    A = zoo.fibonacci_wha()
    e1_12 = A.basis_element(1)   # e1^{12}
    e1_22 = A.basis_element(3)   # e1^{22}
    out = multiply(e1_12, e1_22)
    assert np.abs(out.coeffs - np.eye(13)[1]).max() < 1e-15


def test_multiply_commutative_z3():
    A = zoo.group_algebra(zoo.cyclic_group(3))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = A.element(rng.normal(size=3) + 1j * rng.normal(size=3))
        y = A.element(rng.normal(size=3) + 1j * rng.normal(size=3))
        assert np.abs(multiply(x, y).coeffs - multiply(y, x).coeffs).max() < 1e-12


def test_comultiply_group_like_and_counit_axiom():
    A = zoo.group_algebra(zoo.dihedral_group(3))
    for g in range(6):
        M = comultiply(A.basis_element(g))
        want = np.zeros((6, 6))
        want[g, g] = 1.0
        assert np.abs(M - want).max() < 1e-15
    rng = np.random.default_rng(1)
    x = A.element(rng.normal(size=6))
    M = comultiply(x)
    assert np.abs(A.counit @ M - x.coeffs).max() < 1e-13


def test_comultiply_fibonacci_e1_11():
    A = zoo.fibonacci_wha()
    M = comultiply(A.basis_element(0))
    want = np.zeros((13, 13))
    want[0, 0] = 1.0      # e1^11 (x) e1^11
    want[4, 8] = 1.0      # e2^11 (x) e2^22
    assert np.abs(M - want).max() < 1e-15


def test_antipode_and_star_group():
    G = zoo.dihedral_group(3)
    A = zoo.group_algebra(G)
    for g in range(6):
        s = antipode_apply(A.basis_element(g))
        assert np.argmax(np.abs(s.coeffs)) == G.inv(g)
        st = star_apply(A.basis_element(g))
        assert np.argmax(np.abs(st.coeffs)) == G.inv(g)
    rng = np.random.default_rng(2)
    x = A.element(rng.normal(size=6) + 1j * rng.normal(size=6))
    assert np.abs(star_apply(star_apply(x)).coeffs - x.coeffs).max() < 1e-13


def test_fibonacci_antipode_phases():
    A = zoo.fibonacci_wha()
    z = zoo.ZETA
    # S(e2^{kl}) = zeta^{mu(k)-mu(l)} e2^{sigma(l) sigma(k)}
    sigma = {1: 2, 2: 1, 3: 3}
    mu = {1: 1, 2: 3, 3: 2}
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            src = 4 + (k - 1) * 3 + (l - 1)
            out = antipode_apply(A.basis_element(src))
            dst = 4 + (sigma[l] - 1) * 3 + (sigma[k] - 1)
            assert abs(out.coeffs[dst] - z ** (mu[k] - mu[l])) < 1e-14


def test_antipode_undeclared_raises():
    A = zoo.group_algebra(zoo.cyclic_group(2))
    stripped = algebra.AlgebraData(
        dim=A.dim, basis_labels=A.basis_labels, mult=A.mult, comult=A.comult,
        unit=A.unit, counit=A.counit, tier="bialgebra")
    with pytest.raises(AxiomError, match="antipode"):
        check_axioms(stripped, "hopf")


def test_dual_of_z2_is_function_algebra():
    A = zoo.group_algebra(zoo.cyclic_group(2))
    D = dual_algebra(A)
    rpt = check_axioms(D, "cstar-hopf")
    assert rpt["pass"]
    # commutative multiplication (functions on the group)
    lmats = [D.left_mult_matrix(i) for i in range(2)]
    assert np.abs(lmats[0] @ lmats[1] - lmats[1] @ lmats[0]).max() < 1e-15


def test_double_dual_is_identity():
    for name in ("z3-regular", "dihedral-3", "fibonacci"):
        A = zoo.model(name).algebra
        DD = dual_algebra(dual_algebra(A))
        assert np.abs(DD.mult.dense() - A.mult.dense()).max() < 1e-12
        assert np.abs(DD.comult.dense() - A.comult.dense()).max() < 1e-12
        assert np.abs(DD.unit - A.unit).max() < 1e-12
        assert np.abs(DD.counit - A.counit).max() < 1e-12
        if A.antipode is not None:
            assert np.abs(DD.antipode - A.antipode).max() < 1e-12
        if A.star is not None:
            assert np.abs(DD.star - A.star).max() < 1e-12


def test_dual_of_d3_not_cocommutative():
    A = zoo.group_algebra(zoo.dihedral_group(3))
    D = dual_algebra(A)
    Lam = D.comult.dense()
    assert np.abs(Lam - np.transpose(Lam, (0, 2, 1))).max() > 0.5


def test_source_target_maps():
    # bialgebra case: both maps collapse onto eps(x) 1
    A = zoo.group_algebra(zoo.dihedral_group(3))
    rng = np.random.default_rng(3)
    x = A.element(rng.normal(size=6))
    s, t = source_target_maps(x)
    want = counit(x) * A.unit
    assert np.abs(s.coeffs - want).max() < 1e-13
    assert np.abs(t.coeffs - want).max() < 1e-13
    # weak case: the antipode identities per basis element
    F = zoo.fibonacci_wha()
    for k in range(13):
        el = F.basis_element(k)
        eps_s, eps_t = source_target_maps(el)
        two = F.comult_coeffs(el.coeffs)
        eye = np.eye(13, dtype=complex)
        left = np.zeros(13, dtype=complex)
        right = np.zeros(13, dtype=complex)
        for a, b in zip(*np.nonzero(two)):
            left += two[a, b] * F.mult_coeffs(F.antipode[:, a], eye[b])
            right += two[a, b] * F.mult_coeffs(eye[a], F.antipode[:, b])
        assert np.abs(left - eps_s.coeffs).max() < 1e-12
        assert np.abs(right - eps_t.coeffs).max() < 1e-12


def test_canonical_power_basics():
    A = zoo.group_algebra(zoo.cyclic_group(2))
    c1 = canonical_power(A, 1)
    assert np.abs(c1.coeffs - np.eye(2)).max() < 1e-15
    c2 = canonical_power(A, 2)
    assert np.abs(c2.coeffs - canonical_unit(A)).max() < 1e-14
    # Hopf case: c (S (x) id)c = unit of A (x) A*
    D3 = zoo.group_algebra(zoo.dihedral_group(3))
    c = canonical_power(D3, 1).coeffs
    c_inv = D3.antipode @ c
    prod = algebra._ce_product(D3, c, c_inv)
    assert np.abs(prod - canonical_unit(D3)).max() < 1e-13


def test_canonical_power_fibonacci_periodicity():
    A = zoo.fibonacci_wha()
    c7 = canonical_power(A, 7).coeffs
    c2 = canonical_power(A, 2).coeffs
    assert np.abs(c7 - c2).max() < 1e-12


@pytest.mark.parametrize("name,want", [
    ("fibonacci", (5, 2)),
    ("z2-regular", (2, 0)),
    ("dihedral-3", (6, 0)),
])
def test_exponent(name, want):
    A = zoo.model(name).algebra
    assert exponent(A) == want
    if name == "dihedral-3":
        # lcm of the element orders of D3 confirms the power iteration
        orders = zoo.dihedral_group(3).element_orders()
        assert want[0] == np.lcm.reduce(orders)


def test_exponent_cap():
    A = zoo.fibonacci_wha()
    with pytest.raises(ExponentCapError) as err:
        exponent(A, cap=3)
    assert len(err.value.powers) == 4      # partial power table reported


def test_larson_radford_s_squared():
    for name in ("z2-regular", "z3-regular", "dihedral-3", "twisted-perm-z2",
                 "xyx-z2", "swap"):
        A = zoo.model(name).algebra
        assert np.abs(A.antipode @ A.antipode - np.eye(A.dim)).max() < 1e-12


def test_canonical_element_unitary_and_pq_idempotent():
    from hopfbrick.tensors import _dual_star_matrix
    for name in ("dihedral-3", "fibonacci"):
        A = zoo.model(name).algebra
        c = np.eye(A.dim, dtype=complex)
        c_star = np.einsum("yx,wx->yw", A.star, _dual_star_matrix(A))
        c_inv = A.antipode @ c             # (S (x) id) c
        assert np.abs(c_inv - c_star).max() < 1e-12
        q = algebra._ce_product(A, c_star, c)
        # idempotency of q = c* c in A (x) A*; Hermiticity is checked at the
        # represented level in the tensor tests
        q2 = algebra._ce_product(A, q, q)
        assert np.abs(q2 - q).max() < 1e-12


def test_save_load_roundtrip(tmp_path):
    A = zoo.fibonacci_wha()
    path = tmp_path / "fib.json"
    save_algebra(A, path)
    B = load_algebra(path)
    assert np.abs(B.mult.dense() - A.mult.dense()).max() < 1e-15
    assert np.abs(B.comult.dense() - A.comult.dense()).max() < 1e-15
    assert B.tier == A.tier


def test_load_names_associativity_with_residual():
    # a pure algebra-tier spec whose multiplication breaks associativity by 1
    # g*1 corrupted to 1: (g 1)g = g while g(1 g) = g g = 1, residual one
    doc = {
        "dim": 2, "basis": ["1", "g"], "tier": "algebra",
        "mult": [[0, 0, 0, 1, 0], [0, 1, 1, 1, 0], [1, 0, 0, 1, 0],
                 [1, 1, 0, 1, 0]],
        "comult": [[0, 0, 0, 1, 0], [1, 1, 1, 1, 0]],
        "unit": [[1, 0], [0, 0]], "counit": [[1, 0], [1, 0]],
    }
    with pytest.raises(AxiomError) as err:
        load_algebra(doc)
    assert err.value.axiom == "associativity"
    assert abs(err.value.residual - 1.0) < 1e-12


# -- malformed specs ----------------------------------------------------------------

FUZZ_MODELS = ("z2-regular", "z3-regular", "dihedral-3")
FUZZ_SPECS = {name: algebra_to_dict(zoo.model(name).algebra) for name in FUZZ_MODELS}
DELETE = object()


def spec_fields(doc, path=()):
    """Every field of a spec document, as a path of keys and list indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from spec_fields(value, path + (key,))


def mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


FIELD_VALUES = st.one_of(
    st.just(DELETE), st.none(), st.booleans(),
    st.integers(-3, 40), st.sampled_from([10 ** 6, 10 ** 20, 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1", "0.5", "nan", "-inf", "1e400", "abc", "", "hopf",
                     "weak-hopf", "bialgebra"]),
    st.lists(st.one_of(st.integers(-1, 3), st.text(max_size=2)), max_size=6),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_spec_raises_only_spec_or_axiom_errors(data):
    # one field of a zoo spec replaced by anything, or deleted: the spec
    # loads, or fails with AlgebraSpecError or AxiomError and nothing else
    name = data.draw(st.sampled_from(FUZZ_MODELS))
    doc = FUZZ_SPECS[name]
    path = data.draw(st.sampled_from(list(spec_fields(doc))))
    bad = mutated(doc, path, data.draw(FIELD_VALUES))
    try:
        load_algebra(bad)
    except (AlgebraSpecError, AxiomError):
        pass


@pytest.mark.parametrize("path,value", [
    (("mult", 0, 0), None), (("mult", 0, 1), 0.5), (("mult", 0, 2), "0"),
    (("comult", 1, 0), True), (("mult", 0, 3), "nan"), (("mult", 0, 4), "1e400"),
    (("dim",), 10 ** 6),
], ids=["null", "half", "string", "bool", "nan", "overflow", "huge-dim"])
def test_malformed_spec_field_is_a_spec_error(path, value):
    with pytest.raises(AlgebraSpecError):
        load_algebra(mutated(FUZZ_SPECS["z2-regular"], path, value))
