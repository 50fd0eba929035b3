"""The contracted axiom and (co)representation residuals against loop forms.

`axiom_reference` evaluates every identity element by element from the
nonzero entries of the structure constants.  On a valid algebra both sides
read ~0, so a wrong contraction would pass there unnoticed; the seeded
perturbations add noise to every structure constant, the unit, counit, antipode and star (and to the model's rho and v),
so each residual is of order one and a wrong formula shows.
"""

import numpy as np
import pytest

import axiom_reference as ref
from hopfbrick import (AxiomError, Corepresentation, Representation, check_axioms,
                       check_corepresentation, check_representation, corep_to_dual_rep,
                       dual_algebra, regular_corepresentation, regular_representation,
                       rep_to_dual_corep, zoo)
from hopfbrick.algebra import _AXIOMS, AlgebraData, structure_tensor

REL = 1e-12
SCALE = 0.1

RESIDUALS = {name: fn for axioms in _AXIOMS.values() for name, fn in axioms
             if name != "faithful-star-rep"}


def _noise(rng, shape):
    return SCALE * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _perturbed_rank3(rng, T):
    """Noise on every nonzero entry, plus noise on a few new random entries."""
    nz = np.argwhere(T != 0)
    extra = rng.integers(0, T.shape[0], size=(max(2, len(nz) // 4), 3))
    idx = np.vstack([nz, extra])
    vals = np.concatenate([T[tuple(nz.T)], np.zeros(len(extra))])
    return structure_tensor(T.shape[0], idx, vals + _noise(rng, len(vals)))


def perturbed(A, seed):
    rng = np.random.default_rng(seed)
    d = A.dim
    return AlgebraData(d, list(A.basis_labels), _perturbed_rank3(rng, A.mult),
                       _perturbed_rank3(rng, A.comult), A.unit + _noise(rng, d),
                       A.counit + _noise(rng, d), antipode=A.antipode + _noise(rng, (d, d)),
                       star=A.star + _noise(rng, (d, d)), tier=A.tier, name=f"perturbed({A.name})")


def _close(new, old):
    return abs(new - old) <= REL * max(1.0, abs(old))


def _cases():
    for seed, name in enumerate(zoo.MODELS):
        pair = zoo.model(name)
        for dual in (False, True):
            A = dual_algebra(pair.algebra) if dual else pair.algebra
            label = f"{'dual-' if dual else ''}{name}"
            yield pytest.param(A, id=label)
            yield pytest.param(perturbed(A, 2 * seed + dual), id=f"perturbed-{label}")


@pytest.mark.parametrize("A", list(_cases()))
def test_axiom_residuals_match_loop_reference(A):
    assert set(RESIDUALS) == set(ref.AXIOMS)
    # in dimension one (swap) associativity and coassociativity hold for any constants
    perturbed_case = A.name.startswith("perturbed") and A.dim > 1
    for name, fn in RESIDUALS.items():
        old, new = ref.AXIOMS[name](A), fn(A)
        assert _close(new, old), (name, new, old)
        if perturbed_case:
            assert old > 1e-3, (name, old)      # the perturbation reaches every identity


def _rep_cases():
    for seed, name in enumerate(zoo.MODELS):
        pair = zoo.model(name)
        A = pair.algebra
        yield pytest.param(pair.rho, id=f"{name}-rho")
        yield pytest.param(pair.v, id=f"{name}-v")
        yield pytest.param(Representation(A, regular_representation(A).matrices, star=True),
                           id=f"{name}-regular-rho")
        yield pytest.param(Corepresentation(A, regular_corepresentation(A).entries, unitary=True),
                           id=f"{name}-regular-v")
        yield pytest.param(rep_to_dual_corep(pair.rho), id=f"{name}-dual-v")
        yield pytest.param(corep_to_dual_rep(pair.v), id=f"{name}-dual-rho")
        rng = np.random.default_rng(100 + seed)
        B = perturbed(A, 100 + seed)
        m = pair.rho.matrices
        yield pytest.param(Representation(B, m + _noise(rng, m.shape), star=True),
                           id=f"{name}-perturbed-rho")
        e = pair.v.entries
        yield pytest.param(Corepresentation(B, e + _noise(rng, e.shape), unitary=True),
                           id=f"{name}-perturbed-v")


@pytest.mark.parametrize("rep", list(_rep_cases()))
def test_rep_residuals_match_loop_reference(rep):
    if isinstance(rep, Representation):
        new, old = check_representation(rep), ref.representation(rep)
    else:
        new, old = check_corepresentation(rep), ref.corepresentation(rep)
    assert set(new) - {"pass"} == set(old)
    for key, val in old.items():
        assert _close(new[key], val), (key, new[key], val)
    if rep.algebra.name.startswith("perturbed"):
        assert min(old.values()) > 1e-3


def test_undeclared_structure_raises():
    A = zoo.model("dihedral-3").algebra
    bare = AlgebraData(A.dim, A.basis_labels, A.mult, A.comult, A.unit, A.counit,
                       tier="bialgebra")
    for tier, axiom in (("hopf", "antipode"), ("weak-hopf", "antipode")):
        with pytest.raises(AxiomError, match=axiom):
            check_axioms(bare, tier)
    with_s = AlgebraData(A.dim, A.basis_labels, A.mult, A.comult, A.unit, A.counit,
                         antipode=A.antipode, tier="hopf")
    with pytest.raises(AxiomError, match="star"):
        check_axioms(with_s, "star-hopf")
    v = Corepresentation(with_s, zoo.model("dihedral-3").v.entries, unitary=True)
    with pytest.raises(AxiomError, match="antipode and star"):
        check_corepresentation(v)
    rho = Representation(with_s, zoo.model("dihedral-3").rho.matrices, star=True)
    with pytest.raises(AxiomError, match="star"):
        check_representation(rho)
