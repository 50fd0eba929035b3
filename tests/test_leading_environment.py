"""The leading-eigenpair helper that closes every transfer channel.

`mpo._leading_environment` is the only eigensolve of the state environments
and of the projector trace channel: on a degenerate leading eigenvalue it
returns the whole leading block, biorthonormal, and it raises before any
division on a matrix it cannot close.
"""

import warnings

import numpy as np
import pytest

from hopfbrick import mpo


def test_degenerate_leading_block_is_biorthonormal():
    rng = np.random.default_rng(0)
    S = rng.normal(size=(3, 3))
    M = S @ np.diag([1.0, 1.0, 0.5]) @ np.linalg.inv(S)
    lam, L, R = mpo._leading_environment(M)
    assert abs(lam - 1) < 1e-12
    assert L.shape == (2, 3) and R.shape == (3, 2)
    assert np.abs(L @ R - np.eye(2)).max() < 1e-12
    # sum_k r_k l_k^T is the spectral projector onto the eigenvalue-1 block
    projector = S @ np.diag([1.0, 1.0, 0.0]) @ np.linalg.inv(S)
    assert np.abs(R @ L - projector).max() < 1e-12


def test_simple_leading_eigenpair_is_normalized():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    lam, L, R = mpo._leading_environment(M)
    assert L.shape == (1, 5) and R.shape == (5, 1)
    assert abs(lam) == pytest.approx(np.abs(np.linalg.eigvals(M)).max(), rel=1e-12)
    assert np.abs(M @ R - lam * R).max() < 1e-12
    assert np.abs(L @ M - lam * L).max() < 1e-12
    assert abs((L @ R)[0, 0] - 1) < 1e-12


@pytest.mark.parametrize("M", [
    np.triu(np.random.default_rng(2).normal(size=(4, 4)), 1),      # nilpotent
    np.zeros((3, 3)),
    np.array([[1.0, np.nan], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
])
def test_unclosable_matrix_raises_before_dividing(M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eigenvalue zero|not finite"):
            mpo._leading_environment(M)


def test_degenerate_state_raises_without_warning():
    # A[0] = |0><1|, A[1] = |1><0|: the cell transfer matrix has eigenvalue 1
    # twice, and the state is rejected before anything is divided
    A = np.zeros((2, 2, 2))
    A[0, 0, 1] = A[1, 1, 0] = 1.0
    state = mpo.MPSState(rho_site=A, v_site=A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="degenerate"):
            state.environments()

