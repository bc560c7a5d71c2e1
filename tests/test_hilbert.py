import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered442.circuit import make_psi442
from layered442.hilbert import (
    DensityOperator,
    PureState,
    fidelity_pure,
    haar_random_state,
    rank_vector,
    schmidt_decompose,
)

from conftest import basis_state, partial_trace, random_density


def ghz_state(n=3, d=2):
    amps = np.zeros(d**n, dtype=complex)
    for k in range(d):
        amps[int(sum(k * d**p for p in range(n)))] = 1.0
    return PureState((d,) * n, amps / np.linalg.norm(amps))


class TestConstruction:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState((2,), np.array([1.0, 1.0]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.array([1.0, 0.0]))

    def test_density_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityOperator((2,), np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator((2,), np.diag([1.5, -0.5]))

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            PureState((0, 2), np.array([1.0]))

    def test_amplitudes_immutable(self):
        psi = basis_state((2, 2), (0, 0))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestPartialTrace:
    """The reduced-state oracle that the Schmidt tests rebuild."""

    def test_psi442_party_a_maximally_mixed(self):
        rho = make_psi442().density()
        red = partial_trace(rho, (0,))
        assert red.dims == (4,)
        assert np.allclose(red.matrix, np.eye(4) / 4, atol=1e-12)

    def test_psi442_party_c(self):
        red = partial_trace(make_psi442().density(), (2,))
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        rho = basis_state((2, 2), (0, 0)).density()
        red = partial_trace(rho, (0,))
        assert np.allclose(red.matrix, np.diag([1.0, 0.0]))

    def test_keep_two_parties(self):
        rho = make_psi442().density()
        red = partial_trace(rho, (0, 1))
        assert red.dims == (4, 4)
        assert abs(np.trace(red.matrix) - 1) < 1e-12

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2)])
    def test_trace_and_hermiticity_preserved(self, keep, rng):
        for _ in range(20):
            rho = random_density((2, 3, 2), rng)
            red = partial_trace(rho, keep)
            assert abs(np.trace(red.matrix).real - 1) < 1e-10
            assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-10


def assert_reduced_state_rebuilt(psi: PureState, party: int):
    """U diag(s^2) U^dagger from the Schmidt data equals the partial_trace oracle."""
    data = schmidt_decompose(psi, party)
    u = data.left_vectors
    rebuilt = (u * data.coefficients**2) @ u.conj().T
    assert np.max(np.abs(rebuilt - partial_trace(psi.density(), (party,)).matrix)) < 1e-10


class TestSchmidt:
    def test_psi442_cut_c(self):
        data = schmidt_decompose(make_psi442(), 2)
        assert np.allclose(data.coefficients**2, [0.5, 0.5], atol=1e-12)

    def test_psi442_cut_a(self):
        data = schmidt_decompose(make_psi442(), 0)
        assert np.allclose(data.coefficients, [0.5] * 4, atol=1e-12)

    def test_product_state_single_coefficient(self):
        data = schmidt_decompose(basis_state((2, 2), (0, 0)), 0)
        assert abs(data.coefficients[0] - 1) < 1e-12
        assert np.all(data.coefficients[1:] < 1e-12)

    def test_coefficients_sorted_and_normalized(self, rng):
        psi = haar_random_state((4, 4, 2), rng)
        data = schmidt_decompose(psi, 1)
        assert np.all(np.diff(data.coefficients) <= 1e-15)
        assert abs(np.sum(data.coefficients**2) - 1) < 1e-10

    def test_reconstruction_random_states(self, rng):
        # 1000 random pure states, dims up to (4, 4, 2), every single-party cut
        for dims in [(2, 2), (2, 3), (4, 4, 2), (2, 2, 2)]:
            for _ in range(250):
                psi = haar_random_state(dims, rng)
                for party in range(len(dims)):
                    assert_reduced_state_rebuilt(psi, party)

    def test_improper_cut_rejected(self):
        psi = make_psi442()
        for party in (3, -1):
            with pytest.raises(ValueError, match=rf"party {party} out of range \(have 3 parties\)"):
                schmidt_decompose(psi, party)


def gram_rank(psi: PureState, party: int, tol=1e-8) -> int:
    """SVD-free cross-check: eigenvalues of the single-party Gram matrix."""
    n = psi.num_parties
    rest = tuple(p for p in range(n) if p != party)
    mat = np.transpose(psi.amplitudes.reshape(psi.dims), (party,) + rest)
    mat = mat.reshape(psi.dims[party], -1)
    eigs = np.linalg.eigvalsh(mat @ mat.conj().T)
    return int(np.sum(eigs > (tol * math.sqrt(max(eigs.max(), 0.0))) ** 2))


class TestRankVector:
    def test_psi442(self):
        assert rank_vector(make_psi442()) == (4, 4, 2)

    def test_ghz(self):
        assert rank_vector(ghz_state()) == (2, 2, 2)

    def test_product(self):
        assert rank_vector(basis_state((2, 2, 2), (0, 0, 0))) == (1, 1, 1)

    def test_matches_gram_matrix_oracle(self, rng):
        for _ in range(50):
            psi = haar_random_state((4, 4, 2), rng)
            assert rank_vector(psi) == tuple(gram_rank(psi, p) for p in range(3))

    def test_low_rank_state(self):
        # |00> + |11> embedded in dims (4, 4): rank 2 per party
        amps = np.zeros(16)
        amps[0] = amps[5] = 1 / math.sqrt(2)
        assert rank_vector(PureState((4, 4), amps)) == (2, 2)


def ginibre_unitary(d, rng):
    """Unitary Q factor of a complex Ginibre matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), party=st.integers(0, 2), data=st.data())
def test_local_unitaries_keep_a_truncated_rank(seed, party, data):
    dims = (4, 4, 2)
    cap = data.draw(st.integers(1, dims[party] - 1), label="cap")
    rng = np.random.default_rng(seed)
    amps = np.moveaxis(haar_random_state(dims, rng).amplitudes.reshape(dims), party, 0)
    u, s, vh = np.linalg.svd(amps.reshape(dims[party], -1), full_matrices=False)
    s[cap:] = 0.0
    truncated = np.moveaxis(((u * s) @ vh).reshape(amps.shape), 0, party).reshape(-1)
    local = functools.reduce(np.kron, [ginibre_unitary(d, rng) for d in dims])
    moved = PureState(dims, local @ truncated / np.linalg.norm(truncated))
    assert np.all(schmidt_decompose(moved, party).coefficients[cap:] <= 1e-12)


class TestFidelity:
    def test_self_fidelity(self):
        psi = make_psi442()
        assert abs(fidelity_pure(psi.density(), psi) - 1) < 1e-12

    def test_maximally_mixed(self):
        rho = DensityOperator((4, 4, 2), np.eye(32) / 32)
        assert abs(fidelity_pure(rho, make_psi442()) - 1 / 32) < 1e-12

    def test_single_term_overlap(self):
        rho = basis_state((4, 4, 2), (0, 0, 0)).density()
        assert abs(fidelity_pure(rho, make_psi442()) - 0.25) < 1e-12

    def test_matches_direct_contraction(self, rng):
        psi = make_psi442()
        proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
        for _ in range(20):
            rho = random_density((4, 4, 2), rng)
            direct = np.trace(rho.matrix @ proj).real
            assert abs(fidelity_pure(rho, psi) - direct) < 1e-12

    def test_dims_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity_pure(random_density((2, 2), rng), make_psi442())
