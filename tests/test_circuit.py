import math

import numpy as np
import pytest

from layered442.circuit import (
    CircuitOutcome,
    PostSelectionError,
    apply_white_noise,
    bell_pair,
    circuit_psi442,
    dimension_double,
    ghz_fuse,
    hwp_matrix,
    make_psi442,
    pbs_coincidence,
    psi442_fidelity,
    visibility_for_fidelity,
)
from layered442.hilbert import PureState, fidelity_pure, rank_vector

from conftest import basis_state, flat_index, partial_trace

SQ2 = math.sqrt(2)


# ---------------------------------------------------------------------------
# Independent expansion oracles: explicit term-by-term bookkeeping, no
# shared code with the circuit module.
# ---------------------------------------------------------------------------


def fuse_oracle(amps1, amps2):
    """Expand all 16 product terms, keep photon2 == photon3 polarization,
    then project the trigger (photon 3) onto |+>."""
    kept_prob = 0.0
    out = {}
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for i4 in range(2):
                    amp = amps1[2 * i1 + i2] * amps2[2 * i3 + i4]
                    if amp == 0:
                        continue
                    if i2 == i3:
                        kept_prob += abs(amp) ** 2
                        key = (i1, i2, i4)
                        out[key] = out.get(key, 0.0) + amp / SQ2
    vec = np.zeros(8, dtype=complex)
    for (a, b, c), amp in out.items():
        vec[4 * a + 2 * b + c] = amp
    vec /= np.linalg.norm(vec)
    return vec, kept_prob


def doubler_oracle(amps):
    """Apply BD, HWPs at 22.5 deg and PBS coincidence to a two-qubit
    polarization state, tracking (pol, path) labels per photon."""
    hada = {
        ("H", "u"): [(("H", "u"), 1 / SQ2), (("V", "u"), 1 / SQ2)],
        ("V", "l"): [(("H", "l"), 1 / SQ2), (("V", "l"), -1 / SQ2)],
        ("H", "l"): [(("H", "l"), 1 / SQ2), (("V", "l"), 1 / SQ2)],
        ("V", "u"): [(("H", "u"), 1 / SQ2), (("V", "u"), -1 / SQ2)],
    }
    bd = {"H": ("H", "u"), "V": ("V", "l")}
    digit = {("H", "u"): 0, ("H", "l"): 1, ("V", "u"): 2, ("V", "l"): 3}
    terms = {}
    for i in range(2):
        for j in range(2):
            amp = amps[2 * i + j]
            if amp == 0:
                continue
            m1, m2 = bd["HV"[i]], bd["HV"[j]]
            for n1, a1 in hada[m1]:
                for n2, a2 in hada[m2]:
                    terms[(n1, n2)] = terms.get((n1, n2), 0.0) + amp * a1 * a2
    prob = 0.0
    vec = np.zeros(16, dtype=complex)
    for (n1, n2), amp in terms.items():
        if n1[0] == n2[0]:  # equal polarization survives coincidence
            prob += abs(amp) ** 2
            vec[4 * digit[n1] + digit[n2]] += amp
    vec /= np.linalg.norm(vec)
    return vec, prob


class TestWaveplates:
    def test_hwp_zero(self):
        assert np.allclose(hwp_matrix(0.0), np.diag([1, -1]))

    def test_hwp_hadamard(self):
        assert np.allclose(hwp_matrix(math.pi / 8), np.array([[1, 1], [1, -1]]) / SQ2)

    def test_hwp_swap(self):
        assert np.allclose(hwp_matrix(math.pi / 4), np.array([[0, 1], [1, 0]]))

    def test_unitarity_random_angles(self, rng):
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
            mat = hwp_matrix(theta)
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(2))) < 1e-12

    def test_hwp_at_22p5_reads_sigma_x_basis(self):
        h = hwp_matrix(math.pi / 8)
        plus = h @ (np.array([1, 1]) / SQ2)
        assert abs(abs(plus[0]) - 1) < 1e-12 and abs(plus[1]) < 1e-12


class TestBellPair:
    def test_amplitudes(self):
        psi = bell_pair()
        assert np.allclose(psi.amplitudes, [1 / SQ2, 0, 0, 1 / SQ2])

    def test_marginal(self):
        red = partial_trace(bell_pair().density(), (0,))
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_self_fidelity(self):
        psi = bell_pair()
        assert abs(fidelity_pure(psi.density(), psi) - 1) < 1e-12


class TestGhzFuse:
    def test_ideal_bell_inputs(self):
        out = ghz_fuse(bell_pair(), bell_pair())
        oracle_vec, oracle_prob = fuse_oracle(bell_pair().amplitudes, bell_pair().amplitudes)
        assert abs(out.success_probability - 0.5) < 1e-12
        assert abs(oracle_prob - 0.5) < 1e-12
        assert np.max(np.abs(out.state.amplitudes - oracle_vec)) < 1e-12
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1 / SQ2
        assert np.max(np.abs(out.state.amplitudes - ghz)) < 1e-12

    def test_hh_hh_inputs(self):
        # Only the HH.HH term exists and it survives coincidence with full
        # weight, so the post-selection succeeds with probability 1.
        hh = basis_state((2, 2), (0, 0))
        out = ghz_fuse(hh, hh)
        oracle_vec, oracle_prob = fuse_oracle(hh.amplitudes, hh.amplitudes)
        assert abs(out.success_probability - oracle_prob) < 1e-12
        assert abs(oracle_prob - 1.0) < 1e-12
        assert abs(out.state.amplitudes[0] - 1) < 1e-12

    def test_random_inputs_match_oracle(self, rng):
        from layered442.hilbert import haar_random_state

        for _ in range(25):
            p1 = haar_random_state((2, 2), rng)
            p2 = haar_random_state((2, 2), rng)
            out = ghz_fuse(p1, p2)
            vec, prob = fuse_oracle(p1.amplitudes, p2.amplitudes)
            assert abs(out.success_probability - prob) < 1e-12
            # global phase fixed by construction in both paths
            assert np.max(np.abs(out.state.amplitudes - vec)) < 1e-10

    def test_output_fidelity_with_ghz(self):
        out = ghz_fuse(bell_pair(), bell_pair())
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1 / SQ2
        target = PureState((2, 2, 2), ghz)
        assert abs(fidelity_pure(out.state.density(), target) - 1) < 1e-12

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            ghz_fuse(basis_state((2,), (0,)), bell_pair())

    def test_no_coincidence(self):
        hv = basis_state((2, 2), (0, 1))
        hh = basis_state((2, 2), (0, 0))
        with pytest.raises(PostSelectionError):
            ghz_fuse(hv, hh)


class TestDimensionDouble:
    def test_bell_input(self):
        out = dimension_double(bell_pair())
        assert out.state.dims == (4, 4)
        assert abs(out.success_probability - 0.5) < 1e-12
        expect = np.zeros(16)
        for d in range(4):
            expect[4 * d + d] = 0.5
        assert np.max(np.abs(out.state.amplitudes - expect)) < 1e-12
        vec, prob = doubler_oracle(bell_pair().amplitudes)
        assert abs(prob - 0.5) < 1e-12
        assert np.max(np.abs(out.state.amplitudes - vec)) < 1e-12

    def test_hh_input(self):
        # |H_u H_u> -> (|H_u+V_u>)(|H_u+V_u>)/2 -> coincidence keeps
        # |H_uH_u> + |V_uV_u>, i.e. (|00> + |22>)/sqrt(2) at probability 1/2.
        out = dimension_double(basis_state((2, 2), (0, 0)))
        vec, prob = doubler_oracle(basis_state((2, 2), (0, 0)).amplitudes)
        assert abs(out.success_probability - 0.5) < 1e-12
        assert abs(prob - 0.5) < 1e-12
        expect = np.zeros(16)
        expect[0] = expect[4 * 2 + 2] = 1 / SQ2
        assert np.max(np.abs(out.state.amplitudes - expect)) < 1e-12
        assert np.max(np.abs(vec - expect)) < 1e-12

    def test_random_inputs_match_oracle(self, rng):
        from layered442.hilbert import haar_random_state

        for _ in range(25):
            psi = haar_random_state((2, 2), rng)
            out = dimension_double(psi)
            vec, prob = doubler_oracle(psi.amplitudes)
            assert abs(out.success_probability - prob) < 1e-12
            assert np.max(np.abs(out.state.amplitudes - vec)) < 1e-10

    def test_spectator_party_untouched(self):
        fused, layered = circuit_psi442()
        assert layered.state.dims == (4, 4, 2)
        assert abs(layered.success_probability - 0.5) < 1e-12

    def test_wrong_dims_rejected(self):
        # A and B must be polarization qubits.
        with pytest.raises(ValueError, match="operator expects dimension 2, party has 4"):
            dimension_double(make_psi442())
        with pytest.raises(ValueError, match="party 1 out of range"):
            dimension_double(basis_state((2,), (0,)))


class TestClosedForm:
    def test_amplitudes(self):
        psi = make_psi442()
        assert psi.dims == (4, 4, 2)
        nonzero = {i: a for i, a in enumerate(psi.amplitudes) if abs(a) > 0}
        assert set(nonzero) == {flat_index(k) for k in ("000", "111", "220", "331")}
        assert all(abs(a - 0.5) < 1e-15 for a in nonzero.values())

    def test_rank_vector(self):
        assert rank_vector(make_psi442()) == (4, 4, 2)

    def test_circuit_equals_closed_form(self):
        _, layered = circuit_psi442()
        assert np.max(np.abs(layered.state.amplitudes - make_psi442().amplitudes)) < 1e-12

    def test_ghz_subspace_overlap(self):
        ghz2 = np.zeros(32)
        ghz2[flat_index("000")] = ghz2[flat_index("111")] = 1 / SQ2
        target = PureState((4, 4, 2), ghz2)
        assert abs(fidelity_pure(make_psi442().density(), target) - 0.5) < 1e-12


class TestWhiteNoise:
    def test_pure_limit(self):
        psi = make_psi442()
        rho = apply_white_noise(psi, 1.0)
        assert abs(fidelity_pure(rho, psi) - 1) < 1e-12

    def test_mixed_limit(self):
        psi = make_psi442()
        rho = apply_white_noise(psi, 0.0)
        assert np.allclose(rho.matrix, np.eye(32) / 32)

    def test_experiment_visibility(self):
        rho = apply_white_noise(make_psi442(), 0.8493)
        # F = v + (1 - v)/32
        assert abs(psi442_fidelity(rho) - 0.854009375) < 1e-12

    def test_visibility_inversion(self):
        v = visibility_for_fidelity(0.854)
        assert abs(v - 0.8493) < 1e-4
        rho = apply_white_noise(make_psi442(), v)
        assert abs(psi442_fidelity(rho) - 0.854) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_white_noise(make_psi442(), 1.2)


class TestElements:
    def test_outcome_probability_range(self):
        with pytest.raises(ValueError):
            CircuitOutcome(bell_pair(), 1.5)

    def test_pbs_coincidence_keeps_equal_ab_polarizations(self, rng):
        from layered442.hilbert import haar_random_state

        # Four-level A and B: a digit is V-polarized iff it is 2 or 3; C is a spectator.
        psi = haar_random_state((4, 4, 2), rng)
        keep = np.array([(a >= 2) == (b >= 2) for a, b, _ in np.ndindex(4, 4, 2)])
        kept = psi.amplitudes * keep
        prob = np.vdot(kept, kept).real
        out = pbs_coincidence(psi)
        assert abs(out.success_probability - prob) < 1e-12
        assert np.max(np.abs(out.state.amplitudes - kept / math.sqrt(prob))) < 1e-12
