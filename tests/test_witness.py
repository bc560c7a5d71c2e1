import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered442.circuit import ALL_KETS, make_psi442
from layered442.fixtures import REFERENCE_EXPERIMENT, load_measured_elements
from layered442.hilbert import (
    PureState,
    fidelity_pure,
    haar_random_state,
    rank_vector,
    schmidt_decompose,
)
from layered442 import witness
from layered442.witness import (
    OFFDIAG_PAIRS,
    Certification,
    ElementEstimate,
    RankVectorClass,
    certify_dimensionality,
    class_bound_with_cuts,
    fidelity_from_elements,
    fmax_class_bound,
    ghz_witness_value,
    gme_witnessed,
    offdiag_from_correlators,
    offdiag_from_pair_correlators,
    search_class_overlap,
    subspace_fidelity,
)

from conftest import flat_index, random_density


# ---------------------------------------------------------------------------
# Dense operator oracle for the correlator decomposition: builds the sigma
# strings as explicit matrices, independent of the estimator code.
# ---------------------------------------------------------------------------


def sigma(axis, a, b, d):
    m = np.zeros((d, d), dtype=complex)
    if axis == "x":
        m[a, b] = m[b, a] = 1.0
    else:
        m[a, b] = 1j
        m[b, a] = -1j
    return m


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def triple_expectations(rho, pairs):
    """Full-distribution expectations of the four sigma strings."""
    (ia, la), (ib, lb), (ic, lc) = pairs
    ops = [
        kron3(sigma("x", ia, la, 4), sigma("x", ib, lb, 4), sigma("x", ic, lc, 2)),
        kron3(sigma("y", ia, la, 4), sigma("y", ib, lb, 4), sigma("x", ic, lc, 2)),
        kron3(sigma("y", ia, la, 4), sigma("x", ib, lb, 4), sigma("y", ic, lc, 2)),
        kron3(sigma("x", ia, la, 4), sigma("y", ib, lb, 4), sigma("y", ic, lc, 2)),
    ]
    return [float(np.trace(rho @ op).real) for op in ops]


def pair_expectations(rho, pairs, c_digit):
    (ia, la), (ib, lb) = pairs
    proj = np.zeros((2, 2))
    proj[c_digit, c_digit] = 1.0
    xx = kron3(sigma("x", ia, la, 4), sigma("x", ib, lb, 4), proj)
    yy = kron3(sigma("y", ia, la, 4), sigma("y", ib, lb, 4), proj)
    return float(np.trace(rho @ xx).real), float(np.trace(rho @ yy).real)


def ideal_elements():
    """Exact element estimates of the pure layered state."""
    psi = make_psi442()
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    diags = tuple(
        ElementEstimate(k, k, float(proj[flat_index(k), flat_index(k)].real)) for k in ALL_KETS
    )
    offs = tuple(
        ElementEstimate(a, b, float(proj[flat_index(a), flat_index(b)].real))
        for a, b in OFFDIAG_PAIRS
    )
    return diags, offs


def cut_overlap(target: PureState, party: int, cap: int) -> float:
    """``cuts[(party, cap)]`` of :func:`class_bound_with_cuts`, for a class that caps only ``party``."""
    ranks = list(target.dims)
    ranks[party] = cap
    return class_bound_with_cuts(target, RankVectorClass(ranks))[1][(party, cap)]


class TestMaxOverlap:
    def test_rank3_cut_a(self):
        assert abs(cut_overlap(make_psi442(), 0, 3) - 0.75) < 1e-12

    def test_rank2_cut_c(self):
        assert abs(cut_overlap(make_psi442(), 2, 2) - 1.0) < 1e-12

    def test_full_rank_reaches_one(self, rng):
        psi = haar_random_state((4, 4, 2), rng)
        assert abs(cut_overlap(psi, 0, 4) - 1.0) < 1e-10
        # A cap above the party's Schmidt rank (2 here, from the qubit) also reaches one.
        assert abs(cut_overlap(haar_random_state((4, 2), rng), 0, 3) - 1.0) < 1e-10

    def test_monotone_in_rank(self, rng):
        psi = haar_random_state((4, 4, 2), rng)
        vals = [cut_overlap(psi, 1, r) for r in range(1, 5)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) < 1e-10

    def test_rank_range(self):
        # Caps below 1 are refused; members never cap a party above its dimension.
        with pytest.raises(ValueError, match=r"rank caps must be >= 1, got \(0, 4, 2\)"):
            RankVectorClass((0, 4, 2))
        with pytest.raises(ValueError, match=r"no permutation of \(5, 4, 2\) fits dims"):
            RankVectorClass((5, 4, 2)).members((4, 4, 2))
        assert RankVectorClass((4, 2, 1)).members((4, 4, 2)) == (
            (1, 4, 2), (2, 4, 1), (4, 1, 2), (4, 2, 1))


class TestClassBound:
    def test_432_class_is_three_quarters(self):
        bound = fmax_class_bound(make_psi442(), RankVectorClass((4, 3, 2)))
        assert abs(bound - 0.75) < 1e-12

    def test_members(self):
        cls = RankVectorClass((4, 3, 2))
        assert cls.members((4, 4, 2)) == ((3, 4, 2), (4, 3, 2))

    def test_invalid_members(self):
        with pytest.raises(ValueError):
            RankVectorClass((5, 5, 5)).members((4, 4, 2))

    def test_ghz_212_class(self):
        amps = np.zeros(8)
        amps[0] = amps[7] = 1 / math.sqrt(2)
        ghz = PureState((2, 2, 2), amps)
        assert abs(fmax_class_bound(ghz, RankVectorClass((2, 1, 2))) - 0.5) < 1e-12

    def test_full_rank_class(self):
        bound = fmax_class_bound(make_psi442(), RankVectorClass((4, 4, 2)))
        assert abs(bound - 1.0) < 1e-12

    def test_search_stays_below_bound(self):
        overlaps, _ = search_class_overlap(make_psi442(), RankVectorClass((4, 3, 2)),
                                           restarts=300, seed=7)
        assert overlaps.max() <= 0.75 + 1e-6
        assert overlaps.max() >= 0.749

    def test_search_deterministic(self):
        a, _ = search_class_overlap(make_psi442(), RankVectorClass((4, 3, 2)), 20, seed=3)
        b, _ = search_class_overlap(make_psi442(), RankVectorClass((4, 3, 2)), 20, seed=3)
        assert np.array_equal(a, b)


#: Every rank vector with some party permutation that fits dims (4, 4, 2).
VALID_CLASSES = tuple(
    ranks for ranks in itertools.product(range(1, 5), repeat=3)
    if any(all(r <= d for r, d in zip(perm, (4, 4, 2))) for perm in itertools.permutations(ranks))
)


@settings(max_examples=60, deadline=None)
@given(ranks=st.sampled_from(VALID_CLASSES), seed=st.integers(0, 2**16))
def test_search_never_exceeds_class_bound(ranks, seed):
    target, cls = make_psi442(), RankVectorClass(ranks)
    overlaps, _ = search_class_overlap(target, cls, 4, seed)
    assert overlaps.max() <= fmax_class_bound(target, cls) + 1e-9


def test_search_reaches_every_class_bound():
    target = make_psi442()
    missed = {}
    for ranks in VALID_CLASSES:
        cls = RankVectorClass(ranks)
        best, bound = search_class_overlap(target, cls, 4, 0)[0].max(), fmax_class_bound(target, cls)
        if best < bound - 1e-9:
            missed[ranks] = (best, bound)
    assert len(VALID_CLASSES) == 56
    assert missed == {}


def _full_sweep_search(target, cls, restarts, seed):
    """Reference search: member k's starts from the stream (seed, k, 3), then every sweep."""
    members = cls.members(target.dims)
    out = np.empty(restarts)
    for k, member in enumerate(members[:restarts]):
        rng = np.random.default_rng([seed, k, 3])
        starts = [haar_random_state(target.dims, rng) for _ in range(k, restarts, len(members))]
        isometries = [(p, np.stack([schmidt_decompose(phi, p).left_vectors[:, :cap]
                                    for phi in starts]))
                      for p, cap in enumerate(member) if cap < target.dims[p]]
        for _ in range(witness.SEESAW_SWEEPS):
            isometries, overlaps = witness._sweep(target, isometries)
        out[k::len(members)] = overlaps
    return out


def _constrained_parties(member, dims=(4, 4, 2)):
    return sum(cap < d for cap, d in zip(member, dims))


@pytest.mark.parametrize("seed", [0, 5, 1234])
def test_early_stopping_matches_full_sweeps(seed):
    # On a Haar-random target the overlaps depend on the starts, so the stream is checked too.
    for target in (make_psi442(), haar_random_state((4, 4, 2), np.random.default_rng(seed))):
        for ranks in VALID_CLASSES:
            cls = RankVectorClass(ranks)
            found, _ = search_class_overlap(target, cls, 12, seed)
            full = _full_sweep_search(target, cls, 12, seed)
            if all(_constrained_parties(m) == 0 for m in cls.members(target.dims)):
                # ||target||^2, whatever the start and the sweeps.
                assert np.array_equal(found, full), ranks
            else:
                # A one-cut member's closed form reaches the same optimum by other arithmetic.
                assert np.max(np.abs(found - full)) <= 1e-12, ranks


@pytest.mark.parametrize("ranks, restarts, starts, sweeps", [
    ((4, 3, 2), 100, 0, 0),  # one constrained party per member: built, not searched
    ((4, 3, 2), 1, 0, 0),
    ((3, 3, 2), 100, 100, None),  # two constrained parties: one start per restart
])
def test_search_draws_no_start_for_members_with_one_constrained_party(
        monkeypatch, ranks, restarts, starts, sweeps):
    calls = {"starts": 0, "sweeps": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(witness, "haar_random_state", counted("starts", witness.haar_random_state))
    monkeypatch.setattr(witness, "_sweep", counted("sweeps", witness._sweep))
    overlaps, reported = search_class_overlap(make_psi442(), RankVectorClass(ranks), restarts,
                                              seed=11)
    assert overlaps.shape == (restarts,)
    assert calls["starts"] == starts
    assert reported == calls["sweeps"]
    if sweeps is not None:
        assert calls["sweeps"] == sweeps


#: Classes with a member that constrains exactly one party of (4, 4, 2).
ONE_CUT_CLASSES = tuple(
    ranks for ranks in VALID_CLASSES
    if any(_constrained_parties(m) == 1 for m in RankVectorClass(ranks).members((4, 4, 2))))


@settings(max_examples=40, deadline=None)
@given(ranks=st.sampled_from(ONE_CUT_CLASSES), seed=st.integers(0, 2**32 - 1))
def test_one_cut_member_is_built_at_its_cut_overlap(ranks, seed):
    target = haar_random_state((4, 4, 2), np.random.default_rng(seed))
    cls = RankVectorClass(ranks)
    members = cls.members(target.dims)
    _, cuts = class_bound_with_cuts(target, cls)
    full = _full_sweep_search(target, cls, 12, seed)
    for k, member in enumerate(members):
        if _constrained_parties(member) != 1:
            continue
        (p, cap), = [(p, cap) for p, cap in enumerate(member) if cap < target.dims[p]]
        state, reported = witness._schmidt_truncation(target, p, cap)
        overlap = abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2
        assert rank_vector(state)[p] <= cap
        assert abs(overlap - reported) <= 1e-12
        assert abs(overlap - min(cuts[(q, c)] for q, c in enumerate(member))) <= 1e-12
        assert overlap >= full[k::len(members)].max() - 1e-12


@settings(max_examples=40, deadline=None)
@given(ranks=st.sampled_from(VALID_CLASSES), seed=st.integers(0, 2**16))
def test_search_never_exceeds_bound_on_haar_targets(ranks, seed):
    target, cls = haar_random_state((4, 4, 2), np.random.default_rng(seed)), RankVectorClass(ranks)
    overlaps, _ = search_class_overlap(target, cls, 4, seed)
    assert overlaps.max() <= fmax_class_bound(target, cls) + 1e-9


@settings(max_examples=40, deadline=None)
@given(ranks=st.sampled_from(VALID_CLASSES), seed=st.integers(0, 2**16))
def test_sweeps_never_lower_the_overlap(ranks, seed):
    rng = np.random.default_rng(seed)
    target = haar_random_state((4, 4, 2), rng)
    member = RankVectorClass(ranks).members(target.dims)[-1]
    isometries = []
    for p, cap in enumerate(member):
        if cap < target.dims[p]:
            vectors, _ = np.linalg.qr(rng.normal(size=(3, target.dims[p], cap))
                                      + 1j * rng.normal(size=(3, target.dims[p], cap)))
            isometries.append((p, vectors))
    if not isometries:
        return
    tensor = target.amplitudes.reshape((1,) + target.dims)
    history = [np.sum(np.abs(witness._project(tensor, isometries)) ** 2, axis=(1, 2, 3))]
    for _ in range(8):
        isometries, overlaps = witness._sweep(target, isometries)
        attained = np.sum(np.abs(witness._project(tensor, isometries)) ** 2, axis=(1, 2, 3))
        assert np.allclose(overlaps, attained, rtol=0, atol=1e-12)
        history.append(np.broadcast_to(attained, (3,)))
    assert np.all(np.diff(history, axis=0) >= -1e-12)


class TestFidelityFromElements:
    def test_measured_record(self):
        diags, offs = load_measured_elements()
        f = fidelity_from_elements(diags, offs)
        assert abs(f - 0.854) <= 0.001

    def test_ideal_elements(self):
        diags, offs = ideal_elements()
        assert abs(fidelity_from_elements(diags, offs) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        diags = tuple(ElementEstimate(k, k, 1 / 32) for k in ALL_KETS)
        offs = tuple(ElementEstimate(a, b, 0.0) for a, b in OFFDIAG_PAIRS)
        assert abs(fidelity_from_elements(diags, offs) - 1 / 32) < 1e-12

    def test_matches_fidelity_pure_on_random_states(self, rng):
        psi = make_psi442()
        for _ in range(50):
            rho = random_density((4, 4, 2), rng)
            diags = tuple(
                ElementEstimate(k, k, float(rho.matrix[flat_index(k), flat_index(k)].real))
                for k in ALL_KETS
            )
            offs = tuple(
                ElementEstimate(a, b, float(rho.matrix[flat_index(a), flat_index(b)].real))
                for a, b in OFFDIAG_PAIRS
            )
            assert abs(fidelity_from_elements(diags, offs) - fidelity_pure(rho, psi)) < 1e-10

    def test_missing_diagonal_named(self):
        diags, offs = ideal_elements()
        with pytest.raises(ValueError, match=r"\|010><010\|"):
            fidelity_from_elements([e for e in diags if e.bra != "010"], offs)

    def test_missing_offdiagonal_named(self):
        diags, offs = ideal_elements()
        with pytest.raises(ValueError, match=r"\|000><220\|"):
            fidelity_from_elements(diags, [e for e in offs if (e.bra, e.ket) != ("000", "220")])

    def test_renormalization_band(self):
        diags, offs = ideal_elements()
        scaled = tuple(ElementEstimate(e.bra, e.ket, e.value * 0.9) for e in diags)
        with pytest.raises(ValueError, match="2% band"):
            fidelity_from_elements(scaled, offs)
        slightly = tuple(ElementEstimate(e.bra, e.ket, e.value * 0.99) for e in diags)
        assert abs(fidelity_from_elements(slightly, offs) - 1.0) < 1e-12


class TestCorrelators:
    def test_ideal_triple_element(self):
        rho = make_psi442().density().matrix
        exps = triple_expectations(rho, [(0, 1), (0, 1), (0, 1)])
        assert np.allclose(exps, [0.5, -0.5, -0.5, -0.5], atol=1e-12)
        assert abs(offdiag_from_correlators(*exps) - 0.25) < 1e-12

    def test_diagonal_state_has_no_coherence(self, rng):
        probs = rng.dirichlet(np.ones(32))
        rho = np.diag(probs).astype(complex)
        for pair in OFFDIAG_PAIRS:
            digit_pairs = [(int(pair[0][p]), int(pair[1][p])) for p in range(3)]
            if digit_pairs[2][0] != digit_pairs[2][1]:
                exps = triple_expectations(rho, digit_pairs)
                val = offdiag_from_correlators(*exps)
            else:
                xx, yy = pair_expectations(rho, digit_pairs[:2], digit_pairs[2][0])
                val = offdiag_from_pair_correlators(xx, yy)
            assert abs(val) < 1e-12

    def test_against_dense_contraction_random_states(self, rng):
        # 1000 random density operators across the six coherences
        psi_pairs = {
            pair: [(int(pair[0][p]), int(pair[1][p])) for p in range(3)]
            for pair in OFFDIAG_PAIRS
        }
        for n in range(1000):
            rho = random_density((4, 4, 2), rng)
            pair = OFFDIAG_PAIRS[n % len(OFFDIAG_PAIRS)]
            digit_pairs = psi_pairs[pair]
            direct = rho.matrix[flat_index(pair[0]), flat_index(pair[1])].real
            if digit_pairs[2][0] != digit_pairs[2][1]:
                exps = triple_expectations(rho.matrix, digit_pairs)
                val = offdiag_from_correlators(*exps)
            else:
                xx, yy = pair_expectations(rho.matrix, digit_pairs[:2], digit_pairs[2][0])
                val = offdiag_from_pair_correlators(xx, yy)
            assert abs(val - direct) < 1e-10

    def test_out_of_range_expectation(self):
        with pytest.raises(ValueError):
            offdiag_from_correlators(1.5, 0, 0, 0)
        with pytest.raises(ValueError):
            offdiag_from_pair_correlators(0.0, -2.0)
        with pytest.raises(ValueError, match="xxx = nan"):
            offdiag_from_correlators(float("nan"), 0, 0, 0)
        with pytest.raises(ValueError, match="yy = nan"):
            offdiag_from_pair_correlators(0.0, float("nan"))
        trials = np.array([0.5, -0.25, 1.0, -1.0])
        assert np.array_equal(offdiag_from_correlators(trials, 0, 0, 0), trials / 8)
        for bad in (1.5, -1.5, np.nan):
            with pytest.raises(ValueError, match=f"xyy = {bad}"):
                offdiag_from_correlators(0, 0, 0, np.append(trials, bad))
            with pytest.raises(ValueError, match=f"xx = {bad}"):
                offdiag_from_pair_correlators(np.insert(trials, 2, bad), trials)


class TestSubspaceFidelity:
    def test_ideal_renormalized(self):
        assert abs(subspace_fidelity(0.25, 0.25, 0.25) - 1.0) < 1e-12

    def test_incoherent_boundary(self):
        assert abs(subspace_fidelity(0.5, 0.5, 0.0) - 0.5) < 1e-12

    def test_zero_population(self):
        with pytest.raises(ValueError):
            subspace_fidelity(0.0, 0.0, 0.0)

    def test_at_most_one_on_two_term_superpositions(self, rng):
        # F <= 1 with equality only for the balanced, in-phase combination
        for _ in range(200):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / norm, b / norm
            d1, d2 = abs(a) ** 2, abs(b) ** 2
            off = (a * np.conj(b)).real
            f = subspace_fidelity(d1, d2, off)
            assert f <= 1 + 1e-12
        balanced = subspace_fidelity(0.5, 0.5, 0.5)
        assert abs(balanced - 1) < 1e-12
        dephased = subspace_fidelity(0.5, 0.5, 0.35)
        assert dephased < 1


class TestWitnessAndCertification:
    def test_witness_value_sign(self):
        # operator form I/2 - P: negative expectation witnesses GME
        assert abs(ghz_witness_value(0.910) - (-0.410)) < 1e-12
        assert gme_witnessed(0.910)

    def test_boundary(self):
        assert abs(ghz_witness_value(0.5)) < 1e-12
        assert not gme_witnessed(0.5)

    def test_maximal_violation(self):
        assert abs(ghz_witness_value(1.0) - (-0.5)) < 1e-12

    def test_certify_reference_values(self):
        cert = certify_dimensionality(0.854, 0.007, 0.750)
        assert isinstance(cert, Certification)
        assert cert.certified
        assert abs(cert.sigma_margin - (0.854 - 0.750) / 0.007) < 1e-12
        assert math.floor(cert.sigma_margin) == REFERENCE_EXPERIMENT["sigma_margin_floor"]

    def test_boundary_not_certified(self):
        cert = certify_dimensionality(0.750, 0.01, 0.750)
        assert cert.sigma_margin == 0.0
        assert not cert.certified

    def test_below_bound(self):
        cert = certify_dimensionality(0.74, 0.01, 0.750)
        assert cert.sigma_margin < 0
        assert not cert.certified

    def test_std_must_be_positive(self):
        with pytest.raises(ValueError):
            certify_dimensionality(0.854, 0.0, 0.750)

    @pytest.mark.parametrize("std", [math.nan, math.inf])
    def test_std_must_be_finite(self, std):
        with pytest.raises(ValueError, match="positive finite"):
            certify_dimensionality(0.854, std, 0.750)
