"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one PASS/FAIL line (visible with ``pytest -s``). The
whole module is budgeted to run on a laptop in well under ten minutes.
"""

import time

import numpy as np

from layered442.circuit import (
    DIMS_442,
    circuit_psi442,
    make_psi442,
    noisy_psi442,
)
from layered442.fixtures import REFERENCE_EXPERIMENT, load_measured_elements, load_measured_qkd_rows, qber_report_from_row
from layered442.hilbert import fidelity_pure, rank_vector
from layered442.qkd import (
    asymptotic_key_rate,
    key_map_ab,
    key_map_abc,
    sample_z_rounds,
)
from layered442.tomography import (
    estimate_elements,
    exact_records,
    monte_carlo_errors,
    simulate_counts,
    standard_plan,
    subspace_monte_carlo,
)
from layered442.witness import (
    OFFDIAG_PAIRS,
    RankVectorClass,
    certify_dimensionality,
    fidelity_from_elements,
    fmax_class_bound,
    gme_witnessed,
    search_class_overlap,
)

from conftest import empirical_mutual_information, random_density

RATE = REFERENCE_EXPERIMENT["counting_rate_per_s"]
TIME = REFERENCE_EXPERIMENT["integration_time_s"]
VIS = REFERENCE_EXPERIMENT["matched_visibility"]


def check(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_state_construction():
    t0 = time.perf_counter()
    _, layered = circuit_psi442()
    closed = make_psi442()
    distance = float(np.max(np.abs(layered.state.amplitudes - closed.amplitudes)))
    ranks = rank_vector(closed)
    elapsed = time.perf_counter() - t0
    check(
        1,
        distance < 1e-12 and ranks == (4, 4, 2) and elapsed < 1.0,
        f"circuit/closed-form distance {distance:.2e} (< 1e-12), "
        f"rank vector {ranks}, runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_witness_bound_and_search_oracle():
    t0 = time.perf_counter()
    bound = fmax_class_bound(make_psi442(), RankVectorClass((4, 3, 2)))
    overlaps = search_class_overlap(
        make_psi442(), RankVectorClass((4, 3, 2)), restarts=10000, seed=442
    )
    elapsed = time.perf_counter() - t0
    best = float(overlaps.max())
    check(
        2,
        abs(bound - 0.75) < 1e-12
        and best <= 0.75 + 1e-6
        and best >= 0.749
        and elapsed < 300.0,
        f"analytic bound {bound:.12f} (= 0.750), search best {best:.9f} over "
        f"{overlaps.size} restarts in [0.749, 0.750+1e-6], runtime {elapsed:.0f}s (< 5 min)",
    )


def test_criterion_3_fidelity_reproduction():
    diagonals, offdiagonals = load_measured_elements()
    f = fidelity_from_elements(diagonals, offdiagonals)
    cert = certify_dimensionality(f, REFERENCE_EXPERIMENT["fidelity_std"], 0.750)
    check(
        3,
        abs(f - 0.854) <= 0.001 and cert.sigma_margin >= 14.0 and cert.certified,
        f"measured-record fidelity {f:.4f} (0.854 +/- 0.001), "
        f"margin {cert.sigma_margin:.2f} sigma (>= 14) at sigma = 0.007",
    )


def test_criterion_4_monte_carlo_errors():
    rho = noisy_psi442(VIS)
    recs = simulate_counts(rho, standard_plan(RATE, TIME), seed=41)
    sigma_f = monte_carlo_errors(recs, trials=1000, seed=42).fidelity_std

    totals, sigmas = [], []
    for k, factor in enumerate((0.25, 2.5, 25.0, 250.0)):
        plan = standard_plan(RATE, TIME * factor)
        r = simulate_counts(rho, plan, seed=50 + k)
        result = monte_carlo_errors(r, trials=500, seed=60 + k)
        totals.append(sum(rec.counts for rec in r))
        sigmas.append(result.fidelity_std)
    slope = float(np.polyfit(np.log10(totals), np.log10(sigmas), 1)[0])
    decades = np.log10(totals[-1] / totals[0])
    check(
        4,
        0.004 <= sigma_f <= 0.012 and abs(slope + 0.5) <= 0.05 and decades >= 2.9,
        f"sigma(F) = {sigma_f:.4f} in [0.004, 0.012] at 0.66/s x 1800s "
        f"(brackets 0.007); scaling exponent {slope:.3f} (-0.5 +/- 0.05 "
        f"over {decades:.1f} decades)",
    )


def test_criterion_5_estimator_consistency():
    rng = np.random.default_rng(442442)
    plan = standard_plan(RATE, TIME)
    psi = make_psi442()
    worst = 0.0
    for _ in range(100):
        rho = random_density((4, 4, 2), rng)
        diag, off = estimate_elements(exact_records(rho, plan))
        f = fidelity_from_elements(diag, off)
        worst = max(worst, abs(f - fidelity_pure(rho, psi)))
    check(
        5,
        worst < 1e-9,
        f"infinite-statistics pipeline vs direct fidelity: max |diff| = "
        f"{worst:.2e} over 100 random states (< 1e-9)",
    )


def test_criterion_6_subspace_witnesses():
    ideal_diag, ideal_off = estimate_elements(
        exact_records(make_psi442().density(), standard_plan(RATE, TIME))
    )
    d = {e.bra: e.value for e in ideal_diag}
    o = {(e.bra, e.ket): e.value for e in ideal_off}
    ideal = {
        pair: (d[pair[0]] + d[pair[1]] + 2 * o[pair]) / (2 * (d[pair[0]] + d[pair[1]]))
        for pair in OFFDIAG_PAIRS
    }
    ideal_ok = all(abs(f - 1.0) < 1e-9 for f in ideal.values())

    threshold_ok = (not gme_witnessed(0.5)) and gme_witnessed(0.5 + 1e-9) and not gme_witnessed(0.3)

    recs = simulate_counts(noisy_psi442(VIS), standard_plan(RATE, TIME), seed=43)
    noisy = {pair: subspace_monte_carlo(recs, pair, trials=300, seed=44) for pair in OFFDIAG_PAIRS}
    noisy_ok = all(value > 0.85 for value, _ in noisy.values())
    lo = min(value for value, _ in noisy.values())
    check(
        6,
        ideal_ok and threshold_ok and noisy_ok and len(ideal) == 6,
        f"six ideal subspace fidelities = 1 (max dev {max(abs(f - 1) for f in ideal.values()):.1e}), "
        f"GME flag strict at 0.5, noisy pipeline min fidelity {lo:.3f} (> 0.85)",
    )


def test_criterion_7_layer_correctness():
    rho = make_psi442().density()
    z = np.column_stack(np.unravel_index(sample_z_rounds(rho, 100000, seed=45), DIMS_442))
    abc = np.vectorize(key_map_abc)(z)
    ab = np.vectorize(key_map_ab)(z[:, :2])
    agree_abc = float(np.mean((abc[:, 0] == abc[:, 1]) & (abc[:, 0] == abc[:, 2])))
    agree_ab = float(np.mean(ab[:, 0] == ab[:, 1]))
    mi = empirical_mutual_information(np.vectorize(key_map_ab)(z[:, 0]), z[:, 2])
    check(
        7,
        agree_abc == 1.0 and agree_ab == 1.0 and mi < 0.01,
        f"over 1e5 ideal rounds: k_ABC agreement {agree_abc}, k_AB agreement "
        f"{agree_ab}, MI(k_AB; C) = {mi:.2e} bits (< 0.01)",
    )


def test_criterion_8_key_rates(tmp_path):
    rows = load_measured_qkd_rows()
    rates = [asymptotic_key_rate(qber_report_from_row(r)).rate_mean for r in rows]
    row1_ok = abs(rates[0] - 0.4286) <= 0.001 and abs(rates[0] - 0.428) <= 0.001
    rest_ok = all(abs(r - row["key_per_round"]) < 0.06 for r, row in zip(rates, rows))

    from layered442.cli import main

    code = main(["--out", str(tmp_path), "--no-timestamp", "qkd", "--fixture"])
    table = (tmp_path / "qkd_report.csv").read_text()
    emitted = code == 0 and "key_per_round_published" in table and "abs_discrepancy" in table
    diffs = ", ".join(
        f"{row['subspace']}: {r:.4f} vs {row['key_per_round']}" for r, row in zip(rates, rows)
    )
    check(
        8,
        row1_ok and rest_ok and emitted,
        f"row 1 rate {rates[0]:.4f} (0.4286 +/- 0.001); computed vs printed "
        f"within 0.06 for all rows ({diffs}); discrepancy table emitted",
    )


def test_criterion_9_post_selection_accounting():
    fused, layered = circuit_psi442()
    p1, p2 = fused.success_probability, layered.success_probability
    check(
        9,
        abs(p1 - 0.5) <= 1e-12 and abs(p2 - 0.5) <= 1e-12,
        f"PBS fusion probability {p1:.15f}, dimension-doubling probability "
        f"{p2:.15f} (both 1/2 +/- 1e-12)",
    )
