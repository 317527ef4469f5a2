"""End-to-end acceptance suite: nine behavior guarantees, one test each.

Every numeric tolerance and time budget is pinned in the test body; a
test's single pass/fail line is the verdict for its guarantee.  Random
instances are drawn from a fixed seed so reruns are identical.
"""

import math
import time

import numpy as np
import pytest

from qfcert import (
    BoundaryPoint,
    CertificateError,
    Geodesic3,
    IsometryKind,
    MoebiusMap,
    RepresentationError,
    Word,
    bend,
    busemann_gap,
    certify,
    classify,
    compute_spectrum,
    conjugate_representation,
    diagnostic_delta,
    dist_h3,
    enumerate_words,
    estimate_growth,
    evaluate,
    find_complex_trace_element,
    find_separation_certificate,
    fuchsian_octagon,
    geodesic_point,
    normalize_spectrum,
    orbit_length_estimate,
    orbit_point_distances,
    point_near_geodesic,
    ratio_lower_bound,
    stable_length,
    triangle_harness,
    verify_witness_orders,
    witness_image_points,
)

SEED = 20260816

GENERATOR_LETTERS = (1, 2, 3, 4, -1, -2, -3, -4)


def test_1_relator_residual_stays_tiny_across_bend_angles():
    start = time.monotonic()
    reps = [fuchsian_octagon()]
    for angle in (0.0, 0.1, 0.3, 0.6, 1.0):
        reps.append(bend(fuchsian_octagon(), angle))
    worst = max(rep.relator_residual() for rep in reps)
    assert worst < 1e-9
    assert time.monotonic() - start < 1.0


def test_2_combined_length_inequalities_hold_at_word_length_three():
    start = time.monotonic()
    records = triangle_harness(fuchsian_octagon(), 3)  # raises on violation
    elapsed = time.monotonic() - start
    assert len(records) > 100
    assert np.abs(records.slack).min() > 1e-9
    assert elapsed < 30.0


def test_3_busemann_closed_form_matches_truncated_limit():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)

    def random_geodesic():
        while True:
            z1 = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
            z2 = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
            if abs(z1 - z2) > 1e-3:
                return Geodesic3(BoundaryPoint.from_complex(z1),
                                 BoundaryPoint.from_complex(z2))

    span = 20.0
    for _ in range(200):
        geo = random_geodesic()
        s = rng.uniform(-2.0, 2.0)
        r = rng.uniform(0.1, 4.0)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        p = point_near_geodesic(geo, s, r, psi)
        closed = busemann_gap(p, geo).value
        x = geodesic_point(geo, -span)
        y = geodesic_point(geo, span)
        truncated = dist_h3(p, x) + dist_h3(p, y) - dist_h3(x, y)
        assert abs(closed - truncated) < 1e-5
        assert closed > 1e-10  # off the geodesic, so strictly positive

    for _ in range(50):
        geo = random_geodesic()
        p = geodesic_point(geo, rng.uniform(-2.0, 2.0))
        assert busemann_gap(p, geo).value <= 1e-10  # on-geodesic: gap vanishes

    assert time.monotonic() - start < 5.0


def test_4_stable_length_matches_orbit_displacement_average():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    words = []
    while len(words) < 20:
        size = int(rng.integers(1, 4))
        letters = tuple(int(rng.choice(GENERATOR_LETTERS))
                        for _ in range(size))
        w = Word(letters)
        if len(w) > 0:
            words.append(w)
    for rep in (fuchsian_octagon(), bend(fuchsian_octagon(), 0.6)):
        for w in words:
            direct = stable_length(rep, w)
            averaged = orbit_length_estimate(rep, w, n=64)
            assert abs(direct - averaged) <= 0.01
    assert time.monotonic() - start < 10.0


def test_5_complex_trace_element_exists_only_off_the_plane():
    start = time.monotonic()
    found = find_complex_trace_element(bend(fuchsian_octagon(), 0.6), 4)
    assert 0 < len(found) <= 4

    ref = fuchsian_octagon()
    worst_imag = max(
        abs(evaluate(ref, w).trace.imag)
        for w in enumerate_words(4, mode="reduced"))
    assert worst_imag < 1e-9
    with pytest.raises(RepresentationError):
        find_complex_trace_element(ref, 4)
    assert time.monotonic() - start < 5.0


def test_6_spiral_witness_verifies_with_all_stated_inequalities(witness_run):
    w, rep = witness_run.witness, witness_run.rep
    assert witness_run.elapsed < 300.0
    assert verify_witness_orders(w, rep)

    for n_k, m_k in zip(w.indices_n, w.indices_m):
        assert (m_k - n_k) * abs(w.Theta) > 1.0
    for k in range(3):
        assert w.Lambda ** (w.indices_n[k + 1] - w.indices_m[k]) \
            > w.R0 / w.r0
    assert w.radii[0] < w.radii[1] < w.radii[2] < w.radii[3]

    p1, p2, p3, p4 = witness_image_points(w, rep)
    # cyclic order on the near-real image circle via cross-ratio signs:
    # spanning pairs (1,4)/(2,3) interleave, nested pairs (1,3)/(2,4) do not
    lam_span = ((p1 - p2) / (p1 - p3)) * ((p4 - p3) / (p4 - p2))
    lam_nest = ((p1 - p2) / (p1 - p4)) * ((p3 - p4) / (p3 - p2))
    assert lam_span.real < 0.0
    assert abs(lam_span.imag) < abs(lam_span.real)
    assert lam_nest.real > 0.0
    assert abs(lam_nest.imag) < lam_nest.real


def test_7_separation_certificate_found_validated_and_sound(bent_rep):
    start = time.monotonic()
    cert = find_separation_certificate(bent_rep, 4)
    assert cert.ratio > 1.0
    assert certify(cert, bent_rep)

    # soundness: the certified margin never exceeds the directly computed
    # ratio-of-ratios bound against any plane comparison representation,
    # where a plane representation keeps the pair's summed length below
    # its combined length
    ref = fuchsian_octagon()
    len_a = stable_length(ref, cert.a)
    len_b = stable_length(ref, cert.b)
    len_ab = stable_length(ref, cert.a * cert.b)
    for scale in (1.0, 0.5, 1.7, 3.1):
        plane_ratio = (scale * (len_a + len_b)) / (scale * len_ab)
        assert plane_ratio < 1.0
        bound = math.log(cert.ratio) - math.log(plane_ratio)
        assert cert.alpha <= bound + 1e-9

    with pytest.raises(CertificateError) as info:
        find_separation_certificate(bend(fuchsian_octagon(), 0.0), 4)
    assert info.value.best_ratio is not None
    assert info.value.best_ratio < 1.0
    assert time.monotonic() - start < 600.0


def test_8_growth_rate_near_one_with_prune_correctness():
    start = time.monotonic()
    ref = fuchsian_octagon()
    est = estimate_growth(ref, 12.0)
    assert 0.8 <= est.h <= 1.2

    pruned = orbit_point_distances(ref, prune_radius=9.0)
    unpruned = orbit_point_distances(ref, max_word_length=6)
    small = 5.0
    close_pruned = pruned[pruned <= small]
    close_unpruned = unpruned[unpruned <= small]
    assert close_pruned.shape == close_unpruned.shape
    assert np.allclose(close_pruned, close_unpruned, atol=1e-9)
    assert time.monotonic() - start < 300.0


def test_9_quantities_invariant_under_conjugation_and_rescaling(
        bent_rep, witness_run):
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    ref = fuchsian_octagon()

    cert = find_separation_certificate(bent_rep, 4)
    words = (cert.a, cert.b, cert.a * cert.b)
    base_q = [stable_length(bent_rep, w) for w in words]
    base_f = [stable_length(ref, w) for w in words]
    base_kinds = [classify(evaluate(bent_rep, w)).kind for w in words]
    delta0 = diagnostic_delta(bent_rep, witness_run.witness)

    def draw(real):
        while True:
            if real:
                e = rng.normal(size=4)
            else:
                e = rng.normal(size=4) + 1j * rng.normal(size=4)
            if abs(e[0] * e[3] - e[1] * e[2]) >= 0.5:
                return MoebiusMap(*e)

    for _ in range(100):
        moved = conjugate_representation(bent_rep, draw(real=False))
        for w, v, kind in zip(words, base_q, base_kinds):
            assert abs(stable_length(moved, w) - v) <= 1e-9
            assert classify(evaluate(moved, w)).kind is kind
        assert certify(cert, moved)
        assert abs(diagnostic_delta(moved, witness_run.witness)
                   - delta0) <= 1e-9

        moved_ref = conjugate_representation(ref, draw(real=True))
        for w, v in zip(words, base_f):
            assert abs(stable_length(moved_ref, w) - v) <= 1e-9

    spec_f = compute_spectrum(ref, 3)
    spec_q = compute_spectrum(bent_rep, 3)
    base_bound = ratio_lower_bound(spec_f, spec_q, 3).value
    base_plane = math.log((base_f[0] + base_f[1]) / base_f[2])
    for _ in range(100):
        scale = math.exp(rng.uniform(-1.5, 1.5))
        scaled = normalize_spectrum(spec_f, scale)
        rescaled_bound = ratio_lower_bound(scaled, spec_q, 3).value
        assert abs(rescaled_bound - base_bound) <= 1e-12
        plane = math.log((scale * (base_f[0] + base_f[1]))
                         / (scale * base_f[2]))
        assert abs(plane - base_plane) <= 1e-12
        assert cert.alpha <= (math.log(cert.ratio) - plane) + 1e-9

    assert time.monotonic() - start < 60.0
