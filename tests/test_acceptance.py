"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated tolerance and
prints a single summary line; run with ``pytest -v`` to see one pass/fail
line per criterion.
"""

import json

import numpy as np
import pytest

from conftest import (
    assembled_polytopic_fixture,
    bloch_state,
    ecq_fixture,
    random_cptp,
    subspace_distance,
    tetra_states,
    trace_norm,
)

from chan_atlas.channels import (
    compose,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    identity_channel,
    kraus_channel,
    linear_map_channel,
    map_distance,
    povm_channel,
    unital_qubit_diag,
)
from chan_atlas.classify import (
    NO,
    YES,
    is_entanglement_breaking,
    is_universally_image_additive,
    reconstruct_ecq,
    retraction_channel,
)
from chan_atlas.cli import main
from chan_atlas.entropy import (
    ContainmentError,
    build_hiding_channel,
    entropy_additivity_gap,
    image_additivity_gap,
    min_output_entropy,
)
from chan_atlas.fixed_points import (
    cesaro_projection,
    transfer_matrix,
    verify_eb_fixed_point_theorem,
)
from chan_atlas.geometry import (
    dimension_bound_check,
    fujiwara_algoet_check,
    polytopic_decompose,
)
from chan_atlas.linalg import partial_transpose

N_ROUNDTRIP = 20
ROUNDTRIP_SEEDS = range(100, 100 + N_ROUNDTRIP)


# -- shared fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def roundtrip_decompositions():
    out = []
    for seed in ROUNDTRIP_SEEDS:
        t, sig, k, n, w = assembled_polytopic_fixture(seed)
        dec = polytopic_decompose(t)
        out.append((t, sig, k, n, w, dec))
    return out


def counterexample_disc():
    """Mixed square vertices whose hull holds the radius-1/2 disc, glued to
    the boundary diagonal-compression qubit map."""
    square = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
              bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)]
    return direct_sum(cq_channel(np.eye(4, dtype=complex), square),
                      unital_qubit_diag((0.5, 0.5, 0.0)))


def counterexample_sphere():
    """Mixed octahedron vertices whose hull holds the radius-1/3 ball,
    glued to the threshold depolarizing map."""
    octa = [bloch_state(0.75, 0, 0), bloch_state(-0.75, 0, 0),
            bloch_state(0, 0.75, 0), bloch_state(0, -0.75, 0),
            bloch_state(0, 0, 0.75), bloch_state(0, 0, -0.75)]
    return direct_sum(cq_channel(np.eye(6, dtype=complex), octa),
                      depolarizing_channel(1 / 3))


@pytest.fixture(scope="module")
def counterexample_decompositions():
    rows = []
    for name, t, k in (("disc", counterexample_disc(), 4),
                       ("sphere", counterexample_sphere(), 6)):
        rows.append((name, t, k, polytopic_decompose(t)))
    return rows


def permutation_dephasing():
    """Full-cycle shift with dephasing: one orbit, so the limit averages the
    whole diagonal."""
    basis = np.eye(4, dtype=complex)
    return kraus_channel([np.outer(basis[:, (i + 1) % 4], basis[:, i]) for i in range(4)])


# -- criteria -----------------------------------------------------------


def test_criterion_01_trine_boundary_circle(tmp_path):
    spec = tmp_path / "trine.json"
    spec.write_text(json.dumps({"format_version": "1", "kind": "example_eq4"}))
    out = tmp_path / "boundary.csv"
    assert main(["image", str(spec), "--out", str(out), "--points", "256"]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (256, 3)
    radii = np.hypot(rows[:, 1], rows[:, 2])
    dev = float(np.max(np.abs(radii - 1 / np.sqrt(6))))
    assert dev <= 1e-6
    dec = polytopic_decompose(
        __import__("chan_atlas.channels", fromlist=["trine_channel"]).trine_channel())
    assert dec.verdict == "not_polytopic"
    print(f"\nPASS criterion 01: image boundary on the circle of radius 6^-1/2 "
          f"(max radial deviation {dev:.2e}), verdict not_polytopic")


def test_criterion_02_fa_matches_choi_psd():
    rng = np.random.default_rng(2024)
    band = 1e-9
    checked = 0
    skipped = 0
    for _ in range(1000):
        lams = tuple(rng.uniform(-1.0, 1.0, size=3))
        choi_min = float(np.linalg.eigvalsh(unital_qubit_diag(lams).to_choi())[0])
        if abs(choi_min) <= band:
            skipped += 1
            continue
        assert fujiwara_algoet_check(lams, band=band).is_cp == (choi_min > 0), lams
        checked += 1
    assert checked + skipped == 1000
    assert fujiwara_algoet_check((0.5, 0.5, 0.0)).is_cp
    print(f"\nPASS criterion 02: positivity conditions match the Choi test on "
          f"{checked} sampled maps ({skipped} inside the boundary band); "
          f"(1/2, 1/2, 0) is completely positive")


def test_criterion_03_eb_threshold():
    lo, hi = 1 / 3 - 1e-6, 1 / 3 + 1e-6
    assert is_entanglement_breaking(depolarizing_channel(lo)).status == YES
    assert is_entanglement_breaking(depolarizing_channel(hi)).status == NO
    for r in (lo, hi, 0.1, 0.5, 0.9):
        t = depolarizing_channel(r)
        jpt = partial_transpose(t.to_choi(), (2, 2), which=1)
        min_pt = float(np.linalg.eigvalsh(jpt)[0])
        assert abs(min_pt - (1 - 3 * r) / 4) <= 1e-9
    print("\nPASS criterion 03: breaking verdict flips across r = 1/3 and the "
          "minimal partial-transpose eigenvalue equals (1 - 3r)/4 within 1e-9")


def test_criterion_04_polytopic_round_trip(roundtrip_decompositions):
    worst_sub = 0.0
    worst_map = 0.0
    for t, sig, k, n, w, dec in roundtrip_decompositions:
        assert dec.verdict == "polytopic"
        assert len(dec.vertices) == k
        eye = np.eye(t.d_in, dtype=complex)
        for i, s in enumerate(sig):
            dists = [trace_norm(r.state - s) for r in dec.vertices]
            j = int(np.argmin(dists))
            assert dists[j] < 1e-7
            sub = subspace_distance(dec.vertices[j].preimage_basis, eye[:, [i]])
            worst_sub = max(worst_sub, sub)
            assert sub <= 1e-6
        vb, wb = dec.vertex_basis, dec.w_basis

        def reassembled(x, dec=dec, vb=vb, wb=wb):
            y = dec.t1.apply(vb.conj().T @ x @ vb)
            if dec.t2 is not None:
                y = y + dec.t2.apply(wb.conj().T @ x @ wb)
            return y

        re = linear_map_channel(reassembled, t.d_in, t.d_out)
        dev = map_distance(re, t)
        worst_map = max(worst_map, dev)
        assert dev <= 1e-8
    print(f"\nPASS criterion 04: {N_ROUNDTRIP} assembled channels decompose with "
          f"exact vertex count; worst preimage distance {worst_sub:.2e}, worst "
          f"reassembly deviation {worst_map:.2e}")


def test_criterion_05_dimension_bound(roundtrip_decompositions,
                                      counterexample_decompositions):
    n_checked = 0
    for t, sig, k, n, w, dec in roundtrip_decompositions:
        assert dimension_bound_check(dec)
        assert dec.n_dof <= len(dec.vertices) - 1 <= dec.d_in - 1
        n_checked += 1
    for name, t, k, dec in counterexample_decompositions:
        assert dimension_bound_check(dec)
        assert dec.n_dof <= len(dec.vertices) - 1 <= dec.d_in - 1
        n_checked += 1
    print(f"\nPASS criterion 05: affine image dimension <= k-1 <= d_in-1 on all "
          f"{n_checked} polytopic fixtures")


def test_criterion_06_image_additivity_positive_direction():
    rng = np.random.default_rng(6)
    partner_dims = [(2, 2), (3, 3), (2, 3), (3, 2), (4, 3)]
    n_tilde = 0
    worst_gap = -np.inf
    worst_retract = 0.0
    for i in range(10):
        complement = 1 + i % 2 if i >= 5 else None  # force some nonzero residuals
        t, vectors, tilde, sig = ecq_fixture(300 + i, complement=complement)
        if max(float(np.linalg.norm(m)) for m in tilde) > 1e-12:
            n_tilde += 1
        da, db = partner_dims[i % len(partner_dims)]
        s = random_cptp(rng, da, db)
        rep = image_additivity_gap(t, s, n_directions=200, seed=600 + i)
        worst_gap = max(worst_gap, rep.max_gap)
        assert rep.max_gap <= 1e-6
        rec = reconstruct_ecq(t, sig)
        assert rec.status == YES
        retract = retraction_channel(rec.witness["certificate"])
        dev = map_distance(compose(retract, t), t)
        worst_retract = max(worst_retract, dev)
        assert dev <= 1e-9
    assert n_tilde >= 3
    print(f"\nPASS criterion 06: 10 unit-norm-POVM channels ({n_tilde} with "
          f"nonzero residual effects) stay additive against random partners "
          f"(max gap {worst_gap:.2e}); retractions reproduce the channel within "
          f"{worst_retract:.2e}")


def test_criterion_07_image_additivity_negative_direction():
    rep = image_additivity_gap(depolarizing_channel(0.5), identity_channel(2),
                               n_directions=40, seed=0)
    assert rep.max_gap > 1e-4
    assert rep.direction is not None and rep.certified
    assert rep.lhs == pytest.approx(5 / 8, abs=1e-6)
    assert rep.rhs == pytest.approx(3 / 8, abs=1e-6)
    assert rep.max_gap == pytest.approx(1 / 4, abs=1e-6)
    eb = is_entanglement_breaking(depolarizing_channel(0.5))
    assert eb.status == NO
    assert eb.witness["min_pt_eigenvalue"] == pytest.approx(-1 / 8, abs=1e-9)
    print(f"\nPASS criterion 07: halving depolarizing vs identity has gap "
          f"{rep.max_gap:.6f} (support 5/8 vs 3/8) with a witness direction, "
          f"matching the -1/8 partial-transpose eigenvalue")


def test_criterion_08_counterexample_channels(counterexample_decompositions):
    for name, t, k, dec in counterexample_decompositions:
        eb = is_entanglement_breaking(t)
        assert eb.status == YES, name
        assert dec.verdict == "polytopic", name
        assert len(dec.vertices) == k, name
        rec = reconstruct_ecq(t, [r.state for r in dec.vertices])
        assert rec.status == NO, name
        uia = is_universally_image_additive(t)
        assert uia.status == NO, name
    print("\nPASS criterion 08: disc and sphere hull channels are breaking and "
          "polytopic yet admit no unit-norm POVM form and fail universal "
          "image additivity")


def test_criterion_09_fixed_point_structure():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(g)[0]
    rotated = kraus_channel([np.outer(u[:, i], np.conj(u[:, i])) for i in range(3)])
    square = povm_channel(
        [np.eye(2, dtype=complex) / 4] * 2 + [np.eye(2, dtype=complex) / 8,
                                              3 * np.eye(2, dtype=complex) / 8],
        [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
         bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)])
    fixtures = [
        identity_channel(2),
        dephasing_channel(3),
        depolarizing_channel(0.6),
        depolarizing_channel(0.25),
        permutation_dephasing(),
        rotated,
        square,
        kraus_channel([np.diag([1.0, 1, 0]).astype(complex),
                       np.diag([0.0, 0, 1]).astype(complex)]),
    ]
    # (a) the Cesaro limit is an idempotent channel absorbing t
    for t in fixtures:
        tinf = cesaro_projection(t)
        assert map_distance(compose(tinf, tinf), tinf) <= 1e-8
        assert map_distance(compose(t, tinf), tinf) <= 1e-8
    # (b) decisively breaking fixtures have abelian structure and a
    # unit-norm POVM Cesaro projection
    n_eb = 0
    for t in fixtures:
        if is_entanglement_breaking(t).status != YES:
            continue
        rep = verify_eb_fixed_point_theorem(t)
        assert rep.status == YES
        assert all(b.dimension == 1 for b in rep.witness["structure"].blocks)
        assert max(abs(x - 1.0) for x in rep.witness["ecq"].witness["certificate"].norms) <= 1e-7
        n_eb += 1
    assert n_eb >= 3
    # (c) the cyclic permutation-dephasing averages the diagonal
    t = permutation_dephasing()
    tinf = cesaro_projection(t)
    rho = np.arange(16, dtype=complex).reshape(4, 4)
    rho = (rho + rho.conj().T) / 2
    np.testing.assert_allclose(tinf.apply(rho), np.eye(4) * np.trace(rho).real / 4,
                               atol=1e-8)
    nat = transfer_matrix(t)
    acc, pw = nat.copy(), nat.copy()
    for _ in range(41):  # Cesaro mean over 2^41 steps by doubling
        acc = (acc + pw @ acc) / 2
        pw = pw @ pw
    assert float(np.max(np.abs(acc - tinf.natural_matrix()))) <= 1e-7
    print(f"\nPASS criterion 09: Cesaro projections idempotent and absorbing on "
          f"{len(fixtures)} fixtures; {n_eb} breaking fixtures have all-abelian "
          f"blocks with unit effect norms; permutation channel matches the "
          f"brute-force average within 1e-7")


def test_criterion_10_hiding_channel():
    t = build_hiding_channel(tetra_states(1.0), depolarizing_channel(1 / 3))
    assert (t.d_in, t.d_out) == (6, 2)
    h1 = min_output_entropy(t, p=1.0).value
    assert abs(h1) <= 1e-6
    with pytest.raises(ContainmentError) as exc:
        build_hiding_channel(tetra_states(1.0), depolarizing_channel(0.5))
    assert exc.value.excess > 0.01
    assert exc.value.direction is not None
    print(f"\nPASS criterion 10: hiding construction accepted for the inscribed "
          f"radius-1/3 ball (min output entropy {h1:.2e}) and rejected beyond it "
          f"(excess {exc.value.excess:.3f})")


def test_criterion_11_entropy_additivity_desk_scale():
    cq = cq_channel(np.eye(2, dtype=complex),
                    [bloch_state(0.3, 0.0, 0.4), bloch_state(-0.2, 0.1, 0.0)])
    third = depolarizing_channel(1 / 3)
    pairs = [("cq,cq", cq, cq), ("cq,third", cq, third),
             ("third,third", third, third), ("id,id", identity_channel(2),
                                             identity_channel(2))]
    worst = (-np.inf, "")
    for name, a, b in pairs:
        for p in (1.0, 2.0):
            rep = entropy_additivity_gap(a, b, p=p, seed=11)
            assert -1e-7 <= rep.gap <= 1e-6, (name, p, rep.gap)
            if abs(rep.gap) > worst[0]:
                worst = (abs(rep.gap), f"{name} p={p:g}")
    print(f"\nPASS criterion 11: minimal output entropy additive on all four "
          f"pairs for p in {{1, 2}} (largest |gap| {worst[0]:.2e} at {worst[1]})")
