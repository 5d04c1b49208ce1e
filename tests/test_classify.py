import numpy as np
import pytest

from conftest import (
    _spread_vertices,
    assembled_polytopic_fixture,
    bloch_state,
    ecq_fixture,
    haar_unitary,
    random_povm,
)

from chan_atlas import classify, fixed_points, geometry
from chan_atlas.channels import (
    NotCptpError,
    compose,
    conjugate,
    constant_channel,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    kraus_channel,
    linear_map_channel,
    map_distance,
    povm_channel,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.classify import (
    INDETERMINATE,
    NO,
    YES,
    is_cq,
    is_entanglement_breaking,
    is_universally_image_additive,
    reconstruct_ecq,
    retraction_channel,
)
from chan_atlas.linalg import canonical_phase, herm, hvec, op_norm, partial_transpose, unhvec
from chan_atlas.pipeline import classification_stage, image_stage, run_pipeline


def pinching_channel():
    """Kraus pinching with one coherent 2x2 block; not EB, not CQ."""
    p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    return kraus_channel([p1, p2])


def disc_fixture():
    square = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
              bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)]
    return direct_sum(cq_channel(np.eye(4, dtype=complex), square),
                      unital_qubit_diag((0.5, 0.5, 0.0))), square


def test_eb_depolarizing_threshold():
    assert is_entanglement_breaking(depolarizing_channel(1 / 3 - 1e-6)).status == YES
    v = is_entanglement_breaking(depolarizing_channel(1 / 3 + 1e-6))
    assert v.status == NO
    assert v.witness["min_pt_eigenvalue"] < 0


def test_eb_pt_witness_value():
    v = is_entanglement_breaking(depolarizing_channel(0.5))
    assert v.status == NO
    assert v.witness["min_pt_eigenvalue"] == pytest.approx(-1 / 8, abs=1e-12)
    assert v.witness["pt_eigenvector"].shape == (4,)


def test_eb_ppt_exact_regime():
    v = is_entanglement_breaking(trine_channel())  # (2, 3): PPT decides
    assert v.status == YES
    assert v.witness.get("ppt_exact_regime")


def test_eb_separable_pairs_reconstruct_choi():
    t = dephasing_channel(4)  # (4, 4): needs the constructive certificate
    v = is_entanglement_breaking(t)
    assert v.status == YES
    j = sum(np.kron(s, m) for s, m in v.witness["separable_pairs"])
    np.testing.assert_allclose(j, t.to_choi(), atol=1e-12)


def test_eb_direct_sum_recursion():
    t = direct_sum(dephasing_channel(2), dephasing_channel(2))
    v = is_entanglement_breaking(t)
    assert v.status == YES
    assert [b.status for b in v.witness["blocks"]] == [YES, YES]


def test_eb_pinching_with_coherent_block_is_not_eb():
    v = is_entanglement_breaking(pinching_channel())
    assert v.status == NO


def test_eb_indeterminate_without_certificate():
    # qutrit depolarizing at r = 1/5 as bare Kraus operators: PPT (r <= 1/4)
    # in (3,3) proves nothing, and it is neither CQ nor polytopic, so neither
    # a CQ basis nor an eCQ certificate gives separable pairs
    dep = linear_map_channel(lambda x: 0.2 * x + 0.8 * np.trace(x) * np.eye(3) / 3, 3, 3)
    bare = kraus_channel(dep.kraus_operators())
    assert is_cq(bare).status == NO
    assert is_universally_image_additive(bare).status == NO
    v = is_entanglement_breaking(bare)
    assert v.status == INDETERMINATE
    assert v.witness["min_pt_eigenvalue"] >= 0
    assert "PPT holds" in v.reason


@pytest.mark.parametrize("frame", [None, 0, 1, 2])
def test_eb_yes_from_cq_basis_in_any_frame(frame):
    # bare Kraus dephasing(3), optionally in Haar input and output frames:
    # PPT in (3,3) proves nothing, but the CQ basis gives separable pairs
    t = kraus_channel(dephasing_channel(3).kraus_operators())
    if frame is not None:
        rng = np.random.default_rng(frame)
        t = conjugate(compose(kraus_channel([haar_unitary(rng, 3)]), t), haar_unitary(rng, 3))
    v = is_entanglement_breaking(t)
    assert v.status == YES
    j = sum(np.kron(s, m) for s, m in v.witness["separable_pairs"])
    assert op_norm(j - t.to_choi()) < 1e-9


_ECQ_NOT_CQ = {"ecq1": lambda: ecq_fixture(1)[0],
               **{f"assembled{i}": (lambda i=i: assembled_polytopic_fixture(i)[0])
                  for i in range(2)}}


@pytest.mark.parametrize("frame", [None, 0, 1, 2])
@pytest.mark.parametrize("name", list(_ECQ_NOT_CQ))
def test_eb_yes_from_ecq_certificate_in_any_frame(name, frame):
    # eCQ maps that are not CQ, as bare Kraus channels or in Haar input and
    # output frames: PPT proves nothing there, but the eCQ POVM M_i and the
    # vertex states give the separable pairs (sigma_i, M_i^T / d_in)
    t = kraus_channel(_ECQ_NOT_CQ[name]().kraus_operators())
    if frame is not None:
        rng = np.random.default_rng(frame)
        t = conjugate(compose(kraus_channel([haar_unitary(rng, t.d_in)]), t),
                      haar_unitary(rng, t.d_out))
    assert (t.d_in, t.d_out) not in {(2, 2), (2, 3), (3, 2)}
    assert is_cq(t).status == NO
    v = is_entanglement_breaking(t)
    assert v.status == YES
    j = sum(np.kron(s, m) for s, m in v.witness["separable_pairs"])
    assert op_norm(j - t.to_choi()) < 1e-9


def _count_calls(monkeypatch, modules, name):
    """Replace ``name`` in each of ``modules`` by one wrapper; returns its call list."""
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for m in modules:
        monkeypatch.setattr(m, name, counted)
    return calls


def test_cq_verdict_is_computed_once_per_channel(monkeypatch):
    # bare Kraus dephasing(3): PPT is inconclusive, so EB reads the CQ basis;
    # after the image stage, the classification stage asks the shared range
    # helper once (the CQ stage itself), not again for EB
    t = kraus_channel(dephasing_channel(3).kraus_operators())
    image_stage(t)
    calls = _count_calls(monkeypatch, [geometry, classify], "_adjoint_range")
    out = classification_stage(t)
    assert out["cq"]["status"] == out["entanglement_breaking"]["status"] == YES
    assert len(calls) == 1
    assert is_cq(t) is is_cq(t)


def test_report_makes_one_ecq_reconstruction(monkeypatch):
    # bare Kraus ecq_fixture(1): EB takes the eCQ pairs from the same
    # universal-image-additivity verdict the classification stage reports
    t = kraus_channel(ecq_fixture(1)[0].kraus_operators())
    calls = _count_calls(monkeypatch, [classify, fixed_points], "reconstruct_ecq")
    rep = run_pipeline(t)
    assert rep["classification"]["entanglement_breaking"]["status"] == YES
    assert rep["classification"]["ecq"]["status"] == YES
    assert sum(args[0] is t for args in calls) == 1
    assert is_universally_image_additive(t) is is_universally_image_additive(t)


def test_eb_requires_cptp():
    with pytest.raises(NotCptpError):
        is_entanglement_breaking(unital_qubit_diag((0.9, 0.9, 0.1)))


def test_verdict_refuses_truthiness():
    v = is_entanglement_breaking(dephasing_channel(2))
    with pytest.raises(TypeError, match="three-valued"):
        bool(v)


def test_is_cq_on_cq_channels():
    assert is_cq(dephasing_channel(3)).status == YES
    u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    sig = [bloch_state(0.3, 0, 0.4), bloch_state(-0.2, 0.1, 0)]
    assert is_cq(cq_channel(u, sig)).status == YES
    for d_in in (1, 3):
        assert is_cq(constant_channel(bloch_state(0.1, 0.2, 0.3), d_in)).status == YES


@pytest.mark.parametrize("t", [trine_channel(), depolarizing_channel(0.5)])
def test_is_cq_rejects_round_images(t):
    assert is_cq(t).status == NO


def test_is_cq_rejects_coherent_pinching():
    assert is_cq(pinching_channel()).status == NO


def test_reconstruct_ecq_accepts_fixture():
    t, vectors, tilde, sig = ecq_fixture(3)
    rec = reconstruct_ecq(t, sig)
    assert rec.status == YES
    cert = rec.witness["certificate"]
    assert max(abs(x - 1.0) for x in cert.norms) < 1e-9
    np.testing.assert_allclose(sum(cert.effects), np.eye(t.d_in), atol=1e-9)
    s = retraction_channel(cert)
    assert map_distance(compose(s, t), t) < 1e-9


def test_reconstruct_ecq_solves_each_stack_once(monkeypatch):
    # one eigh of the effect stack, one eigvalsh of the remainder stack, and
    # the eigvalsh of the CPTP check; no per-effect solves
    t, vectors, tilde, sig = ecq_fixture(0)
    assert len(sig) == 4
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rec = reconstruct_ecq(t, sig)
    assert rec.status == YES
    assert calls == {"eigh": 1, "eigvalsh": 2}


@pytest.mark.parametrize("case", ["ecq", "wrong_vertices"])
def test_reconstruct_ecq_checks_match_per_effect_loops(case):
    # the stacked checks against one solve per effect, as a reference
    if case == "ecq":
        t, _, _, sig = ecq_fixture(3)
    else:
        t, sig = dephasing_channel(2), [bloch_state(0.5, 0, 0), bloch_state(-0.5, 0, 0)]
    w = reconstruct_ecq(t, sig).witness
    b = np.array([np.concatenate([hvec(s), [1.0]]) for s in sig])
    y = np.linalg.pinv(b)
    k = len(sig)
    effects = [herm(t.dual_apply(unhvec(y[:-1, j], t.d_out)) + y[-1, j] * np.eye(t.d_in))
               for j in range(k)]
    vectors = [canonical_phase(np.linalg.eigh(m)[1][:, -1]) for m in effects]
    tilde = [m - np.outer(e, e.conj()) for m, e in zip(effects, vectors)]
    expected = {
        "effect_psd": max(-np.linalg.eigvalsh(m)[0] for m in effects),
        "unit_norms": max(abs(np.linalg.eigvalsh(m)[-1] - 1.0) for m in effects),
        "vector_orthonormality": max(abs(np.vdot(vectors[i], vectors[j]) - (i == j))
                                     for i in range(k) for j in range(k)),
        "tilde_psd": max(-np.linalg.eigvalsh(herm(m))[0] for m in tilde),
        "tilde_support": max(abs(e.conj() @ m @ e) for m in tilde for e in vectors),
    }
    for name, value in expected.items():
        assert w[name] == pytest.approx(value, abs=1e-12), name


def test_reconstruct_ecq_rejects_wrong_vertices():
    t = dephasing_channel(2)
    wrong = [bloch_state(0.5, 0, 0), bloch_state(-0.5, 0, 0)]
    rec = reconstruct_ecq(t, wrong)
    assert rec.status == NO
    assert "reproduction" in rec.witness["failed"] or "unit_norms" in rec.witness["failed"]


def test_reconstruct_ecq_dilation_obstruction():
    t, square = disc_fixture()
    rec = reconstruct_ecq(t, square)
    assert rec.status == NO
    assert rec.witness["dilated_pt_min"] < -1e-4 or rec.witness["dilated_choi_min"] < -1e-4
    assert "no POVM prepares" in rec.reason


def test_dilation_obstruction_matches_the_callback_dilation():
    t, square = disc_fixture()
    w = reconstruct_ecq(t, square).witness
    eps, n, d = w["dilation_epsilon"], t.d_out, t.d_in
    dilated = linear_map_channel(
        lambda x: (1 + eps) * t.apply(x) - eps * np.trace(x) * np.eye(n) / n, d, n)
    j = herm(dilated.to_choi())
    assert abs(np.linalg.eigvalsh(j)[0] - w["dilated_choi_min"]) < 1e-12
    assert abs(np.linalg.eigvalsh(herm(partial_transpose(j, (n, d))))[0]
               - w["dilated_pt_min"]) < 1e-12


def test_reconstruct_ecq_dependent_vertices_stay_open_for_true_cq():
    # genuinely CQ with four coplanar mixed vertices: the dilation stays
    # measure-and-prepare, so no obstruction may fire
    square = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
              bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)]
    t = cq_channel(np.eye(4, dtype=complex), square)
    rec = reconstruct_ecq(t, square)
    assert rec.status == INDETERMINATE
    assert "affinely dependent" in rec.reason


def test_uia_yes_on_cq():
    v = is_universally_image_additive(dephasing_channel(2))
    assert v.status == YES
    s = v.witness["retraction"]
    assert map_distance(compose(s, dephasing_channel(2)), dephasing_channel(2)) < 1e-9


def test_uia_yes_on_ecq_fixture():
    t, *_ = ecq_fixture(5)
    assert is_universally_image_additive(t).status == YES


def test_uia_no_on_round_image():
    v = is_universally_image_additive(depolarizing_channel(0.5))
    assert v.status == NO


def test_uia_no_on_disc_fixture():
    t, _ = disc_fixture()
    v = is_universally_image_additive(t)
    assert v.status == NO
    assert "no unit-norm POVM" in v.reason


def test_ecq_channel_is_eb_via_certificate():
    t, *_ = ecq_fixture(7)
    if (t.d_in, t.d_out) in {(2, 2), (2, 3), (3, 2)}:
        pytest.skip("fixture landed in the PPT-exact regime")
    v = is_entanglement_breaking(t)
    assert v.status == YES
    j = sum(np.kron(s, m) for s, m in v.witness["separable_pairs"])
    assert op_norm(j - t.to_choi()) < 1e-9


def test_is_cq_no_when_stage_preimages_overlap():
    """CQ block on three mixed qutrit states (+) a three-effect qubit POVM
    block preparing interior mixtures, in a rotated output frame.  Sampled
    vertex detection on the qubit block keeps clusters whose preimages
    overlap; the range of the adjoint decides the channel is not CQ."""
    rng = np.random.default_rng(2)
    sig = _spread_vertices(rng, 3, 3)
    preps = [sum(c * s for c, s in zip(0.5 * rng.dirichlet(np.ones(3)) + 0.5 / 3, sig))
             for _ in range(3)]
    t = direct_sum(cq_channel(np.eye(3, dtype=complex), sig),
                   povm_channel(random_povm(rng, 2, 3), preps))
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    t = conjugate(t, u)
    v = is_cq(t)
    assert v.status == NO
    # recompute the witness: [T*(X1), T*(X2)] over the squared norm of N
    a, b = t.dual_apply(np.asarray(v.witness["directions"]))
    comm = np.linalg.norm(a @ b - b @ a) / op_norm(t.natural_matrix()) ** 2
    assert comm == pytest.approx(v.witness["commutator"], rel=1e-9)
    assert comm > 1e-9
