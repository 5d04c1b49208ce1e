import numpy as np
import pytest

from conftest import (
    assembled_polytopic_fixture,
    blas_thread_outputs,
    bloch_state,
    constant_channel,
    kraus_operators,
    linear_map_channel,
    matrix_units,
    random_cptp,
    random_density,
    random_hermitian,
    random_povm,
    tetra_states,
)

from chan_atlas.channels import (
    Channel,
    ChoiForm,
    CqForm,
    DirectSumForm,
    EcqForm,
    KrausForm,
    NotCptpError,
    choi_channel,
    compose,
    conjugate,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    ecq_channel,
    identity_channel,
    kraus_channel,
    map_distance,
    povm_channel,
    tensor,
    tensor_dual_apply,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.classify import is_cq
from chan_atlas.entropy import build_hiding_channel
from chan_atlas.geometry import polytopic_decompose
from chan_atlas.linalg import PAULIS, herm, random_directions


def test_identity_channel():
    t = identity_channel(3)
    rho = random_density(np.random.default_rng(0), 3)
    np.testing.assert_allclose(t.apply(rho), rho, atol=1e-12)
    assert t.verify_cptp().is_cptp


def test_constant_channel_ignores_input():
    sigma = random_density(np.random.default_rng(1), 2)
    t = constant_channel(sigma, d_in=3)
    rho = random_density(np.random.default_rng(2), 3)
    np.testing.assert_allclose(t.apply(rho), sigma, atol=1e-12)
    assert (t.d_in, t.d_out) == (3, 2)


def test_dephasing_kills_offdiagonals():
    t = dephasing_channel(3)
    rho = random_density(np.random.default_rng(3), 3)
    np.testing.assert_allclose(t.apply(rho), np.diag(np.diag(rho)), atol=1e-12)
    assert isinstance(t.form, CqForm)


def test_depolarizing_action_and_spectra():
    r = 0.37
    t = depolarizing_channel(r)
    rho = random_density(np.random.default_rng(4), 2)
    np.testing.assert_allclose(t.apply(rho), r * rho + (1 - r) * np.eye(2) / 2, atol=1e-12)
    # transfer spectrum {1, r, r, r}; Choi spectrum {(1+3r)/4, (1-r)/4 x3}
    w = np.sort(np.abs(np.linalg.eigvals(t.natural_matrix())))
    np.testing.assert_allclose(w, [r, r, r, 1.0], atol=1e-12)
    jw = np.sort(np.linalg.eigvalsh(t.to_choi()))
    np.testing.assert_allclose(jw, [(1 - r) / 4] * 3 + [(1 + 3 * r) / 4], atol=1e-12)


def test_depolarizing_rejects_non_cp_parameters():
    with pytest.raises(ValueError, match="completely positive range"):
        depolarizing_channel(-0.5)
    with pytest.raises(ValueError, match="completely positive range"):
        depolarizing_channel(1.01)
    depolarizing_channel(-1 / 3)  # the boundary itself is fine


def test_unital_qubit_diag_bloch_action():
    lams = (0.5, -0.3, 0.2)
    t = unital_qubit_diag(lams)
    rho = bloch_state(0.2, 0.5, -0.1)
    out = t.apply(rho)
    np.testing.assert_allclose(out, bloch_state(0.1, -0.15, -0.02), atol=1e-12)


@pytest.mark.parametrize("lams,min_eig", [
    ((0.9, 0.9, 0.1), -0.175),
    ((0.6, 0.6, 0.1), -0.025),
    ((0.5, 0.5, 0.0), 0.0),
])
def test_unital_qubit_diag_choi_boundary(lams, min_eig):
    v = unital_qubit_diag(lams).verify_cptp()
    assert v.min_choi_eigenvalue == pytest.approx(min_eig, abs=1e-12)
    assert v.is_cp == (min_eig >= 0)
    assert v.is_tp


def test_require_cptp_raises_with_verdict():
    t = unital_qubit_diag((0.9, 0.9, 0.1))
    with pytest.raises(NotCptpError) as exc:
        t.require_cptp()
    assert exc.value.verdict.min_choi_eigenvalue == pytest.approx(-0.175, abs=1e-12)


def test_trine_channel_on_basis_state():
    t = trine_channel()
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    np.testing.assert_allclose(t.apply(e0), np.diag([1 / 6, 1 / 6, 2 / 3]), atol=1e-12)
    assert t.verify_cptp().is_cptp


def test_representation_round_trips():
    rng = np.random.default_rng(5)
    t = random_cptp(rng, 3, 2)
    j = t.to_choi()
    t2 = choi_channel(j, 3, 2)
    assert map_distance(t, t2) < 1e-10
    t3 = kraus_channel(kraus_operators(t))
    assert map_distance(t, t3) < 1e-10
    rho = random_density(rng, 3)
    np.testing.assert_allclose(t.apply(rho), t2.apply(rho), atol=1e-10)


def test_choi_channel_rejects_non_trace_preserving():
    j = np.eye(4, dtype=complex) / 4
    j[0, 0] = 0.5  # marginal no longer maximally mixed
    with pytest.raises(ValueError):
        choi_channel(j, 2, 2)


def test_dual_is_the_heisenberg_adjoint():
    rng = np.random.default_rng(6)
    t = random_cptp(rng, 3, 4)
    rho = random_density(rng, 3)
    h = random_hermitian(rng, 4)
    lhs = np.trace(h @ t.apply(rho))
    rhs = np.trace(t.dual_apply(h) @ rho)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)
    # unitality of the dual encodes trace preservation
    np.testing.assert_allclose(t.dual_apply(np.eye(4)), np.eye(3), atol=1e-10)


def _primitive_samples():
    rng = np.random.default_rng(11)
    kraus = random_cptp(rng, 3, 2)
    sig = [random_density(rng, 2) for _ in range(3)]
    e = np.eye(3, dtype=complex)
    return [
        kraus,
        choi_channel(kraus.to_choi(), 3, 2),
        trine_channel(),
        ecq_channel([e[:, 0], e[:, 1]], [np.zeros((3, 3)), np.diag([0, 0, 1.0])], sig[:2]),
        cq_channel(np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0],
                   sig),
        direct_sum(dephasing_channel(2), depolarizing_channel(0.3)),
    ]


@pytest.mark.parametrize("t", _primitive_samples(), ids=lambda t: type(t.form).__name__)
def test_stacked_primitives_match_the_per_item_path(t):
    rng = np.random.default_rng(12)
    hs = np.array([random_hermitian(rng, t.d_out) for _ in range(6)]).reshape(2, 3, t.d_out,
                                                                               t.d_out)
    duals = t.dual_apply(hs)
    assert duals.shape == (2, 3, t.d_in, t.d_in)
    for h, g in zip(hs.reshape(-1, t.d_out, t.d_out), duals.reshape(-1, t.d_in, t.d_in)):
        np.testing.assert_allclose(g, t.dual_apply(h), atol=1e-12)
    x = rng.normal(size=(5, t.d_in)) + 1j * rng.normal(size=(5, t.d_in))
    outs = t.pure_outputs(x)
    assert outs.shape == (5, t.d_out, t.d_out)
    for v, y in zip(x, outs):
        np.testing.assert_allclose(y, t.apply(np.outer(v, v.conj())), atol=1e-12)
    with pytest.raises(ValueError):
        t.dual_apply(np.zeros((4, t.d_out + 1, t.d_out + 1)))
    with pytest.raises(ValueError):
        t.pure_outputs(np.zeros((4, t.d_in + 1)))


def test_compose_applies_left_argument_first():
    rng = np.random.default_rng(7)
    t1 = random_cptp(rng, 2, 3)
    t2 = random_cptp(rng, 3, 2)
    both = compose(t1, t2)
    assert (both.d_in, both.d_out) == (2, 2)
    rho = random_density(rng, 2)
    np.testing.assert_allclose(both.apply(rho), t2.apply(t1.apply(rho)), atol=1e-11)


def test_tensor_on_product_inputs():
    rng = np.random.default_rng(8)
    t1 = random_cptp(rng, 2, 3)
    t2 = random_cptp(rng, 2, 2)
    tt = tensor(t1, t2)
    assert (tt.d_in, tt.d_out) == (4, 6)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    np.testing.assert_allclose(tt.apply(np.kron(a, b)),
                               np.kron(t1.apply(a), t2.apply(b)), atol=1e-11)
    assert tt.verify_cptp().is_cptp


def _disc_counterexample():
    """The paper's 6 -> 2 counterexample: a CQ square of Bloch radius 0.8 (+) a
    Pauli disc map."""
    square = [bloch_state(*w) for w in ((0.8, 0, 0), (-0.8, 0, 0), (0, 0.8, 0), (0, -0.8, 0))]
    return direct_sum(cq_channel(np.eye(4), square), unital_qubit_diag((0.5, 0.5, 0.0)))


@pytest.mark.parametrize("pair", ["2to3_3to2", "3to3_2to2", "disc_id6"])
def test_tensor_dual_apply_matches_the_joint_map(pair):
    rng = np.random.default_rng(["2to3_3to2", "3to3_2to2", "disc_id6"].index(pair))
    for _ in range(4):
        if pair == "disc_id6":
            t1, t2 = _disc_counterexample(), identity_channel(6)
        else:
            dims = (2, 3, 3, 2) if pair == "2to3_3to2" else (3, 3, 2, 2)
            t1, t2 = random_cptp(rng, *dims[:2]), random_cptp(rng, *dims[2:])
        h = random_directions(rng, 24, t1.d_out * t2.d_out)
        got, want = tensor_dual_apply(t1, t2, h), tensor(t1, t2).dual_apply(h)
        assert got.shape == want.shape == (24, t1.d_in * t2.d_in, t1.d_in * t2.d_in)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    # one observable, without a stack axis
    np.testing.assert_array_equal(tensor_dual_apply(t1, t2, h[0]), got[0])
    with pytest.raises(ValueError, match="observable has shape"):
        tensor_dual_apply(t1, t2, h[:, 1:, 1:])


def test_tensor_dual_apply_does_not_depend_on_blas_threads():
    code = ("import hashlib\n"
            "import numpy as np\n"
            "from conftest import assembled_polytopic_fixture\n"
            "from chan_atlas.channels import identity_channel, tensor_dual_apply\n"
            "from chan_atlas.linalg import random_directions\n"
            "t = assembled_polytopic_fixture(11)[0]\n"
            "assert (t.d_in, t.d_out) == (5, 3)\n"
            "h = random_directions(np.random.default_rng(0), 24, 15)\n"
            "g = tensor_dual_apply(t, identity_channel(5), h)\n"
            "print(hashlib.sha256(g.tobytes()).hexdigest())\n")
    one, two = blas_thread_outputs(code)
    assert one == two


def test_conjugate_by_unitary():
    rng = np.random.default_rng(9)
    t = depolarizing_channel(0.5)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = np.linalg.qr(g)[0]
    tc = conjugate(t, u)
    rho = random_density(rng, 2)
    np.testing.assert_allclose(
        tc.apply(rho), u @ t.apply(rho) @ u.conj().T, atol=1e-11)


def test_direct_sum_drops_offdiagonal_blocks():
    t1 = dephasing_channel(2)
    t2 = constant_channel(np.diag([0.25, 0.75]).astype(complex), d_in=1)
    t = direct_sum(t1, t2)
    assert (t.d_in, t.d_out) == (3, 2)
    rho = random_density(np.random.default_rng(10), 3)
    want = t1.apply(rho[:2, :2]) + t2.apply(rho[2:, 2:])
    np.testing.assert_allclose(t.apply(rho), herm(want), atol=1e-12)
    assert t.verify_cptp().is_cptp


def test_direct_sum_flattens_and_validates():
    t1 = dephasing_channel(2)
    nested = direct_sum(direct_sum(t1, t1), t1)
    assert isinstance(nested.form, DirectSumForm)
    assert len(nested.form.blocks) == 3
    with pytest.raises(ValueError, match="share the output dimension"):
        direct_sum(t1, dephasing_channel(3))


def test_povm_channel_validation():
    eye = np.eye(2, dtype=complex)
    sig = random_density(np.random.default_rng(11), 2)
    with pytest.raises(ValueError):
        povm_channel([eye, eye], [sig, sig])  # effects sum to 2I
    t = povm_channel([eye / 2, eye / 2], [sig, sig])
    np.testing.assert_allclose(t.apply(sig), sig, atol=1e-12)


def test_cq_channel_requires_orthonormal_basis():
    sig = random_density(np.random.default_rng(12), 2)
    bad = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        cq_channel(bad, [sig, sig])


def test_ecq_channel_validation():
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    z = np.zeros((3, 3), dtype=complex)
    m = z.copy()
    m[2, 2] = 1.0
    sig = [np.diag([0.5, 0.5]).astype(complex), np.diag([0.9, 0.1]).astype(complex)]
    t = ecq_channel([e0, e1], [m, z], sig)
    assert isinstance(t.form, EcqForm)
    assert t.verify_cptp().is_cptp
    effects = t.form.effects()
    np.testing.assert_allclose(sum(effects), np.eye(3), atol=1e-12)
    with pytest.raises(ValueError, match="orthonormal"):
        ecq_channel([e0, e0], [z, z], sig)
    with pytest.raises(ValueError, match="supported away"):
        bad = z.copy()
        bad[0, 0] = 0.5
        ecq_channel([e0, e1], [bad, z], sig)


def test_linear_map_channel_wraps_callables():
    t = linear_map_channel(lambda x: x.T, 2, 2)  # transpose map, not CP
    v = t.verify_cptp()
    assert v.is_tp and not v.is_cp
    assert isinstance(t.form, (KrausForm, ChoiForm)) or t.form is not None


def test_map_distance_separates_channels():
    assert map_distance(dephasing_channel(2), dephasing_channel(2)) < 1e-14
    d = map_distance(dephasing_channel(2), identity_channel(2))
    assert d > 0.1


def test_kraus_channel_infers_dimensions():
    k = np.zeros((3, 2), dtype=complex)
    k[0, 0] = k[1, 1] = 1.0
    t = kraus_channel([k])
    assert (t.d_in, t.d_out) == (2, 3)



# -- closed-form natural matrices -----------------------------------------


def _natural_ref(fn, d_in):
    """Natural matrix of the map ``fn`` from its values on the matrix units."""
    return np.array([np.asarray(fn(e), dtype=complex).reshape(-1)
                     for _, e in matrix_units(d_in)]).T


def _measure_prepare_ref(effects, states):
    return lambda rho: sum(np.trace(m @ rho) * s for m, s in zip(effects, states))


def _unital_diag_ref(lams):
    # T(I) = I and T(sigma_i) = lam_i sigma_i, extended linearly
    return lambda rho: (np.trace(rho) * np.eye(2) + sum(
        lam * np.trace(p @ rho) * p for lam, p in zip(lams, PAULIS))) / 2


def _direct_sum_ref(*blocks):
    """The map of ``(d_in, map)`` blocks fed the diagonal input blocks."""
    def ref(rho):
        out, off = 0, 0
        for d, f in blocks:
            out = out + f(rho[off:off + d, off:off + d])
            off += d
        return out
    return ref


def _unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def _closed_form_samples():
    """Channels of every form, each next to its map written from the defining formula."""
    rng = np.random.default_rng(21)
    kraus = random_cptp(rng, 3, 2)
    ops = kraus.form.operators
    kraus_ref = lambda rho: sum(k @ rho @ k.conj().T for k in ops)  # noqa: E731
    effects = random_povm(rng, 3, 4)
    prepared = [random_density(rng, 2) for _ in range(4)]
    sig = prepared[:3]
    basis = _unitary(rng, 3)
    e = np.eye(3, dtype=complex)
    tilde = [np.zeros((3, 3)), np.diag([0, 0, 1.0])]
    lams = (0.9, 0.9, -0.3)  # outside the CP region
    cq = cq_channel(basis, sig)
    cq_ref = _measure_prepare_ref([np.outer(b, b.conj()) for b in basis.T], sig)
    inner = direct_sum(kraus, cq)
    return {
        "kraus": (kraus, kraus_ref),
        "choi": (choi_channel(kraus.to_choi(), 3, 2), kraus_ref),
        "choi_non_cp": (unital_qubit_diag(lams), _unital_diag_ref(lams)),
        "povm": (povm_channel(effects, prepared), _measure_prepare_ref(effects, prepared)),
        "ecq": (ecq_channel([e[:, 0], e[:, 1]], tilde, sig[:2]),
                _measure_prepare_ref([np.outer(e[:, i], e[:, i]) + m
                                      for i, m in enumerate(tilde)], sig[:2])),
        "cq": (cq, cq_ref),
        "direct_sum_nested": (direct_sum(unital_qubit_diag((0.5, 0.4, 0.2)), inner),
                              _direct_sum_ref((2, _unital_diag_ref((0.5, 0.4, 0.2))),
                                              (3, kraus_ref), (3, cq_ref))),
    }


@pytest.mark.parametrize("name", list(_closed_form_samples()))
def test_closed_form_natural_matrix_matches_the_defining_formula(name):
    t, ref = _closed_form_samples()[name]
    np.testing.assert_allclose(t.natural_matrix(), _natural_ref(ref, t.d_in), rtol=0, atol=1e-12)
    rng = np.random.default_rng(22)
    for _ in range(3):
        x = rng.normal(size=(t.d_in, t.d_in)) + 1j * rng.normal(size=(t.d_in, t.d_in))
        np.testing.assert_allclose(t.apply(x), ref(x), rtol=0, atol=1e-12)


def test_derived_maps_match_their_callback_definitions():
    t, _, _, _, w_dim = assembled_polytopic_fixture(1)
    dec = polytopic_decompose(t)
    w = dec.w_basis
    assert dec.verdict == "polytopic" and w.shape[1] == w_dim
    compressed = linear_map_channel(lambda x: t.apply(w @ x @ w.conj().T), w_dim, t.d_out)
    assert map_distance(dec.t2, compressed) < 1e-12

    states = tetra_states(1.0)
    inner = depolarizing_channel(1 / 3)
    hiding = build_hiding_channel(states, inner)
    assert isinstance(hiding.form, ChoiForm)
    reference = linear_map_channel(
        lambda rho: sum(rho[i, i] * s for i, s in enumerate(states)) + inner.apply(rho[4:, 4:]),
        6, 2)
    assert map_distance(hiding, reference) < 1e-12


def test_structural_stages_never_evaluate_the_map_per_input(monkeypatch):
    calls = []
    apply = Channel.apply
    monkeypatch.setattr(Channel, "apply", lambda self, rho: calls.append(self) or apply(self, rho))
    rng = np.random.default_rng(23)
    cq = cq_channel(_unitary(rng, 3), [random_density(rng, 2) for _ in range(3)])
    stages = {
        "polytopic_decompose": lambda: polytopic_decompose(assembled_polytopic_fixture(1)[0]),
        "is_cq": lambda: is_cq(cq),
        "build_hiding_channel": lambda: build_hiding_channel(tetra_states(1.0),
                                                             depolarizing_channel(1 / 3)),
    }
    counts = {}
    for name, run in stages.items():
        calls.clear()
        run()
        counts[name] = len(calls)
    assert counts == dict.fromkeys(stages, 0)
