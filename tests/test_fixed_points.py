import tracemalloc

import numpy as np
import pytest

from conftest import (
    amplitude_damping,
    blas_thread_outputs,
    haar_unitary,
    linear_map_channel,
    random_density,
    random_pure,
)

from chan_atlas.channels import (
    Channel,
    NotCptpError,
    compose,
    conjugate,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    kraus_channel,
    map_distance,
    tensor,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.fixed_points import (
    cesaro_projection,
    fixed_point_structure,
    transfer_matrix,
    verify_eb_fixed_point_theorem,
)
from chan_atlas import fixed_points
from chan_atlas.linalg import generic, herm, vec


def permutation_dephasing():
    """Cycle the basis 0->1->2->3 and dephase: fixed space is spanned by I/4."""
    perm = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        perm[(i + 1) % 4, i] = 1.0
    basis = np.eye(4, dtype=complex)
    ks = [np.outer(perm[:, [i]].ravel(), basis[:, i]) for i in range(4)]
    return kraus_channel(ks)


def pinching_two_blocks():
    p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    return kraus_channel([p1, p2])


def test_transfer_matrix_requires_square_channel():
    with pytest.raises(ValueError, match="equal input and output"):
        transfer_matrix(trine_channel())


def test_transfer_matrix_spectrum_of_depolarizing():
    n = transfer_matrix(depolarizing_channel(0.3))
    w = np.sort(np.abs(np.linalg.eigvals(n)))
    np.testing.assert_allclose(w, [0.3, 0.3, 0.3, 1.0], atol=1e-12)


def test_transfer_matrix_rejects_expanding_maps():
    grow = linear_map_channel(lambda x: 2.0 * x, 2, 2)
    with pytest.raises(NotCptpError, match="map is not CPTP"):
        transfer_matrix(grow)


@pytest.mark.parametrize("t", [
    identity_channel(2),
    dephasing_channel(3),
    depolarizing_channel(0.6),
    permutation_dephasing(),
    pinching_two_blocks(),
])
def test_cesaro_projection_identities(t):
    tinf = cesaro_projection(t)
    assert map_distance(compose(tinf, tinf), tinf) < 1e-8
    assert map_distance(compose(t, tinf), tinf) < 1e-8
    assert map_distance(compose(tinf, t), tinf) < 1e-8
    assert tinf.verify_cptp().is_cptp


def test_cesaro_permutation_matches_brute_force():
    t = permutation_dephasing()
    tinf = cesaro_projection(t)
    # the projection averages the diagonal: natural-matrix corners are 1/4...
    nat = tinf.natural_matrix()
    for i in range(4):
        for j in range(4):
            assert nat[i * 5, j * 5] == pytest.approx(0.25, abs=1e-10)
    # ...and a long Cesaro average of powers agrees
    n = transfer_matrix(t)
    acc = np.eye(16, dtype=complex)
    powers = np.eye(16, dtype=complex)
    steps = 4096
    for _ in range(steps - 1):
        powers = n @ powers
        acc = acc + powers
    np.testing.assert_allclose(acc / steps, nat, atol=1e-3)
    rho = random_density(np.random.default_rng(0), 4)
    np.testing.assert_allclose(tinf.apply(rho), np.eye(4) / 4 * np.trace(rho), atol=1e-8)


def test_cesaro_projection_reuses_the_projection_matrix(monkeypatch):
    # a primitive channel: the projection is rho -> Tr(rho) omega
    t = kraus_channel([np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.array([[0, 1], [0, 0]]),
                       np.sqrt(0.3) * np.array([[0, 0], [1, 0]])])
    w, v = np.linalg.eig(t.natural_matrix())
    omega = v[:, np.argmin(np.abs(w - 1))].reshape(2, 2)
    omega = omega / np.trace(omega)
    want = np.outer(vec(omega), vec(np.eye(2)))
    calls = []
    apply = Channel.apply
    monkeypatch.setattr(Channel, "apply", lambda self, rho: calls.append(self) or apply(self, rho))
    tinf = cesaro_projection(t)
    np.testing.assert_allclose(tinf.natural_matrix(), want, atol=1e-9)
    assert calls == []  # no natural matrix rebuilt from d*d evaluations


def test_fixed_point_structure_identity():
    st = fixed_point_structure(identity_channel(2))
    assert st.status == "ok"
    assert len(st.blocks) == 1
    assert st.blocks[0].dimension == 2 and st.blocks[0].multiplicity == 1
    assert st.fixed_dim == 4
    assert st.support_dim == 2


def test_fixed_point_structure_dephasing():
    st = fixed_point_structure(dephasing_channel(3))
    assert st.status == "ok"
    assert sorted((b.dimension, b.multiplicity) for b in st.blocks) == [(1, 1)] * 3
    assert st.fixed_dim == 3


def test_fixed_point_structure_depolarizing():
    # fixed space span{I} is the algebra M_1 tensor I_2: trivial factor,
    # multiplicity two
    st = fixed_point_structure(depolarizing_channel(0.6))
    assert st.status == "ok"
    assert [(b.dimension, b.multiplicity) for b in st.blocks] == [(1, 2)]
    assert st.fixed_dim == 1
    np.testing.assert_allclose(st.blocks[0].embedded_state, np.eye(2) / 2, atol=1e-8)


def test_fixed_point_structure_pinching():
    st = fixed_point_structure(pinching_two_blocks())
    assert st.status == "ok"
    assert sorted((b.dimension, b.multiplicity) for b in st.blocks) == [(1, 1), (2, 1)]
    assert st.fixed_dim == 5  # 2x2 block plus a point


def test_fixed_point_structure_with_multiplicity():
    # id_2 (x) depolarizing: fixed algebra M_2 (x) I with multiplicity space C^2
    t = tensor(identity_channel(2), depolarizing_channel(0.3))
    st = fixed_point_structure(t)
    assert st.status == "ok"
    assert [(b.dimension, b.multiplicity) for b in st.blocks] == [(2, 2)]
    assert st.fixed_dim == 4


def test_fixed_point_structure_respects_rotation():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(g)[0]
    # dephasing in a rotated basis: three one-dimensional blocks along u
    t = kraus_channel([np.outer(u[:, i], np.conj(u[:, i])) for i in range(3)])
    st = fixed_point_structure(t)
    assert st.status == "ok"
    assert sorted((b.dimension, b.multiplicity) for b in st.blocks) == [(1, 1)] * 3
    for b in st.blocks:
        assert np.max(np.abs(u.conj().T @ b.isometry)) > 1 - 1e-9


def _replacer_mix(rng, s):
    """Kraus operators of ``lam W rho W* + (1 - lam) Tr(rho) sigma`` on ``s``
    levels: primitive, its fixed space is one full-rank state."""
    lam = rng.uniform(0.2, 0.8)
    sigma = random_density(rng, s)
    ev, vecs = np.linalg.eigh(sigma)
    root = vecs @ np.diag(np.sqrt(ev)) @ vecs.conj().T
    units = np.eye(s * s, dtype=complex).reshape(s * s, s, s)
    return [np.sqrt(lam) * haar_unitary(rng, s), *(np.sqrt(1 - lam) * root @ units)]


def block_channel(shape, transient, seed):
    """``U ((+)_i id_{d_i} (x) R_i)(U* . U) U*`` for ``shape = [(d_i, s_i)]``
    with primitive ``R_i``; a transient level, if asked for, decays into the
    blocks.  Its fixed space is ``U ((+)_i M_{d_i} (x) sigma_i) U*``."""
    rng = np.random.default_rng(seed)
    d = sum(a * s for a, s in shape) + int(transient)
    ks, off = [], 0
    for a, s in shape:
        for k in _replacer_mix(rng, s):
            big = np.zeros((d, d), dtype=complex)
            big[off:off + a * s, off:off + a * s] = np.kron(np.eye(a), k)
            ks.append(big)
        off += a * s
    if transient:
        decay = np.zeros((d, d), dtype=complex)
        decay[:off, off] = random_pure(rng, off)
        ks.append(decay)
    u = haar_unitary(rng, d)
    return kraus_channel([u @ k @ u.conj().T for k in ks])


def test_block_certificates_refuse_a_degenerate_generic_pair(monkeypatch):
    # y = 0 couples no two eigenspaces of a, and a = I has only one: each
    # wrong split must fail its certificate, not pass as a block structure
    def pair(first):
        def fake(alg, k):
            a = generic(alg)[0] if first == "a" else np.eye(alg.shape[-1])
            return np.stack([a, np.zeros_like(a)])
        return fake

    for first, reason in (("a", "fixed algebra couples blocks"),
                          ("I", "algebra element deviates from block form")):
        monkeypatch.setattr(fixed_points, "generic", pair(first))
        for t in (identity_channel(3), block_channel([(2, 1), (1, 2)], True, 0)):
            st = fixed_point_structure(t)
            assert st.status == "indeterminate" and st.reason.startswith(reason), st.reason
    # an abelian algebra needs no coupling, so (a, 0) still splits it
    monkeypatch.setattr(fixed_points, "generic", pair("a"))
    st = fixed_point_structure(dephasing_channel(3))
    assert st.status == "ok", st.reason
    assert [(b.dimension, b.multiplicity) for b in st.blocks] == [(1, 1)] * 3


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("transient", [False, True])
@pytest.mark.parametrize("shape", [
    [(1, 1), (1, 1), (1, 1)],
    [(2, 1), (1, 1)],
    [(1, 2), (2, 1)],
    [(2, 2)],
    [(2, 1), (2, 1)],
    [(1, 2), (1, 2), (1, 1)],
    [(3, 1), (1, 2)],
    [(2, 3)],
    [(3, 2)],
    [(1, 3), (2, 2)],
    [(2, 2), (2, 2)],
    [(1, 1)] * 4,
    [(3, 1), (3, 1), (1, 1)],
    [(2, 1), (1, 3), (1, 1)],
])
def test_fixed_point_structure_of_rotated_block_channels(shape, transient, seed):
    t = block_channel(shape, transient, seed)
    st = fixed_point_structure(t)
    assert st.status == "ok", st.reason
    assert [(b.dimension, b.multiplicity) for b in st.blocks] == sorted(shape)
    assert st.fixed_dim == sum(a * a for a, _ in shape)
    assert st.support_dim == sum(a * s for a, s in shape)
    assert np.trace(st.cesaro.natural_matrix()).real == pytest.approx(st.fixed_dim, abs=1e-8)
    for b in st.blocks:
        emb = b.embedded_state
        assert np.trace(emb).real == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(emb).min() > -1e-8
        np.testing.assert_allclose(t.apply(emb), emb, atol=1e-8)
    # the isometries of all blocks together have orthonormal columns: each block's
    # columns are orthonormal and different blocks are mutually orthogonal
    isos = np.hstack([b.isometry for b in st.blocks])
    np.testing.assert_allclose(isos.conj().T @ isos, np.eye(isos.shape[1]), atol=1e-8)


def _unitary_then_inverse(d):
    u = haar_unitary(np.random.default_rng(3), d)
    return compose(kraus_channel([u]), kraus_channel([u.conj().T]))


@pytest.mark.parametrize("t, d", [
    (kraus_channel([np.eye(2, dtype=complex) / np.sqrt(2)] * 2), 2),
    (_unitary_then_inverse(3), 3),
], ids=["redundant_kraus", "unitary_then_inverse"])
def test_fixed_point_structure_of_identity_up_to_roundoff(t, d):
    # the natural matrix equals I up to roundoff: the whole space is fixed
    st = fixed_point_structure(t)
    assert st.status == "ok", st.reason
    assert [(b.dimension, b.multiplicity) for b in st.blocks] == [(d, 1)]
    assert st.fixed_dim == d * d


def test_fixed_point_structure_reports_failed_cesaro_as_indeterminate():
    # at a decay rate of 1e-9 the oblique projection keeps a roundoff residual
    # of about 4e-8, above its 1e-8 verification; the fixed space is still found
    st = fixed_point_structure(amplitude_damping(1e-9))
    assert st.status == "indeterminate"
    assert "Cesaro projection failed verification" in st.reason
    assert st.fixed_dim == 1 and st.blocks == []


@pytest.mark.parametrize("r", [1 - 1e-8, 1 - 1e-9])
def test_fixed_point_structure_of_near_identity_depolarizing(r):
    # the fixed vector sits at a singular value of N - I near 1e-16, below the
    # absolute floor of the one cut
    st = fixed_point_structure(depolarizing_channel(r))
    assert st.status == "ok", st.reason
    assert [(b.dimension, b.multiplicity) for b in st.blocks] == [(1, 2)]
    assert st.fixed_dim == 1 and st.support_dim == 2


def test_fixed_point_analysis_refuses_maps_that_are_not_channels():
    # a contraction, which fixes nothing, and a positive trace-preserving map
    # of spectral radius one that is not CP (min Choi eigenvalue -0.25)
    for t in (linear_map_channel(lambda x: 0.5 * x, 2, 2), unital_qubit_diag([0.5, -0.5, 1])):
        for analyse in (transfer_matrix, cesaro_projection, fixed_point_structure):
            with pytest.raises(NotCptpError, match="map is not CPTP"):
                analyse(t)


def test_fixed_point_structure_solves_for_the_fixed_space_once(monkeypatch):
    t = block_channel([(2, 1), (1, 1)], True, 0)
    a = t.natural_matrix() - np.eye(16)
    svd = np.linalg.svd
    solves = []

    def counted(x, *args, **kwargs):
        x = np.asarray(x)
        if x.shape == a.shape and (np.allclose(x, a) or np.allclose(x, a.conj().T)):
            solves.append(x)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    st = fixed_point_structure(t)
    assert st.status == "ok", st.reason
    assert len(solves) == 1


def test_fixed_point_structure_memory_on_identity_12():
    # the blocks come from the eigenspaces of one generic element of the
    # 144-dimensional algebra, a few MiB here; an O(d^6) construction would
    # need over 100 MiB
    t = identity_channel(12)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        st = fixed_point_structure(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert st.status == "ok"
    assert [(b.dimension, b.multiplicity) for b in st.blocks] == [(12, 1)]
    assert peak < 32 * 2 ** 20


def test_fixed_point_structure_does_not_depend_on_blas_threads():
    code = ("from test_fixed_points import block_channel\n"
            "from chan_atlas.channels import dephasing_channel\n"
            "from chan_atlas.pipeline import fixed_point_stage\n"
            "print(fixed_point_stage(block_channel([(2, 1), (1, 2)], True, 0)))\n"
            "print(fixed_point_stage(dephasing_channel(3)))\n")
    outputs = blas_thread_outputs(code)
    assert "'status': 'ok'" in outputs[0]
    assert outputs[0] == outputs[1]


def test_verify_eb_fixed_point_theorem_on_measure_prepare():
    rep = verify_eb_fixed_point_theorem(dephasing_channel(3))
    assert rep.status == "yes"
    assert rep.witness["eb"].status == "yes"
    assert all(b.dimension == 1 for b in rep.witness["structure"].blocks)
    assert max(abs(x - 1.0) for x in rep.witness["ecq"].witness["effect_norms"]) < 1e-7


def test_verify_eb_fixed_point_theorem_skips_non_eb():
    rep = verify_eb_fixed_point_theorem(identity_channel(2))
    assert rep.status == "indeterminate"
    assert rep.witness["eb"].status == "no"
    assert "not certified" in rep.reason


def test_cesaro_of_rotation_conjugated_dephasing():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = np.linalg.qr(g)[0]
    t = conjugate(compose(conjugate(dephasing_channel(2), u.conj().T), identity_channel(2)), u)
    # conjugated idempotent: its Cesaro limit is itself
    tinf = cesaro_projection(compose(t, t))
    assert map_distance(tinf, compose(t, t)) < 1e-8
