import numpy as np
import pytest

from conftest import (
    amplitude_damping,
    assembled_polytopic_fixture,
    bloch_state,
    ecq_fixture,
    haar_unitary,
    random_density,
    subspace_distance,
    trace_norm,
)

from chan_atlas import geometry
from chan_atlas.channels import (
    compose,
    conjugate,
    constant_channel,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    identity_channel,
    kraus_channel,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.geometry import (
    bloch_map,
    default_plane,
    dimension_bound_check,
    find_vertices,
    fujiwara_algoet_check,
    image_boundary_2d,
    polytopic_decompose,
    support_function,
)
from chan_atlas.pipeline import image_stage


def test_support_function_on_trine():
    t = trine_channel()
    h = np.diag([1.0, 0.0, 0.0]).astype(complex)
    sv = support_function(t, h)
    assert sv.value == pytest.approx(2 / 3, abs=1e-12)
    # the maximizer attains the value
    w = t.apply(np.outer(sv.maximizer, np.conj(sv.maximizer)))
    assert np.trace(h @ w).real == pytest.approx(2 / 3, abs=1e-12)
    with pytest.raises(ValueError, match="Hermitian"):
        support_function(t, np.array([[0, 1], [0, 0]], dtype=complex))


def test_bloch_map_of_diagonal_channel():
    m = bloch_map(unital_qubit_diag((0.5, -0.3, 0.2)))
    np.testing.assert_allclose(m.linear, np.diag([0.5, -0.3, 0.2]), atol=1e-12)
    np.testing.assert_allclose(m.shift, 0.0, atol=1e-12)
    # the image ellipsoid's semi-axes are the singular values of the linear part
    axes = np.linalg.svd(m.linear, compute_uv=False)
    np.testing.assert_allclose(np.sort(axes), [0.2, 0.3, 0.5], atol=1e-12)


def test_bloch_map_shift_of_nonunital_channel():
    sigma = bloch_state(0.0, 0.0, 0.6)
    m = bloch_map(constant_channel(sigma, d_in=2))
    np.testing.assert_allclose(m.linear, 0.0, atol=1e-12)
    np.testing.assert_allclose(m.shift, [0.0, 0.0, 0.6], atol=1e-12)


def test_bloch_map_requires_qubit_spaces():
    with pytest.raises(ValueError, match="qubit"):
        bloch_map(trine_channel())


@pytest.mark.parametrize("lams,cp", [
    ((1.0, 1.0, 1.0), True),       # identity
    ((0.5, 0.5, 0.0), True),       # boundary
    ((0.9, 0.9, 0.1), False),
    ((0.6, 0.6, 0.1), False),
    ((0.0, 0.0, 0.0), True),
])
def test_fujiwara_algoet_matches_choi(lams, cp):
    rep = fujiwara_algoet_check(lams)
    assert rep.is_cp == cp
    choi_eigs = np.linalg.eigvalsh(unital_qubit_diag(lams).to_choi())
    np.testing.assert_allclose(np.sort(rep.margins / 4), choi_eigs, atol=1e-12)


def test_fujiwara_algoet_boundary_band():
    eps = 1e-10  # inside the default band: still counts as CP
    assert fujiwara_algoet_check((0.5 + eps, 0.5 + eps, 0.0)).is_cp
    assert not fujiwara_algoet_check((0.5 + 1e-6, 0.5 + 1e-6, 0.0)).is_cp


def test_trine_boundary_circle():
    rows = image_boundary_2d(trine_channel(), n_points=64)
    assert rows.shape == (64, 3)
    radii = np.hypot(rows[:, 1], rows[:, 2])
    np.testing.assert_allclose(radii, 1 / np.sqrt(6), atol=1e-9)
    assert rows[0, 1] == pytest.approx(0.408248290464, abs=1e-9)


def test_identity_qubit_boundary_is_the_equator():
    rows = image_boundary_2d(identity_channel(2), n_points=32)
    theta = rows[:, 0]
    np.testing.assert_allclose(rows[:, 1], np.cos(theta), atol=1e-9)
    np.testing.assert_allclose(rows[:, 2], np.sin(theta), atol=1e-9)


def test_default_plane_axes_are_orthogonal_traceless():
    # qubit axes are the Paulis (Bloch normalization, HS norm sqrt(2));
    # higher dimensions use unit Hilbert-Schmidt norm
    for d, sq in ((2, 2.0), (3, 1.0), (5, 1.0)):
        a, b = default_plane(d)
        assert abs(np.trace(a)) < 1e-12 and abs(np.trace(b)) < 1e-12
        assert np.trace(a @ a).real == pytest.approx(sq, abs=1e-12)
        assert np.trace(b @ b).real == pytest.approx(sq, abs=1e-12)
        assert abs(np.trace(a @ b)) < 1e-12


def test_find_vertices_of_dephasing():
    records = find_vertices(dephasing_channel(3))
    assert len(records) == 3
    want = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    for w in want:
        dists = [trace_norm(r.state - w) for r in records]
        i = int(np.argmin(dists))
        assert dists[i] < 1e-8
        assert records[i].preimage_basis.shape == (3, 1)
        assert subspace_distance(records[i].preimage_basis, w.astype(complex)[:, [np.argmax(np.diag(w))]]) < 1e-8


def test_polytopic_decompose_pure_cq():
    dec = polytopic_decompose(dephasing_channel(3))
    assert dec.verdict == "polytopic"
    assert len(dec.vertices) == 3
    assert dec.w_basis.shape == (3, 0)
    assert dec.t2 is None
    assert dec.n_dof == 2
    assert dimension_bound_check(dec)
    assert dec.n_dof == 2 and len(dec.vertices) == 3 and dec.d_in == 3


def test_polytopic_decompose_planted_block_sum():
    sig = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0), bloch_state(0, 0.8, 0)]
    interior = bloch_state(0.05, 0.1, 0.0)
    t = direct_sum(cq_channel(np.eye(3, dtype=complex), sig),
                   constant_channel(interior, d_in=1))
    dec = polytopic_decompose(t)
    assert dec.verdict == "polytopic"
    assert len(dec.vertices) == 3
    assert dec.w_basis.shape == (4, 1)
    # the residual-space compression reproduces the planted interior state
    np.testing.assert_allclose(dec.t2.apply(np.ones((1, 1), dtype=complex)),
                               interior, atol=1e-8)
    # each vertex preimage sits on the matching coordinate axis
    eye = np.eye(4, dtype=complex)
    for s, col in zip(sig, range(3)):
        dists = [trace_norm(r.state - s) for r in dec.vertices]
        i = int(np.argmin(dists))
        assert dists[i] < 1e-7
        assert subspace_distance(dec.vertices[i].preimage_basis, eye[:, [col]]) < 1e-7


def test_polytopic_decompose_assembled_fixture():
    t, sig, k, n, w = assembled_polytopic_fixture(17)
    dec = polytopic_decompose(t)
    assert dec.verdict == "polytopic"
    assert len(dec.vertices) == k


@pytest.mark.parametrize("channel", [depolarizing_channel(0.7), trine_channel()])
def test_round_image_is_not_polytopic(channel):
    dec = polytopic_decompose(channel)
    assert dec.verdict == "not_polytopic"
    assert not dimension_bound_check(dec)
    # decided by the characters, with no sampled direction
    assert dec.direction is None
    assert dec.checks["character_affine_dim"] < dec.checks["image_affine_dim"] == dec.n_dof


def test_polytopic_decompose_is_computed_once_per_arguments():
    # a function of the channel alone: the ignored sampling arguments change nothing
    t = dephasing_channel(3)
    dec = polytopic_decompose(t)
    assert polytopic_decompose(t) is dec
    assert polytopic_decompose(t, n_directions=400, seed=1) is dec
    assert polytopic_decompose(dephasing_channel(3)) is not dec


def test_polytopic_decompose_solves_each_map_once():
    # one stacked solve of t2* on the sampled directions; the characters
    # take only single eigensolves
    t, sig, k, n, w = assembled_polytopic_fixture(0)
    assert k == 5
    stacked = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.ndim(a) > 2:
            stacked.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", counted)
        dec = polytopic_decompose(t)
    assert dec.verdict == "polytopic" and len(dec.vertices) == k
    assert len(stacked) <= 3


def test_image_stage_reports_the_decomposition_checks():
    dims = ("character_affine_dim", "image_affine_dim")
    checks = ("max_support_excess", "reconstruction_deviation", "orthogonality_deviation",
              "dominance_deviation")
    out = image_stage(trine_channel())  # no vertices: the dimensions decide
    assert out["status"] == "not_polytopic" and out["n_vertices"] == 0
    assert (out["character_affine_dim"], out["image_affine_dim"]) == (-1, out["n_dof"])
    assert not set(checks) & set(out)
    out = image_stage(assembled_polytopic_fixture(0)[0])
    assert out["status"] == "polytopic" and out["residual_dim"] > 0
    assert set(dims + checks) <= set(out)
    assert "min_vertex_separation" not in out
    assert out["character_affine_dim"] == out["image_affine_dim"] == out["n_dof"]
    assert max(out[c] for c in checks) <= geometry.VERDICT_TOL


# verdict, vertex count, preimage dimensions, residual dimension and n_dof
# that the sampled search and its all-means clustering reference gave
_PINNED = {
    "depolarizing": ("not_polytopic", 0, [], 2, 3),
    "trine": ("not_polytopic", 0, [], 2, 2),
    "amplitude-damping": ("not_polytopic", 0, [], 2, 3),
    "dephasing3": ("polytopic", 3, [1, 1, 1], 0, 2),
    "assembled0": ("polytopic", 5, [1] * 5, 2, 4),
    "assembled1": ("polytopic", 4, [1] * 4, 2, 3),
    "assembled2": ("polytopic", 5, [1] * 5, 1, 4),
    "assembled3": ("polytopic", 5, [1] * 5, 1, 4),
    "ecq0": ("polytopic", 4, [1] * 4, 1, 3),
    "ecq1": ("polytopic", 3, [1] * 3, 2, 2),
    "ecq2": ("polytopic", 3, [1] * 3, 0, 2),
    "ecq3": ("polytopic", 2, [1] * 2, 0, 1),
}


def _pinned_channel(name):
    """The channel of a ``_PINNED`` entry and its vertex states (None for round images)."""
    if name.startswith("assembled"):
        t, sig, *_ = assembled_polytopic_fixture(int(name[-1]))
        return t, sig
    if name.startswith("ecq"):
        t, _, _, sig = ecq_fixture(int(name[-1]))
        return t, sig
    if name == "dephasing3":
        return dephasing_channel(3), [np.diag(e) for e in np.eye(3)]
    return {"depolarizing": depolarizing_channel(0.5), "trine": trine_channel(),
            "amplitude-damping": amplitude_damping(0.35)}[name], []


@pytest.mark.parametrize("name", list(_PINNED))
def test_find_vertices_matches_the_all_means_clustering(name):
    # the characters reproduce what the sampled search found (pinned above),
    # and each vertex is T(vv*) of its preimage vectors and a prepared state
    t, sig = _pinned_channel(name)
    dec = polytopic_decompose(t)
    got = (dec.verdict, len(dec.vertices), [r.preimage_basis.shape[1] for r in dec.vertices],
           dec.w_basis.shape[1], dec.n_dof)
    assert got == _PINNED[name]
    assert len(sig) == len(dec.vertices)
    for r in dec.vertices:
        outs = t.pure_outputs(r.preimage_basis.T)
        assert np.abs(outs - r.state).max() < 1e-12
        assert min(trace_norm(r.state - s) for s in sig) < 1e-9


def test_interior_character_is_not_a_vertex(monkeypatch):
    # a CQ map preparing s1, s2 and their midpoint: three characters, two
    # vertices, and the midpoint's input in W, decided without sampling
    rng = np.random.default_rng(7)
    s1, s2 = random_density(rng, 2), random_density(rng, 2)
    t = cq_channel(np.eye(3, dtype=complex), [s1, s2, (s1 + s2) / 2])
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    dec = polytopic_decompose(t)
    assert (dec.verdict, len(dec.vertices), dec.w_basis.shape[1]) == ("polytopic", 2, 1)
    assert dec.direction is None
    for s in (s1, s2):
        assert min(trace_norm(r.state - s) for r in dec.vertices) < 1e-12


def _refuse(*args, **kwargs):
    raise AssertionError("the decomposition drew a random number")


@pytest.mark.parametrize("build, verdict", [
    (lambda: dephasing_channel(3), "polytopic"),
    (lambda: ecq_fixture(0)[0], "polytopic"),
    (lambda: depolarizing_channel(0.5), "not_polytopic"),
    (trine_channel, "not_polytopic"),
], ids=["dephasing3", "ecq0", "depolarizing", "trine"])
def test_decomposition_draws_no_random_number(build, verdict, monkeypatch):
    # W = 0, W spanned by characters (ecq0's residual input), or an exact no
    t = build()
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    assert polytopic_decompose(t).verdict == verdict


def _join_calls(monkeypatch):
    """``np.linalg.norm`` calls made inside ``_characters``; an ``eigvalsh``
    there (the eigensolve of a trace distance) fails the test."""
    norms, inside = [], []
    run, norm, eigvalsh = geometry._characters, np.linalg.norm, np.linalg.eigvalsh

    def characters(t):
        inside.append(1)
        try:
            return run(t)
        finally:
            inside.pop()

    def counted(*args, **kwargs):
        if inside:
            norms.append(1)
        return norm(*args, **kwargs)

    def refused(a):
        if inside:
            raise AssertionError("a character point was compared by an eigensolve")
        return eigvalsh(a)

    monkeypatch.setattr(geometry, "_characters", characters)
    monkeypatch.setattr(np.linalg, "norm", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    return norms


@pytest.mark.parametrize("channel", [depolarizing_channel(0.5), trine_channel()],
                         ids=["depolarizing", "trine"])
def test_vertex_clustering_makes_no_trace_norm_per_pair(channel, monkeypatch):
    # the round block has no character; the CQ block beside it prepares each
    # output basis state twice, so every point has a twin to join
    n = channel.d_out
    basis = [np.diag(e).astype(complex) for e in np.eye(n)]
    t = direct_sum(channel, cq_channel(np.eye(2 * n, dtype=complex), basis + basis))
    norms = _join_calls(monkeypatch)
    records = find_vertices(t)
    assert len(records) == n
    assert [r.preimage_basis.shape[1] for r in records] == [2] * n
    for r in records:
        assert min(trace_norm(r.state - s) for s in basis) < 1e-12
    # one stacked eigenvector check and one stacked comparison of all points
    assert len(norms) <= 2


@pytest.mark.parametrize("t, n_vertices", [(dephasing_channel(3), 3),
                                           (assembled_polytopic_fixture(0)[0],
                                            assembled_polytopic_fixture(0)[2])],
                         ids=["dephasing3", "assembled0"])
def test_close_points_join_with_no_eigensolve(t, n_vertices, monkeypatch):
    # one more input that prepares the first vertex state: its character
    # point coincides with that vertex and joins it
    first = find_vertices(t)[0].state
    twin = direct_sum(t, constant_channel(first, d_in=1))
    _join_calls(monkeypatch)
    records = find_vertices(twin)
    assert len(records) == n_vertices
    dims = [r.preimage_basis.shape[1] for r in records]
    assert dims == [2] + [1] * (n_vertices - 1)
    assert np.linalg.norm(records[0].state - first) <= geometry.VERDICT_TOL


@pytest.mark.parametrize("scale, joins", [(1 - 1e-4, True), (1 + 1e-4, False)],
                         ids=["just-under", "just-over"])
def test_close_join_at_the_frobenius_bound(scale, joins, monkeypatch):
    # two inputs preparing y and y + diag(a, -a, 0), whose Frobenius distance
    # a * sqrt(2) is scale * VERDICT_TOL: one vertex below the bound, two above
    y = random_density(np.random.default_rng(4), 3)
    a = scale * geometry.VERDICT_TOL / np.sqrt(2)
    t = cq_channel(np.eye(2, dtype=complex), [y, y + np.diag([a, -a, 0])])
    _join_calls(monkeypatch)
    points, bases = geometry._characters(t)
    assert [b.shape[1] for b in bases] == ([2] if joins else [1, 1])
    assert min(np.abs(p - y).max() for p in points) < 1e-12
    assert len(find_vertices(t)) == len(bases)


@pytest.mark.parametrize("t", [dephasing_channel(3), trine_channel(), depolarizing_channel(0.5),
                               assembled_polytopic_fixture(1)[0], ecq_fixture(2)[0]],
                         ids=["dephasing3", "trine", "depolarizing", "assembled", "ecq"])
def test_decomposition_verdict_is_unitarily_invariant(t):
    dec = polytopic_decompose(t)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u, v = haar_unitary(rng, t.d_in), haar_unitary(rng, t.d_out)
        rotated = conjugate(compose(kraus_channel([u]), t), v)
        rdec = polytopic_decompose(rotated)
        assert rdec.verdict == dec.verdict
        assert len(rdec.vertices) == len(dec.vertices)
