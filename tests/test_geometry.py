import numpy as np
import pytest

from conftest import (
    amplitude_damping,
    assembled_polytopic_fixture,
    assert_same_characters,
    bloch_state,
    constant_channel,
    ecq_fixture,
    haar_unitary,
    random_density,
    spin_one_channel,
    subspace_distance,
    support_function,
    tetra_states,
    trace_norm,
)

from chan_atlas import geometry
from chan_atlas.channels import (
    compose,
    conjugate,
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
    hull_containment,
    image_boundary_2d,
    polytopic_decompose,
)
from chan_atlas.classify import is_universally_image_additive
from chan_atlas.entropy import ContainmentError, build_hiding_channel
from chan_atlas.fixed_points import fixed_point_structure
from chan_atlas.linalg import PAULI_Z
from chan_atlas.pipeline import classification_stage, image_stage


def test_support_function_on_trine():
    t = trine_channel()
    h = np.diag([1.0, 0.0, 0.0]).astype(complex)
    value, x = support_function(t, h)
    assert value == pytest.approx(2 / 3, abs=1e-12)
    # the maximizer attains the value
    w = t.apply(np.outer(x, np.conj(x)))
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
    # one stacked solve of t2* on the normals and facets of the vertex hull;
    # the characters take only single eigensolves
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


_SQUARE = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
           bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)]


def _square_disc(a):
    """Square vertices at Bloch radius 0.8 (+) the diagonal map ``(a, a, 0)``,
    whose image is the disc of radius ``a`` (positive, and CP up to a = 1/2)."""
    return direct_sum(cq_channel(np.eye(4, dtype=complex), _SQUARE),
                      unital_qubit_diag((a, a, 0.0)))


@pytest.mark.parametrize("build, verdict", [
    (lambda: dephasing_channel(3), "polytopic"),
    (lambda: ecq_fixture(0)[0], "polytopic"),
    (lambda: assembled_polytopic_fixture(0)[0], "polytopic"),
    (lambda: _square_disc(0.5), "polytopic"),
    (lambda: ecq_fixture(0, complement=2)[0], "polytopic"),
    (lambda: depolarizing_channel(0.5), "not_polytopic"),
    (trine_channel, "not_polytopic"),
], ids=["dephasing3", "ecq0", "assembled0", "disc", "ecq0-complement2", "depolarizing",
        "trine"])
def test_decomposition_draws_no_random_number(build, verdict, monkeypatch):
    # W = 0, W spanned by characters (ecq0's residual input), a residual
    # block that no character spans, or an exact no; the classification and
    # fixed-point stages draw nothing either
    t = build()
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    assert polytopic_decompose(t).verdict == verdict
    classification_stage(t)
    if t.d_in == t.d_out:
        assert fixed_point_structure(t).status == "ok"


def test_hiding_construction_draws_no_random_number(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _refuse)
    build_hiding_channel(tetra_states(1.0), depolarizing_channel(1 / 3))
    with pytest.raises(ContainmentError):
        build_hiding_channel(tetra_states(1.0), depolarizing_channel(0.36))


@pytest.mark.parametrize("a", [0.5, 0.55, 0.6])
def test_disc_behind_the_square_is_decided_by_an_edge(a):
    # the square's edges lie at Bloch distance 0.8/sqrt(2) from the centre,
    # so the disc of radius a crosses them by (a - 0.8/sqrt(2))/sqrt(2) in
    # Hilbert-Schmidt distance: inside at a = 0.5 and 0.55, outside at 0.6
    dec = polytopic_decompose(_square_disc(a))
    margin = dec.checks["max_support_excess"]
    assert margin == pytest.approx(a / np.sqrt(2) - 0.4, abs=1e-12)
    assert dec.checks["dominance_deviation"] == max(0.0, margin)
    if a < 0.6:
        assert dec.verdict == "polytopic" and dec.direction is None
    else:
        assert dec.verdict == "not_polytopic" and margin == pytest.approx(2.43e-2, abs=1e-4)
        assert np.trace(dec.direction @ PAULI_Z).real == pytest.approx(0.0, abs=1e-12)


def test_residual_ball_past_the_insphere_crosses_a_facet():
    # the tetrahedron's insphere has Bloch radius 1/3; a depolarizing block of
    # radius 0.36 beside its vertices leaves the hull through one face
    states = tetra_states(1.0)
    t = direct_sum(cq_channel(np.eye(4, dtype=complex), states), depolarizing_channel(0.36))
    dec = polytopic_decompose(t)
    assert dec.verdict == "not_polytopic"
    margin = dec.checks["max_support_excess"]
    assert margin == pytest.approx((0.36 - 1 / 3) / np.sqrt(2), abs=1e-12)
    # the witness input's output lies beyond the facet, so outside the hull
    f = dec.direction
    x = support_function(t, f)[1]
    assert np.linalg.norm(dec.w_basis.conj().T @ x) == pytest.approx(1.0, abs=1e-12)
    out = t.apply(np.outer(x, np.conj(x)))
    hull = max(np.trace(f @ s).real for s in states)
    assert np.trace(f @ out).real - hull == pytest.approx(margin, abs=1e-12)
    uia = is_universally_image_additive(t)
    assert uia.status == "no" and uia.witness["direction"] is f


def test_hull_containment_checks_the_span_of_the_states():
    # inside the square's plane: the facets decide, 0.1 inside the edges
    margin = hull_containment(unital_qubit_diag((0.4, 0.4, 0.0)), _SQUARE)[0]
    assert margin == pytest.approx(0.4 / np.sqrt(2) - 0.4, abs=1e-12)
    # a single state has no facet: only the normals decide
    sigma = bloch_state(0.3, 0.0, 0.0)
    assert abs(hull_containment(constant_channel(sigma, d_in=2), [sigma])[0]) < 1e-12
    assert hull_containment(constant_channel(bloch_state(0.3, 0.1, 0.0), d_in=2),
                            [sigma])[0] > 1e-3


def test_hull_containment_margin_off_the_span_is_a_lower_bound():
    # a ball leaves the square's plane: a normal Q of the span is the witness.
    # The margin is the worst of the SVD's orthonormal normals, not of every
    # unit normal, so it is at most the excess along sigma_z / sqrt(2)
    t = depolarizing_channel(0.1)
    margin, q, x = hull_containment(t, _SQUARE)
    z = PAULI_Z / np.sqrt(2)
    worst = support_function(t, z)[0] - np.trace(z @ _SQUARE[0]).real
    assert worst == pytest.approx(0.1 / np.sqrt(2), abs=1e-12)
    assert geometry.VERDICT_TOL < 1e-3 < margin <= worst + 1e-12
    assert max(abs(np.trace(q @ (s - _SQUARE[0]))) for s in _SQUARE) < 1e-12
    out = t.apply(np.outer(x, np.conj(x)))
    assert np.trace(q @ (out - _SQUARE[0])).real == pytest.approx(margin, abs=1e-12)


def test_hull_containment_refuses_too_many_candidate_facets():
    # 30 generic qutrit states span 8 dimensions: C(30, 8) subsets, refused
    # before any is formed
    rng = np.random.default_rng(3)
    states = [random_density(rng, 3) for _ in range(30)]
    with pytest.raises(ValueError, match="candidate facets"):
        hull_containment(dephasing_channel(3), states)


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
    geometry.input_blocks(t)  # kept: the count below is the body of _characters alone
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


def test_a_chain_of_near_points_is_one_character_group():
    # y, y + D, y + 2D with ||D||_F = 0.6e-8: neighbours lie within
    # VERDICT_TOL of each other, the two ends do not; grouping each vector
    # with the first near point left the third vector in no preimage
    y = random_density(np.random.default_rng(4), 3)
    a = 0.6e-8 / np.sqrt(2)
    step = np.diag([a, -a, 0])
    t = cq_channel(np.eye(3, dtype=complex), [y, y + step, y + 2 * step])
    points, bases = geometry._characters(t)
    assert [b.shape[1] for b in bases] == [3]
    assert np.linalg.norm(points[0] - y) <= 2 * 0.6e-8 + 1e-15
    # the verdicts are those of the grouping that lost the vector
    out = classification_stage(t)
    assert polytopic_decompose(t).verdict == "not_polytopic"
    assert (out["cq"]["status"], out["universally_image_additive"]["status"]) == ("yes", "no")


_FIXTURES = {"dephasing3": dephasing_channel(3), "trine": trine_channel(),
             "depolarizing": depolarizing_channel(0.3), "damping": amplitude_damping(0.3),
             "identity": identity_channel(2),
             "dephasing+depolarizing": direct_sum(dephasing_channel(2), depolarizing_channel(0.2)),
             **{f"assembled{s}": assembled_polytopic_fixture(s)[0] for s in range(4)},
             **{f"ecq{s}": ecq_fixture(s)[0] for s in range(4)},
             **{f"ecq{s}-residual": ecq_fixture(s, complement=2)[0] for s in range(2)}}


@pytest.mark.parametrize("t", _FIXTURES.values(), ids=_FIXTURES.keys())
def test_characters_read_from_the_input_blocks_match_the_cluster_pass(t):
    assert_same_characters(t)


@pytest.mark.parametrize("seed", range(3))
def test_input_blocks_split_off_a_character_that_shares_an_eigenvalue(seed):
    # spin-1 map in a Haar input frame: the character |0> shares the generic
    # element's eigenvalue with the m = 0 vector of W; the cluster's kept part
    # is its own block, so the blocks are [3, 1], not one 4-dim block
    t0, sigma = spin_one_channel()
    t = compose(kraus_channel([haar_unitary(np.random.default_rng(seed), 4)]), t0)
    assert [v.shape[1] for v in geometry.input_blocks(t)] == [3, 1]
    points, bases = geometry._characters(t)
    assert len(points) == 1 and bases[0].shape[1] == 1
    assert np.abs(points[0] - sigma).max() <= 1e-12
    assert_same_characters(t)


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
