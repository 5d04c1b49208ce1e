import numpy as np
import pytest

from conftest import (
    amplitude_damping,
    assembled_polytopic_fixture,
    bloch_state,
    ecq_fixture,
    first_fit_clusters_all_means,
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
    CLUSTER_TOL,
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
    records = find_vertices(dephasing_channel(3), n_directions=200, seed=1)
    assert len(records) == 3
    want = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    for w in want:
        dists = [trace_norm(r.state - w) for r in records]
        i = int(np.argmin(dists))
        assert dists[i] < 1e-8
        assert records[i].preimage_basis.shape == (3, 1)
        assert subspace_distance(records[i].preimage_basis, w.astype(complex)[:, [np.argmax(np.diag(w))]]) < 1e-8
        assert records[i].hit_count > 0


def test_polytopic_decompose_pure_cq():
    dec = polytopic_decompose(dephasing_channel(3), seed=2)
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
    dec = polytopic_decompose(t, seed=3)
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
    dec = polytopic_decompose(t, seed=17)
    assert dec.verdict == "polytopic"
    assert len(dec.vertices) == k


@pytest.mark.parametrize("channel", [depolarizing_channel(0.7), trine_channel()])
def test_round_image_is_not_polytopic(channel):
    dec = polytopic_decompose(channel, n_directions=200, seed=4)
    assert dec.verdict == "not_polytopic"
    assert not dimension_bound_check(dec)
    assert dec.direction.shape == (channel.d_out, channel.d_out)


def test_polytopic_decompose_is_computed_once_per_arguments():
    t = dephasing_channel(3)
    dec = polytopic_decompose(t, seed=0)
    assert polytopic_decompose(t, seed=0) is dec
    assert polytopic_decompose(t, n_directions=400, seed=0) is dec
    other = polytopic_decompose(t, seed=1)
    assert other is not dec
    assert polytopic_decompose(t, seed=1) is other


def test_polytopic_decompose_solves_each_map_once():
    # T* on the fresh directions and t2* on the fresh plus every vertex's
    # exposing directions, after the one stacked solve of find_vertices
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
    checks = ("max_support_excess", "reconstruction_deviation", "orthogonality_deviation",
              "dominance_deviation", "min_vertex_separation")
    out = image_stage(trine_channel(), 0, 400)  # no vertices, so no checks
    assert out["status"] == "not_polytopic" and out["n_vertices"] == 0
    assert not set(checks) & set(out)
    out = image_stage(assembled_polytopic_fixture(0)[0], 0, 400)
    assert out["status"] == "polytopic" and out["residual_dim"] > 0
    assert set(checks) <= set(out)
    assert out["min_vertex_separation"] >= geometry.SEPARATION_MIN
    assert max(out[c] for c in checks[:4]) <= geometry.VERDICT_TOL


class _CountingRng:
    """A generator that counts its ``normal`` calls."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_find_vertices_draws_its_directions_in_one_call(monkeypatch):
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: made.append(_CountingRng(default_rng(*a, **k))) or made[-1])
    assert len(find_vertices(dephasing_channel(3), n_directions=400)) == 3
    assert len(made) == 1 and made[0].normal_calls == 1


@pytest.mark.parametrize("channel", [depolarizing_channel(0.5), trine_channel()],
                         ids=["depolarizing", "trine"])
def test_vertex_clustering_makes_no_trace_norm_per_pair(channel, monkeypatch):
    # one stacked trace-distance call per point, plus the tie check and one
    # member filter per vertex candidate: never one per (point, cluster) pair
    calls = []
    clusters = []
    trace_distances = geometry._trace_distances

    def counted(y, others):
        calls.append(1)
        if np.ndim(y) == 2 and np.ndim(others) == 3:  # a point against the cluster means
            clusters.append(len(others))
        return trace_distances(y, others)

    monkeypatch.setattr(geometry, "_trace_distances", counted)
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(1) or eigvalsh(a))
    find_vertices(channel, n_directions=400, seed=0)
    n_clusters = max(clusters, default=0) + 1  # the last point sees all but one at most
    assert len(calls) <= 400 + n_clusters
    # the tie check, and no point of a round image near enough to a cluster
    # mean in Frobenius norm to need the eigensolve
    assert len(solves) <= 2


def _record_bytes(r):
    return (r.state.tobytes(), r.preimage_basis.shape, r.preimage_basis.tobytes(), r.hit_count,
            r.directions.tobytes())


@pytest.mark.parametrize("t", [depolarizing_channel(0.5), trine_channel(), amplitude_damping(0.35),
                               dephasing_channel(3)]
                         + [assembled_polytopic_fixture(i)[0] for i in range(4)]
                         + [ecq_fixture(i)[0] for i in range(4)],
                         ids=["depolarizing", "trine", "amplitude-damping", "dephasing3"]
                         + [f"assembled{i}" for i in range(4)] + [f"ecq{i}" for i in range(4)])
def test_find_vertices_matches_the_all_means_clustering(t, monkeypatch):
    got = [find_vertices(t, n_directions=400, seed=s) for s in range(3)]
    monkeypatch.setattr(geometry, "_first_fit_clusters", first_fit_clusters_all_means)
    for s, records in enumerate(got):
        ref = find_vertices(t, n_directions=400, seed=s)
        assert [_record_bytes(r) for r in records] == [_record_bytes(r) for r in ref]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("scale, joins", [(1 - 1e-6, True), (1 + 1e-6, False)],
                         ids=["just-under", "just-over"])
def test_clustering_at_the_trace_norm_edge(d, scale, joins):
    y = random_density(np.random.default_rng(d), d)
    a = scale * CLUSTER_TOL / 2  # trace distance 2a, Frobenius distance a * sqrt(2)
    points = np.array([y, y + np.diag([a, -a, 0][:d])])
    means, counts, members = geometry._first_fit_clusters(points)
    assert members == ([[0, 1]] if joins else [[0], [1]])
    ref = first_fit_clusters_all_means(points)
    assert means.tobytes() == ref[0].tobytes() and list(counts) == list(ref[1])


def test_clustering_lets_the_trace_norm_decide_below_the_frobenius_bound(monkeypatch):
    # diag(a, a, -2a): Frobenius norm a * sqrt(6) <= CLUSTER_TOL < trace norm 4a
    y = random_density(np.random.default_rng(3), 3)
    a = 0.3 * CLUSTER_TOL
    diff = np.diag([a, a, -2 * a])
    assert np.linalg.norm(diff) <= CLUSTER_TOL < trace_norm(diff)
    solved = []
    trace_distances = geometry._trace_distances
    monkeypatch.setattr(geometry, "_trace_distances",
                        lambda y, others: solved.append(len(others)) or trace_distances(y, others))
    means, counts, members = geometry._first_fit_clusters(np.array([y, y + diff]))
    assert members == [[0], [1]]
    assert solved == [1]  # the prefilter passed the cluster on; the eigensolve kept it apart


def _clustering_solves(monkeypatch):
    """Sizes of the ``_trace_distances`` calls made inside ``_first_fit_clusters``."""
    solved, inside = [], []
    run, trace_distances = geometry._first_fit_clusters, geometry._trace_distances

    def clusters(points):
        inside.append(1)
        try:
            return run(points)
        finally:
            inside.pop()

    def counted(y, others):
        if inside:
            solved.append(len(others))
        return trace_distances(y, others)

    monkeypatch.setattr(geometry, "_first_fit_clusters", clusters)
    monkeypatch.setattr(geometry, "_trace_distances", counted)
    return solved


@pytest.mark.parametrize("t, n_vertices", [(dephasing_channel(3), 3),
                                           (assembled_polytopic_fixture(0)[0],
                                            assembled_polytopic_fixture(0)[2])],
                         ids=["dephasing3", "assembled0"])
def test_close_points_join_with_no_eigensolve(t, n_vertices, monkeypatch):
    solved = _clustering_solves(monkeypatch)
    records = find_vertices(t, n_directions=400, seed=0)
    assert len(records) == n_vertices
    assert solved == []


@pytest.mark.parametrize("scale, solves", [(1 - 1e-6, []), (1 + 1e-6, [1])],
                         ids=["just-under", "just-over"])
def test_close_join_at_the_frobenius_bound(scale, solves, monkeypatch):
    # diag(a, -a, 0): sqrt(3) times its Frobenius norm a * sqrt(2) is
    # scale * CLUSTER_TOL / 2, its trace norm 2a = 0.41 * scale * CLUSTER_TOL
    y = random_density(np.random.default_rng(4), 3)
    a = scale * CLUSTER_TOL / (2 * np.sqrt(6))
    points = np.array([y, y + np.diag([a, -a, 0])])
    solved = _clustering_solves(monkeypatch)
    means, counts, members = geometry._first_fit_clusters(points)
    assert members == [[0, 1]]
    assert solved == solves
    ref = first_fit_clusters_all_means(points)
    assert means.tobytes() == ref[0].tobytes() and list(counts) == list(ref[1])


@pytest.mark.parametrize("t", [dephasing_channel(3), trine_channel(), depolarizing_channel(0.5),
                               assembled_polytopic_fixture(1)[0], ecq_fixture(2)[0]],
                         ids=["dephasing3", "trine", "depolarizing", "assembled", "ecq"])
def test_decomposition_verdict_is_unitarily_invariant(t):
    dec = polytopic_decompose(t, seed=0)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u, v = haar_unitary(rng, t.d_in), haar_unitary(rng, t.d_out)
        rotated = conjugate(compose(kraus_channel([u]), t), v)
        rdec = polytopic_decompose(rotated, seed=0)
        assert rdec.verdict == dec.verdict
        assert len(rdec.vertices) == len(dec.vertices)
