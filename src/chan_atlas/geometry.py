"""Image geometry: support functions, Bloch picture, vertex detection and
polytopic decomposition.

The image of a channel, ``Im(T) = {T(rho) : rho a state}``, is a compact
convex set.  Its support function in a Hermitian direction ``H`` is the top
eigenvalue of ``T*(H)``, attained on a pure input.  Every sweep over
directions goes through one stacked path: ``T*`` of the whole stack of
directions through the natural matrix, one stacked ``eigh``, and the outputs
``T(x x*)`` of the stacked maximizers.  Vertex detection samples random
directions and looks for output points that are hit by a positive fraction
of them: a vertex owns a full-dimensional normal cone, while an exposed
smooth point is only reached by a measure-zero set of directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, PovmForm, _max_column_op_norm, _natural_channel
from .linalg import (
    PAULIS,
    canonical_phase,
    herm,
    hvec,
    intersect_subspaces,
    op_norm,
    orthogonal_complement,
    orthonormal_columns,
    random_directions,
    vec,
)

CLUSTER_TOL = 1e-6
EIG_GAP = 1e-8
MEMBER_TOL = 1e-8
VERDICT_TOL = 1e-8
EXCESS_WITNESS_TOL = 1e-6
SEPARATION_MIN = 1e-6
VERIFY_DIRECTIONS = 200  # fresh directions that check a decomposition


@dataclass
class SupportValue:
    value: float
    maximizer: np.ndarray  # unit vector in the input space, phase-canonical


def _spectra(t, hs):
    """Stacked eigendecompositions of ``T*(H)`` for the directions ``hs``."""
    return np.linalg.eigh(herm(t.dual_apply(hs)))


def _pairing(hs, states):
    """``Tr(H sigma)`` for every direction (rows) and state (columns)."""
    return np.einsum("nab,kba->nk", hs, np.asarray(states)).real


def support_function(t, h):
    """Support function of Im(T) in direction ``h`` with its attaining input.

    ``h`` must be Hermitian.  The value is ``lambda_max(T*(h))`` and the
    maximizer the corresponding eigenvector (deterministic phase convention;
    for a degenerate top eigenvalue the eigensolver's last column is used).
    """
    h = np.asarray(h, dtype=complex)
    if op_norm(h - h.conj().T) > 1e-10:
        raise ValueError("direction must be Hermitian")
    w, u = _spectra(t, h)
    return SupportValue(value=float(w[-1]), maximizer=canonical_phase(u[:, -1]))


def hull_excess(t, states, directions):
    """How far ``Im(T)`` reaches beyond the convex hull of ``states``.

    Returns ``(excess, direction)``: the largest ``h_T(H) - max_i Tr(H
    sigma_i)`` over ``directions`` and the first direction attaining it.
    An excess above zero means the image is not inside the hull.
    """
    hs = np.asarray(directions, dtype=complex)
    excess = _spectra(t, hs)[0][:, -1] - _pairing(hs, states).max(axis=1)
    i = int(np.argmax(excess))
    return float(excess[i]), hs[i]


# -- qubit Bloch picture ------------------------------------------------


@dataclass
class BlochAffineMap:
    linear: np.ndarray  # real 3x3
    shift: np.ndarray   # real 3


def bloch_map(t):
    """Affine action on Bloch vectors of a qubit-to-qubit channel."""
    if (t.d_in, t.d_out) != (2, 2):
        raise ValueError("Bloch picture requires a qubit-to-qubit channel")
    q = np.array([vec(p) for p in (np.eye(2), *PAULIS)]).T
    m = (q.conj().T @ t.natural_matrix() @ q).real / 2  # Tr(P_i T(P_j / 2))
    lin, shift = m[1:, 1:], m[1:, 0]
    return BlochAffineMap(linear=lin, shift=shift)


@dataclass
class FAReport:
    is_cp: bool
    margins: np.ndarray  # the four linear forms 1 +- l1 +- l2 +- l3 (even sign count)
    lams: tuple


def fujiwara_algoet_check(lams, band=1e-9):
    """Complete positivity of the diagonal unital qubit map with signed
    compressions ``lams``.

    The two stated inequalities close under the sign/permutation symmetries of
    the map into four linear forms; divided by four these are exactly the Choi
    eigenvalues, so the verdict provably agrees with the Choi PSD check.
    A verdict within ``band`` of the boundary counts as CP.
    """
    l1, l2, l3 = (float(x) for x in lams)
    margins = np.array([
        1 + l1 + l2 + l3,
        1 + l1 - l2 - l3,
        1 - l1 + l2 - l3,
        1 - l1 - l2 + l3,
    ])
    return FAReport(is_cp=bool(np.min(margins) >= -4 * band), margins=margins, lams=(l1, l2, l3))


# -- vertex detection ---------------------------------------------------


@dataclass
class VertexRecord:
    state: np.ndarray            # output density matrix at the vertex
    preimage_basis: np.ndarray   # orthonormal columns spanning V_i
    hit_count: int
    directions: np.ndarray = field(repr=False)  # exposing directions, stacked


def _trace_distances(y, others):
    """Trace norms of the Hermitian differences ``y - others``, stacked."""
    return np.abs(np.linalg.eigvalsh(y - others)).sum(-1)


def _affine_rank(points):
    if len(points) < 2:
        return 0
    coords = hvec(points)
    coords = coords - coords.mean(axis=0)
    s = np.linalg.svd(coords, compute_uv=False)
    return int(np.sum(s > 1e-6 * max(1.0, s[0])))


def _first_fit_clusters(points):
    """Cluster Hermitian ``points`` first-fit in their order.

    Each point joins the first cluster whose mean is within ``CLUSTER_TOL``
    of it in trace norm, or starts a new one.  The trace norm bounds the
    Frobenius norm, so only means within ``2 * CLUSTER_TOL`` in Frobenius norm
    are candidates; and ``||A||_1 <= sqrt(d) ||A||_F``, so a point joins the
    first candidate with no eigensolve when ``sqrt(d)`` times its Frobenius
    distance is at most ``CLUSTER_TOL / 2`` (both factors of 2 are roundoff
    margins).  Returns the cluster means, their hit counts and the indices of
    each cluster's points.
    """
    sums = np.zeros_like(points)
    means = np.zeros_like(points)
    counts = np.zeros(len(points), dtype=int)
    members = []
    for i, y in enumerate(points):
        n = len(members)
        frob = np.linalg.norm(means[:n] - y, axis=(1, 2))
        near = np.flatnonzero(frob <= 2 * CLUSTER_TOL)
        if near.size and np.sqrt(len(y)) * frob[near[0]] > CLUSTER_TOL / 2:
            near = near[_trace_distances(y, means[near]) <= CLUSTER_TOL]
        c = near[0] if near.size else n
        if c == n:
            members.append([])
        sums[c] += y
        counts[c] += 1
        means[c] = sums[c] / counts[c]
        members[c].append(i)
    return means[:len(members)], counts[:len(members)], members


def find_vertices(t, n_directions=400, seed=0):
    """Detect the vertices of ``Im(T)`` together with their input preimages.

    Parameters
    ----------
    t : Channel
    n_directions : int
        Number of random Hermitian directions (at least 50).
    seed : int
        Seed for the direction sample; results are deterministic per seed.

    Returns
    -------
    list of VertexRecord, ordered lexicographically by the rounded
    coordinates of the vertex state.

    Notes
    -----
    One stacked ``eigh`` of ``T*(H)`` over all directions gives each top
    eigenspace (eigenvalues within ``EIG_GAP`` of the top).  A direction
    whose top eigenspace maps to more than one output point (a tie between
    faces) is discarded; a degenerate eigenspace mapping to one point is
    kept whole, the signature of a higher-dimensional vertex preimage.  The
    points are clustered first-fit in direction order: each joins the first
    cluster whose mean is within ``CLUSTER_TOL`` in trace norm.  The trace
    norm bounds the Frobenius norm, so only the clusters whose means lie
    within ``2 * CLUSTER_TOL`` of the point in Frobenius norm are candidates;
    on a round image almost no point has one.  Since
    ``||A||_1 <= sqrt(d) ||A||_F``, a point whose first candidate is within
    ``CLUSTER_TOL / (2 sqrt(d))`` in Frobenius norm joins it with no
    eigensolve; any other candidates get the trace-norm eigensolve, one
    stacked ``eigvalsh`` of their Hermitian differences.  A
    cluster counts as a vertex when its hit count is at least ``2 * n_dof``
    (and at least 2), ``n_dof`` being the estimated affine dimension of the
    image; exposed non-vertex points are attained by measure-zero direction
    sets, so their clusters stay near a single hit.  The preimage is the
    intersection of the top eigenspaces over the cluster's directions,
    pruned to the vectors that reproduce the vertex.
    """
    if n_directions < 50:
        raise ValueError("need at least 50 directions")
    rng = np.random.default_rng(seed)
    hs = random_directions(rng, n_directions, t.d_out)
    w, u = _spectra(t, hs)
    top = w >= w[:, -1:] - EIG_GAP  # each direction's top eigenspace
    owner = np.nonzero(top)[0]
    outs = herm(t.pure_outputs(np.swapaxes(u, 1, 2)[top]))
    size = top.sum(axis=1)
    first = np.cumsum(size) - size  # where each direction's vectors start in ``outs``
    tied = _trace_distances(outs, outs[first[owner]]) > CLUSTER_TOL
    kept = np.flatnonzero(np.bincount(owner[tied], minlength=n_directions) == 0)
    points = herm(np.add.reduceat(outs, first)[kept] / size[kept, None, None])

    means, counts, members = _first_fit_clusters(points)
    n_dof = _affine_rank(points)
    need = max(2, 2 * n_dof)
    records = []
    for c, idx in enumerate(members):
        if counts[c] < need:
            continue
        state = herm(means[c])
        dirs = kept[idx]
        inter = intersect_subspaces([u[j][:, top[j]] for j in dirs])
        good = inter[:, _trace_distances(t.pure_outputs(inter.T), state) <= MEMBER_TOL]
        if not good.shape[1]:
            continue
        basis = orthonormal_columns(good)
        records.append(VertexRecord(state=state, preimage_basis=basis,
                                    hit_count=int(counts[c]), directions=hs[dirs]))
    keys = np.round(hvec(np.reshape([r.state for r in records], (-1, t.d_out, t.d_out))), 6)
    return [records[i] for i in sorted(range(len(records)), key=lambda i: tuple(keys[i]))]


# -- polytopic decomposition -------------------------------------------


@dataclass
class PolytopicDecomposition:
    """The split ``(+)_i V_i (+) W`` of the input space and the numbers that decide it.

    ``direction`` is the fresh direction of largest support excess over the
    hull of the vertices, or the first fresh direction when there are none.
    ``checks`` holds ``max_support_excess``, ``reconstruction_deviation``,
    ``orthogonality_deviation`` and ``dominance_deviation``, plus
    ``min_vertex_separation`` when ``t2`` exists; it is empty when no vertex
    was detected.
    """

    verdict: str                  # "polytopic" | "not_polytopic" | "indeterminate"
    vertices: list
    vertex_basis: np.ndarray      # d_in x dim(V), blocks concatenated
    w_basis: np.ndarray           # d_in x dim(W)
    t1: Channel | None            # CQ-like block on V coordinates
    t2: Channel | None            # compression to W coordinates
    direction: np.ndarray         # fresh direction of largest support excess
    checks: dict                  # the deciding numbers by name
    n_dof: int
    d_in: int


def polytopic_decompose(t, n_directions=400, seed=0):
    """Split the input space as ``(+)_i V_i (+) W`` from the detected vertices.

    On the span of the vertex preimages the channel acts classically
    (``rho -> sum_i Tr(P_{V_i} rho) sigma_i``); ``t2`` is the compression to
    the residual ``W``.  ``VERIFY_DIRECTIONS`` fresh random directions check
    the split.  The verdict is ``polytopic`` when on them the support
    function of the channel matches the hull of the detected vertices within
    1e-8, ``Im(t2)`` stays inside that hull and every vertex is separated
    from ``Im(t2)``, while the preimages are orthogonal and the block
    reconstruction reproduces the channel; ``not_polytopic`` requires an
    explicit direction with support excess at least 1e-6 over the detected
    hull (with no vertices at all, any sampled direction witnesses this);
    anything between is ``indeterminate``.  Each map is solved once: one
    stacked eigensolve of ``T*`` on the fresh directions, and one of ``t2*``
    on the fresh directions followed by every vertex's exposing directions.

    The decomposition is computed once per channel and arguments; later
    calls return the object kept on ``t``.
    """
    key = (n_directions, seed)
    if key not in t._decompositions:
        t._decompositions[key] = _decompose(t, *key)
    return t._decompositions[key]


def _decompose(t, n_directions, seed):
    rng = np.random.default_rng(seed)
    records = find_vertices(t, n_directions=n_directions, seed=int(rng.integers(2 ** 31)))
    k = len(records)
    d = t.d_in

    fresh = random_directions(rng, VERIFY_DIRECTIONS, t.d_out)
    w, u = _spectra(t, fresh)
    n_dof = _affine_rank(t.pure_outputs(u[:, :, -1]))

    if k == 0:
        return PolytopicDecomposition(
            verdict="not_polytopic", vertices=[], vertex_basis=np.zeros((d, 0), dtype=complex),
            w_basis=np.eye(d, dtype=complex), t1=None, t2=t, direction=fresh[0], checks={},
            n_dof=n_dof, d_in=d)
    states = [r.state for r in records]
    pairing = _pairing(fresh, states)
    hull = pairing.max(axis=1)  # support function of the vertex hull
    excess = w[:, -1] - hull
    top = int(np.argmax(excess))

    # pairwise orthogonality of the preimages
    ortho_dev = max((op_norm(records[i].preimage_basis.conj().T @ records[j].preimage_basis)
                     for i in range(k) for j in range(i + 1, k)), default=0.0)

    vbasis = np.concatenate([r.preimage_basis for r in records], axis=1)
    wbasis = orthogonal_complement(vbasis, d)
    dim_w = wbasis.shape[1]

    labels = np.repeat(np.arange(k), [r.preimage_basis.shape[1] for r in records])
    effects = [np.diag(labels == i).astype(complex) for i in range(k)]
    t1 = Channel(PovmForm(effects, states), d_in=vbasis.shape[1], d_out=t.d_out)
    n = t.natural_matrix()
    t2 = (_natural_channel(n @ np.kron(wbasis, wbasis.conj()), dim_w, t.d_out)
          if dim_w else None)

    # exact reconstruction T(e) = t1(V* e V) + t2(W* e W) on the matrix units
    resid = n - t1.natural_matrix() @ np.kron(vbasis.conj().T, vbasis.T)
    if t2 is not None:
        resid = resid - t2.natural_matrix() @ np.kron(wbasis.conj().T, wbasis.T)

    checks = {
        "max_support_excess": float(excess[top]),
        "reconstruction_deviation": _max_column_op_norm(resid, t.d_out),
        "orthogonality_deviation": float(ortho_dev),
        "dominance_deviation": 0.0,
    }
    separated = True
    if t2 is not None:
        # Im(t2) inside the hull, and each vertex separated from Im(t2) on its
        # own exposing directions and the first 50 fresh ones
        h2 = _spectra(t2, np.concatenate([fresh, *(r.directions for r in records)]))[0][:, -1]
        checks["dominance_deviation"] = max(0.0, float(np.max(h2[:len(fresh)] - hull)))
        seps = []
        start = len(fresh)
        for c, r in enumerate(records):
            end = start + len(r.directions)
            own = _pairing(r.directions, [r.state])[:, 0] - h2[start:end]
            seps.append(float(max(own.max(), np.max(pairing[:50, c] - h2[:50]))))
            start = end
        checks["min_vertex_separation"] = min(seps)
        separated = checks["min_vertex_separation"] >= SEPARATION_MIN

    if (checks["max_support_excess"] <= VERDICT_TOL
            and checks["reconstruction_deviation"] <= VERDICT_TOL
            and ortho_dev <= 1e-9 and checks["dominance_deviation"] <= VERDICT_TOL and separated):
        verdict = "polytopic"
    elif checks["max_support_excess"] >= EXCESS_WITNESS_TOL:
        verdict = "not_polytopic"
    else:
        verdict = "indeterminate"
    return PolytopicDecomposition(
        verdict=verdict, vertices=records, vertex_basis=vbasis, w_basis=wbasis,
        t1=t1, t2=t2, direction=fresh[top], checks=checks, n_dof=n_dof, d_in=d)


def dimension_bound_check(dec):
    """Whether a polytopic image has affine dimension at most k-1 and k at
    most d_in, for its k vertices."""
    k = len(dec.vertices)
    return bool(dec.verdict == "polytopic" and dec.n_dof <= k - 1 and k <= dec.d_in)


# -- planar boundary sampling ------------------------------------------


def default_plane(d_out):
    """Deterministic pair of orthonormal traceless Hermitian axes."""
    if d_out == 2:
        return PAULIS[0].copy(), PAULIS[1].copy()
    a = np.zeros((d_out, d_out), dtype=complex)
    a[0, 0], a[1, 1], a[2, 2] = 2, -1, -1
    b = np.zeros((d_out, d_out), dtype=complex)
    b[1, 1], b[2, 2] = 1, -1
    return a / np.sqrt(6), b / np.sqrt(2)


def image_boundary_2d(t, n_points=256):
    """Boundary of the image projected onto the plane of ``default_plane``.

    Returns rows ``(theta, x, y)``: for each angle the support maximizer in
    direction ``cos(theta) A + sin(theta) B`` is evaluated and projected to
    ``(Tr(A w), Tr(B w))``.  The points lie on the boundary of the projected
    image.
    """
    if n_points < 1:
        raise ValueError("need at least one boundary point")
    if t.d_out < 2:
        raise ValueError("planar projection needs output dimension at least 2")
    a, b = default_plane(t.d_out)
    theta = np.linspace(0.0, 2 * np.pi, n_points, endpoint=False)
    hs = np.cos(theta)[:, None, None] * a + np.sin(theta)[:, None, None] * b
    w = t.pure_outputs(_spectra(t, hs)[1][:, :, -1])
    return np.column_stack([theta, _pairing(w, [a, b])])
