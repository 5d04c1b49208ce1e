"""Image geometry: support functions, Bloch picture, vertex detection and
polytopic decomposition.

The image of a channel, ``Im(T) = {T(rho) : rho a state}``, is a compact
convex set.  Its support function in a Hermitian direction ``H`` is the top
eigenvalue of ``T*(H)``, attained on a pure input.  Every sweep over
directions goes through one stacked path: ``T*`` of the whole stack of
directions through the natural matrix, one stacked ``eigh``, and the outputs
``T(x x*)`` of the stacked maximizers.

Vertices are computed, not sampled.  If the image is a polytope, every
vertex preimage is a common eigenvector (a *character*) of the range of the
adjoint ``{T*(H)}``, which one SVD of the natural matrix gives; a character
spans an input block of its own (:func:`input_blocks`, the one structure of
that range), the vertices are the character points ``T(vv*)`` outside the
hull of the others, and the image spans ``rank(N) - 1`` affine dimensions.
A residual block is checked against the normals and facets of the vertex
hull (:func:`hull_containment`), so nothing here draws a random number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .channels import Channel, PovmForm, _max_column_op_norm, _natural_channel, kept
from .linalg import (
    PAULIS,
    align_frames,
    canonical_phase,
    eig_clusters,
    generic,
    herm,
    hvec,
    join_coupled,
    kron,
    op_norm,
    orthogonal_complement,
    unhvec,
    vec,
)

VERDICT_TOL = 1e-8
BLOCK_TOL = 1e-9  # coupling and leak, relative to a range element, that still split the input
BLOCK_ROUNDOFF = 1e-14  # a larger relative leak of a split is polished (``_polish``)
MAX_FACET_CANDIDATES = 20_000  # subsets of states one containment check may try


def _spectra(t, hs):
    """Stacked eigendecompositions of ``T*(H)`` for the directions ``hs``."""
    return np.linalg.eigh(herm(t.dual_apply(hs)))


def hull_containment(t, states):
    """How far ``Im(T)`` reaches beyond the hull of ``states``, decided exactly.

    ``Im(T)`` is inside exactly when ``T*(Q) = Tr(Q sigma_1) I`` for every
    Hermitian ``Q`` normal to the states' affine span (of dimension ``m``)
    and ``lambda_max(T*(F)) <= b`` on every facet ``(F, b)``.  The candidates
    are the hyperplanes through ``m`` states with all states on one side,
    ``b`` the largest ``Tr(F sigma_i)``.  Returns ``(margin, F, x)``: the
    largest ``lambda_max(T*(F)) - b``, its unit functional and top
    eigenvector, an input whose output lies ``margin`` beyond ``F`` in
    Hilbert-Schmidt distance.  A normal ``+-Q`` takes the place of ``F`` when
    its equality fails by more than ``VERDICT_TOL`` or there is no facet; its
    margin is then the worst of the SVD's orthonormal normals, only a lower
    bound on the worst unit normal's excess, but the verdict is still exact.
    """
    c = hvec(np.asarray(states))
    _, s, vt = np.linalg.svd(c - c[0])
    m = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    if comb(len(c), m) > MAX_FACET_CANDIDATES:
        raise ValueError(f"{len(c)} states give {comb(len(c), m)} candidate facets, too many")
    y = (c - c[0]) @ vt[:m].T
    subsets = np.array(list(combinations(range(len(c)), m))) if m else np.zeros((0, 0), int)
    # the hyperplane a.y + g = 0 through each subset, |a| = 1, from a null vector of [y_j, 1]
    g = np.linalg.svd(np.concatenate([y[subsets], np.ones((*subsets.shape, 1))], axis=2))[2][:, -1]
    g = g / np.linalg.norm(g[:, :m], axis=1, keepdims=True)
    side = y @ g[:, :m].T + g[:, m]  # signed distances of the states
    a = np.concatenate([g[side.max(0) <= VERDICT_TOL], -g[side.min(0) >= -VERDICT_TOL]])[:, :m]
    q = vt[m:]
    fun = np.concatenate([q, -q, a @ vt[:m]])
    bound = np.concatenate([q @ c[0], -(q @ c[0]), (a @ vt[:m] @ c.T).max(axis=1)])
    w, u = _spectra(t, unhvec(fun, t.d_out))
    excess = w[:, -1] - bound
    i = int(np.argmax(excess[:2 * len(q)]))
    if excess[i] <= VERDICT_TOL and len(a):
        i = 2 * len(q) + int(np.argmax(excess[2 * len(q):]))
    return float(excess[i]), unhvec(fun[i], t.d_out), canonical_phase(u[i, :, -1])


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


# -- vertices from the range of the adjoint ----------------------------


@kept
def _adjoint_range(t):
    """The range of the adjoint, ``{T*(H)}``, from one SVD of ``N^H``.

    Returns ``(x, y, parts)``: the orthonormal output directions ``X_i``
    (right singular vectors as matrices), the weighted elements
    ``Y_i = T*(X_i) / s_max`` of the range, where ``s_max`` is the operator
    norm of the natural matrix ``N``, and the Hermitian parts ``P_k`` of
    ``Y_i`` and ``-i Y_i``, which span the range since it is ``*``-closed.
    Singular values below ``1e-10 s_max`` are cut, so ``len(y)`` is the
    rank of ``N``.
    """
    d, n = t.d_in, t.d_out
    u, s, vh = np.linalg.svd(t.natural_matrix().conj().T, full_matrices=False)
    r = int(np.sum(s > 1e-10 * s[0]))
    y = (u[:, :r] * (s[:r] / s[0])).T.reshape(r, d, d)
    return vh[:r].conj().reshape(r, n, n), y, herm(np.concatenate([y, -1j * y]))


@kept
def input_blocks(t):
    """Orthonormal bases ``V_k`` (columns) of input blocks that split ``T``:
    ``T(rho) = sum_k T(P_k rho P_k)`` with ``P_k = V_k V_k*``.

    The one structure of the range of the adjoint: :func:`_characters` and
    the CQ basis of :func:`~.classify.is_cq` read it.  Projectors ``P_k``
    split ``T`` exactly when every range element is block diagonal in them.
    Each eigenvalue cluster of one generic element of the range is cut into
    the part that every Hermitian part of :func:`_adjoint_range` keeps inside
    it (a stacked null space, cut at ``BLOCK_TOL``) and the rest, so a
    character sharing its eigenvalue gets a block of its own.  The parts are
    joined where a second generic element couples them by more than
    ``BLOCK_TOL`` (:func:`~.linalg.join_coupled`).  A joined block of ``n``
    parts of one dimension ``s > 1`` (equal blocks share their eigenvalues)
    is also tried as ``s`` blocks of dimension ``n``, aligned by the polar
    parts of the second element between them (:func:`~.linalg.align_frames`).
    Every Hermitian part must leak at most ``BLOCK_TOL`` of its norm (or of
    1) off the blocks, after a :func:`_polish` of a leak above
    ``BLOCK_ROUNDOFF``; the finer split is taken when it holds, else the
    joined blocks, else one block.  A full range, rank ``d_in^2``, is one
    block at once, with no ``eigh``.  Blocks may come out coarser than the
    finest split, never wrong.
    """
    d = t.d_in
    _, elements, parts = _adjoint_range(t)
    one = [np.eye(d, dtype=complex)]
    if len(elements) == d * d:
        return one
    gens = generic(parts, 2)
    w, u = np.linalg.eigh(gens[0])
    frames = []
    for idx in eig_clusters(w):
        e, r = u[:, idx], 0
        if len(idx) > 1:  # the rank r of the leak out of the cluster; its null space is kept
            xe = parts @ e
            _, s, vh = np.linalg.svd((xe - e @ (e.conj().T @ xe)).reshape(-1, len(idx)),
                                     full_matrices=False)
            r = int(np.sum(s > BLOCK_TOL))
        frames += [e @ vh[r:].conj().T, e @ vh[:r].conj().T] if 0 < r < len(idx) else [e]
    u = np.concatenate(frames, axis=1)
    clusters = np.split(np.arange(d), np.cumsum([f.shape[1] for f in frames])[:-1])
    cut = BLOCK_TOL * max(1.0, np.linalg.norm(gens[1]))
    comp = join_coupled(u, clusters, gens[1], cut)
    joined, split = [], []
    for first in np.flatnonzero(comp == np.arange(len(comp))):
        group = [f for f, b in zip(frames, comp) if b == first]
        joined.append(np.concatenate(group, axis=1))
        split += _multiplicity_split(group, gens[1], cut) or joined[-1:]
    scale = np.maximum(1.0, np.linalg.norm(parts, axis=(1, 2)))

    def leak(v, labels):  # each part's norm off the blocks, over its scale
        off = (v.conj().T @ parts @ v) * (labels[:, None] != labels)
        return np.linalg.norm(off, axis=(1, 2)) / scale

    for bases in ([split] if len(split) > len(joined) else []) + [joined]:
        if len(bases) == 1:
            break
        labels = np.repeat(np.arange(len(bases)), [b.shape[1] for b in bases])
        v = np.concatenate(bases, axis=1)
        if leak(v, labels).max() > BLOCK_ROUNDOFF:
            v = _polish(v, labels, gens)
        if leak(v, labels).max() <= BLOCK_TOL:
            return [v[:, labels == k] for k in range(len(bases))]
    return one


def _polish(v, labels, gens):
    """The unitary ``v`` turned by the first-order rotation ``I + G`` that
    makes each element ``X`` of ``gens`` block diagonal (blocks by
    ``labels``) in least squares: ``G D - D G`` is the off-block part of
    ``v* X v``, ``D`` its block-diagonal part; then its polar part.  Blocks
    cut along a nearly degenerate eigenvalue of the first element, whose
    eigenvectors mix across them by roundoff over the gap, come back to
    roundoff."""
    d = len(v)
    x = v.conj().T @ gens @ v
    off = (labels[:, None] != labels).ravel()
    dg = np.where(off.reshape(d, d), 0, x)
    eye = np.eye(d)
    ops = np.einsum("ij,xba->xiajb", eye, dg) - np.einsum("xij,ab->xiajb", dg, eye)
    ops = ops.reshape(len(x), d * d, d * d)[:, off][:, :, off]
    g = np.zeros(d * d, dtype=complex)
    g[off] = np.linalg.lstsq(ops.reshape(-1, off.sum()), x.reshape(len(x), -1)[:, off].ravel(),
                             rcond=None)[0]
    uu, _, vvh = np.linalg.svd(eye + g.reshape(d, d))
    return v @ (uu @ vvh)


def _multiplicity_split(frames, y, cut):
    """Eigenspaces ``F_0, ..., F_{n-1}`` of one dimension ``s > 1`` as ``s``
    bases of dimension ``n``: column ``m`` of each frame after
    :func:`~.linalg.align_frames`.  None when ``n`` or ``s`` is 1, the
    dimensions differ, or ``y`` does not couple every ``F_k`` to ``F_0`` by
    more than ``cut``."""
    s = frames[0].shape[1]
    if len(frames) == 1 or s == 1 or any(f.shape[1] != s for f in frames):
        return None
    f, smallest = align_frames(np.stack(frames), y)
    return list(f.transpose(2, 1, 0)) if smallest > cut else None


@kept
def block_restrictions(t):
    """The restriction ``T_k(rho) = T(V_k rho V_k*)`` to each of :func:`input_blocks`."""
    n = t.natural_matrix()
    return [_natural_channel(n @ kron(v, v.conj()), v.shape[1], t.d_out)
            for v in input_blocks(t)]


@dataclass
class VertexRecord:
    state: np.ndarray            # output density matrix at the vertex
    preimage_basis: np.ndarray   # orthonormal columns spanning V_i


def _characters(t):
    """Every character point of ``T`` with an orthonormal basis of its preimage.

    A character is a common eigenvector ``v`` of the range of the adjoint;
    its point is ``T(vv*)``.  Its span is invariant under the ``*``-closed
    range, so it lies in one of :func:`input_blocks`; a block of dimension
    above 1 is split by a second fixed combination of the range elements
    ``X_k``.  Vectors with ``||X_k v - <v, X_k v> v|| <= VERDICT_TOL`` for
    every ``k`` are kept and grouped by their point (within ``VERDICT_TOL``
    in Frobenius norm, closed transitively).  Returns the points
    ``(k, d_out, d_out)`` and the bases.
    """
    parts = _adjoint_range(t)[2]
    second = generic(parts, 2)[1]
    v = np.concatenate([b @ np.linalg.eigh(herm(b.conj().T @ second @ b))[1] if b.shape[1] > 1
                        else b for b in input_blocks(t)], axis=1)
    xv = parts @ v
    lam = np.einsum("am,kam->km", v.conj(), xv)
    v = v[:, np.linalg.norm(xv - lam[:, None, :] * v, axis=1).max(axis=0, initial=0.0)
          <= VERDICT_TOL]
    points = herm(t.pure_outputs(v.T))
    if not len(points):
        return points, []
    near = np.linalg.norm(points[:, None] - points[None], axis=(2, 3)) <= VERDICT_TOL
    for _ in range(len(near).bit_length()):  # closed transitively, as in join_coupled
        near = near @ near
    label = np.argmax(near, axis=1)  # the first vector of the group
    firsts = np.flatnonzero(label == np.arange(len(label)))
    return points[firsts], [v[:, label == i] for i in firsts]


def _affine_coordinates(points):
    """Coordinates of ``points`` in an orthonormal frame of their affine span
    (singular values of the centred points cut at ``1e-10`` of the largest, or of 1)."""
    c = hvec(points)
    c = c - c.mean(axis=0)
    _, s, vt = np.linalg.svd(c, full_matrices=False)
    return c @ vt[:int(np.sum(s > 1e-10 * max(1.0, s[0])))].T


def _nnls_residual(a, b):
    """``min ||a x - b||`` over ``x >= 0``, by the Lawson-Hanson active-set method."""
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        grad = a.T @ (b - a @ x)
        if passive.all() or grad[~passive].max() <= 1e-12:
            break
        passive[np.argmax(np.where(passive, -np.inf, grad))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if not passive.any() or z[passive].min() > 0:
                break
            neg = passive & (z <= 0)
            x = x + np.min(x[neg] / (x[neg] - z[neg])) * (z - x)
            passive &= x > 0
        x = z
    return float(np.linalg.norm(a @ x - b))


def _extreme(points):
    """Mask of the points outside the convex hull of the others.

    Affinely independent points are all extreme.  Otherwise each point is
    tested in the affine coordinates of the set: it is interior when
    nonnegative weights summing to one reproduce it within ``VERDICT_TOL``.
    """
    coords = _affine_coordinates(points)
    k = len(points)
    if k <= coords.shape[1] + 1:
        return np.ones(k, dtype=bool)
    frame = np.vstack([coords.T, np.ones(k)])
    return np.array([_nnls_residual(np.delete(frame, i, axis=1), frame[:, i]) > VERDICT_TOL
                     for i in range(k)])


def find_vertices(t):
    """The vertices of ``Im(T)`` with their input preimages, from the
    characters of the range of the adjoint.

    If ``Im(T)`` is a polytope, ``T = sum_i Tr(P_i rho) sigma_i`` on
    ``(+)_i V_i`` plus a block on ``W`` with no cross terms, so
    ``T*(H) v = Tr(H sigma_i) v`` for ``v`` in ``V_i``: every vertex
    preimage is a character and every vertex a character point.  The
    character points all lie in ``Im(T)``, so the vertices are the character
    points outside the hull of the others (see :func:`_characters` and
    :func:`_extreme`).  Nothing is sampled.  For an image that is not a
    polytope the records are still the extreme character points.

    Returns a list of :class:`VertexRecord`, ordered lexicographically by the
    rounded coordinates of the vertex state.
    """
    points, bases = _characters(t)
    keep = _extreme(points) if len(points) else []
    records = [VertexRecord(state=p, preimage_basis=b)
               for p, b, k in zip(points, bases, keep) if k]
    keys = np.round(hvec(np.reshape([r.state for r in records], (-1, t.d_out, t.d_out))), 6)
    return [records[i] for i in sorted(range(len(records)), key=lambda i: tuple(keys[i]))]


# -- polytopic decomposition -------------------------------------------


@dataclass
class PolytopicDecomposition:
    """The split ``(+)_i V_i (+) W`` of the input space and the numbers that decide it.

    ``checks`` always holds ``character_affine_dim`` (-1 with no vertex) and
    ``image_affine_dim``.  When they agree it adds
    ``reconstruction_deviation``, ``orthogonality_deviation``,
    ``max_support_excess`` (the :func:`hull_containment` margin of ``t2``; a
    lower bound when ``Im(t2)`` leaves the vertices' affine span, with the
    verdict still exact) and ``dominance_deviation`` (its positive part).  ``direction`` is the
    facet that ``Im(t2)`` crosses when that decides ``not_polytopic``, else None.
    """

    verdict: str                  # "polytopic" | "not_polytopic" | "indeterminate"
    vertices: list
    vertex_basis: np.ndarray      # d_in x dim(V), blocks concatenated
    w_basis: np.ndarray           # d_in x dim(W)
    t1: Channel | None            # CQ-like block on V coordinates
    t2: Channel | None            # compression to W coordinates
    direction: np.ndarray | None  # the crossed facet of a residual not_polytopic
    checks: dict                  # the deciding numbers by name
    n_dof: int
    d_in: int


def polytopic_decompose(t, *, n_directions=None, seed=None):
    """Split the input space as ``(+)_i V_i (+) W`` from the vertices of :func:`find_vertices`.

    The image spans the affine dimension ``n_dof = rank(N) - 1``, 0 at rank
    0.  Every vertex of a polytopic image is a character point, so character
    points spanning less is an exact ``not_polytopic``.  Otherwise, on the span of
    the vertex preimages the channel acts classically
    (``rho -> sum_i Tr(P_{V_i} rho) sigma_i``), ``t2`` is the compression to
    the residual ``W``, and the block reconstruction and the orthogonality
    of the preimages are checked.  The image is then the hull of the
    vertices and ``Im(t2)``, which :func:`hull_containment` compares
    exactly: ``polytopic`` when ``W = 0`` or its margin is at most
    ``VERDICT_TOL``, ``not_polytopic`` with the crossed facet otherwise, and
    ``indeterminate`` when the reconstruction or orthogonality check fails.

    The decomposition is a function of the channel alone, computed once and
    kept on ``t``.  ``n_directions`` and ``seed`` are ignored; they remain
    for callers that bind them by name, such as the benchmark's call tracer.
    """
    return _decompose(t)


@kept
def _decompose(t):
    records = find_vertices(t)
    d = t.d_in
    n_dof = max(len(_adjoint_range(t)[1]) - 1, 0)  # a rank-0 map's image is one point
    states = [r.state for r in records]
    char_dim = _affine_coordinates(np.asarray(states)).shape[1] if records else -1
    checks = {"character_affine_dim": char_dim, "image_affine_dim": n_dof}
    vbasis = np.concatenate([r.preimage_basis for r in records] or [np.zeros((d, 0))], axis=1)
    wbasis = orthogonal_complement(vbasis, d)
    dim_w = wbasis.shape[1]
    if char_dim < n_dof:
        return PolytopicDecomposition(
            verdict="not_polytopic", vertices=records, vertex_basis=vbasis, w_basis=wbasis,
            t1=None, t2=None, direction=None, checks=checks, n_dof=n_dof, d_in=d)

    labels = np.repeat(np.arange(len(records)), [r.preimage_basis.shape[1] for r in records])
    effects = [np.diag(labels == i).astype(complex) for i in range(len(records))]
    t1 = Channel(PovmForm(effects, states), d_in=vbasis.shape[1], d_out=t.d_out)
    n = t.natural_matrix()
    t2 = (_natural_channel(n @ kron(wbasis, wbasis.conj()), dim_w, t.d_out)
          if dim_w else None)

    # exact reconstruction T(e) = t1(V* e V) + t2(W* e W) on the matrix units
    resid = n - t1.natural_matrix() @ kron(vbasis.conj().T, vbasis.T)
    if t2 is not None:
        resid = resid - t2.natural_matrix() @ kron(wbasis.conj().T, wbasis.T)
    checks["reconstruction_deviation"] = _max_column_op_norm(resid, t.d_out)
    checks["orthogonality_deviation"] = op_norm(vbasis.conj().T @ vbasis - np.eye(vbasis.shape[1]))
    margin, facet, _ = hull_containment(t2, states) if t2 is not None else (0.0, None, None)
    checks["max_support_excess"], checks["dominance_deviation"] = margin, max(0.0, margin)
    verified = (checks["reconstruction_deviation"] <= VERDICT_TOL
                and checks["orthogonality_deviation"] <= 1e-9)
    verdict = ("indeterminate" if not verified
               else "polytopic" if margin <= VERDICT_TOL else "not_polytopic")
    direction = facet if verdict == "not_polytopic" else None
    return PolytopicDecomposition(
        verdict=verdict, vertices=records, vertex_basis=vbasis, w_basis=wbasis,
        t1=t1, t2=t2, direction=direction, checks=checks, n_dof=n_dof, d_in=d)


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
    return np.column_stack([theta, np.einsum("nab,kba->nk", w, np.array([a, b])).real])
