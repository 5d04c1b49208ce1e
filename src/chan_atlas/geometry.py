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
adjoint ``{T*(H)}``, which one SVD of the natural matrix gives; the vertices
are the character points ``T(vv*)`` outside the hull of the others, and the
image spans ``rank(N) - 1`` affine dimensions.  Only a residual block that
characters do not span is compared with the vertex hull on sampled
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, PovmForm, _max_column_op_norm, _natural_channel
from .linalg import (
    PAULIS,
    canonical_phase,
    eig_clusters,
    herm,
    hvec,
    null_space,
    op_norm,
    orthogonal_complement,
    random_directions,
    vec,
)

VERDICT_TOL = 1e-8
EXCESS_WITNESS_TOL = 1e-6
VERIFY_DIRECTIONS = 200  # directions that check a residual block against the hull


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


# -- vertices from the range of the adjoint ----------------------------


def _adjoint_range(t):
    """The range of the adjoint, ``{T*(H)}``, from one SVD of ``N^H``.

    Returns ``(x, y, parts)``: the orthonormal output directions ``X_i``
    (right singular vectors as matrices), the weighted elements
    ``Y_i = T*(X_i) / s_max`` of the range, where ``s_max`` is the operator
    norm of the natural matrix ``N``, and the Hermitian parts of ``Y_i`` and
    ``-i Y_i``, which span the range since it is ``*``-closed.  Singular
    values below ``1e-10 s_max`` are cut, so ``len(y)`` is the rank of ``N``.
    Computed once per channel and kept on ``t``.
    """
    if t._range is None:
        d, n = t.d_in, t.d_out
        u, s, vh = np.linalg.svd(t.natural_matrix().conj().T, full_matrices=False)
        r = int(np.sum(s > 1e-10 * s[0]))
        y = (u[:, :r] * (s[:r] / s[0])).T.reshape(r, d, d)
        t._range = vh[:r].conj().reshape(r, n, n), y, herm(np.concatenate([y, -1j * y]))
    return t._range


@dataclass
class VertexRecord:
    state: np.ndarray            # output density matrix at the vertex
    preimage_basis: np.ndarray   # orthonormal columns spanning V_i


def _characters(t):
    """Every character point of ``T`` with an orthonormal basis of its preimage.

    A character is a common eigenvector ``v`` of the range of the adjoint;
    its point is ``T(vv*)``.  The eigenvalue clusters of one fixed
    combination ``A`` of the range elements ``X_k`` are cut down to the
    vectors ``X_k`` keeps inside the cluster (a stacked null space with an
    absolute floor) and split by a second fixed combination.  Vectors with
    ``||X_k v - <v, X_k v> v|| <= VERDICT_TOL`` for every ``k`` are kept and
    grouped by their point (within ``VERDICT_TOL`` in Frobenius norm).
    Returns the points ``(k, d_out, d_out)`` and the bases.
    """
    parts = _adjoint_range(t)[2]
    k = np.arange(1, len(parts) + 1)
    w, u = np.linalg.eigh(np.tensordot(np.cos(k), parts, axes=1))
    second = np.tensordot(np.sin(k), parts, axes=1)
    found = []
    for idx in eig_clusters(w):
        e = u[:, idx]
        if len(idx) > 1:  # a single eigenvector needs only the check below
            xe = parts @ e
            e = e @ null_space((xe - e @ (e.conj().T @ xe)).reshape(-1, len(idx)),
                               atol=VERDICT_TOL)
            e = e @ np.linalg.eigh(herm(e.conj().T @ second @ e))[1]
        found.append(e)
    v = np.concatenate(found, axis=1)
    xv = parts @ v
    lam = np.einsum("am,kam->km", v.conj(), xv)
    v = v[:, np.linalg.norm(xv - lam[:, None, :] * v, axis=1).max(axis=0) <= VERDICT_TOL]
    points = herm(t.pure_outputs(v.T))
    if not len(points):
        return points, []
    near = np.linalg.norm(points[:, None] - points[None], axis=(2, 3)) <= VERDICT_TOL
    label = np.argmax(near, axis=1)  # the first vector with the same point
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
    ``max_support_excess`` and ``dominance_deviation``.  ``direction`` is the
    sampled direction of largest excess of ``Im(t2)`` over the vertex hull,
    or None when nothing was sampled.
    """

    verdict: str                  # "polytopic" | "not_polytopic" | "indeterminate"
    vertices: list
    vertex_basis: np.ndarray      # d_in x dim(V), blocks concatenated
    w_basis: np.ndarray           # d_in x dim(W)
    t1: Channel | None            # CQ-like block on V coordinates
    t2: Channel | None            # compression to W coordinates
    direction: np.ndarray | None  # sampled direction of largest excess
    checks: dict                  # the deciding numbers by name
    n_dof: int
    d_in: int


def polytopic_decompose(t, *, n_directions=None, seed=None):
    """Split the input space as ``(+)_i V_i (+) W`` from the vertices of :func:`find_vertices`.

    The image spans the affine dimension ``n_dof = rank(N) - 1``.  Every
    vertex of a polytopic image is a character point, so character points
    spanning less is an exact ``not_polytopic``.  Otherwise, on the span of
    the vertex preimages the channel acts classically
    (``rho -> sum_i Tr(P_{V_i} rho) sigma_i``), ``t2`` is the compression to
    the residual ``W``, and the block reconstruction and the orthogonality
    of the preimages are checked.  The image is then the hull of the
    vertices and ``Im(t2)``.  With ``W = 0``, or ``W`` spanned by characters
    (whose points lie in the hull), the verdict is ``polytopic`` with nothing
    sampled.  Otherwise one stacked eigensolve of ``t2*`` on
    ``VERIFY_DIRECTIONS`` directions from a fixed generator compares
    ``Im(t2)`` with the hull: ``polytopic`` when it stays inside within
    1e-8, ``not_polytopic`` with the direction when it leaves by at least
    1e-6, and ``indeterminate`` in between or when a check fails.

    The decomposition is a function of the channel alone, computed once and
    kept on ``t``.  ``n_directions`` and ``seed`` are ignored; they remain
    for callers that bind them by name, such as the benchmark's call tracer.
    """
    if t._decomposition is None:
        t._decomposition = _decompose(t)
    return t._decomposition


def _decompose(t):
    records = find_vertices(t)
    d = t.d_in
    n_dof = len(_adjoint_range(t)[1]) - 1
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
    t2 = (_natural_channel(n @ np.kron(wbasis, wbasis.conj()), dim_w, t.d_out)
          if dim_w else None)

    # exact reconstruction T(e) = t1(V* e V) + t2(W* e W) on the matrix units
    resid = n - t1.natural_matrix() @ np.kron(vbasis.conj().T, vbasis.T)
    if t2 is not None:
        resid = resid - t2.natural_matrix() @ np.kron(wbasis.conj().T, wbasis.T)
    checks["reconstruction_deviation"] = _max_column_op_norm(resid, t.d_out)
    checks["orthogonality_deviation"] = op_norm(vbasis.conj().T @ vbasis - np.eye(vbasis.shape[1]))
    checks["max_support_excess"] = checks["dominance_deviation"] = 0.0
    direction = None
    if t2 is not None and sum(b.shape[1] for b in _characters(t2)[1]) < dim_w:
        # some input of W is no character: compare Im(t2) with the hull on
        # sampled directions
        fresh = random_directions(np.random.default_rng(0), VERIFY_DIRECTIONS, t.d_out)
        excess = _spectra(t2, fresh)[0][:, -1] - _pairing(fresh, states).max(axis=1)
        top = int(np.argmax(excess))
        direction = fresh[top]
        checks["max_support_excess"] = float(excess[top])
        checks["dominance_deviation"] = max(0.0, float(excess[top]))

    verified = (checks["reconstruction_deviation"] <= VERDICT_TOL
                and checks["orthogonality_deviation"] <= 1e-9)
    if verified and checks["dominance_deviation"] <= VERDICT_TOL:
        verdict = "polytopic"
    elif verified and checks["max_support_excess"] >= EXCESS_WITNESS_TOL:
        verdict = "not_polytopic"
    else:
        verdict = "indeterminate"
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
    return np.column_stack([theta, _pairing(w, [a, b])])
