"""Fixed-point structure of channels with equal input and output dimension.

The fixed-point space of a CPTP map carries a twisted algebra structure: on
the support of the maximal fixed state it equals ``U (+)_i M_{d_i} (x)
sigma_i U*`` for a unitary ``U``, factor dimensions ``d_i``, and fixed
density matrices ``sigma_i`` on the multiplicity spaces.  This module
solves for the fixed space once, by one SVD of ``N - I`` that gives both the
Cesaro projection and a Hermitian basis (there is no iterative fallback),
extracts the block data ``(d_i, s_i, sigma_i)`` constructively, and checks
the specialization to entanglement-breaking channels (all ``d_i = 1``,
projection is an eCQ map).

The extraction works on stacks of matrices throughout.  The eigenspaces of
one generic element of the untwisted algebra are the multiplicity frames of
its blocks, and a second generic element couples two of them exactly when
they lie in the same block; its polar parts between them align the frames.
Generic elements are fixed ``cos(j)`` / ``sin(j)`` combinations
(:func:`~.linalg.generic`), so nothing is drawn at random.

Every entry point requires a CPTP map and raises
:class:`~.channels.NotCptpError` on any other, as the classification and
entropy functions do.  Everything here is verified a posteriori; a
construction that fails its own verification, the Cesaro projection
included, reports ``indeterminate`` rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, _max_column_op_norm, _natural_channel
from .classify import (
    INDETERMINATE,
    YES,
    Verdict,
    is_entanglement_breaking,
    reconstruct_ecq,
)
from .linalg import (align_frames, eig_clusters, generic, herm, join_coupled, kron, outer,
                     partial_trace)


CESARO_TOL = 1e-8     # bound on every identity the Cesaro projection must satisfy
STRUCTURE_TOL = 1e-7  # relative bound on every claimed block structure


class FixedPointError(RuntimeError):
    pass


def transfer_matrix(t):
    """Natural matrix of a square channel; a map that is not CPTP raises
    :class:`~.channels.NotCptpError` (a channel is power-bounded)."""
    if t.d_in != t.d_out:
        raise ValueError("transfer matrix needs equal input and output dimension")
    t.require_cptp()
    return t.natural_matrix()


def _fixed_spaces(n):
    """Right and left null spaces ``K``, ``W`` (columns) of ``n - I``, cut at
    ``max(1e-8 s_0, 1e-12)``: the absolute floor keeps the whole null space
    when ``n - I`` is pure roundoff (the identity written redundantly)."""
    u, s, vh = np.linalg.svd(n - np.eye(len(n)))
    r = int(np.sum(s > max(1e-8 * s[0], 1e-12)))
    return vh[r:].conj().T, u[:, r:]


def cesaro_projection(t):
    """Channel limit of the Cesaro means ``(1/N) sum_{n<N} T^n``.

    This is the spectral projection ``K (W* K)^{-1} W*`` onto ``ker(N - I)``
    along ``ran(N - I)``, with both spaces from one SVD of ``N - I``.  ``t``
    must be CPTP (:func:`transfer_matrix`); a channel is power-bounded, so
    eigenvalue one is semisimple and the oblique projection exists.  The
    result must be an idempotent CPTP map with ``N P = P N = P`` within
    ``CESARO_TOL``; there is no fallback, and a failed verification raises
    :class:`FixedPointError`.
    """
    n = transfer_matrix(t)
    return _projection(n, *_fixed_spaces(n), t.d_in)


def _projection(n, k, w, d):
    """Verified Cesaro projection of the transfer matrix ``n`` from its fixed spaces."""
    gram = w.conj().T @ k
    cond = np.linalg.cond(gram) if k.shape[1] else np.inf
    if cond >= 1e10:
        raise FixedPointError(f"Cesaro projection failed verification (cond(W*K) {cond:.3e})")
    p = k @ np.linalg.solve(gram, w.conj().T)
    tinf = _natural_channel(p, d, d)
    v = tinf.verify_cptp()
    dev = max(_max_column_op_norm(np.hstack([n @ p - p, p @ n - p, p @ p - p]), d),
              -v.min_choi_eigenvalue, v.marginal_deviation)
    if dev > CESARO_TOL:
        raise FixedPointError(f"Cesaro projection failed verification (residual {dev:.3e})")
    return tinf


# -- structure extraction ----------------------------------------------


@dataclass
class FixedPointBlock:
    dimension: int            # factor dimension d_i
    multiplicity: int         # multiplicity s_i
    isometry: np.ndarray      # d x (d_i s_i), block coordinates (factor, mult)
    state: np.ndarray         # sigma_i on the multiplicity space (s_i x s_i)
    embedded_state: np.ndarray  # canonical fixed state of the block in M_d


@dataclass
class FixedPointStructure:
    status: str
    blocks: list[FixedPointBlock] = field(default_factory=list)
    fixed_dim: int = 0
    support_dim: int = 0
    cesaro: Channel | None = None
    reason: str = ""


def _real_rows(x):
    """Real view of a stack of matrices, one flattened row each: an isometry
    for the real Hilbert-Schmidt inner product, so ranks and null spaces agree."""
    return np.ascontiguousarray(x, dtype=complex).reshape(len(x), -1).view(np.float64)


def _hermitian_fixed_basis(k, d):
    """Orthonormal Hermitian basis ``(m, d, d)`` of the fixed space spanned by
    the columns of ``k``."""
    x = k.T.reshape(-1, d, d)
    if len(x) == 0:
        return np.zeros((0, d, d), dtype=complex)
    _, sv, vt = np.linalg.svd(_real_rows(herm(np.concatenate([x, x / 1j]))),
                              full_matrices=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    return herm(vt[:rank].view(complex).reshape(rank, d, d))


def fixed_point_structure(t):
    """Block data of the fixed-point space of ``t``.

    On the support of ``omega = T_inf(I/d)`` the fixed space untwists to an
    honest matrix algebra ``A = (+)_i M_{d_i} (x) I_{s_i}`` via
    ``X -> omega^{-1/2} X omega^{-1/2}``.  A generic element ``a`` of ``A``
    has ``d_i`` distinct eigenvalues on block ``i``, each of multiplicity
    ``s_i``, and a second generic element ``y`` couples two eigenspaces
    ``F_k``, ``F_l`` of ``a`` (``||F_k* y F_l|| > STRUCTURE_TOL max(1, ||y||)``)
    exactly when they lie in the same block.  The blocks are the connected
    components of that coupling; within one, the frames are aligned to the
    first by the polar parts of ``F_k* y F_0``.  The partition is certified
    by requiring every algebra element and the fixed state to be block
    diagonal in it, each element to be ``matrix (x) I`` in the aligned
    frames, the fixed state to be a product on each block, and
    ``sum_i d_i^2`` to equal the fixed dimension.  Blocks are sorted by
    ``(d_i, s_i)``; blocks of equal shape keep the eigenvalue order of ``a``.
    A map that is not CPTP raises :class:`~.channels.NotCptpError`; a
    Cesaro projection that fails its verification leaves the result
    ``indeterminate``, with ``fixed_dim`` taken from the fixed space.
    """
    d = t.d_in
    n = transfer_matrix(t)
    k, w = _fixed_spaces(n)
    basis = _hermitian_fixed_basis(k, d)
    m = len(basis)
    result = FixedPointStructure(status=INDETERMINATE, fixed_dim=m)
    try:
        tinf = result.cesaro = _projection(n, k, w, d)
    except FixedPointError as e:
        result.reason = str(e)
        return result
    omega = herm(tinf.apply(np.eye(d, dtype=complex) / d))
    w_eigs, w_vecs = np.linalg.eigh(omega)
    keep = w_eigs > max(1e-12, 1e-9 * float(w_eigs[-1]))
    q = w_vecs[:, keep]
    omega_v = herm(q.conj().T @ omega @ q)
    result.support_dim = q.shape[1]

    # untwist to the honest algebra on the support, elements at unit norm;
    # q diagonalizes omega there, so omega_v^{1/2} is diag(root)
    root = np.sqrt(w_eigs[keep])
    alg = herm((q.conj().T @ basis @ q) / outer(root, root))
    norms = np.linalg.svd(alg, compute_uv=False)[:, 0]
    alg = alg / np.maximum(norms, 1e-12)[:, None, None]

    # blocks: eigenspaces of a generic element, joined where a second couples them
    a, y = generic(alg, 2)
    aw, av = np.linalg.eigh(a)
    clusters = eig_clusters(aw)
    comp = join_coupled(av, clusters, y, STRUCTURE_TOL * max(1.0, np.linalg.norm(y)))
    # certificate: the algebra and the fixed state are block diagonal
    labels = np.repeat(comp, [c.size for c in clusters])
    stack = np.concatenate([alg, omega_v[None]])
    rot = av.conj().T @ stack @ av
    leak = np.linalg.norm(rot * (labels[:, None] != labels[None, :]), axis=(1, 2))
    if np.any(leak > STRUCTURE_TOL * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))):
        result.reason = f"fixed algebra couples blocks (off-block mass {leak.max():.3e})"
        return result

    blocks = []
    for first in np.flatnonzero(comp == np.arange(len(comp))):
        idx = [c for c, b in zip(clusters, comp) if b == first]
        d_b, s_b = len(idx), idx[0].size
        if any(c.size != s_b for c in idx):
            result.reason = "eigenspaces of a generic element differ in size within a block"
            return result
        frames, smallest = align_frames(np.stack([av[:, c] for c in idx]), y)  # (d_b, dv, s_b)
        if smallest < 1e-8:
            result.reason = "block factorization failed to produce intertwiners"
            return result
        cb = frames.transpose(1, 0, 2).reshape(-1, d_b * s_b)  # coordinates (factor, mult)
        alg_b = cb.conj().T @ alg @ cb
        # verify every algebra element is (matrix (x) identity) in this frame
        r = alg_b.reshape(m, d_b, s_b, d_b, s_b)
        mfac = np.einsum("ajmkm->ajk", r) / s_b
        dev = np.linalg.norm((r - np.einsum("ajk,mn->ajmkn", mfac, np.eye(s_b)))
                             .reshape(m, -1), axis=1)
        bad = dev > STRUCTURE_TOL * np.maximum(1.0, np.linalg.norm(alg_b, axis=(1, 2)))
        if np.any(bad):
            result.reason = f"algebra element deviates from block form by {dev[bad][0]:.3e}"
            return result
        # sigma_i from the product structure of the fixed state on the block
        w_b = herm(cb.conj().T @ omega_v @ cb)
        a_fac = partial_trace(w_b, (d_b, s_b), keep=0)
        sigma = herm(partial_trace(w_b, (d_b, s_b), keep=1))
        sigma = sigma / float(np.real(np.trace(sigma)))
        prod_dev = np.linalg.norm(w_b - kron(a_fac, sigma))
        if prod_dev > STRUCTURE_TOL * max(1.0, np.linalg.norm(w_b)):
            result.reason = f"fixed state is not a product on a block (dev {prod_dev:.3e})"
            return result
        # back to original coordinates: columns span the block inside C^d,
        # conjugated so the twist by omega^{1/2} is restored
        lift = q @ (root[:, None] * cb)  # d x h_b, not isometric (twisted frame)
        iso = q @ cb        # d x h_b isometry in the untwisted frame
        emb = lift @ kron(np.eye(d_b) / d_b, np.eye(s_b)) @ lift.conj().T
        emb = herm(emb) / float(np.real(np.trace(herm(emb))))
        blocks.append(FixedPointBlock(dimension=d_b, multiplicity=s_b, isometry=iso,
                                      state=sigma, embedded_state=emb))
    total_dim = sum(b.dimension ** 2 for b in blocks)
    if total_dim != m:
        result.reason = f"block dimensions sum to {total_dim}, fixed space has {m}"
        return result
    blocks.sort(key=lambda b: (b.dimension, b.multiplicity))
    result.status = "ok"
    result.blocks = blocks
    return result


# -- entanglement-breaking specialization ------------------------------


def verify_eb_fixed_point_theorem(t):
    """For EB channels the fixed algebra is abelian and the Cesaro
    projection is an eCQ channel onto the fixed states.

    Returns a :class:`~.classify.Verdict`: "yes" when all of this is
    verified, otherwise "indeterminate" with the first step that failed as
    the reason.  The witness holds ``"eb"`` (the entanglement-breaking
    verdict), ``"structure"`` (the :class:`FixedPointStructure`) and
    ``"ecq"`` (the eCQ reconstruction verdict of the Cesaro projection,
    which requires unit-norm effects); a step that was not reached is
    ``None``.
    """
    witness = {"eb": is_entanglement_breaking(t), "structure": None, "ecq": None}
    if witness["eb"].status != YES:
        return Verdict(INDETERMINATE, witness, "channel not certified entanglement breaking")
    st = witness["structure"] = fixed_point_structure(t)
    if st.status != "ok":
        return Verdict(INDETERMINATE, witness, st.reason)
    if any(b.dimension != 1 for b in st.blocks):
        return Verdict(INDETERMINATE, witness, "fixed algebra has a nonabelian factor")
    rec = witness["ecq"] = reconstruct_ecq(st.cesaro, [b.embedded_state for b in st.blocks])
    if rec.status != YES:
        return Verdict(INDETERMINATE, witness, "eCQ reconstruction failed")
    return Verdict(YES, witness)
