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

The extraction works on stacks of matrices throughout.  The center of the
untwisted algebra (``m`` elements on the ``dv``-dimensional support) is the
commutant of two generic elements, which generate it, so it is one
``(4 dv^2) x m`` null space.  One generic central element cuts the blocks,
and the cut is certified by requiring every algebra element and the fixed
state to be block diagonal in it.

Everything here is verified a posteriori; a construction that fails its own
verification, the Cesaro projection included, reports ``indeterminate``
rather than guessing.
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
from .linalg import (
    eig_clusters,
    herm,
    null_space,
    partial_trace,
    spectral_radius,
)


CESARO_TOL = 1e-8     # bound on every identity the Cesaro projection must satisfy
STRUCTURE_TOL = 1e-7  # relative bound on every claimed block structure


class FixedPointError(RuntimeError):
    pass


def transfer_matrix(t):
    """Natural matrix of a square channel, with a power-boundedness check."""
    if t.d_in != t.d_out:
        raise ValueError("transfer matrix needs equal input and output dimension")
    n = t.natural_matrix()
    r = spectral_radius(n)
    if r > 1.0 + 1e-9:
        raise FixedPointError(f"spectral radius {r:.6f} exceeds one; map is not a channel")
    return n


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
    along ``ran(N - I)``, with both spaces from one SVD of ``N - I``;
    eigenvalue one of a power-bounded matrix is semisimple, so the oblique
    projection exists.  The result must be an idempotent CPTP map with
    ``N P = P N = P`` within ``CESARO_TOL``; there is no fallback, and a
    failed verification raises :class:`FixedPointError`.
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


def _generic(rng, stack, k=1):
    """``k`` random real combinations of a stack of Hermitian matrices."""
    return herm(np.einsum("kj,jab->kab", rng.normal(size=(k, len(stack))), stack))


def fixed_point_structure(t, seed=0):
    """Block data of the fixed-point space of ``t``.

    On the support of ``omega = T_inf(I/d)`` the fixed space untwists to an
    honest matrix algebra ``A`` via ``X -> omega^{-1/2} X omega^{-1/2}``.
    Two generic elements generate ``A``, so its center is the set of
    elements commuting with both.  The blocks are the eigenspaces of one
    generic central element; every element of ``A`` and the fixed state
    must be block diagonal in them, which certifies the partition.  Each
    block is factorized by intertwiners of one more generic pair, and all
    claimed structure is verified before it is reported.  A spectral radius
    above one or a Cesaro projection that fails its verification leaves the
    result ``indeterminate``, with ``fixed_dim`` taken from the fixed space.
    """
    d = t.d_in
    try:
        n, reason = transfer_matrix(t), ""
    except FixedPointError as e:
        n, reason = t.natural_matrix(), str(e)
    k, w = _fixed_spaces(n)
    basis = _hermitian_fixed_basis(k, d)
    m = len(basis)
    result = FixedPointStructure(status=INDETERMINATE, fixed_dim=m, reason=reason)
    if reason:
        return result
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
    if m == 0:
        result.reason = "no fixed points found; a channel always fixes at least one state"
        return result

    # untwist to the honest algebra on the support, elements at unit norm
    ew, ev = np.linalg.eigh(omega_v)
    inv_sqrt = ev @ np.diag(1.0 / np.sqrt(np.clip(ew, 1e-15, None))) @ ev.conj().T
    alg = herm(inv_sqrt @ (q.conj().T @ basis @ q) @ inv_sqrt)
    norms = np.linalg.svd(alg, compute_uv=False)[:, 0]
    alg = alg / np.maximum(norms, 1e-12)[:, None, None]

    # center: elements commuting with a generating pair, a (4 dv^2) x m system
    rng = np.random.default_rng(seed)
    gens = _generic(rng, alg, 2)
    gens = gens / np.linalg.svd(gens, compute_uv=False)[:, :1, None]
    comm = alg[:, None] @ gens - gens @ alg[:, None]
    # genuine non-commutation registers at order one; the absolute floor
    # keeps the full null space when everything commutes up to roundoff
    z = null_space(_real_rows(comm).T, rtol=1e-8, atol=1e-7)
    n_blocks = z.shape[1]
    if n_blocks == 0:
        result.reason = "commutant computation returned an empty center"
        return result
    gw, gv = np.linalg.eigh(_generic(rng, np.einsum("jl,jab->lab", z, alg))[0])
    clusters = eig_clusters(gw)
    if len(clusters) != n_blocks:
        result.reason = "generic central element did not separate the blocks"
        return result
    # certificate: the algebra and the fixed state are block diagonal
    labels = np.repeat(np.arange(n_blocks), [c.size for c in clusters])
    stack = np.concatenate([alg, omega_v[None]])
    rot = gv.conj().T @ stack @ gv
    leak = np.linalg.norm(rot * (labels[:, None] != labels[None, :]), axis=(1, 2))
    if np.any(leak > STRUCTURE_TOL * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))):
        result.reason = f"fixed algebra couples blocks (off-block mass {leak.max():.3e})"
        return result

    sq = ev @ np.diag(np.sqrt(np.clip(ew, 0.0, None))) @ ev.conj().T
    blocks = []
    total_dim = 0
    for idx in clusters:
        cb = gv[:, idx]
        h_b = cb.shape[1]
        alg_b = herm(cb.conj().T @ alg @ cb)
        sv = np.linalg.svd(_real_rows(alg_b), compute_uv=False)
        dim_b = int(np.sum(sv > 1e-8 * max(sv[0], 1e-12)))
        d_b = int(round(np.sqrt(dim_b)))
        if d_b == 0 or d_b * d_b != dim_b or h_b % d_b != 0:
            result.reason = f"block of size {h_b} has algebra dimension {dim_b}, not a square"
            return result
        s_b = h_b // d_b
        u_b = _factor_block(alg_b, d_b, s_b, rng)
        if u_b is None:
            result.reason = "block factorization failed to produce intertwiners"
            return result
        # verify every algebra element is (matrix (x) identity) in this frame
        r = (u_b.conj().T @ alg_b @ u_b).reshape(m, d_b, s_b, d_b, s_b)
        mfac = np.einsum("ajmkm->ajk", r) / s_b
        dev = np.linalg.norm((r - np.einsum("ajk,mn->ajmkn", mfac, np.eye(s_b)))
                             .reshape(m, -1), axis=1)
        bad = dev > STRUCTURE_TOL * np.maximum(1.0, np.linalg.norm(alg_b, axis=(1, 2)))
        if np.any(bad):
            result.reason = f"algebra element deviates from block form by {dev[bad][0]:.3e}"
            return result
        # sigma_i from the product structure of the fixed state on the block
        w_b = herm(u_b.conj().T @ (cb.conj().T @ omega_v @ cb) @ u_b)
        a_fac = partial_trace(w_b, (d_b, s_b), keep=0)
        sigma = herm(partial_trace(w_b, (d_b, s_b), keep=1))
        sigma = sigma / float(np.real(np.trace(sigma)))
        prod_dev = np.linalg.norm(w_b - np.kron(a_fac, sigma))
        if prod_dev > STRUCTURE_TOL * max(1.0, np.linalg.norm(w_b)):
            result.reason = f"fixed state is not a product on a block (dev {prod_dev:.3e})"
            return result
        # back to original coordinates: columns span the block inside C^d,
        # conjugated so the twist by omega^{1/2} is restored
        lift = q @ sq @ cb @ u_b  # d x h_b, not isometric (twisted frame)
        iso = q @ cb @ u_b        # d x h_b isometry in the untwisted frame
        emb = lift @ np.kron(np.eye(d_b) / d_b, np.eye(s_b)) @ lift.conj().T
        emb = herm(emb) / float(np.real(np.trace(herm(emb))))
        blocks.append(FixedPointBlock(dimension=d_b, multiplicity=s_b, isometry=iso,
                                      state=sigma, embedded_state=emb))
        total_dim += dim_b
    if total_dim != m:
        result.reason = f"block dimensions sum to {total_dim}, fixed space has {m}"
        return result
    blocks.sort(key=lambda b: (b.dimension, b.multiplicity))
    result.status = "ok"
    result.blocks = blocks
    return result


def _factor_block(alg_b, d_b, s_b, rng):
    """Unitary aligning a factor ``M_{d_b} (x) I_{s_b}`` with coordinates, or None.

    A generic element's eigenspaces are the multiplicity frames; the polar
    parts of a second element's maps between them are the intertwiners.
    """
    if d_b == 1:
        return np.eye(s_b, dtype=complex)
    a, y = _generic(rng, alg_b, 2)
    aw, av = np.linalg.eigh(a)
    clusters = eig_clusters(aw)
    if len(clusters) != d_b or any(c.size != s_b for c in clusters):
        return None
    frames = av.reshape(-1, d_b, s_b).transpose(1, 0, 2)  # (d_b, h_b, s_b)
    uu, sv, vvh = np.linalg.svd(frames[1:].conj().transpose(0, 2, 1) @ y @ frames[0])
    if sv[:, -1].min() < 1e-8:
        return None
    frames[1:] = frames[1:] @ (uu @ vvh)
    return frames.transpose(1, 0, 2).reshape(d_b * s_b, d_b * s_b)


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
