"""Fixed-point structure of channels with equal input and output dimension.

The fixed-point space of a CPTP map carries a twisted algebra structure: on
the support of the maximal fixed state it equals ``U (+)_i M_{d_i} (x)
sigma_i U*`` for a unitary ``U``, factor dimensions ``d_i``, and fixed
density matrices ``sigma_i`` on the multiplicity spaces.  This module
computes the Cesaro projection onto the fixed space, extracts the block data
``(d_i, s_i, sigma_i)`` constructively, and checks the specialization to
entanglement-breaking channels (all ``d_i = 1``, projection is an eCQ map).

Everything here is verified a posteriori; a construction that fails its own
verification reports ``indeterminate`` rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, _natural_channel, compose, map_distance
from .classify import (
    INDETERMINATE,
    YES,
    EcqReconstruction,
    is_entanglement_breaking,
    reconstruct_ecq,
)
from .linalg import (
    herm,
    hvec,
    null_space,
    op_norm,
    partial_trace,
    spectral_radius,
    unhvec,
    unvec,
)


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


def cesaro_projection(t, tol=1e-8):
    """Channel limit of the Cesaro means ``(1/N) sum_{n<N} T^n``.

    Computed as the spectral projection onto ``ker(L - I)`` along
    ``ran(L - I)``; eigenvalue one of a power-bounded matrix is semisimple,
    so the oblique projection exists.  The result is verified to be an
    idempotent channel commuting with ``t``; if the algebraic route fails
    the identities, doubled Cesaro averaging is used as a fallback, and
    failure of both raises :class:`FixedPointError`.
    """
    n = transfer_matrix(t)
    m = n.shape[0]
    a = n - np.eye(m)
    scale = max(op_norm(n), 1.0)
    k = null_space(a, rtol=tol / scale)
    w = null_space(a.conj().T, rtol=tol / scale)
    p = None
    if k.shape[1] > 0 and w.shape[1] == k.shape[1]:
        gram = w.conj().T @ k
        if np.linalg.cond(gram) < 1e10:
            p = k @ np.linalg.solve(gram, w.conj().T)
    if p is not None:
        tinf = _natural_channel(p, t.d_in, t.d_in)
        dev = _projection_deviations(t, tinf)
        if dev <= tol:
            return tinf
    # fallback: average by doubling, S_2N = (S_N + L^N S_N) / 2
    s = n.copy()
    pw = n.copy()
    for _ in range(60):
        s_next = (s + pw @ s) / 2.0
        pw = pw @ pw
        if op_norm(s_next - s) < 1e-12:
            s = s_next
            break
        s = s_next
    tinf = _natural_channel(s, t.d_in, t.d_in)
    dev = _projection_deviations(t, tinf)
    if dev > tol:
        raise FixedPointError(f"Cesaro projection failed verification (residual {dev:.3e})")
    return tinf


def _projection_deviations(t, tinf):
    dev = map_distance(compose(t, tinf), tinf)
    dev = max(dev, map_distance(compose(tinf, t), tinf))
    dev = max(dev, map_distance(compose(tinf, tinf), tinf))
    v = tinf.verify_cptp()
    dev = max(dev, max(0.0, -v.min_choi_eigenvalue), v.marginal_deviation)
    return dev


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
    support_projector: np.ndarray | None = None
    hermitian_basis: list = field(default_factory=list)
    cesaro: Channel | None = None
    reason: str = ""


def _hermitian_fixed_basis(nat, d, rtol):
    cols = null_space(nat - np.eye(d * d), rtol=rtol)
    if cols.shape[1] == 0:
        return []
    cands = []
    for j in range(cols.shape[1]):
        x = unvec(cols[:, j], d)
        cands.append(herm(x))
        cands.append(herm(x / 1j))
    stack = np.array([hvec(c) for c in cands])
    u_, sv, vt = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(sv > 1e-9 * sv[0]))
    return [unhvec(vt[j], d) for j in range(rank)]


def _eig_clusters(w, tol=1e-6):
    spread = max(float(w[-1] - w[0]), 1.0)
    clusters = [[0]]
    for i in range(1, w.size):
        if w[i] - w[i - 1] > tol * spread:
            clusters.append([])
        clusters[-1].append(i)
    return clusters


def fixed_point_structure(t, tol=1e-7, seed=0):
    """Block data of the fixed-point space of ``t``.

    On the support of ``omega = T_inf(I/d)`` the fixed space untwists to an
    honest matrix algebra via ``X -> omega^{-1/2} X omega^{-1/2}``.  Blocks
    are cut by the spectral projectors of a generic central element, each
    factorized by intertwiners built from a second generic element, and all
    claimed structure is verified before it is reported.
    """
    tinf = cesaro_projection(t)
    d = t.d_in
    omega = herm(tinf.apply(np.eye(d, dtype=complex) / d))
    w_eigs, w_vecs = np.linalg.eigh(omega)
    keep = w_eigs > max(1e-12, 1e-9 * float(w_eigs[-1]))
    q = w_vecs[:, keep]
    dv = q.shape[1]
    omega_v = herm(q.conj().T @ omega @ q)
    support_projector = q @ q.conj().T

    basis = _hermitian_fixed_basis(t.natural_matrix(), d, rtol=1e-8)
    m = len(basis)
    result = FixedPointStructure(status=INDETERMINATE, fixed_dim=m, support_dim=dv,
                                 support_projector=support_projector,
                                 hermitian_basis=basis, cesaro=tinf)
    if m == 0:
        result.reason = "no fixed points found; a channel always fixes at least one state"
        return result

    # untwist to the honest algebra on the support
    ew, ev = np.linalg.eigh(omega_v)
    inv_sqrt = ev @ np.diag(1.0 / np.sqrt(np.clip(ew, 1e-15, None))) @ ev.conj().T
    alg = [herm(inv_sqrt @ (q.conj().T @ b @ q) @ inv_sqrt) for b in basis]
    norms = [op_norm(a) for a in alg]
    alg = [a / max(x, 1e-12) for a, x in zip(alg, norms)]

    # center: elements commuting with every basis element
    rows = []
    for b in alg:
        block = np.empty((2 * dv * dv, m))
        for j, a in enumerate(alg):
            c = (a @ b - b @ a).reshape(-1)
            block[: dv * dv, j] = c.real
            block[dv * dv :, j] = c.imag
        rows.append(block)
    comm = np.vstack(rows)
    # elements are unit operator norm, so genuine non-commutation registers at
    # order one; the absolute floor keeps the full null space when the whole
    # commutator matrix is roundoff noise (everything commutes)
    z = null_space(comm, rtol=1e-8, atol=1e-7)
    if z.shape[1] == 0:
        result.reason = "commutant computation returned an empty center"
        return result
    n_blocks = z.shape[1]

    center = [herm(sum(float(z[j, l]) * alg[j] for j in range(m)))
              for l in range(n_blocks)]
    rng = np.random.default_rng(seed)
    partition = None
    for _ in range(2):
        coeff = rng.normal(size=n_blocks)
        g = herm(sum(float(c) * zl for c, zl in zip(coeff, center)))
        gw, gv = np.linalg.eigh(g)
        clusters = _eig_clusters(gw)
        if len(clusters) == n_blocks:
            cand = [gv[:, idx] for idx in clusters]
            if partition is None:
                partition = cand
            elif not _same_partition(cand, partition):
                result.reason = "central element draws disagree on the block partition"
                return result
    if partition is None:
        result.reason = "generic central element did not separate the blocks"
        return result

    sq = ev @ np.diag(np.sqrt(np.clip(ew, 0.0, None))) @ ev.conj().T
    # the fixed state must not couple distinct blocks
    leak = omega_v - sum(cb @ (cb.conj().T @ omega_v @ cb) @ cb.conj().T
                         for cb in partition)
    if np.linalg.norm(leak) > tol:
        result.reason = f"fixed state couples blocks (off-block mass {np.linalg.norm(leak):.3e})"
        return result

    blocks = []
    total_dim = 0
    for cb in partition:
        h_b = cb.shape[1]
        alg_b = [herm(cb.conj().T @ a @ cb) for a in alg]
        stack = np.array([hvec(a) for a in alg_b])
        sv = np.linalg.svd(stack, compute_uv=False)
        dim_b = int(np.sum(sv > 1e-8 * max(sv[0], 1e-12)))
        d_b = int(round(np.sqrt(dim_b)))
        if d_b * d_b != dim_b or h_b % d_b != 0:
            result.reason = f"block of size {h_b} has algebra dimension {dim_b}, not a square"
            return result
        s_b = h_b // d_b
        u_b = _factor_block(alg_b, d_b, s_b, rng)
        if u_b is None:
            result.reason = "block factorization failed to produce intertwiners"
            return result
        # verify every algebra element is (matrix (x) identity) in this frame
        for a in alg_b:
            r = (u_b.conj().T @ a @ u_b).reshape(d_b, s_b, d_b, s_b)
            mfac = np.einsum("jmkm->jk", r) / s_b
            dev = np.linalg.norm(r - np.einsum("jk,mn->jmkn", mfac, np.eye(s_b)))
            if dev > tol * max(1.0, np.linalg.norm(a)):
                result.reason = f"algebra element deviates from block form by {dev:.3e}"
                return result
        # sigma_i from the product structure of the fixed state on the block
        w_b = herm(u_b.conj().T @ (cb.conj().T @ omega_v @ cb) @ u_b)
        a_fac = partial_trace(w_b, (d_b, s_b), keep=0)
        sigma = herm(partial_trace(w_b, (d_b, s_b), keep=1))
        sigma = sigma / float(np.real(np.trace(sigma)))
        prod_dev = np.linalg.norm(w_b - np.kron(a_fac, sigma))
        if prod_dev > tol * max(1.0, np.linalg.norm(w_b)):
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
    result.reason = ""
    return result


def _same_partition(cand, partition):
    """Block lists describe the same subspaces, in any order."""
    if len(cand) != len(partition):
        return False
    used = set()
    for c in cand:
        pc = c @ c.conj().T
        hit = None
        for idx, p in enumerate(partition):
            if idx in used or p.shape[1] != c.shape[1]:
                continue
            if op_norm(pc - p @ p.conj().T) < 1e-7:
                hit = idx
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def _factor_block(alg_b, d_b, s_b, rng, attempts=5):
    """Unitary aligning a factor ``M_{d_b} (x) I_{s_b}`` with coordinates."""
    h_b = d_b * s_b
    if d_b == 1:
        return np.eye(h_b, dtype=complex)
    m = len(alg_b)
    for _ in range(attempts):
        a = herm(sum(rng.normal() * x for x in alg_b))
        aw, av = np.linalg.eigh(a)
        clusters = _eig_clusters(aw)
        if len(clusters) != d_b or any(len(c) != s_b for c in clusters):
            continue
        frames = [av[:, idx] for idx in clusters]
        y = herm(sum(rng.normal() * x for x in alg_b))
        cols = [frames[0]]
        ok = True
        for j in range(1, d_b):
            vj = frames[j].conj().T @ y @ frames[0]
            uu, sv, vvh = np.linalg.svd(vj)
            if sv[-1] < 1e-8:
                ok = False
                break
            cols.append(frames[j] @ (uu @ vvh))
        if ok:
            return np.column_stack(cols)
    return None


# -- entanglement-breaking specialization ------------------------------


@dataclass
class EbFixedPointReport:
    ok: bool
    eb_status: str
    structure: FixedPointStructure
    abelian: bool
    ecq: EcqReconstruction | None
    reason: str = ""


def verify_eb_fixed_point_theorem(t, tol=1e-7, seed=0):
    """For EB channels the fixed algebra is abelian and the Cesaro
    projection is an eCQ channel onto the fixed states."""
    eb = is_entanglement_breaking(t)
    if eb.status != YES:
        return EbFixedPointReport(ok=False, eb_status=eb.status, structure=None,
                                  abelian=False, ecq=None,
                                  reason="channel not certified entanglement breaking")
    st = fixed_point_structure(t, tol=tol, seed=seed)
    if st.status != "ok":
        return EbFixedPointReport(ok=False, eb_status=eb.status, structure=st,
                                  abelian=False, ecq=None, reason=st.reason)
    abelian = all(b.dimension == 1 for b in st.blocks)
    if not abelian:
        return EbFixedPointReport(ok=False, eb_status=eb.status, structure=st,
                                  abelian=False, ecq=None,
                                  reason="fixed algebra has a nonabelian factor")
    rec = reconstruct_ecq(st.cesaro, [b.embedded_state for b in st.blocks], tol=tol)
    ok = rec.status == YES and all(abs(x - 1.0) <= tol for x in (rec.certificate.norms
                                                                if rec.certificate else []))
    return EbFixedPointReport(ok=ok, eb_status=eb.status, structure=st, abelian=True,
                              ecq=rec, reason="" if ok else "eCQ reconstruction failed")
