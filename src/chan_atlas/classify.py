"""Channel classification: entanglement breaking, CQ, eCQ, universal image
additivity.

Verdicts are three-valued.  "yes"/"no" always carry a witness (a separable
decomposition, a violating eigenvector, a reconstructed certificate, a
support-excess direction); "indeterminate" names the check that could not be
decided at the working tolerance.  Classification never guesses: a PPT Choi
outside the dimensions where PPT is conclusive stays indeterminate unless a
constructive separable decomposition is available from the representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CqForm,
    DirectSumForm,
    EcqForm,
    PovmForm,
    _max_column_op_norm,
    _measure_prepare,
    _natural_channel,
    compose,
    cq_channel,
    map_distance,
    povm_channel,
)
from .geometry import hull_excess, polytopic_decompose
from .linalg import (
    canonical_phase,
    herm,
    hvec,
    op_norm,
    partial_transpose,
    random_direction,
    subspace_projector,
    unhvec,
    unvec,
    vec,
)

YES = "yes"
NO = "no"
INDETERMINATE = "indeterminate"

# dimensions where a PPT Choi matrix is necessarily separable
_PPT_EXACT = {(2, 2), (2, 3), (3, 2)}


@dataclass
class ClassVerdict:
    status: str
    witness: dict
    tolerance: float
    reason: str = ""

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("three-valued verdict; compare .status explicitly")


def is_entanglement_breaking(t, tol=1e-9):
    """Decide whether the Choi matrix of ``t`` is separable.

    Negative partial transpose is a conclusive "no".  A PPT Choi is
    conclusive "yes" in the (2,2)/(2,3)/(3,2) regimes; otherwise a
    constructive separable decomposition is read off measure-and-prepare
    representations (and, blockwise, direct sums of them).
    """
    t.require_cptp()
    j = t.to_choi()
    jpt = partial_transpose(j, (t.d_out, t.d_in), which=1)
    w, u = np.linalg.eigh(herm(jpt))
    min_pt = float(w[0])
    if min_pt < -tol:
        return ClassVerdict(
            status=NO,
            witness={"min_pt_eigenvalue": min_pt, "pt_eigenvector": canonical_phase(u[:, 0])},
            tolerance=tol,
        )
    base = {"min_pt_eigenvalue": min_pt}
    if (t.d_in, t.d_out) in _PPT_EXACT:
        return ClassVerdict(status=YES, witness={**base, "ppt_exact_regime": True}, tolerance=tol)
    f = t.form
    if isinstance(f, (PovmForm, EcqForm, CqForm)):
        # separable Choi decomposition J = sum_k sigma_k (x) M_k^T / d_in
        pairs = [(s.copy(), m.T.copy() / t.d_in) for m, s in zip(*_measure_prepare(f))]
        return ClassVerdict(status=YES, witness={**base, "separable_pairs": pairs}, tolerance=tol)
    if isinstance(f, DirectSumForm):
        subs = [is_entanglement_breaking(b, tol=tol) for b in f.blocks]
        if all(s.status == YES for s in subs):
            return ClassVerdict(status=YES, witness={**base, "blocks": subs}, tolerance=tol)
        if any(s.status == NO for s in subs):
            bad = next(s for s in subs if s.status == NO)
            return ClassVerdict(status=NO, witness={**base, "blocks": subs, **bad.witness},
                                tolerance=tol)
        return ClassVerdict(status=INDETERMINATE, witness={**base, "blocks": subs}, tolerance=tol,
                            reason="PPT holds but a block has no separability certificate")
    return ClassVerdict(status=INDETERMINATE, witness=base, tolerance=tol,
                        reason="PPT holds but dimensions admit PPT-entangled states and the "
                               "representation carries no separable decomposition")


# -- eCQ reconstruction -------------------------------------------------


@dataclass
class EcqCertificate:
    vectors: list          # orthonormal e_i
    tilde_effects: list    # M_i - e_i e_i*
    effects: list          # the unit-norm POVM M_i
    states: list           # the vertex states sigma_i
    norms: list            # operator norms of the effects


@dataclass
class EcqReconstruction:
    status: str
    certificate: EcqCertificate | None
    witness: dict
    tolerance: float
    reason: str = ""


def reconstruct_ecq(t, vertices, preimages=None, tol=1e-7):
    """Solve ``T(rho) = sum_i Tr(M_i rho) sigma_i`` for the unique POVM.

    ``vertices`` must be the vertex states of ``Im(T)``.  The affine
    coordinate functionals of the vertex frame are pulled back through the
    adjoint: ``M_j = T*(G_j) + c_j I`` where ``Tr(G_j sigma_i) + c_j =
    delta_ij``.  The answer is "yes" only if the reconstructed effects
    reproduce the channel, form a POVM, and every effect has operator norm
    one; a condition failing beyond tolerance is a conclusive "no" because
    the candidate effects are unique.  Affinely dependent vertices lose
    uniqueness and give "indeterminate".
    """
    t.require_cptp()
    n, d = t.d_out, t.d_in
    sigmas = [herm(np.asarray(s, dtype=complex)) for s in vertices]
    k = len(sigmas)
    if k == 0:
        return EcqReconstruction(status=NO, certificate=None,
                                 witness={"failed": "no vertices supplied"}, tolerance=tol)

    b = np.array([np.concatenate([hvec(s), [1.0]]) for s in sigmas])
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 1e-8 * max(1.0, sv[0]):
        obstruction = _dilation_obstruction(t, sigmas, tol)
        if obstruction is not None:
            return EcqReconstruction(
                status=NO, certificate=None,
                witness={"singular_values": sv, **obstruction}, tolerance=tol,
                reason="dilating the channel about the maximally mixed state leaves the "
                       "CP/PPT cone, so no POVM prepares these (all mixed) vertices")
        return EcqReconstruction(status=INDETERMINATE, certificate=None,
                                 witness={"singular_values": sv}, tolerance=tol,
                                 reason="vertices are affinely dependent; POVM not unique")
    y = np.linalg.pinv(b)  # columns: (g_j, c_j) with a_j(sigma_i) = delta_ij
    g = np.array([unhvec(y[:-1, jcol], n) for jcol in range(k)])
    effects = list(herm(t.dual_apply(g) + y[-1][:, None, None] * np.eye(d)))

    checks = {}
    rebuilt = povm_channel(effects, sigmas, validate=False)
    checks["reproduction"] = (map_distance(t, rebuilt), 1e-9)
    checks["sum_to_identity"] = (op_norm(sum(effects) - np.eye(d)), 1e-9)
    checks["effect_psd"] = (max(-float(np.linalg.eigvalsh(m)[0]) for m in effects), 1e-9)

    norms = []
    vectors = []
    for m in effects:
        w, u = np.linalg.eigh(m)
        norms.append(float(w[-1]))
        vectors.append(canonical_phase(u[:, -1]))
    checks["unit_norms"] = (max(abs(x - 1.0) for x in norms), tol)

    gram_dev = max(abs(np.vdot(vectors[i], vectors[jj]) - (1.0 if i == jj else 0.0))
                   for i in range(k) for jj in range(k))
    checks["vector_orthonormality"] = (gram_dev, 1e-9)

    tilde = [m - np.outer(e, np.conj(e)) for m, e in zip(effects, vectors)]
    checks["tilde_psd"] = (max(-float(np.linalg.eigvalsh(herm(m))[0]) for m in tilde), 1e-8)
    checks["tilde_support"] = (
        max(abs(np.conj(e) @ m @ e) for m in tilde for e in vectors), 1e-8)

    if preimages is not None:
        dev = 0.0
        for e, basis in zip(vectors, preimages):
            p = subspace_projector(np.asarray(basis, dtype=complex))
            dev = max(dev, float(np.linalg.norm(e - p @ e)))
        checks["vector_in_preimage"] = (dev, 1e-6)

    failed = {name: val for name, (val, bound) in checks.items() if val > bound}
    witness = {name: val for name, (val, bound) in checks.items()}
    if failed:
        return EcqReconstruction(status=NO, certificate=None,
                                 witness={**witness, "failed": sorted(failed)}, tolerance=tol,
                                 reason="unique candidate POVM violates: " + ", ".join(sorted(failed)))
    cert = EcqCertificate(vectors=vectors, tilde_effects=tilde, effects=effects,
                          states=sigmas, norms=norms)
    return EcqReconstruction(status=YES, certificate=cert, witness=witness, tolerance=tol)


def _dilation_obstruction(t, sigmas, tol):
    """Rule out every vertex POVM representation by dilating the channel.

    If ``T = sum_i Tr(M_i .) sigma_i`` held for any POVM at all, and every
    sigma_i is mixed, then the dilated map ``(1+eps) T - eps Tr(.) I/n``
    would prepare the shrunk states ``(1+eps) sigma_i - eps I/n`` (still PSD
    for eps up to the smallest vertex eigenvalue margin) and would itself be
    measure-and-prepare: completely positive with a PPT Choi matrix.  A
    negative Choi or partial-transpose eigenvalue of the dilated map is
    therefore a conclusive obstruction.  Returns a witness dict or None.

    Only meaningful when the supplied states dominate the image; a cheap
    support-function sweep guards against a caller passing a vertex set
    that misses part of the image.
    """
    n, d = t.d_out, t.d_in
    lam = min(float(np.linalg.eigvalsh(herm(s))[0]) for s in sigmas)
    if lam <= max(100.0 * tol, 1e-6):
        return None  # a vertex is (numerically) pure; no dilation room
    head = 1.0 - n * lam
    cap = n * lam / head if head > 1e-12 else 1.0
    eps = min(0.999 * cap, 1.0)
    rng = np.random.default_rng(0)
    if hull_excess(t, sigmas, [random_direction(rng, n) for _ in range(64)])[0] > 1e-7:
        return None
    # (1+eps) T(x) - eps Tr(x) I/n, with Tr(x) = vec(I_d) . vec(x)
    dilated = _natural_channel(
        (1.0 + eps) * t.natural_matrix()
        - (eps / n) * np.outer(vec(np.eye(n)), vec(np.eye(d))), d, n)
    j = herm(dilated.to_choi())
    choi_min = float(np.linalg.eigvalsh(j)[0])
    pt_min = float(np.linalg.eigvalsh(herm(partial_transpose(j, (n, d), which=1)))[0])
    if min(choi_min, pt_min) < -max(100.0 * tol, 1e-8):
        return {"dilation_epsilon": eps, "min_vertex_eigenvalue": lam,
                "dilated_choi_min": choi_min, "dilated_pt_min": pt_min}
    return None


def retraction_channel(certificate, d_in):
    """The dephasing-like map ``S(rho) = sum_i Tr(M_i rho) e_i e_i*``."""
    states = [np.outer(e, np.conj(e)) for e in certificate.vectors]
    return povm_channel(certificate.effects, states, validate=False)


# -- CQ decision --------------------------------------------------------


def is_cq(t, seed=0, n_directions=400):
    """Decide whether ``t`` dephases in some orthonormal input basis.

    The candidate basis is assembled recursively: vertex preimages of the
    image contribute blockwise (any orthonormal basis of a preimage works),
    and the compression to the residual subspace is decided by recursion.
    The assembled basis is then verified directly, so "yes" is certified;
    "no" requires a support-excess witness showing the image of some stage
    is not the hull of its vertices.
    """
    t.require_cptp()
    out = _cq_recurse(t, seed, n_directions)
    if isinstance(out, ClassVerdict):
        return out
    basis, states = out
    b = np.column_stack(basis)
    d = t.d_in
    # column i*d+j is vec T(b_i b_j*)
    images = t.natural_matrix() @ np.kron(b, np.conj(b))
    offdiag = _max_column_op_norm(images[:, ~np.eye(d, dtype=bool).reshape(-1)], t.d_out)
    diag_states = list(herm(images[:, ::d + 1].T.reshape(d, t.d_out, t.d_out)))
    rebuilt = cq_channel(b, diag_states, validate=False)
    dist = map_distance(t, rebuilt)
    if offdiag <= 1e-9 and dist <= 1e-9:
        return ClassVerdict(status=YES, tolerance=1e-9,
                            witness={"basis": b, "states": diag_states,
                                     "offdiagonal_residual": offdiag,
                                     "map_deviation": dist})
    return ClassVerdict(status=INDETERMINATE, tolerance=1e-9,
                        witness={"offdiagonal_residual": offdiag, "map_deviation": dist},
                        reason="candidate basis search exhausted without proof of infeasibility")


def _cq_recurse(t, seed, n_directions):
    """Returns (basis vector list, state list) or a terminal ClassVerdict."""
    d = t.d_in
    if d == 1:
        return [np.ones(1, dtype=complex)], [herm(unvec(t.natural_matrix(), t.d_out))]
    dec = polytopic_decompose(t, n_directions=n_directions, seed=seed)
    if not dec.vertices:
        if dec.verdict == "not_polytopic":
            return ClassVerdict(status=NO, tolerance=1e-9,
                                witness={"stage_d_in": d, **_excess_witness(dec)},
                                reason="image of a stage has no vertices; a CQ image is the "
                                       "hull of at most d_in states")
        return ClassVerdict(status=INDETERMINATE, tolerance=1e-9, witness={"stage_d_in": d},
                            reason="vertex detection inconclusive")
    basis = []
    states = []
    for r in dec.vertices:
        for col in r.preimage_basis.T:
            basis.append(col)
            states.append(r.state)
    if dec.w_basis.shape[1]:
        sub = _cq_recurse(dec.t2, seed + 1, n_directions)
        if isinstance(sub, ClassVerdict):
            if sub.status == NO:
                return ClassVerdict(status=NO, tolerance=1e-9,
                                    witness={"stage_d_in": d, "residual": sub.witness},
                                    reason="residual block is not CQ: " + sub.reason)
            return sub
        sub_basis, sub_states = sub
        for v, s in zip(sub_basis, sub_states):
            basis.append(dec.w_basis @ v)
            states.append(s)
    if len(basis) != d:
        # overlapping preimages; the clusters may be spurious, so no "no"
        return ClassVerdict(status=INDETERMINATE, tolerance=1e-9,
                            witness={"stage_d_in": d, "n_vectors": len(basis),
                                     "orthogonality_deviation":
                                         dec.checks["orthogonality_deviation"]},
                            reason="vertex preimages of a stage overlap and give "
                                   f"{len(basis)} basis vectors for dimension {d}")
    return basis, states


def _excess_witness(dec):
    """The decomposition's excess direction, with the excess when vertices were found."""
    w = {"direction": dec.direction}
    if dec.checks:
        w["support_excess"] = dec.checks["max_support_excess"]
    return w


# -- universal image additivity ----------------------------------------


def is_universally_image_additive(t, seed=0, n_directions=400):
    """Image additivity against every partner channel.

    Certified through the structure theorem: the channel is universally image
    additive iff it is eCQ, and a "yes" comes with the retraction ``S``
    (a CQ map with ``T o S = T``) that realizes additivity constructively.
    Once the image is polytopic the witness holds the eCQ reconstruction
    under ``"reconstruction"``; otherwise it holds the decomposition's
    support-excess direction.
    """
    t.require_cptp()
    dec = polytopic_decompose(t, n_directions=n_directions, seed=seed)
    if dec.verdict == "not_polytopic":
        return ClassVerdict(status=NO, tolerance=1e-9, witness=_excess_witness(dec),
                            reason="image is not the hull of its detected vertices, so the "
                                   "channel is not eCQ")
    if dec.verdict == "indeterminate":
        return ClassVerdict(status=INDETERMINATE, tolerance=1e-9, witness=_excess_witness(dec),
                            reason="polytopic decomposition inconclusive")
    rec = reconstruct_ecq(t, [r.state for r in dec.vertices],
                          preimages=[r.preimage_basis for r in dec.vertices])
    if rec.status == NO:
        return ClassVerdict(status=NO, tolerance=rec.tolerance,
                            witness={**rec.witness, "reconstruction": rec},
                            reason="vertices admit no unit-norm POVM: " + rec.reason)
    if rec.status != YES:
        return ClassVerdict(status=INDETERMINATE, tolerance=rec.tolerance,
                            witness={**rec.witness, "reconstruction": rec}, reason=rec.reason)
    s = retraction_channel(rec.certificate, t.d_in)
    dev = map_distance(compose(s, t), t)
    if dev <= 1e-9:
        return ClassVerdict(status=YES, tolerance=1e-9,
                            witness={"certificate": rec.certificate, "retraction": s,
                                     "retraction_deviation": dev, "reconstruction": rec})
    return ClassVerdict(status=INDETERMINATE, tolerance=1e-9,
                        witness={"retraction_deviation": dev, "reconstruction": rec},
                        reason="retraction failed to reproduce the channel")
