"""Channel classification: entanglement breaking, CQ, eCQ, universal image
additivity.

Every answer is one :class:`Verdict`: a status ``"yes"`` / ``"no"`` /
``"indeterminate"``, a ``witness`` dict and a ``reason``.  "yes" and "no"
carry their evidence in the witness (a separable decomposition, a violating
eigenvector, a pair of output directions whose adjoint images do not
commute, a reconstructed certificate, the image decomposition's checks);
"indeterminate" says in ``reason`` which check could not be decided at the
working tolerance.  Classification never guesses: a PPT Choi outside the
dimensions where PPT is conclusive stays indeterminate unless a constructive
separable decomposition is available from the representation or from the
one :func:`vertex_certificate` of a CQ or eCQ map: the map's eCQ form, an
:class:`~.channels.EcqForm` (orthonormal ``e_i``, remainders ``M_i - e_i
e_i*`` and vertex states ``sigma_i``; a CQ map is the case of zero
remainders).  A map written in CQ or eCQ form is its own certificate when
its constructor checked every claim of it; any other map takes the one its
CQ or eCQ "yes" carries.  CQ is decided algebraically, from the range of the
adjoint, and the image vertices that eCQ and universal image additivity rest
on come from the common eigenvectors of that range; neither samples.  The CQ
and universal-image-additivity verdicts are kept on the channel.  Every
tolerance is fixed; the caller sets none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CqForm,
    EcqForm,
    PovmForm,
    _max_column_op_norm,
    _measure_prepare,
    _natural_channel,
    compose,
    cq_channel,
    kept,
    map_distance,
    povm_channel,
)
from .geometry import (
    VERDICT_TOL,
    _adjoint_range,
    block_restrictions,
    hull_containment,
    input_blocks,
    polytopic_decompose,
)
from .linalg import (
    canonical_phase,
    herm,
    hvec,
    kron,
    op_norm,
    outer,
    partial_transpose,
    subspace_projector,
    unhvec,
)

YES = "yes"
NO = "no"
INDETERMINATE = "indeterminate"

# dimensions where a PPT Choi matrix is necessarily separable
_PPT_EXACT = {(2, 2), (2, 3), (3, 2)}

UNIT_NORM_TOL = 1e-7  # bound on | ||M_i|| - 1 | for a unit-norm POVM
PPT_TOL = 1e-9        # a smaller partial-transpose eigenvalue of the Choi matrix is "no"


@dataclass
class Verdict:
    """A three-valued answer.

    ``status`` is ``YES``, ``NO`` or ``INDETERMINATE``; ``witness`` holds the
    evidence under keys that each producing function documents; ``reason``
    explains a "no" or an "indeterminate" (empty for most "yes").
    """

    status: str
    witness: dict
    reason: str = ""

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("three-valued verdict; compare .status explicitly")


def is_entanglement_breaking(t):
    """Decide whether the Choi matrix of ``t`` is separable.

    Negative partial transpose (below ``-PPT_TOL``) is a conclusive "no".  A
    PPT Choi is conclusive "yes" in the (2,2)/(2,3)/(3,2) regimes.
    Otherwise a constructive separable decomposition is read off a
    measure-and-prepare representation.  In any other representation a map
    that splits into input blocks (:func:`~.geometry.input_blocks`, in any
    input frame) is EB exactly when every block restriction is; a 1-dim
    block always is, its Choi state being a product.  A "no" block decides
    "no", and all "yes" decides "yes".  The :func:`vertex_certificate` of a
    CQ or eCQ map, when there is one, still supplies the decomposition.

    The witness always holds ``"min_pt_eigenvalue"``.  A "no" adds
    ``"pt_eigenvector"``; a "yes" adds ``"ppt_exact_regime"`` or
    ``"separable_pairs"``, unless its blocks decided it; a map with several
    input blocks adds the verdicts of those of dimension 2 or more as
    ``"blocks"``.  Both partial-transpose entries are always the map's own,
    from its own Choi matrix; a "no" that a block decided names that block,
    by its place in ``"blocks"``, in ``reason``, and its own eigenpair stays
    in its verdict there.
    """
    t.require_cptp()
    j = t.to_choi()
    jpt = partial_transpose(j, (t.d_out, t.d_in), which=1)
    w, u = np.linalg.eigh(herm(jpt))
    min_pt = float(w[0])
    if min_pt < -PPT_TOL:
        return Verdict(NO, {"min_pt_eigenvalue": min_pt,
                            "pt_eigenvector": canonical_phase(u[:, 0])})
    base = {"min_pt_eigenvalue": min_pt}
    if (t.d_in, t.d_out) in _PPT_EXACT:
        return Verdict(YES, {**base, "ppt_exact_regime": True})
    f = t.form
    if isinstance(f, (PovmForm, EcqForm, CqForm)):
        mp = f
    else:
        if len(input_blocks(t)) > 1:
            # a 1-dim block's Choi state is a product: only the others are decided
            base["blocks"] = subs = [is_entanglement_breaking(b) for b in block_restrictions(t)
                                     if b.d_in > 1]
            bad = [i for i, s in enumerate(subs) if s.status == NO]
            if bad:
                # the map's own partial-transpose eigenpair; the block's stays in "blocks"
                return Verdict(NO, {**base, "pt_eigenvector": canonical_phase(u[:, 0])},
                               f"input block {bad[0]} of dimension 2 or more is not "
                               f"entanglement breaking")
        mp = vertex_certificate(t)
    if mp is not None:
        # separable Choi decomposition J = sum_i sigma_i (x) M_i^T / d_in
        pairs = [(s.copy(), m.T / t.d_in) for m, s in zip(*_measure_prepare(mp))]
        return Verdict(YES, {**base, "separable_pairs": pairs})
    if "blocks" not in base:
        return Verdict(INDETERMINATE, base, "PPT holds but dimensions admit PPT-entangled "
                                            "states and the representation carries no "
                                            "separable decomposition")
    if all(s.status == YES for s in base["blocks"]):
        return Verdict(YES, base)
    return Verdict(INDETERMINATE, base, "PPT holds but a block has no separability certificate")


def vertex_certificate(t):
    """The eCQ form of a CQ or eCQ map, an :class:`~.channels.EcqForm`, else None.

    ``Im T = conv{states}`` and ``T(e_i e_i*) = states[i]`` for the
    certificate's ``vectors``, and ``T = ecq_channel(vectors, tilde_effects,
    states)``.  None for any other channel, a non-CPTP map included.

    A map held in a CQ or eCQ form that its constructor checked (the form's
    ``checked``) and that passes the CPTP check is its own certificate:
    ``ecq_channel`` checked orthonormal ``e_i`` (within 1e-9), PSD
    remainders and remainders off every ``e_j`` (within 1e-8) and
    density-matrix states, and ``cq_channel`` a unitary basis and the
    states; the CPTP check holds the effects' sum to ``I`` within ``d_in``
    times 1e-9.  An eCQ form is returned as it is, and a CQ form as its
    basis columns with zero remainders, so no verdict runs.  Its states may
    differ from those of the verdicts' certificate by points inside the
    hull.  An unchecked form (``cq_channel(..., validate=False)``, or a
    form put into a :class:`~.channels.Channel` directly) goes through the
    verdicts: a non-unit basis vector there can pass the CPTP check.

    Any other map takes the certificate of the CQ "yes" (vectors the basis
    columns ``b_i``, zero remainders) or, failing that, of the universal
    image additivity "yes".  Outside the two verdicts, no other function
    reads either witness for it.  A CQ or eCQ map ``sum_i Tr(M_i .)
    sigma_i`` has at most ``d_in`` effects, one per orthonormal vector
    ``e_i``, so its natural matrix has rank at most ``d_in``.  A larger
    rank, read off the kept range of the adjoint (one SVD), answers None
    before any verdict is computed; that spares the identity partner of the
    report's probe a CPTP check and an image decomposition.
    """
    f = t.form
    if isinstance(f, (EcqForm, CqForm)) and f.checked:
        if not t.verify_cptp().is_cptp:
            return None
        return f if isinstance(f, EcqForm) else _cq_certificate(f.basis, f.states)
    if len(_adjoint_range(t)[1]) > t.d_in or not t.verify_cptp().is_cptp:
        return None
    cq = is_cq(t)
    if cq.status == YES:
        return cq.witness["certificate"]
    return is_universally_image_additive(t).witness.get("certificate")


# -- eCQ reconstruction -------------------------------------------------


def reconstruct_ecq(t, vertices, preimages=None):
    """Solve ``T(rho) = sum_i Tr(M_i rho) sigma_i`` for the unique POVM.

    ``vertices`` must be the vertex states of ``Im(T)``.  The affine
    coordinate functionals of the vertex frame are pulled back through the
    adjoint: ``M_j = T*(G_j) + c_j I`` where ``Tr(G_j sigma_i) + c_j =
    delta_ij``.  The answer is "yes" only if the reconstructed effects
    reproduce the channel, form a POVM, and every effect has operator norm
    one within ``UNIT_NORM_TOL``; a condition failing beyond tolerance is a
    conclusive "no" because the candidate effects are unique.  One stacked
    ``eigh`` of the effects gives their PSD margin, norms and top vectors,
    and one stacked ``eigvalsh`` the PSD margin of the remainders.

    Witness keys.  With independent vertices: one value per check
    (``"reproduction"``, ``"sum_to_identity"``, ``"effect_psd"``,
    ``"unit_norms"``, ``"vector_orthonormality"``, ``"tilde_psd"``,
    ``"tilde_support"``, and ``"vector_in_preimage"`` when ``preimages``
    are given), then on "yes" ``"certificate"`` (the :class:`~.channels.EcqForm`
    of the vectors ``e_i``, remainders ``M_i - e_i e_i*`` and the vertices)
    and ``"effect_norms"`` (the operator norms of the ``M_i``), or on "no"
    ``"failed"`` (the failing check names).  Affinely dependent
    vertices give ``"singular_values"`` of the frame: "no" when a dilation
    obstruction rules out every POVM (its values are added, see
    ``_dilation_obstruction``), otherwise "indeterminate" since the POVM is
    not unique.
    """
    t.require_cptp()
    n, d = t.d_out, t.d_in
    k = len(vertices)
    if k == 0:
        return Verdict(NO, {"failed": "no vertices supplied"})
    sigmas = list(herm(np.asarray(vertices, dtype=complex)))

    b = np.column_stack([hvec(sigmas), np.ones(k)])
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= 1e-8 * max(1.0, sv[0]):
        obstruction = _dilation_obstruction(t, sigmas)
        if obstruction is not None:
            return Verdict(NO, {"singular_values": sv, **obstruction},
                           "dilating the channel about the maximally mixed state leaves the "
                           "CP/PPT cone, so no POVM prepares these (all mixed) vertices")
        return Verdict(INDETERMINATE, {"singular_values": sv},
                       "vertices are affinely dependent; POVM not unique")
    y = np.linalg.pinv(b)  # columns: (g_j, c_j) with a_j(sigma_i) = delta_ij
    g = unhvec(y[:-1].T, n)
    effects = herm(t.dual_apply(g) + y[-1][:, None, None] * np.eye(d))
    w, u = np.linalg.eigh(effects)
    norms = w[:, -1]
    vectors = canonical_phase(u[:, :, -1])
    tilde = effects - vectors[:, :, None] * vectors.conj()[:, None, :]
    rebuilt = povm_channel(list(effects), sigmas, validate=False)
    checks = {
        "reproduction": (map_distance(t, rebuilt), 1e-9),
        "sum_to_identity": (op_norm(effects.sum(axis=0) - np.eye(d)), 1e-9),
        "effect_psd": (-float(w[:, 0].min()), 1e-9),
        "unit_norms": (float(np.abs(norms - 1.0).max()), UNIT_NORM_TOL),
        "vector_orthonormality": (float(np.abs(vectors.conj() @ vectors.T - np.eye(k)).max()),
                                  1e-9),
        "tilde_psd": (-float(np.linalg.eigvalsh(herm(tilde))[:, 0].min()), 1e-8),
        # |e_j* (M_i - e_i e_i*) e_j| over every pair
        "tilde_support": (float(np.abs(np.einsum("ja,iab,jb->ij", vectors.conj(), tilde,
                                                 vectors)).max()), 1e-8),
    }
    if preimages is not None:
        dev = max(float(np.linalg.norm(e - subspace_projector(np.asarray(b, dtype=complex)) @ e))
                  for e, b in zip(vectors, preimages))
        checks["vector_in_preimage"] = (dev, 1e-6)

    failed = sorted(name for name, (val, bound) in checks.items() if val > bound)
    witness = {name: val for name, (val, bound) in checks.items()}
    if failed:
        return Verdict(NO, {**witness, "failed": failed},
                       "unique candidate POVM violates: " + ", ".join(failed))
    witness["certificate"] = EcqForm(list(vectors), list(tilde), sigmas)
    witness["effect_norms"] = norms.tolist()
    return Verdict(YES, witness)


def _dilation_obstruction(t, sigmas):
    """Rule out every vertex POVM representation by dilating the channel.

    If ``T = sum_i Tr(M_i .) sigma_i`` held for any POVM at all, and every
    sigma_i is mixed, then the dilated map ``(1+eps) T - eps Tr(.) I/n``
    would prepare the shrunk states ``(1+eps) sigma_i - eps I/n`` (still PSD
    for eps up to the smallest vertex eigenvalue margin) and would itself be
    measure-and-prepare: completely positive with a PPT Choi matrix.  A
    negative Choi or partial-transpose eigenvalue of the dilated map is
    therefore a conclusive obstruction.  Returns a witness dict or None.

    Only meaningful when the supplied states dominate the image, so it
    returns None unless :func:`~.geometry.hull_containment` finds the image
    inside their hull.
    """
    n, d = t.d_out, t.d_in
    lam = min(float(np.linalg.eigvalsh(herm(s))[0]) for s in sigmas)
    if lam <= 1e-5:
        return None  # a vertex is (numerically) pure; no dilation room
    head = 1.0 - n * lam
    cap = n * lam / head if head > 1e-12 else 1.0
    eps = min(0.999 * cap, 1.0)
    if hull_containment(t, sigmas)[0] > VERDICT_TOL:
        return None
    # (1+eps) T(x) - eps Tr(x) I/n, with Tr(x) = vec(I_d) . vec(x)
    dilated = _natural_channel(
        (1.0 + eps) * t.natural_matrix()
        - (eps / n) * outer(np.eye(n), np.eye(d)), d, n)
    j = herm(dilated.to_choi())
    choi_min = float(np.linalg.eigvalsh(j)[0])
    pt_min = float(np.linalg.eigvalsh(herm(partial_transpose(j, (n, d), which=1)))[0])
    if min(choi_min, pt_min) < -1e-5:
        return {"dilation_epsilon": eps, "min_vertex_eigenvalue": lam,
                "dilated_choi_min": choi_min, "dilated_pt_min": pt_min}
    return None


def retraction_channel(cert):
    """The dephasing-like map ``S(rho) = sum_i Tr(M_i rho) e_i e_i*`` of an eCQ form."""
    states = [outer(e, np.conj(e)) for e in cert.vectors]
    return povm_channel(cert.effects(), states, validate=False)


# -- CQ decision --------------------------------------------------------


def _cq_certificate(basis, states):
    """The eCQ form of the CQ map of ``basis`` and ``states``: the basis
    columns as the ``e_i``, with zero remainders."""
    d = len(basis)
    return EcqForm(list(basis.T), list(np.zeros((d, d, d), dtype=complex)), states)


@kept
def is_cq(t):
    """Decide whether ``t`` dephases in some orthonormal input basis.

    ``T`` is CQ exactly when the range of its adjoint, ``{T*(H)}``, is
    commutative: ``T(rho) = sum_i <b_i|rho|b_i> sigma_i`` gives
    ``T*(H) = sum_i Tr(H sigma_i) b_i b_i*``, and conversely a commutative
    ``*``-closed range is diagonal in one orthonormal basis ``b_i``, so
    ``T`` kills every off-diagonal unit ``b_i b_j*`` and ``T = T o D_b``.
    One SVD of the adjoint gives orthonormal output directions ``X_i`` and
    the weighted elements ``Y_i = T*(X_i) / s_max`` of the range, where
    ``s_max`` is the largest singular value (the operator norm of the
    natural matrix); nothing is sampled.

    "no" carries ``"directions"`` (the pair ``X_i, X_j``) and
    ``"commutator"``, the Frobenius norm of ``[Y_i, Y_j]``, above 1e-9 and
    recomputable with ``dual_apply``.  "yes" takes the basis ``b_i`` of the
    concatenated :func:`~.geometry.input_blocks`, the one structure of the
    range, and verifies it directly: ``"certificate"`` (the :class:`~.channels.EcqForm`
    with vectors ``b_i``, zero remainders and the states ``T(b_i b_i*)``;
    read it with :func:`vertex_certificate`), ``"effect_norms"`` (all one),
    ``"offdiagonal_residual"`` and ``"map_deviation"``.  A commuting range
    whose basis fails that verification is "indeterminate", with the
    largest ``"commutator"`` and both check values.

    The verdict is computed once per channel and kept on ``t``; a non-CPTP
    map raises on every call.
    """
    t.require_cptp()
    d, n = t.d_in, t.d_out
    x, y, _ = _adjoint_range(t)
    r = len(y)
    worst, pair = 0.0, None
    for i in range(r - 1):
        c = np.linalg.norm(y[i] @ y[i + 1:] - y[i + 1:] @ y[i], axis=(1, 2))
        j = int(np.argmax(c))
        if c[j] > worst:
            worst, pair = float(c[j]), (i, i + 1 + j)
    if worst > 1e-9:
        return Verdict(NO, {"directions": list(x[list(pair)]), "commutator": worst},
                       "the range of the adjoint does not commute")
    b = np.concatenate(input_blocks(t), axis=1)
    # column i*d+j is vec T(b_i b_j*)
    images = t.natural_matrix() @ kron(b, np.conj(b))
    offdiag = _max_column_op_norm(images[:, ~np.eye(d, dtype=bool).reshape(-1)], n)
    diag_states = list(herm(images[:, ::d + 1].T.reshape(d, n, n)))
    rebuilt = cq_channel(b, diag_states, validate=False)
    dist = map_distance(t, rebuilt)
    if offdiag <= 1e-9 and dist <= 1e-9:
        return Verdict(YES, {"certificate": _cq_certificate(b, diag_states),
                             "effect_norms": [1.0] * d,
                             "offdiagonal_residual": offdiag, "map_deviation": dist})
    return Verdict(INDETERMINATE, {"commutator": worst, "offdiagonal_residual": offdiag,
                                   "map_deviation": dist},
                   "the range of the adjoint commutes, but the basis of its input "
                   "blocks fails verification")


# -- universal image additivity ----------------------------------------


@kept
def is_universally_image_additive(t):
    """Image additivity against every partner channel.

    Certified through the structure theorem: the channel is universally image
    additive iff it is eCQ, and a "yes" comes with the retraction ``S``
    (a CQ map with ``T o S = T``) that realizes additivity constructively.
    Once the image is polytopic the witness holds the eCQ reconstruction
    verdict under ``"reconstruction"``.  When that verdict holds no
    certificate (affinely dependent vertices leave the POVM open) but the
    map is CQ, the CQ verdict takes its place, since a CQ map is eCQ with
    zero remainders.  A "yes" adds the :class:`~.channels.EcqForm` it
    retracts with as ``"certificate"``, ``"retraction"`` and
    ``"retraction_deviation"``.  Otherwise the witness holds the
    decomposition's ``"checks"`` and its ``"direction"``: the facet that the
    residual block's image crosses, or None when the characters of range(T*)
    decided.  Nothing is sampled.

    The verdict is computed once per channel and kept on ``t``; a non-CPTP
    map raises on every call.
    """
    t.require_cptp()
    dec = polytopic_decompose(t)
    if dec.verdict != "polytopic":
        witness = {"checks": dec.checks, "direction": dec.direction}
        if dec.verdict == "indeterminate":
            return Verdict(INDETERMINATE, witness, "polytopic decomposition inconclusive")
        if dec.direction is None:
            return Verdict(NO, witness,
                           f"the characters of range(T*) span affine dimension "
                           f"{dec.checks['character_affine_dim']} < {dec.n_dof}, so the image "
                           "is not a polytope and the channel is not eCQ")
        return Verdict(NO, witness, "the residual block's image leaves the hull of the "
                                    "vertices, so the channel is not eCQ")
    rec = reconstruct_ecq(t, [r.state for r in dec.vertices],
                          preimages=[r.preimage_basis for r in dec.vertices])
    if rec.status != YES and is_cq(t).status == YES:
        rec = is_cq(t)
    if rec.status == NO:
        return Verdict(NO, {"reconstruction": rec},
                       "vertices admit no unit-norm POVM: " + rec.reason)
    if rec.status != YES:
        return Verdict(INDETERMINATE, {"reconstruction": rec}, rec.reason)
    cert = rec.witness["certificate"]
    s = retraction_channel(cert)
    dev = map_distance(compose(s, t), t)
    if dev <= 1e-9:
        return Verdict(YES, {"reconstruction": rec, "certificate": cert, "retraction": s,
                             "retraction_deviation": dev})
    return Verdict(INDETERMINATE, {"reconstruction": rec, "retraction_deviation": dev},
                   "retraction failed to reproduce the channel")
