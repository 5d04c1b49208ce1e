"""Output entropies, their minimization, and additivity diagnostics.

All entropies use the natural logarithm.  Minimal output entropy is computed
over pure inputs (the minimum over all states is attained on an extreme
point).  The minimizer runs every start at once through the natural matrix:
each step moves a start to the bottom eigenvector of ``T*(G)``, with ``G``
the entropy gradient at its current output, which by the tangent bound never
raises the value; one over-relaxed candidate per step along the same great
circle speeds up the slow approach to pure outputs.  No step size, line
search or input grid is involved.

Entropy additivity gaps are reported as ``H_min(T1) + H_min(T2) -
H_min(T1 (x) T2)``.  The joint optimizer is always seeded with the product of
the single-channel minimizers, so the reported gap is nonnegative up to
evaluation roundoff and vanishes for additive pairs whenever the
single-channel optima are found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _natural_channel, cq_channel, direct_sum, tensor
from .geometry import hull_excess
from .linalg import check_density_matrix, herm, random_directions, random_pure_vectors

_P_MAX = 50.0
_EIG_FLOOR = 1e-18
_PURE = 1e-11            # a value this small is a pure output: every start stops
_DECREASE_TOL = 1e-15    # a start whose step gains no more than this stops
_RESTARTS = 8            # product-support starts per direction, twice that in the rerun


def _check_p(p):
    p = float(p)
    if not (1.0 - 1e-6 <= p <= _P_MAX):
        raise ValueError(f"Renyi order p={p} outside supported range [1, {_P_MAX:g}]")
    return p


def _entropy_from_eigs(w, p):
    """H^(p) of the spectra along the last axis of ``w``."""
    w = np.clip(np.real(w), 0.0, None)
    if abs(p - 1.0) <= 1e-6:
        return -np.sum(np.where(w > _EIG_FLOOR, w * np.log(np.maximum(w, _EIG_FLOOR)), 0.0),
                       axis=-1)
    return np.log(np.sum(w ** p, axis=-1)) / (1.0 - p)


def renyi_entropy(rho, p=1.0):
    """Renyi output entropy H^(p); p=1 is the von Neumann entropy."""
    p = _check_p(p)
    w = np.linalg.eigvalsh(herm(np.asarray(rho, dtype=complex)))
    return float(_entropy_from_eigs(w, p))


def _entropy_derivative(w, p):
    """f'(lambda) for H^(p) = Tr f(rho) read through the spectral theorem."""
    w = np.clip(np.real(w), 0.0, None)
    if abs(p - 1.0) <= 1e-6:
        return -(np.log(np.maximum(w, _EIG_FLOOR)) + 1.0)
    s = np.maximum(np.sum(w ** p, axis=-1, keepdims=True), _EIG_FLOOR)
    return p * w ** (p - 1.0) / ((1.0 - p) * s)


@dataclass
class MinEntropyResult:
    value: float
    minimizer: np.ndarray      # pure input vector
    output_state: np.ndarray
    p: float
    converged: bool
    grad_norm: float
    n_starts: int


def _linearization(t, w, u, p):
    """Stacked ``T*(G)`` with ``G = U f'(w) U*`` the entropy gradient at each output."""
    g = (u * _entropy_derivative(w, p)[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))
    return herm(t.dual_apply(g))


def min_output_entropy(t, p=1.0, seed=0, n_starts=64, max_iter=300, extra_starts=None):
    """Minimal output Renyi entropy of ``t`` over pure inputs.

    Every start runs the linearization step together: ``x`` moves to the
    bottom eigenvector ``y`` of ``T*(G)``, where ``G`` is the entropy
    gradient at ``T(x x*)``.  The tangent bound (``H`` is concave at p = 1,
    ``Tr rho^p`` is convex for p > 1) makes that step monotone with no step
    size.  Where the minimizing output is pure and the image osculates the
    state space the plain step converges sublinearly, so each step also
    tries the point on the great circle from ``x`` through ``y`` at
    ``2 beta`` times their angle; ``beta`` doubles while that point wins
    and resets to 1 when it loses.  A start stops when neither candidate lowers its
    value by more than ``_DECREASE_TOL``; every start stops once the best
    value is at most ``_PURE``.  ``converged`` is the winning start's own
    stop reason; hitting ``max_iter`` is not convergence.
    """
    p = _check_p(p)
    t.require_cptp()
    rng = np.random.default_rng(seed)
    d = t.d_in
    extra = [np.asarray(v, dtype=complex).reshape(-1) for v in extra_starts or ()]
    x = np.concatenate([np.eye(d, dtype=complex), random_pure_vectors(rng, n_starts, d),
                        np.reshape(extra, (-1, d))])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    w, u = np.linalg.eigh(herm(t.pure_outputs(x)))
    val = _entropy_from_eigs(w, p)
    beta = np.ones(len(x))
    active = np.ones(len(x), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0 or val.min() <= _PURE:
            break
        xa = x[idx]
        y = np.linalg.eigh(_linearization(t, w[idx], u[idx], p))[1][:, :, 0]
        overlap = np.sum(np.conj(xa) * y, axis=1)
        cos = np.abs(overlap)
        # phase-align y with x; a y orthogonal to x keeps its phase
        aligned = cos > 0
        y[aligned] *= (np.conj(overlap[aligned]) / cos[aligned])[:, None]
        cos = np.minimum(cos, 1.0)
        perp = y - cos[:, None] * xa
        perp_norm = np.linalg.norm(perp, axis=1)
        perp[perp_norm > 0] /= perp_norm[perp_norm > 0, None]
        # the over-relaxed candidate: 2 beta times the angle from x to y
        phi = np.minimum(2.0 * beta[idx] * np.arccos(cos), np.pi / 2)[:, None]
        z = np.cos(phi) * xa + np.sin(phi) * perp
        cand = np.concatenate([y, z])
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        c_w, c_u = np.linalg.eigh(herm(t.pure_outputs(cand)))
        c_val = _entropy_from_eigs(c_w, p)
        m = idx.size
        over = c_val[m:] < c_val[:m]
        pick = np.arange(m) + m * over
        new = c_val[pick]
        moved = new < val[idx]
        beta[idx] = np.where(over & moved, 2.0 * beta[idx], 1.0)
        done = ~moved | (val[idx] - new <= _DECREASE_TOL)
        step, src = idx[moved], pick[moved]
        x[step], val[step] = cand[src], new[moved]
        w[step], u[step] = c_w[src], c_u[src]
        active[idx[done]] = False
    converged = ~active | (val <= _PURE)
    i = int(np.argmin(val))
    xi = x[i]
    rho = herm(t.pure_outputs(x[i:i + 1]))
    w, u = np.linalg.eigh(rho)
    grad = 2.0 * (_linearization(t, w, u, p)[0] @ xi)
    grad_norm = float(np.linalg.norm(grad - np.vdot(xi, grad) * xi))
    return MinEntropyResult(value=float(val[i]), minimizer=xi, output_state=rho[0], p=p,
                            converged=bool(converged[i]), grad_norm=grad_norm,
                            n_starts=len(x))


# -- entropy additivity -------------------------------------------------


@dataclass
class EntropyAdditivityReport:
    gap: float                 # H_min(T1) + H_min(T2) - H_min(T1 x T2)
    single_first: MinEntropyResult
    single_second: MinEntropyResult
    joint: MinEntropyResult
    p: float


def entropy_additivity_gap(t1, t2, p=1.0, seed=0):
    p = _check_p(p)
    r1 = min_output_entropy(t1, p=p, seed=seed, n_starts=48)
    r2 = min_output_entropy(t2, p=p, seed=seed + 1, n_starts=48)
    joint = tensor(t1, t2)
    seed_vec = np.kron(r1.minimizer, r2.minimizer)
    rj = min_output_entropy(joint, p=p, seed=seed + 2, n_starts=48,
                            extra_starts=[seed_vec])
    gap = r1.value + r2.value - rj.value
    return EntropyAdditivityReport(gap=float(gap), single_first=r1, single_second=r2,
                                   joint=rj, p=p)


# -- image additivity ---------------------------------------------------


@dataclass
class ImageAdditivityReport:
    max_gap: float
    direction: np.ndarray      # witness direction on the joint output space
    lhs: float                 # support of Im(T1 x T2)
    rhs: float                 # support over product inputs; a lower bound
    certified: bool            # a 16-start rerun reproduced rhs within 1e-8; not a proof
    n_directions: int


def _outer(v):
    return v[..., :, None] * np.conj(v)[..., None, :]


def _product_support(ms, psi, pure):
    """Per direction, the best ``Tr(m rho_a (x) rho_b)`` found by alternating
    top-eigenvector updates from the best product approximation of the joint
    maximizer ``psi``, from ``I/d_b`` and from the rows of ``pure``
    ``(n, r, d_b)``, all in one stack; a start stops when it gains < 1e-10.

    Each round contracts only the directions with a live start: a direction
    whose starts have all stopped has its best value written out, and the
    stacks shrink to the directions still held.
    """
    n, r, db = pure.shape
    da = ms.shape[-1] // db
    m4 = ms.reshape(n, da, db, da, db)
    vb = np.conj(np.linalg.svd(psi.reshape(n, da, db))[2][:, 0])
    mixed = np.broadcast_to(np.eye(db, dtype=complex) / db, (n, 1, db, db))
    rho_b = np.concatenate([_outer(vb)[:, None], mixed, _outer(pure)], axis=1)
    rho_a = np.zeros((n, r + 2, da, da), dtype=complex)
    val = np.full((n, r + 2), -np.inf)
    active = np.ones((n, r + 2), dtype=bool)
    best = np.empty(n)
    rows = np.arange(n)  # the direction of each held row
    for _ in range(20):
        live = active.any(axis=1)
        if not live.all():
            best[rows[~live]] = val[~live].max(axis=1)
            m4, rho_a, rho_b, val, active, rows = (
                x[live] for x in (m4, rho_a, rho_b, val, active, rows))
        if not rows.size:
            break
        k1 = herm(np.einsum("najbl,nslj->nsab", m4, rho_b)[active])
        rho_a[active] = _outer(np.linalg.eigh(k1)[1][..., -1])
        w, u = np.linalg.eigh(herm(np.einsum("najbl,nsba->nsjl", m4, rho_a)[active]))
        rho_b[active] = _outer(u[..., -1])
        gain = w[:, -1] - val[active]
        val[active] = w[:, -1]
        active[active] = gain >= 1e-10
    best[rows] = val.max(axis=1)
    return best


def image_additivity_gap(t1, t2, n_directions=40, seed=0):
    """Largest observed gap between joint and product support functions.

    For each Hermitian direction ``H`` on the joint output space the left
    side is the support of ``Im(T1 (x) T2)`` and the right side the best
    value ``_product_support`` finds, a lower bound on the product support.
    Random directions are mixed with projectors onto rotated maximally
    entangled vectors when the output factors have equal dimension, since
    those expose non-product extreme points most sharply.  ``certified``
    means a rerun from 16 starts, two of them the first run's own, reproduced
    the right side within 1e-8: not an independent check, and not a proof.
    """
    if n_directions < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng(seed)
    n1, n2 = t1.d_out, t2.d_out
    n_ent = n_directions // 4 if n1 == n2 else 0
    directions = random_directions(rng, n_directions - n_ent, n1 * n2)
    # entangled frames: (u re, u im, v re, v im) each, as successive single draws
    g = rng.normal(size=(n_ent, 2, 2, n1, n1))
    frames = np.linalg.qr(g[:, :, 0] + 1j * g[:, :, 1])[0]
    ent = [_outer(np.kron(u, v) @ np.eye(n1).reshape(-1) / np.sqrt(n1)) for u, v in frames]
    directions = np.concatenate([directions, np.reshape(ent, (n_ent, n1 * n2, n1 * n2))])
    ms = herm(tensor(t1, t2).dual_apply(directions))
    w, u = np.linalg.eigh(ms)
    psi, db = u[:, :, -1], t2.d_in
    pure = random_pure_vectors(rng, (n_directions, _RESTARTS - 2), db)
    rhs_all = _product_support(ms, psi, pure)
    gaps = w[:, -1] - rhs_all
    # the first direction within roundoff of the largest gap, so the witness
    # does not hinge on the last bits of the BLAS reduction order
    i = int(np.flatnonzero(gaps >= gaps.max() - 1e-12)[0])
    gap, h, lhs, rhs = gaps[i], directions[i], w[i, -1], rhs_all[i]
    certified = False
    if gap > 1e-6:
        pure = random_pure_vectors(np.random.default_rng(seed + 9091), (1, 2 * _RESTARTS - 2), db)
        redo = _product_support(ms[i:i + 1], psi[i:i + 1], pure)[0]
        stable = abs(redo - rhs) <= 1e-8
        rhs = max(rhs, redo)
        gap = lhs - rhs
        certified = bool(stable and gap > 1e-6)
    return ImageAdditivityReport(max_gap=float(gap), direction=h, lhs=float(lhs),
                                 rhs=float(rhs), certified=certified,
                                 n_directions=n_directions)


# -- hiding construction ------------------------------------------------


class ContainmentError(ValueError):
    """Raised when the inner image is not contained in the vertex hull."""

    def __init__(self, direction, excess):
        self.direction = direction
        self.excess = float(excess)
        super().__init__(f"inner image exceeds the vertex hull by {excess:.3e} "
                         "along a sampled direction")


def build_hiding_channel(vertex_states, inner, n_directions=200):
    """Embed ``inner`` behind a polytopic face so its image is invisible.

    The result acts on ``C^k (+) C^{d_inner}``: the first ``k`` coordinates
    dephase onto the vertex states, the trailing block feeds ``inner``.  The
    image equals the hull of ``vertex_states`` provided ``Im(inner)`` lies
    inside that hull; containment is checked on sampled support directions
    and a violation raises :class:`ContainmentError` with the witness.

    Minimal output entropy then splits: ``H_min = min(min_i H(sigma_i),
    H_min(inner))``, because every pure input yields a convex mixture of
    block outputs and entropy is concave.
    """
    states = [check_density_matrix(np.asarray(s, dtype=complex), name=f"vertex {i}")
              for i, s in enumerate(vertex_states)]
    n = states[0].shape[0]
    if inner.d_out != n:
        raise ValueError("inner channel must share the vertex output space")
    inner.require_cptp()
    if n_directions < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng(0)
    excess, h = hull_excess(inner, states, random_directions(rng, n_directions, n))
    if excess > 1e-8:
        raise ContainmentError(h, excess)
    both = direct_sum(cq_channel(np.eye(len(states), dtype=complex), states, validate=False),
                      inner)
    # handed out as a plain Choi container: callers see one opaque map
    return _natural_channel(both.natural_matrix(), both.d_in, n)
