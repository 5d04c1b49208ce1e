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

from .channels import linear_map_channel, tensor
from .geometry import hull_excess
from .linalg import (
    check_density_matrix,
    herm,
    random_direction,
    random_pure,
)

_P_MAX = 50.0
_EIG_FLOOR = 1e-18
_PURE = 1e-11            # a value this small is a pure output: every start stops
_DECREASE_TOL = 1e-15    # a start whose step gains no more than this stops


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


def _outputs(n_mat, x, d_out):
    """Stacked outputs ``T(x x*)`` of the rows of ``x``, with their spectra."""
    v = (x[:, :, None] * np.conj(x[:, None, :])).reshape(len(x), -1)
    rho = herm((v @ n_mat.T).reshape(-1, d_out, d_out))
    w, u = np.linalg.eigh(rho)
    return rho, w, u


def _linearization(n_mat, w, u, p, d_in):
    """Stacked ``T*(G)`` with ``G = U f'(w) U*`` the entropy gradient at each output."""
    g = (u * _entropy_derivative(w, p)[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))
    return herm((g.reshape(len(g), -1) @ np.conj(n_mat)).reshape(-1, d_in, d_in))


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
    starts = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    starts += [random_pure(rng, d) for _ in range(n_starts)]
    if extra_starts:
        starts += [np.asarray(x, dtype=complex).reshape(-1) for x in extra_starts]
    x = np.array(starts)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    n_mat = t.natural_matrix()
    _, w, u = _outputs(n_mat, x, t.d_out)
    val = _entropy_from_eigs(w, p)
    beta = np.ones(len(x))
    active = np.ones(len(x), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0 or val.min() <= _PURE:
            break
        xa = x[idx]
        y = np.linalg.eigh(_linearization(n_mat, w[idx], u[idx], p, d))[1][:, :, 0]
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
        _, c_w, c_u = _outputs(n_mat, cand, t.d_out)
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
    rho, w, u = _outputs(n_mat, x[i:i + 1], t.d_out)
    grad = 2.0 * (_linearization(n_mat, w, u, p, d)[0] @ xi)
    grad_norm = float(np.linalg.norm(grad - np.vdot(xi, grad) * xi))
    return MinEntropyResult(value=float(val[i]), minimizer=xi, output_state=rho[0], p=p,
                            converged=bool(converged[i]), grad_norm=grad_norm,
                            n_starts=len(starts))


# -- entropy additivity -------------------------------------------------


@dataclass
class EntropyAdditivityReport:
    gap: float                 # H_min(T1) + H_min(T2) - H_min(T1 x T2)
    single_first: MinEntropyResult
    single_second: MinEntropyResult
    joint: MinEntropyResult
    p: float


def entropy_additivity_gap(t1, t2, p=1.0, seed=0, n_starts=48):
    p = _check_p(p)
    r1 = min_output_entropy(t1, p=p, seed=seed, n_starts=n_starts)
    r2 = min_output_entropy(t2, p=p, seed=seed + 1, n_starts=n_starts)
    joint = tensor(t1, t2)
    seed_vec = np.kron(r1.minimizer, r2.minimizer)
    rj = min_output_entropy(joint, p=p, seed=seed + 2, n_starts=n_starts,
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
    rhs: float                 # support over product inputs
    certified: bool            # gap re-verified against independent restarts
    n_directions: int


def _product_support(m, da, db, psi, rng, restarts=8, rounds=20):
    """max Tr(m rho_a (x) rho_b) by alternating top-eigenvector updates."""
    inits = []
    if psi is not None:
        # best product approximation of the joint maximizer
        mat = psi.reshape(da, db)
        _, _, vh = np.linalg.svd(mat)
        vb = np.conj(vh[0])
        inits.append(np.outer(vb, np.conj(vb)))
    inits.append(np.eye(db, dtype=complex) / db)
    while len(inits) < restarts:
        v = random_pure(rng, db)
        inits.append(np.outer(v, np.conj(v)))
    eye_a = np.eye(da, dtype=complex)
    eye_b = np.eye(db, dtype=complex)
    m4 = m.reshape(da, db, da, db)
    best = -np.inf
    for rho_b in inits:
        val_prev = -np.inf
        val = -np.inf
        for _ in range(rounds):
            k1 = herm(np.einsum("ajbl,lj->ab", m4, rho_b))
            w, u = np.linalg.eigh(k1)
            va = u[:, -1]
            rho_a = np.outer(va, np.conj(va))
            k2 = herm(np.einsum("ajbl,ba->jl", m4, rho_a))
            w2, u2 = np.linalg.eigh(k2)
            vb = u2[:, -1]
            rho_b = np.outer(vb, np.conj(vb))
            val = float(w2[-1])
            if val - val_prev < 1e-10:
                break
            val_prev = val
        best = max(best, val)
    return best


def image_additivity_gap(t1, t2, n_directions=40, seed=0, restarts=8, rounds=20):
    """Largest observed gap between joint and product support functions.

    For each Hermitian direction ``H`` on the joint output space the left
    side is the support of ``Im(T1 (x) T2)`` and the right side the maximum
    over product inputs.  Random directions are mixed with projectors onto
    rotated maximally entangled vectors when the output factors have equal
    dimension, since those expose non-product extreme points most sharply.
    A positive gap is only marked certified after the alternating maximizer
    reproduces the right side from independent restarts.
    """
    if n_directions < 1:
        raise ValueError("need at least one direction")
    rng = np.random.default_rng(seed)
    tj = tensor(t1, t2)
    n1, n2 = t1.d_out, t2.d_out
    nj = n1 * n2
    directions = []
    n_ent = n_directions // 4 if n1 == n2 else 0
    for _ in range(n_directions - n_ent):
        directions.append(random_direction(rng, nj))
    for _ in range(n_ent):
        u = np.linalg.qr(rng.normal(size=(n1, n1)) + 1j * rng.normal(size=(n1, n1)))[0]
        v = np.linalg.qr(rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2)))[0]
        psi = (np.kron(u, v) @ np.eye(n1).reshape(-1)) / np.sqrt(n1)
        directions.append(np.outer(psi, np.conj(psi)))
    best = (-np.inf, None, 0.0, 0.0)
    for h in directions:
        m = herm(tj.dual_apply(h))
        w, u = np.linalg.eigh(m)
        lhs = float(w[-1])
        rhs = _product_support(m, t1.d_in, t2.d_in, u[:, -1], rng,
                               restarts=restarts, rounds=rounds)
        gap = lhs - rhs
        if gap > best[0]:
            best = (gap, h, lhs, rhs)
    gap, h, lhs, rhs = best
    certified = False
    if gap > 1e-6 and h is not None:
        m = herm(tj.dual_apply(h))
        w, u = np.linalg.eigh(m)
        redo = _product_support(m, t1.d_in, t2.d_in, u[:, -1],
                                np.random.default_rng(seed + 9091),
                                restarts=2 * restarts, rounds=rounds)
        stable = abs(redo - rhs) <= 1e-8
        rhs = max(rhs, redo)
        gap = lhs - rhs
        certified = stable and gap > 1e-6
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


def build_hiding_channel(vertex_states, inner, n_directions=200, seed=0, tol=1e-8):
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
    rng = np.random.default_rng(seed)
    excess, h = hull_excess(inner, states, [random_direction(rng, n) for _ in range(n_directions)])
    if excess > tol:
        raise ContainmentError(h, excess)
    k = len(states)
    d = k + inner.d_in

    def apply_fn(rho):
        out = sum(rho[i, i] * states[i] for i in range(k))
        return out + inner.apply(rho[k:, k:])

    return linear_map_channel(apply_fn, d, n)
