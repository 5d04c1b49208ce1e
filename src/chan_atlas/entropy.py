"""Output entropies, their minimization, and additivity diagnostics.

All entropies use the natural logarithm.  Minimal output entropy is computed
over pure inputs (the minimum over all states is attained on an extreme
point).  The optimizer is multi-start projected gradient with Armijo
backtracking; qubit inputs additionally get a dense two-angle Bloch-sphere
sweep so the global minimum cannot hide between random starts.

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


def _check_p(p):
    p = float(p)
    if not (1.0 - 1e-6 <= p <= _P_MAX):
        raise ValueError(f"Renyi order p={p} outside supported range [1, {_P_MAX:g}]")
    return p


def _entropy_from_eigs(w, p):
    w = np.clip(np.real(w), 0.0, None)
    if abs(p - 1.0) <= 1e-6:
        mask = w > _EIG_FLOOR
        return float(-np.sum(w[mask] * np.log(w[mask])))
    s = float(np.sum(w ** p))
    return float(np.log(s) / (1.0 - p))


def renyi_entropy(rho, p=1.0):
    """Renyi output entropy H^(p); p=1 is the von Neumann entropy."""
    p = _check_p(p)
    w = np.linalg.eigvalsh(herm(np.asarray(rho, dtype=complex)))
    return _entropy_from_eigs(w, p)


def _entropy_derivative(w, p):
    """f'(lambda) for H^(p) = Tr f(rho) read through the spectral theorem."""
    w = np.clip(np.real(w), 0.0, None)
    if abs(p - 1.0) <= 1e-6:
        return -(np.log(np.maximum(w, _EIG_FLOOR)) + 1.0)
    s = max(float(np.sum(w ** p)), _EIG_FLOOR)
    return p * np.maximum(w, 0.0) ** (p - 1.0) / ((1.0 - p) * s)


@dataclass
class MinEntropyResult:
    value: float
    minimizer: np.ndarray      # pure input vector
    output_state: np.ndarray
    p: float
    converged: bool
    grad_norm: float
    n_starts: int


def _output_entropy(t, x, p):
    rho = herm(t.apply(np.outer(x, np.conj(x))))
    return _entropy_from_eigs(np.linalg.eigvalsh(rho), p), rho


def _entropy_gradient(t, x, p):
    rho = herm(t.apply(np.outer(x, np.conj(x))))
    w, u = np.linalg.eigh(rho)
    val = _entropy_from_eigs(w, p)
    fprime = u @ np.diag(_entropy_derivative(w, p)) @ u.conj().T
    grad = 2.0 * (t.dual_apply(fprime) @ x)
    return val, grad


def _projected_descent(t, x0, p, max_iter=300, gtol=1e-8):
    x = x0 / np.linalg.norm(x0)
    step = 1.0
    val, grad = _entropy_gradient(t, x, p)
    gnorm = 0.0
    for _ in range(max_iter):
        g = grad - np.vdot(x, grad) * x
        gnorm = float(np.linalg.norm(g))
        if gnorm <= gtol or val <= 1e-11:
            return val, x, gnorm, True
        accepted = False
        for _ in range(30):
            cand = x - step * g
            cand = cand / np.linalg.norm(cand)
            cval, _ = _output_entropy(t, cand, p)
            if cval <= val - 1e-4 * step * gnorm ** 2:
                x = cand
                val, grad = _entropy_gradient(t, x, p)
                step = min(step * 2.0, 1e3)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return val, x, gnorm, gnorm <= 10 * gtol or val <= 1e-11


def _qubit_grid(t, p, grid_points):
    """Dense (theta, phi) sweep of the pure-qubit input sphere."""
    n_theta = max(int(np.sqrt(grid_points / 2.0)), 8)
    n_phi = 2 * n_theta
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    a = np.cos(tt / 2.0).ravel()
    b = (np.exp(1j * pp) * np.sin(tt / 2.0)).ravel()
    # row-major vec of the pure-state projectors, applied through the
    # natural matrix in one matmul per chunk
    n_mat = t.natural_matrix()
    d_out = t.d_out
    best_val, best_x = np.inf, None
    chunk = 65536
    for lo in range(0, a.size, chunk):
        aa, bb = a[lo:lo + chunk], b[lo:lo + chunk]
        v = np.empty((aa.size, 4), dtype=complex)
        v[:, 0] = np.abs(aa) ** 2
        v[:, 1] = aa * np.conj(bb)
        v[:, 2] = bb * np.conj(aa)
        v[:, 3] = np.abs(bb) ** 2
        outs = (v @ n_mat.T).reshape(-1, d_out, d_out)
        outs = (outs + np.conj(np.swapaxes(outs, 1, 2))) / 2.0
        if d_out == 2:
            # closed-form 2x2 Hermitian spectrum, avoids the LAPACK loop
            mean = np.real(outs[:, 0, 0] + outs[:, 1, 1]) / 2.0
            rad = np.sqrt(np.real(outs[:, 0, 0] - outs[:, 1, 1]) ** 2 / 4.0
                          + np.abs(outs[:, 0, 1]) ** 2)
            w = np.stack([mean - rad, mean + rad], axis=1)
        else:
            w = np.linalg.eigvalsh(outs)
        w = np.clip(w, 0.0, None)
        if abs(p - 1.0) <= 1e-6:
            wl = np.where(w > _EIG_FLOOR, w * np.log(np.maximum(w, _EIG_FLOOR)), 0.0)
            vals = -np.sum(wl, axis=1)
        else:
            vals = np.log(np.sum(w ** p, axis=1)) / (1.0 - p)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = np.array([aa[i], bb[i]])
    return best_val, best_x


def min_output_entropy(t, p=1.0, seed=0, n_starts=64, grid_points=200_000,
                       max_iter=300, gtol=1e-8, extra_starts=None):
    """Minimal output Renyi entropy of ``t`` over pure inputs."""
    p = _check_p(p)
    t.require_cptp()
    rng = np.random.default_rng(seed)
    d = t.d_in
    starts = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    starts += [random_pure(rng, d) for _ in range(n_starts)]
    if extra_starts:
        starts += [np.asarray(x, dtype=complex).reshape(-1) for x in extra_starts]
    if d == 2 and grid_points:
        gval, gx = _qubit_grid(t, p, grid_points)
        starts.append(gx)
    best = (np.inf, None, np.inf, False)
    for x0 in starts:
        val, x, gnorm, conv = _projected_descent(t, x0, p, max_iter=max_iter, gtol=gtol)
        if val < best[0]:
            best = (val, x, gnorm, conv)
    val, x, gnorm, conv = best
    rho = herm(t.apply(np.outer(x, np.conj(x))))
    return MinEntropyResult(value=val, minimizer=x, output_state=rho, p=p,
                            converged=bool(conv), grad_norm=gnorm,
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
