"""Output entropies, their minimization, and additivity diagnostics.

All entropies use the natural logarithm, and minimal output entropies are
taken over pure inputs, where the minimum is attained.  Each value says what
it is in ``bound``: ``"exact"`` from a vertex certificate (the map's own CQ
or eCQ form, or a CQ or eCQ "yes", whose image is ``conv{sigma_i}``;
Fukuda, Nechita and Wolf, arXiv:1408.2340), for a qubit-to-qubit map from
the Bloch-ball
trust-region solve (``_bloch_peak``), for a qubit-input map at p = 2 from
the same solve on its purity (``_qubit_pencil``), or from the input blocks
of a map that splits (:func:`~.geometry.input_blocks`) when every block is
exact; ``"upper"`` from the iterative minimizer (``_minimize_entropy``) on
every other map or block, unless it meets that exact ``H_2``.  A certified factor
makes a pair additive, in entropy and in image, and a unital qubit factor
in entropy (King), so no joint optimizer runs for such a pair.

Entropy additivity gaps are ``H_min(T1) + H_min(T2) - H_min(T1 (x) T2)``;
without such a factor the joint minimizer is seeded with the product of
the single minimizers, so the gap is nonnegative up to roundoff.  Image
additivity compares, per direction, the support of ``Im(T1 (x) T2)`` with a
lower bound on its product support: an alternating sweep over product
inputs run in real coordinates (``_product_support``), Bloch coordinates
``(1, x)`` on a qubit factor, where a half step's top eigenpair is closed
form, and those of :func:`~.linalg.hvec` on a larger one.  The sweep drops
every direction that can no longer be the witness or one of its ties,
against a bar proven from finished directions and, on 2 (x) 2 pairs, the
two-multiplier dual bound (``_dual_bound``).  A factor that splits
into input blocks is reduced to them exactly, in both questions
(``_block_minimum``, ``_block_supports``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channels import _natural_channel, cq_channel, direct_sum, kept, tensor, tensor_dual_apply
from .classify import vertex_certificate
from .geometry import VERDICT_TOL, block_restrictions, bloch_map, hull_containment, input_blocks
from .linalg import (PAULIS, check_density_matrix, herm, hvec, kron, outer, random_directions,
                     random_pure_vectors, unhvec)

_P_MAX = 50.0
_EIG_FLOOR = 1e-18
_PURE = 1e-11            # a value this small is a pure output: every start stops
_DECREASE_TOL = 1e-15    # a start whose step gains no more than this stops
_MAX_STEPS = 300         # steps of the iterative minimizer
_RESTARTS = 8            # product-support starts per direction, twice that in the rerun
_GAP_FLOOR = 1e-10       # a 2x2 row with a smaller relative eigengap goes through eigh
_BAR_MARGIN = 2e-12      # above a sweep value's roundoff and the witness's tie band of 1e-12
_DUAL_SHIFT = 1e-9       # relative: the dual bound needs lambda mu above sigma_1(C)^2 by this
_PURE_RADIUS = 1.0 - 4 * 2.0 ** -52  # a Bloch radius this close to 1 is a pure output
_UNITAL_BAND = 16 * 2.0 ** -52  # a qubit map's Bloch shift this small is a unital map's roundoff
_FLOOR_BAND = 16 * 2.0 ** -52   # relative: a value this close above a certified floor is its roundoff

EXACT = "exact"
UPPER = "upper"
LOWER = "lower"


def _check_p(p):
    p = float(p)
    if not (1.0 - 1e-6 <= p <= _P_MAX):
        raise ValueError(f"Renyi order p={p} outside supported range [1, {_P_MAX:g}]")
    return p


def _entropy_from_eigs(w, p):
    """H^(p) of the spectra along the last axis of ``w``."""
    w = np.clip(np.real(w), 0.0, None)
    if abs(p - 1.0) <= 1e-6:
        h = -np.sum(np.where(w > _EIG_FLOOR, w * np.log(np.maximum(w, _EIG_FLOOR)), 0.0), axis=-1)
    else:
        h = np.log(np.sum(w ** p, axis=-1)) / (1.0 - p)
    return h + 0.0  # a pure spectrum gives -0.0 above; adding +0.0 makes it 0.0


def _state_entropies(states, p):
    """H^(p) of the stacked ``states``, 0.0 at a top eigenvalue of at least ``_PURE_RADIUS``."""
    w = np.linalg.eigvalsh(herm(states))
    return np.where(w[..., -1] >= _PURE_RADIUS, 0.0, _entropy_from_eigs(w, p))


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
    bound: str                 # EXACT from a certificate, the Bloch ball or a met floor, else UPPER


def _linearization(t, w, u, p):
    """Stacked ``T*(G)`` with ``G = U f'(w) U*`` the entropy gradient at each output."""
    g = (u * _entropy_derivative(w, p)[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))
    return herm(t.dual_apply(g))


def _at_input(t, x, p):
    """``T(x x*)`` and the norm of the entropy gradient at the unit vector ``x``,
    with its component along ``x`` projected out."""
    rho = herm(t.pure_outputs(x[None]))
    w, u = np.linalg.eigh(rho)
    grad = 2.0 * (_linearization(t, w, u, p)[0] @ x)
    return rho[0], float(np.linalg.norm(grad - np.vdot(x, grad) * x))


def min_output_entropy(t, p=1.0, seed=0, n_starts=64):
    """Minimal output Renyi entropy of ``t`` over pure inputs.

    With a vertex certificate (:func:`~.classify.vertex_certificate`: a map
    in CQ or eCQ form is its own, and any other takes that of a CQ or eCQ
    "yes") the answer is exact: ``min_i H_p(sigma_i)`` over the
    certificate's states, with that state as the output state and its
    vector ``e_i`` as the minimizer.  A qubit-to-qubit
    map without one is exact too: ``H_p`` falls as the output Bloch radius
    grows, so the minimum is ``H_p`` at the largest ``|A x + b|`` over the
    Bloch ball, a trust-region subproblem solved by ``_bloch_peak``.  Both
    draw nothing (``n_starts`` 0) and report ``bound`` ``"exact"``.  A map
    with several :func:`~.geometry.input_blocks` has ``Im T = conv(U_k Im
    T_k)``, so its minimum is the least block minimum, since ``H_p`` is
    quasi-concave (``_block_minimum``); a 1-dim block is exact, and each
    other block takes these same routes.  Any other qubit-input map has its
    purity ``|A x + b|^2`` on the Bloch ball (``_qubit_pencil``), so ``H_2``
    is exact the same way; ``H_p`` does not increase with ``p``, so ``H_2``
    floors every ``p < 2``.  Every other order and map goes through the
    iterative minimizer ``_minimize_entropy``, and ``bound`` is ``"upper"``
    unless its value meets that floor.
    """
    p = _check_p(p)
    t.require_cptp()
    cert = vertex_certificate(t)
    if cert is not None:
        vals = _state_entropies(np.asarray(cert.states), p)
        i = int(np.argmin(vals))
        value, x = vals[i], cert.vectors[i]
    elif (t.d_in, t.d_out) == (2, 2):
        x, r = _bloch_peak(t)
        value = _entropy_from_eigs(np.array([(1 + r) / 2, (1 - r) / 2]), p)
    elif len(input_blocks(t)) > 1:
        return _block_minimum(t, p, seed, n_starts)
    elif t.d_in == 2 and p == 2.0:
        x, purity = _qubit_pencil(t)
        value = 0.0 - np.log(purity)  # 0.0, not -0.0, on a pure output
    elif t.d_in == 2 and p < 2.0:
        return _minimize_entropy(t, p, seed, n_starts, floor=-np.log(_qubit_pencil(t)[1]))
    else:
        return _minimize_entropy(t, p, seed, n_starts)
    out, grad_norm = _at_input(t, x, p)
    if cert is not None:
        out = cert.states[i]  # the certified vertex state itself
    return MinEntropyResult(value=float(value), minimizer=x, output_state=out, p=p,
                            converged=True, grad_norm=grad_norm, n_starts=0, bound=EXACT)


def _block_minimum(t, p, seed, n_starts):
    """The least of the block minima of :func:`~.geometry.input_blocks`, with
    its minimizer carried back to the input of ``t``.

    A 1-dim block's output is constant, so its value is exact; any other
    block restriction goes through :func:`min_output_entropy`.  The result is
    ``"exact"`` when every block is, and counts the starts of all blocks.
    """
    rows = []
    for v, b in zip(input_blocks(t), block_restrictions(t)):
        if b.d_in == 1:
            value = _state_entropies(b.pure_outputs(np.ones(1)), p)
            rows.append((value, v[:, 0], True, 0, EXACT))
        else:
            r = min_output_entropy(b, p, seed, n_starts)
            rows.append((r.value, v @ r.minimizer, r.converged, r.n_starts, r.bound))
    value, x, converged, _, _ = min(rows, key=lambda row: row[0])
    out, grad_norm = _at_input(t, x, p)
    return MinEntropyResult(value=float(value), minimizer=x, output_state=out, p=p,
                            converged=converged, grad_norm=grad_norm,
                            n_starts=sum(row[3] for row in rows),
                            bound=EXACT if all(row[4] == EXACT for row in rows) else UPPER)


@kept
def _bloch_peak(t):
    """The pure input of a qubit-to-qubit map whose output has the largest
    Bloch radius, and that radius: ``_sphere_peak`` on the ``(A, b)`` of
    :func:`~.geometry.bloch_map`."""
    m = bloch_map(t)
    return _sphere_peak(m.linear, m.shift)


@kept
def _qubit_pencil(t):
    """The pure input of a qubit-input map with the purest output, and that
    purity ``max Tr T(rho)^2``: ``_sphere_peak`` on ``A = [hvec(T(sigma_i / 2))]``
    (``d_out^2 x 3``) and ``b = hvec(T(I / 2))``, since ``hvec`` is a
    Hilbert-Schmidt isometry and ``T(rho) = T(I / 2) + sum_i x_i T(sigma_i / 2)``."""
    q = np.reshape([np.eye(2), *PAULIS], (4, 4)) / 2  # vec(I / 2), vec(sigma_i / 2) as rows
    hv = hvec((q @ t.natural_matrix().T).reshape(4, t.d_out, t.d_out))
    psi, r = _sphere_peak(hv[1:].T, hv[0])
    return psi, r * r


def _sphere_peak(a, b):
    """The unit vector ``x`` with the largest ``|A x + b|``, as the pure qubit
    state with Bloch vector ``x``, and that norm.

    A convex function peaks on the sphere, where ``A^T A x + A^T b = mu x``
    with ``mu >= lambda_max(A^T A)``: the trust-region subproblem (More and
    Sorensen, SIAM J. Sci. Stat. Comput. 4, 553 (1983); Gander, Golub and
    von Matt, Linear Algebra Appl. 114, 815 (1989)).  In the eigenbasis of
    ``A^T A``, the right singular vectors of ``A`` with ``lambda_i`` the
    squared singular values, and with ``g_i = lambda_max - lambda_i`` and
    ``c = A^T b``, the peak is ``x_i = c_i / (s + g_i)`` at the root
    ``s = mu - lambda_max`` of the secular equation
    ``sum_i c_i^2 / (s + g_i)^2 = 1``.  Newton's method on ``1/|x(s)| - 1``,
    which is concave and increasing, climbs to that root from the lower
    bound ``max_i (|c_i| - g_i)`` and never overshoots.  When that bound is
    0 and ``|x(0)| <= 1`` (the hard case: ``c`` has no component on the top
    eigenspace, as for depolarizing, where ``b = 0``) ``s`` is 0 and the
    rest of the unit length goes along the first right singular vector that
    ``svd`` returns, with a positive coefficient.  (A real ``svd`` rather
    than a real ``eigh``: a report already runs the former, and the first
    call of the latter pages in about 0.3 MB more of LAPACK.)

    A norm of at least ``_PURE_RADIUS``, four units in the last place below
    1, is the roundoff of ``|A x + b|`` on a pure output and is taken as 1,
    so a pure minimum reads 0.0.
    """
    # A^T A = V^T diag(sv^2) V, top first
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    c = vt @ (a.T @ b)
    g = (sv[0] - sv) * (sv[0] + sv)
    nz = c != 0  # a zero component adds nothing to the secular sum
    c, g = c[nz], g[nz]
    s = max([0.0, *(np.abs(c) - g)])
    y = np.zeros(3)
    if s > 0 or np.sum((c / g) ** 2) > 1:
        for _ in range(100):
            q = np.sum((c / (s + g)) ** 2)
            step = (q ** 1.5 - q) / np.sum(c ** 2 / (s + g) ** 3)
            if not step > 4e-16 * s:  # below the roundoff of s, or not a number
                break
            s += step
        y[nz] = c / (s + g)
    else:
        y[nz] = c / g
        y[0] = np.sqrt(max(0.0, 1.0 - y @ y))
    x = y @ vt
    x /= np.linalg.norm(x)
    r = float(np.linalg.norm(a @ x + b))
    # the pure state with Bloch vector x, from the better-conditioned pole
    psi = (np.array([1 + x[2], x[0] + 1j * x[1]]) if x[2] >= 0
           else np.array([x[0] - 1j * x[1], 1 - x[2]]))
    return psi / np.linalg.norm(psi), 1.0 if r >= _PURE_RADIUS else r


def _minimize_entropy(t, p, seed, n_starts, start=None, floor=None):
    """The iterative minimizer: an upper bound on the minimal output entropy.

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
    value is at most ``_PURE`` or within ``_FLOOR_BAND`` of ``floor``, a
    certified lower bound if given, and only the latter makes it ``"exact"``.
    ``converged`` is the winning start's own stop reason; hitting
    ``_MAX_STEPS`` is not convergence.  The starts are the standard basis,
    ``n_starts`` random vectors and ``start``, if given.
    """
    rng = np.random.default_rng(seed)
    d = t.d_in
    x = np.concatenate([np.eye(d, dtype=complex), random_pure_vectors(rng, n_starts, d),
                        np.reshape([] if start is None else start, (-1, d))])
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    w, u = np.linalg.eigh(herm(t.pure_outputs(x)))
    val = _entropy_from_eigs(w, p)
    beta = np.ones(len(x))
    active = np.ones(len(x), dtype=bool)
    top = -np.inf if floor is None else floor + _FLOOR_BAND * max(1.0, abs(floor))
    stop = max(_PURE, top)  # the floor's band, or a pure output: every start stops
    for _ in range(_MAX_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0 or val.min() <= stop:
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
    converged = ~active | (val <= stop)
    i = int(np.argmin(val))
    rho, grad_norm = _at_input(t, x[i], p)
    return MinEntropyResult(value=float(val[i]), minimizer=x[i], output_state=rho, p=p,
                            converged=bool(converged[i]), grad_norm=grad_norm,
                            n_starts=len(x), bound=EXACT if val[i] <= top else UPPER)


# -- entropy additivity -------------------------------------------------


@dataclass
class EntropyAdditivityReport:
    gap: float                 # H_min(T1) + H_min(T2) - H_min(T1 x T2)
    single_first: MinEntropyResult
    single_second: MinEntropyResult
    joint: MinEntropyResult
    p: float


def _product_grad_norm(g1, g2, p):
    """The gradient norm of ``T1 (x) T2`` at ``x1 (x) x2`` from those of the
    factors at ``x1`` and ``x2``: the two single gradients are orthogonal, and
    for p != 1 the joint gradient adds their product, scaled by
    ``(1 - p) / (2 p)``."""
    return float(np.sqrt(g1 ** 2 + g2 ** 2 + ((1.0 - p) / (2.0 * p) * g1 * g2) ** 2))


def _additive_factor(t):
    """A vertex certificate (a CQ or eCQ form is its own, so no verdict runs
    on one), or a unital qubit map: one whose Bloch shift is within
    ``_UNITAL_BAND``, 16 eps, the roundoff band of a unital map in any frame
    (200 depolarizing maps in Haar frames reach 3.25 eps)."""
    return vertex_certificate(t) is not None or (
        (t.d_in, t.d_out) == (2, 2) and np.linalg.norm(bloch_map(t).shift) <= _UNITAL_BAND)


def entropy_additivity_gap(t1, t2, p=1.0, seed=0):
    """``H_min(T1) + H_min(T2) - H_min(T1 (x) T2)`` at order ``p``.

    The pair is additive when either factor carries a vertex certificate
    (the certified factor is universally image additive, so the extreme
    points of ``Im(T1 (x) T2)`` are products) or is a unital qubit map
    (King, J. Math. Phys. 43, 4641 (2002): its maximal ``p``-norm is
    multiplicative for every ``p >= 1``; a unital qutrit map breaks that
    for ``p > 4.79``, Werner and Holevo, J. Math. Phys. 43, 4353 (2002)).
    Then the joint result is the product of the single ones, its value
    their sum, and the gap exactly 0; no tensor product is built.  Its
    ``bound`` is ``"exact"`` when both single values are.  Otherwise (an
    exact single value proves no additivity) the joint minimizer runs on
    ``T1 (x) T2``, seeded with the product of the single minimizers.
    """
    p = _check_p(p)
    r1 = min_output_entropy(t1, p=p, seed=seed, n_starts=48)
    r2 = min_output_entropy(t2, p=p, seed=seed + 1, n_starts=48)
    if _additive_factor(t1) or _additive_factor(t2):
        bound = EXACT if r1.bound == r2.bound == EXACT else UPPER
        rj = MinEntropyResult(value=r1.value + r2.value,
                              minimizer=outer(r1.minimizer, r2.minimizer).reshape(-1),
                              output_state=kron(r1.output_state, r2.output_state), p=p,
                              converged=r1.converged and r2.converged,
                              grad_norm=_product_grad_norm(r1.grad_norm, r2.grad_norm, p),
                              n_starts=0, bound=bound)
        return EntropyAdditivityReport(gap=0.0, single_first=r1, single_second=r2, joint=rj,
                                       p=p)
    seed_vec = outer(r1.minimizer, r2.minimizer).reshape(-1)
    rj = _minimize_entropy(tensor(t1, t2), p, seed + 2, 48, seed_vec)
    gap = r1.value + r2.value - rj.value
    return EntropyAdditivityReport(gap=float(gap), single_first=r1, single_second=r2,
                                   joint=rj, p=p)


# -- image additivity ---------------------------------------------------


@dataclass
class ImageAdditivityReport:
    max_gap: float
    direction: np.ndarray      # witness direction on the joint output space
    lhs: float                 # support of Im(T1 x T2)
    rhs: float                 # support over product inputs: lhs itself, or a lower bound
    certified: bool            # lhs - rhs > 1e-6, with rhs reproduced by a rerun
    n_directions: int
    rhs_bound: str             # EXACT (rhs == lhs) from a vertex certificate, else LOWER


@functools.cache
def _sweep_basis(d):
    """The Hermitian basis ``B_k`` of the sweep's coordinates on ``d x d``
    matrices, one flattened ``B_k`` per row, so ``v @ basis`` flattens the
    state with coordinates ``v``; the basis dual to it, so ``k @ dual``
    flattens the matrix ``K`` of the row ``k_k = Tr(K B_k)``; and the index
    pairs ``i < j`` of the off-diagonal coordinates.  Read-only.

    A qubit takes ``sigma_mu / 2`` with the identity first: a state is
    ``(1, x)``, with ``x`` its Bloch vector, and the dual basis is
    ``sigma_mu``.  A larger ``d`` takes the orthonormal basis behind
    :func:`~.linalg.hvec`, its own dual.
    """
    if d == 2:
        basis = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]]) / 2
        dual = 2 * basis
    else:
        basis = dual = unhvec(np.eye(d * d), d).reshape(d * d, d * d)
    pairs = np.triu_indices(d, k=1)
    for a in (basis, dual, *pairs):
        a.flags.writeable = False
    return basis, dual, pairs


def _sweep_outer(u):
    """The sweep coordinates of ``u u*`` for each vector along the last axis,
    from the vector: ``(|u|^2, x)`` for a qubit, else ``hvec(u u*)``."""
    sq = u.real ** 2 + u.imag ** 2
    if u.shape[-1] == 2:
        q = 2 * np.conj(u[..., 0]) * u[..., 1]
        return np.stack([sq[..., 0] + sq[..., 1], q.real, q.imag, sq[..., 0] - sq[..., 1]],
                        axis=-1)
    i, j = _sweep_basis(u.shape[-1])[2]
    q = np.sqrt(2.0) * u[..., i] * np.conj(u[..., j])
    return np.concatenate([sq, q.real, q.imag], axis=-1)


def _coordinates(ms, da, db):
    """Each observable ``m`` on ``C^da (x) C^db`` as the real ``da^2 x db^2``
    matrix ``R[k, l] = Tr(m (B_k (x) B_l))`` in the bases of ``_sweep_basis``,
    so that ``Tr(m rho_a (x) rho_b) = v_a @ R @ v_b`` with ``v`` the sweep
    coordinates of each state: one matmul per factor, the second real up to
    roundoff since ``m`` is Hermitian.  A qubit basis is scaled by 1/2 only,
    so ``R`` of ``c I`` holds ``c`` exactly."""
    n = len(ms)
    m = ms.reshape(n, da, db, da, db).transpose(0, 2, 4, 1, 3).reshape(n * db * db, da * da)
    m = (m @ _sweep_basis(da)[0].conj().T).reshape(n, db * db, da * da).transpose(0, 2, 1)
    # the real part of x @ conj(B)^T, as a real matmul on the interleaved parts of x
    m = np.ascontiguousarray(m.reshape(n * da * da, db * db)).view(float)
    return (m @ _sweep_basis(db)[0].view(float).T).reshape(n, da * da, db * db)


def _top(v, d):
    """The top eigenvalue of each ``d x d`` Hermitian matrix ``K`` given by
    its row ``v_k = Tr(K B_k)`` (``_sweep_basis``), and the sweep
    coordinates of its top eigenprojector.

    A qubit row ``(k0, k)`` is the matrix ``k0 I + k . sigma``, solved in
    closed form: its top eigenvalue is ``k0 + |k|`` and its top projector
    the state ``(1, k / |k|)``.  Rows whose gap ``2 |k|`` is at most
    ``_GAP_FLOOR`` times their spectral radius (scalar and near-scalar
    matrices, whose top eigenvector is a choice) go through ``eigh``, on
    those rows only, as do all rows with ``d > 2``; the projector's
    coordinates are read off the eigenvector.
    """
    if d == 2:
        k0 = v[:, 0]
        r = np.sqrt(np.einsum("ij,ij->i", v[:, 1:], v[:, 1:]))
        kept = 2 * r > _GAP_FLOOR * (np.abs(k0) + r)
        top, every = k0 + r, kept.all()
        # rows not kept, r = 0 among them, are filled from eigh below
        proj = (v / r[:, None] if every
                else np.divide(v, r[:, None], out=np.zeros_like(v), where=kept[:, None]))
        proj[:, 0] = 1.0
        if every:
            return top, proj
        v = v[~kept]
    k = v @ _sweep_basis(d)[1].view(float)  # the matrices, real and imaginary parts interleaved
    w, u = np.linalg.eigh(k.view(complex).reshape(-1, d, d))
    if d > 2:
        return w[:, -1], _sweep_outer(u[..., -1])
    top[~kept], proj[~kept] = w[:, -1], _sweep_outer(u[..., -1])
    return top, proj


def _contract(op, slot, v, s):
    """The rows ``v`` times the ``op`` of their direction: scattered at their
    ``slot`` into a zero grid of ``len(op)`` directions by ``s`` starts, one
    matmul per direction, and gathered back.  When every slot is held the
    rows are that grid already."""
    if len(v) == len(op) * s:
        return (v.reshape(len(op), s, -1) @ op).reshape(-1, op.shape[-1])
    grid = np.zeros((len(op) * s, v.shape[1]))
    grid[slot] = v
    return (grid.reshape(len(op), s, -1) @ op).reshape(-1, op.shape[-1])[slot]


def _product_support(ms, psi, pure, lhs=None, floor=None, later=None):
    """Per direction, the best ``Tr(m rho_a (x) rho_b)`` found by alternating
    top-eigenvector updates from the best product approximation of the joint
    maximizer ``psi``, from ``I/d_b`` and from the rows of ``pure``
    ``(n, r, d_b)``; a start stops when it gains < 1e-10, or at 20 rounds.

    Each ``m`` is its real ``_coordinates`` matrix ``R`` and each state its
    row of ``_sweep_basis`` coordinates (``(1, x)`` on a qubit, the mixed
    start ``(1, 0, 0, 0)``), so a half step is ``R y`` onto the first factor
    or ``R^T x`` onto the second, then ``_top``; the first start is ``_top``
    of ``A* A``, with ``A`` the ``d_a x d_b`` matrix of ``psi``.  Every live
    start is one row of the stack, at its (direction, start) slot.  A start
    that stops leaves the stack with its value kept, and a direction with no
    live start drops its ``R``, so ``_contract`` sees held directions only;
    each direction's best is the largest value of its starts.

    Given ``lhs``, the joint supports, the sweep also drops every direction
    that can no longer be the witness of ``image_additivity_gap`` or one of
    its ties.  A start's value only rises, up to roundoff, so a direction's
    final gap is at most ``lhs - best``, with ``best`` the larger of its
    ``floor`` (the product support already found, -inf if not given) and its
    starts' values so far.  The bar is a proven lower bound on the largest
    final gap: ``lhs - max(best, later)`` of each direction whose starts have
    all stopped, where ``later`` bounds what the caller's later block pairs
    can add, and on a 2 (x) 2 pair ``lhs - max(best, later, D)`` of each
    running direction, with ``D`` the two-multiplier dual bound
    (``_dual_bound``) at its best start; a fixed few dozen array operations,
    it runs while its last evaluation dropped a direction and two or more
    directions are held.  A running direction is dropped, its best kept as
    its value, once ``lhs - best`` falls more than ``_BAR_MARGIN`` below the
    bar and no later pair can reach its best, so the caller's later sweeps
    draw the same starts.
    """
    n, r, db = pure.shape
    da = ms.shape[-1] // db
    s = r + 2  # starts per direction
    to_b = _coordinates(ms, da, db)  # R: the rows x @ R are the half step onto the second factor
    to_a = np.ascontiguousarray(to_b.transpose(0, 2, 1))  # R^T: the rows y @ R^T are R y
    first = _top(_sweep_outer(psi.reshape(n, da, db).conj()).sum(axis=1), db)[1]
    mixed = np.broadcast_to(_sweep_outer(np.eye(db)).mean(axis=0), (n, 1, db * db))
    y = np.concatenate([first[:, None], mixed, _sweep_outer(pure)], axis=1)
    y = y.reshape(n * s, db * db)
    start = slot = np.arange(n * s)  # each row's start, and its place in the held grid
    val, final = np.full(n * s, -np.inf), np.empty(n * s)
    if lhs is not None:  # per held direction, like to_a and to_b
        best = np.full(n, -np.inf) if floor is None else floor
        later = np.full(n, -np.inf) if later is None else later
        bar, dual_pays = -np.inf, da == db == 2
    for _ in range(20):
        x = _top(_contract(to_a, slot, y, s), da)[1]
        top, y = _top(_contract(to_b, slot, x, s), db)
        live = top - val >= 1e-10
        val = top
        # the bar acts where a start stopped, and with the dual while its
        # last evaluation dropped a direction and another one is held
        dual = lhs is not None and dual_pays and len(to_b) > 1
        if lhs is not None and (dual or not live.all()):
            grid = np.full(len(to_b) * s, -np.inf)
            grid[slot] = val
            grid = grid.reshape(-1, s)
            best = np.maximum(best, grid.max(axis=1))
            running = np.zeros(len(to_b), dtype=bool)
            running[slot[live] // s] = True
            if dual or not running.all():  # a new bound on the bar
                low = np.maximum(best, later)
                if not running.all():
                    bar = max(bar, (lhs - low)[~running].max())
                if dual and running.any():
                    row = np.empty(len(to_b) * s, dtype=int)
                    row[slot] = np.arange(len(slot))
                    row = row[np.flatnonzero(running) * s + grid[running].argmax(axis=1)]
                    bound = _dual_bound(to_b[running], x[row], y[row])
                    bar = max(bar, (lhs[running] - np.maximum(low[running], bound)).max())
                out = (lhs - best < bar - _BAR_MARGIN) & (later < best - _BAR_MARGIN)
                live &= ~out[slot // s]
                if dual:
                    dual_pays = bool((out & running).any())
        if live.all():
            continue
        final[start[~live]] = val[~live]
        y, val, slot, start = y[live], val[live], slot[live], start[live]
        if not slot.size:
            break
        keep = np.zeros(len(to_b), dtype=bool)
        keep[slot // s] = True
        if not keep.all():
            to_a, to_b = to_a[keep], to_b[keep]
            slot = (np.cumsum(keep) - 1)[slot // s] * s + slot % s
            if lhs is not None:
                lhs, best, later = lhs[keep], best[keep], later[keep]
    final[start] = val
    return final.reshape(n, s).max(axis=1)


def _dual_bound(r, x, y):
    """Upper bounds on the product support of 2 (x) 2 observables from the
    two-multiplier dual, at the multipliers of the sweep point ``(x, y)``
    (rows of ``_sweep_basis`` coordinates ``(1, x)``); +inf where refused.

    With ``R = [[r00, b], [a, C]]`` the product value of the Bloch vectors
    ``x`` and ``y`` is ``f = r00 + a.x + b.y + x.C y``.  For multipliers
    ``lambda, mu > 0`` with ``lambda mu > sigma_1(C)^2`` its Lagrangian is
    concave on all of R^3 x R^3, and its maximum
    ``D = r00 + (lambda + mu) / 2 + (|a|^2 + w^T A^-1 w) / (2 lambda)``, with
    ``A = lambda mu I - C^T C`` and ``w = lambda b + C^T a``, bounds ``f`` on
    the spheres (weak duality; More and Sorensen's sufficient condition on two
    spheres).  At a maximizer whose own multipliers ``lambda = |a + C y|`` and
    ``mu = |b + C^T x|`` keep it concave, ``D = f``.  ``A`` is factored as
    ``L diag(d) L^T`` in closed form, shifted down by ``_DUAL_SHIFT lambda mu``:
    a row is refused unless every pivot is positive, so ``A`` is positive
    definite by a margin far above its roundoff, and the shift only raises
    ``D``: the computed bound stays above the exact one, up to the rounding
    of its last sums, far below ``_BAR_MARGIN``.
    """
    t = np.ascontiguousarray(r.transpose(1, 2, 0))  # elementwise over the stack: no 3 x 3 matmuls
    a, b, c = t[1:, 0], t[0, 1:], t[1:, 1:]
    lam = np.sqrt(np.sum((a + np.sum(c * y.T[None, 1:], axis=1)) ** 2, axis=0))  # |a + C y|
    mu = np.sqrt(np.sum((b + np.sum(c * x.T[1:, None], axis=0)) ** 2, axis=0))   # |b + C^T x|
    g = -np.sum(c[:, :, None] * c[:, None, :], axis=0)  # -C^T C
    g[[0, 1, 2], [0, 1, 2]] += (1 - _DUAL_SHIFT) * lam * mu
    w = lam * b + np.sum(c * a[:, None], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        d0 = g[0, 0]
        l10, l20 = g[1, 0] / d0, g[2, 0] / d0
        d1 = g[1, 1] - l10 * g[1, 0]
        l21 = (g[2, 1] - l20 * g[1, 0]) / d1
        d2 = g[2, 2] - l20 * g[2, 0] - l21 * l21 * d1
        z1 = w[1] - l10 * w[0]
        z2 = w[2] - l20 * w[0] - l21 * z1
        q = w[0] ** 2 / d0 + z1 ** 2 / d1 + z2 ** 2 / d2
        dual = t[0, 0] + (lam + mu) / 2 + (np.sum(a * a, axis=0) + q) / (2 * lam)
    return np.where((d0 > 0) & (d1 > 0) & (d2 > 0), dual, np.inf)


def _block_supports(ms, blocks1, blocks2, rng):
    """Per direction, the joint support and a lower bound on the product
    support, from the input blocks of both factors.

    ``(T1 (x) T2)*(H)`` is block diagonal in the blocks ``V_k (x) W_l``, so
    both supports are the largest over block pairs of those of its
    compression ``M_kl``.  A pair with a 1-dim side holds only product
    states, so its support is exact; the compressions of all such pairs of
    one shape share one ``eigvalsh``.  Any other pair goes through
    ``_product_support``, with ``_RESTARTS - 2`` random starts, on the
    directions where its ``lambda_max`` exceeds the best value found so far,
    since its product support can only be smaller.  With one block each,
    ``M`` itself is swept on every direction.  Each sweep gets the joint
    supports, the best value so far as its floor and the largest
    ``lambda_max`` of the pairs still to come, so its bar drops directions
    that cannot be the witness without moving a later pair's draws; such a
    direction's bound stays below the one an unbarred sweep would give.
    Returns the joint supports, the product-support bounds, the exact part
    of them and each swept pair as ``(M_kl, lambda_max, top eigenvector,
    dim W_l)``.
    """
    n = len(ms)
    exact, sweeps, flat = np.full(n, -np.inf), [], {}
    for v in blocks1:
        for w in blocks2:
            if len(blocks1) == len(blocks2) == 1:
                m = ms
            else:
                c = kron(v, w)
                m = herm(c.conj().T @ ms @ c)
            if min(v.shape[1], w.shape[1]) == 1:
                flat.setdefault(m.shape, []).append(m)
            else:
                e, u = np.linalg.eigh(m)
                sweeps.append((m, e[:, -1], u[:, :, -1], w.shape[1]))
    for group in flat.values():  # one eigvalsh per shape: LAPACK solves each matrix alone
        exact = np.maximum(exact, np.linalg.eigvalsh(np.stack(group))[..., -1].max(axis=0))
    lhs = np.maximum.reduce([exact, *(top for _, top, _, _ in sweeps)])
    rhs = exact.copy()
    for k, (m, top, psi, db) in enumerate(sweeps):
        live = top > rhs
        if live.any():
            later = np.maximum.reduce([np.full(n, -np.inf), *(t for _, t, _, _ in sweeps[k + 1:])])
            live = slice(None) if live.all() else live  # a view, not a copy, of a whole stack
            pure = random_pure_vectors(rng, (len(top[live]), _RESTARTS - 2), db)
            rhs[live] = np.maximum(rhs[live], _product_support(m[live], psi[live], pure, lhs[live],
                                                               rhs[live], later[live]))
    return lhs, rhs, exact, sweeps


def image_additivity_gap(t1, t2, n_directions=40, seed=0):
    """Largest observed gap between joint and product support functions.

    For each Hermitian direction ``H`` on the joint output space the left
    side is the support of ``Im(T1 (x) T2)``, ``lambda_max`` of
    ``(T1 (x) T2)*(H)``; that adjoint is applied factor by factor
    (:func:`~.channels.tensor_dual_apply`), so no joint map is built.  Random
    directions are mixed with projectors onto rotated maximally entangled
    vectors when the output factors have equal dimension, since those expose
    non-product extreme points most sharply.

    When either factor carries a vertex certificate (its own CQ or eCQ form,
    or a CQ or eCQ "yes") it is universally image additive (Fukuda, Nechita
    and Wolf), so ``Im(T1 (x) T2) = conv(Im T1 (x) Im T2)`` and the product
    support is the joint support in every direction: both sides are
    ``lambda_max`` of ``(T1 (x) T2)*(H)``, ``max_gap`` is exactly 0, the
    first direction is the witness, and ``rhs_bound`` is ``"exact"``; a
    factor in CQ or eCQ form runs no verdict for it.  Otherwise both sides
    are taken over the pairs of :func:`~.geometry.input_blocks` of the two
    factors (``_block_supports``), exactly: a pair with a 1-dim side is
    exact, and any other pair is swept by ``_product_support`` where its
    ``lambda_max`` exceeds the best value so far.  With one block each,
    the whole observable is swept on every direction.  The sweep drops each
    direction whose gap can no longer come within 2e-12 of the largest, so
    only the witness and its ties run to the end; the report is the same
    bits as without that bar.
    The right side is then a lower bound on the product support
    (``rhs_bound`` ``"lower"``), and a positive gap is rerun from 16 starts
    per swept pair, two of them the first run's own; ``rhs`` keeps the
    larger of the two values.  ``certified`` means ``lhs - rhs > 1e-6`` with
    ``rhs`` reproduced by that rerun within 1e-8; this is not an
    independent check, and not a proof.
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
    # (u (x) v) vec(I) = vec(u v^T), as a product and a sum: a matmul rounds
    # differently, which can move the witness of a certified gap
    ent = (frames[:, 0, :, None] * frames[:, 1, None]).sum(axis=-1).reshape(n_ent, n1 * n2)
    ent /= np.sqrt(n1)
    directions = np.concatenate([directions, ent[:, :, None] * np.conj(ent)[:, None, :]])
    ms = herm(tensor_dual_apply(t1, t2, directions))
    additive = vertex_certificate(t1) is not None or vertex_certificate(t2) is not None
    if additive:  # the product support is the joint one, by the theorem
        lhs_all = rhs_all = exact = np.linalg.eigvalsh(ms)[:, -1]
        sweeps = []
    else:
        lhs_all, rhs_all, exact, sweeps = _block_supports(ms, input_blocks(t1),
                                                          input_blocks(t2), rng)
    gaps = lhs_all - rhs_all
    # the first direction within roundoff of the largest gap, so the witness
    # does not hinge on the last bits of the BLAS reduction order
    i = int(np.flatnonzero(gaps >= gaps.max() - 1e-12)[0])
    gap, lhs, rhs = gaps[i], lhs_all[i], rhs_all[i]
    certified = bool(gap > 1e-6)
    if certified:
        rerun, redo = np.random.default_rng(seed + 9091), exact[i]
        for m, top, psi, db in sweeps:
            if top[i] > redo:
                pure = random_pure_vectors(rerun, (1, 2 * _RESTARTS - 2), db)
                redo = max(redo, _product_support(m[i:i + 1], psi[i:i + 1], pure)[0])
        stable = abs(redo - rhs) <= 1e-8
        rhs = max(rhs, redo)
        gap = lhs - rhs
        certified = bool(stable and gap > 1e-6)
    return ImageAdditivityReport(max_gap=float(gap), direction=directions[i], lhs=float(lhs),
                                 rhs=float(rhs), certified=certified, n_directions=n_directions,
                                 rhs_bound=EXACT if additive else LOWER)


# -- hiding construction ------------------------------------------------


class ContainmentError(ValueError):
    """The inner image leaves the vertex hull: the facet, the excess and an input."""

    def __init__(self, direction, excess, x):
        self.direction = direction
        self.excess = float(excess)
        self.input = x
        super().__init__(f"inner image exceeds the vertex hull by {excess:.3e}")


def build_hiding_channel(vertex_states, inner):
    """Embed ``inner`` behind a polytopic face so its image is invisible.

    The result acts on ``C^k (+) C^{d_inner}``: the first ``k`` coordinates
    dephase onto the vertex states, the trailing block feeds ``inner``.  The
    image equals the hull of ``vertex_states`` provided ``Im(inner)`` lies
    inside that hull, which :func:`~.geometry.hull_containment` decides; a
    violation raises :class:`ContainmentError` with the facet and the input.

    Minimal output entropy then splits: ``H_min = min(min_i H(sigma_i),
    H_min(inner))``, because every pure input yields a convex mixture of
    block outputs and entropy is concave.
    """
    states = check_density_matrix(vertex_states, name="vertex")
    n = states[0].shape[0]
    if inner.d_out != n:
        raise ValueError("inner channel must share the vertex output space")
    inner.require_cptp()
    excess, h, x = hull_containment(inner, states)
    if excess > VERDICT_TOL:
        raise ContainmentError(h, excess, x)
    both = direct_sum(cq_channel(np.eye(len(states), dtype=complex), states, validate=False),
                      inner)
    # handed out as a plain Choi container: callers see one opaque map
    return _natural_channel(both.natural_matrix(), both.d_in, n)
