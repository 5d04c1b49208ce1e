"""Shared linear-algebra helpers.

Conventions used throughout the package:

- ``vec`` is the row-major (C-order) flattening of a matrix, so
  ``vec(A B C) = (A (x) C^T) vec(B)``.
- Bipartite operators are ordered output (x) input, i.e. an operator on
  ``C^m (x) C^n`` has the index ``(a, i) -> a*n + i``.
- Bloch vectors follow ``rho = (I + w . sigma)/2`` with ``|w| <= 1``.
- Hermitian matrices are mapped to real coordinate vectors by :func:`hvec`,
  an isometry for the Hilbert-Schmidt inner product.
- :func:`hvec`, :func:`unhvec`, :func:`canonical_phase` and the random draws
  take whole stacks along leading axes.  A stacked draw uses the generator as
  successive single draws do (a real, then an imaginary block each) and
  matches them bit for bit, since seeded report bytes depend on that order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Verification tolerances of states and of the CPTP check.
TOL_PSD = 1e-9
TOL_TRACE = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def dag(a):
    return np.asarray(a).conj().T


def herm(a):
    """Hermitian part (A + A*)/2, of each matrix along the last two axes."""
    a = np.asarray(a)
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2


def is_hermitian(a, tol=1e-10):
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.max(np.abs(a - a.conj().T)) <= tol


def vec(a):
    """Row-major flattening of a matrix."""
    return np.asarray(a).reshape(-1)


def unvec(v, d_out, d_in=None):
    if d_in is None:
        d_in = d_out
    return np.asarray(v).reshape(d_out, d_in)


def kron(a, b):
    """Kronecker product of two matrices: the products of ``np.kron``, made as
    one broadcast without its set-up, so the bits are the same."""
    a, b = np.asarray(a), np.asarray(b)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def outer(a, b):
    """Outer product of two vectors, as ``np.outer`` makes it."""
    a, b = np.asarray(a), np.asarray(b)
    return a.reshape(-1)[:, None] * b.reshape(-1)[None, :]


def op_norm(a):
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def partial_trace(x, dims, keep):
    """Partial trace of an operator on C^{dims[0]} (x) C^{dims[1]}.

    ``keep`` is the factor index (0 or 1) that survives.
    """
    m, n = dims
    t = np.asarray(x).reshape(m, n, m, n)
    if keep == 0:
        return np.einsum("aibi->ab", t)
    return np.einsum("aiaj->ij", t)


def partial_transpose(x, dims, which=1):
    """Transpose one tensor factor of a bipartite operator (default: second)."""
    m, n = dims
    t = np.asarray(x).reshape(m, n, m, n)
    if which == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        t = t.transpose(2, 1, 0, 3)
    return t.reshape(m * n, m * n)


@functools.cache
def _upper(d):
    """The index pairs ``i < j`` of a ``d x d`` matrix, read-only."""
    iu = np.triu_indices(d, k=1)
    for a in iu:
        a.flags.writeable = False
    return iu


def hvec(a):
    """Real coordinates of Hermitian matrices (Hilbert-Schmidt isometry), last axis."""
    a = np.asarray(a)
    iu = _upper(a.shape[-1])
    return np.concatenate([
        np.real(np.diagonal(a, axis1=-2, axis2=-1)),
        np.sqrt(2.0) * np.real(a[..., iu[0], iu[1]]),
        np.sqrt(2.0) * np.imag(a[..., iu[0], iu[1]]),
    ], axis=-1)


def unhvec(v, d):
    """Inverse of :func:`hvec`: the ``d x d`` Hermitian matrices of the last axis."""
    v = np.asarray(v)
    a = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    a[..., np.arange(d), np.arange(d)] = v[..., :d]
    iu = _upper(d)
    k = len(iu[0])
    a[..., iu[0], iu[1]] = (v[..., d:d + k] + 1j * v[..., d + k:d + 2 * k]) / np.sqrt(2.0)
    return a + np.swapaxes(np.triu(a, k=1).conj(), -1, -2)


def _unit(x):
    """Rows of ``x`` over their norms, rounded as ``np.linalg.norm`` of each row."""
    re, im = x.real[..., None, :], x.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return x / np.sqrt(sq[..., 0])


def random_directions(rng, shape, d):
    """Random Hermitian ``d x d`` directions of unit Frobenius norm (GUE), ``shape`` stacked."""
    g = rng.normal(size=(*np.atleast_1d(shape), 2, d, d))
    h = herm(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    return _unit(h.reshape(*h.shape[:-2], d * d)).reshape(h.shape)


def random_pure_vectors(rng, shape, d):
    """Random unit vectors in ``C^d``, ``shape`` stacked."""
    g = rng.normal(size=(*np.atleast_1d(shape), 2, d))
    return _unit(g[..., 0, :] + 1j * g[..., 1, :])


def canonical_phase(v):
    """Fix each vector's global phase so its largest-magnitude entry is real positive."""
    v = np.asarray(v)
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    mag = np.hypot(top.real, top.imag)  # as the scalar ``abs``, unlike a stacked ``np.abs``
    return v / (np.where(mag > 0, top, 1.0) / np.where(mag > 0, mag, 1.0))


def orthogonal_complement(b, d):
    """Orthonormal basis of the orthogonal complement of span(columns of b) in C^d."""
    b = np.asarray(b, dtype=complex).reshape(d, -1)
    if b.shape[1] == 0:
        return np.eye(d, dtype=complex)
    u, s, _ = np.linalg.svd(b, full_matrices=True)
    r = int(np.sum(s > 1e-10))
    return u[:, r:]


def subspace_projector(b):
    b = np.asarray(b, dtype=complex)
    return b @ b.conj().T


def generic(stack, k=1):
    """``k`` fixed real combinations of a stack of matrices, by ``cos(j)`` then
    ``sin(j)`` of the index ``j = 1, 2, ...``: generic, with no random draw."""
    stack = np.asarray(stack)
    n, shape = len(stack), stack.shape[1:]
    j = np.arange(1, n + 1)
    # one vector-matrix product per combination, as ``tensordot`` makes it: a
    # single product of all k rows would round differently
    flat = stack.reshape(n, math.prod(shape))
    return np.array([f(j) @ flat for f in (np.cos, np.sin)[:k]]).reshape(k, *shape)


def eig_clusters(w):
    """Index runs of sorted eigenvalues ``w`` split at relative gaps above 1e-6."""
    spread = max(float(w[-1] - w[0]), 1.0)
    return np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > 1e-6 * spread) + 1)


def join_coupled(v, clusters, y, cut):
    """The block of each eigenvector cluster of ``v`` (the first cluster of
    its block): clusters ``F_k``, ``F_l`` are joined where
    ``||F_k* y F_l|| > cut``, and so on transitively."""
    sizes = [c.size for c in clusters]
    member = np.repeat(np.eye(len(clusters)), sizes, axis=1)  # clusters x eigenvectors
    coupling = member @ np.abs(v.conj().T @ y @ v) ** 2 @ member.T  # squared norms
    reach = coupling > cut ** 2
    np.fill_diagonal(reach, True)
    for _ in range(len(clusters).bit_length()):
        reach = reach @ reach
    return np.argmax(reach, axis=1)


def align_frames(f, y):
    """Turn each frame ``F_k`` of the stack ``f`` ``(n, d, s)`` after the
    first, in place, by the polar part of ``F_k* y F_0``; returns ``f`` and
    the smallest singular value of those maps (infinite for one frame)."""
    if len(f) == 1:
        return f, np.inf
    uu, sv, vvh = np.linalg.svd(f[1:].conj().transpose(0, 2, 1) @ y @ f[0])
    f[1:] = f[1:] @ (uu @ vvh)
    return f, sv[:, -1].min()


def _first_failure(name, fails):
    """Raise the message of the first failing item, ``f"{name} {i}"``, and its
    first failing check, as checking one item after another would: ``fails``
    is a list of (flags over the items, message of item ``i``)."""
    bad = np.flatnonzero(np.any([f for f, _ in fails], axis=0))
    if bad.size:
        i = int(bad[0])
        raise ValueError(next(msg(f"{name} {i}", i) for f, msg in fails if f[i]))


def _hermitian_flags(a):
    """Whether each matrix of the stack ``a`` is Hermitian within 1e-9."""
    return np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(1, 2)) <= 1e-9


def _min_eigenvalues(h, ok):
    """The smallest eigenvalue of each Hermitian matrix of ``h``, in one
    ``eigvalsh``; a matrix whose ``ok`` is false counts as zero, so a
    non-finite one never reaches LAPACK."""
    return np.linalg.eigvalsh(np.where(ok[:, None, None], h, 0))[:, 0]


def check_density_matrix(states, name="state"):
    """Validate density matrices of one shape; returns their Hermitian parts.

    Every item is first checked to be square and of the first item's
    shape, one after another; then one stacked ``eigvalsh`` checks the whole
    list.  A failure names the first failing item, ``f"{name} {i}"``, and
    its first failing check: Hermitian within 1e-9, PSD within ``TOL_PSD``,
    trace one within ``TOL_TRACE``.
    """
    mats = [np.asarray(s, dtype=complex) for s in states]
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"{name} {i} must be a square matrix")
        if m.shape != mats[0].shape:
            raise ValueError(f"{name} {i} has shape {m.shape}, expected {mats[0].shape}")
    rho = np.stack(mats)
    h = herm(rho)
    hermitian = _hermitian_flags(rho)
    low = _min_eigenvalues(h, hermitian)
    off = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)
    _first_failure(name, [
        (~hermitian, lambda who, i: f"{who} is not Hermitian"),
        (low < -TOL_PSD, lambda who, i: f"{who} is not positive semidefinite "
                                        f"(min eig {low[i]:.3e})"),
        (off > TOL_TRACE, lambda who, i: f"{who} trace differs from one by {off[i]:.3e}"),
    ])
    return list(h)


def check_unitary(u):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    if op_norm(u.conj().T @ u - np.eye(u.shape[0])) > 1e-9:
        raise ValueError("matrix is not unitary")
    return u


def check_povm(effects, d=None):
    """Validate a POVM: Hermitian PSD effects summing to the identity.

    Every effect is first checked to be ``d x d``; then one stacked
    ``eigvalsh`` checks them all, and a failure names the first failing
    effect, as :func:`check_density_matrix` does.
    """
    mats = [np.asarray(m, dtype=complex) for m in effects]
    if not mats:
        raise ValueError("empty POVM")
    dd = mats[0].shape[0] if d is None else d
    for k, m in enumerate(mats):
        if m.shape != (dd, dd):
            raise ValueError(f"effect {k} has shape {m.shape}, expected {(dd, dd)}")
    stack = np.stack(mats)
    h = herm(stack)
    hermitian = _hermitian_flags(stack)
    _first_failure("effect", [
        (~hermitian, lambda who, i: f"{who} is not Hermitian"),
        (_min_eigenvalues(h, hermitian) < -1e-8,
         lambda who, i: f"{who} is not positive semidefinite"),
    ])
    if op_norm(stack.sum(axis=0) - np.eye(dd)) > 1e-8:
        raise ValueError("effects do not sum to the identity")
    return list(h)
