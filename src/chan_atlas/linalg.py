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


def hvec(a):
    """Real coordinates of Hermitian matrices (Hilbert-Schmidt isometry), last axis."""
    a = np.asarray(a)
    iu = np.triu_indices(a.shape[-1], k=1)
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
    iu = np.triu_indices(d, k=1)
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
    j = np.arange(1, len(stack) + 1)
    return np.array([np.tensordot(f(j), stack, axes=1) for f in (np.cos, np.sin)[:k]])


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


def check_density_matrix(rho, name="state"):
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not is_hermitian(rho, tol=1e-9):
        raise ValueError(f"{name} is not Hermitian")
    ev = np.linalg.eigvalsh(herm(rho))
    if ev[0] < -TOL_PSD:
        raise ValueError(f"{name} is not positive semidefinite (min eig {ev[0]:.3e})")
    if abs(np.trace(rho).real - 1.0) > TOL_TRACE:
        raise ValueError(f"{name} trace differs from one by {abs(np.trace(rho).real - 1.0):.3e}")
    return herm(rho)


def check_unitary(u):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    if op_norm(u.conj().T @ u - np.eye(u.shape[0])) > 1e-9:
        raise ValueError("matrix is not unitary")
    return u


def check_povm(effects, d=None):
    """Validate a POVM: Hermitian PSD effects summing to the identity."""
    mats = [np.asarray(m, dtype=complex) for m in effects]
    if not mats:
        raise ValueError("empty POVM")
    dd = mats[0].shape[0] if d is None else d
    total = np.zeros((dd, dd), dtype=complex)
    for k, m in enumerate(mats):
        if m.shape != (dd, dd):
            raise ValueError(f"effect {k} has shape {m.shape}, expected {(dd, dd)}")
        if not is_hermitian(m, tol=1e-9):
            raise ValueError(f"effect {k} is not Hermitian")
        if np.linalg.eigvalsh(herm(m))[0] < -1e-8:
            raise ValueError(f"effect {k} is not positive semidefinite")
        total += m
    if op_norm(total - np.eye(dd)) > 1e-8:
        raise ValueError("effects do not sum to the identity")
    return [herm(m) for m in mats]
