"""Shared linear-algebra helpers.

Conventions used throughout the package:

- ``vec`` is the row-major (C-order) flattening of a matrix, so
  ``vec(A B C) = (A (x) C^T) vec(B)``.
- Bipartite operators are ordered output (x) input, i.e. an operator on
  ``C^m (x) C^n`` has the index ``(a, i) -> a*n + i``.
- Bloch vectors follow ``rho = (I + w . sigma)/2`` with ``|w| <= 1``.
- Hermitian matrices are mapped to real coordinate vectors by :func:`hvec`,
  an isometry for the Hilbert-Schmidt inner product.
"""

from __future__ import annotations

import numpy as np

# Default verification tolerances. Individual operations take overrides.
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
MAP_EQ_TOL = 1e-10

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


def trace_norm(a):
    return float(np.sum(np.linalg.svd(np.asarray(a), compute_uv=False)))


def op_norm(a):
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def matrix_units(d):
    """Iterate ((i, j), E_ij) over the matrix-unit basis of M_d."""
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield (i, j), e


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
    """Real coordinates of a Hermitian matrix (Hilbert-Schmidt isometry)."""
    a = np.asarray(a)
    d = a.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate([
        np.real(np.diag(a)),
        np.sqrt(2.0) * np.real(a[iu]),
        np.sqrt(2.0) * np.imag(a[iu]),
    ])


def unhvec(v, d):
    v = np.asarray(v)
    a = np.zeros((d, d), dtype=complex)
    a[np.diag_indices(d)] = v[:d]
    iu = np.triu_indices(d, k=1)
    k = len(iu[0])
    a[iu] = (v[d:d + k] + 1j * v[d + k:d + 2 * k]) / np.sqrt(2.0)
    return a + np.triu(a, k=1).conj().T


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return herm(a)


def random_direction(rng, d):
    """Random Hermitian with unit Frobenius norm (GUE direction)."""
    h = random_hermitian(rng, d)
    return h / np.linalg.norm(h)


def random_pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(rng, d, rank=None):
    """Random full-rank (or fixed-rank) density matrix, Wishart construction."""
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    w = g @ g.conj().T
    return w / np.trace(w).real


def canonical_phase(v):
    """Fix the global phase so the largest-magnitude entry is real positive."""
    v = np.asarray(v)
    j = int(np.argmax(np.abs(v)))
    ph = v[j] / abs(v[j]) if abs(v[j]) > 0 else 1.0
    return v / ph


def top_eigenvector(h):
    """Largest-eigenvalue eigenpair of a Hermitian matrix, phase-canonical."""
    w, u = np.linalg.eigh(h)
    return float(w[-1]), canonical_phase(u[:, -1])


def orthonormal_columns(b, tol=1e-10):
    """Orthonormal basis of the column space of ``b``."""
    b = np.atleast_2d(np.asarray(b))
    if b.size == 0:
        return np.zeros((b.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    r = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :r].astype(complex)


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


def subspace_distance(b1, b2):
    """Operator-norm distance between the projectors onto two column spans."""
    return op_norm(subspace_projector(b1) - subspace_projector(b2))


def intersect_subspaces(bases, tol=1e-7):
    """Intersection of subspaces given by orthonormal-column bases.

    Uses the mean of the projectors; the intersection is its eigenvalue-1
    eigenspace up to ``tol``.
    """
    if not bases:
        return np.zeros((0, 0), dtype=complex)
    d = bases[0].shape[0]
    m = np.zeros((d, d), dtype=complex)
    for b in bases:
        m += subspace_projector(b)
    m /= len(bases)
    w, u = np.linalg.eigh(m)
    keep = w >= 1.0 - tol
    return u[:, keep]


def null_space(a, rtol=1e-8, atol=0.0):
    """Orthonormal basis of ker(a); threshold relative to the top singular value.

    ``atol`` puts an absolute floor under the cut, for matrices whose entries
    are pure roundoff around zero; a relative cut alone would read the noise
    as full rank.
    """
    a = np.asarray(a)
    u, s, vh = np.linalg.svd(a)
    scale = s[0] if s.size else 0.0
    r = int(np.sum(s > max(rtol * max(scale, 1e-300), atol)))
    return vh[r:].conj().T


def bloch_vector(rho):
    return np.array([np.trace(p @ rho).real for p in PAULIS])


def bloch_to_rho(w):
    w = np.asarray(w, dtype=float)
    return (np.eye(2, dtype=complex) + sum(w[i] * PAULIS[i] for i in range(3))) / 2


def check_density_matrix(rho, tol_psd=TOL_PSD, tol_trace=TOL_TRACE, name="state"):
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not is_hermitian(rho, tol=1e-9):
        raise ValueError(f"{name} is not Hermitian")
    ev = np.linalg.eigvalsh(herm(rho))
    if ev[0] < -tol_psd:
        raise ValueError(f"{name} is not positive semidefinite (min eig {ev[0]:.3e})")
    if abs(np.trace(rho).real - 1.0) > tol_trace:
        raise ValueError(f"{name} trace differs from one by {abs(np.trace(rho).real - 1.0):.3e}")
    return herm(rho)


def check_unitary(u, tol=1e-9):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("unitary must be square")
    if op_norm(u.conj().T @ u - np.eye(u.shape[0])) > tol:
        raise ValueError("matrix is not unitary")
    return u


def check_povm(effects, d=None, tol=1e-8):
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
        if np.linalg.eigvalsh(herm(m))[0] < -tol:
            raise ValueError(f"effect {k} is not positive semidefinite")
        total += m
    if op_norm(total - np.eye(dd)) > tol:
        raise ValueError("effects do not sum to the identity")
    return [herm(m) for m in mats]


def spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a)))))
