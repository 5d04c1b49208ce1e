"""Shared builders for the test suite.

Fixture channels are built from seeded generators and resampled until well
conditioned, so every test run sees the same channels.  The helpers are plain
functions; import them with ``from conftest import ...``.
"""

import numpy as np

from chan_atlas.channels import cq_channel, direct_sum, ecq_channel, kraus_channel, povm_channel
from chan_atlas.linalg import herm, hvec, orthogonal_complement, op_norm, subspace_projector

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# unit Bloch vectors of the regular tetrahedron
TETRA_DIRECTIONS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)


def bloch_state(x, y, z):
    return (np.eye(2, dtype=complex) + x * SX + y * SY + z * SZ) / 2


def tetra_states(radius=1.0):
    return [bloch_state(*(radius * v)) for v in TETRA_DIRECTIONS]


def random_density(rng, d):
    """Random full-rank density matrix, Wishart construction."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = g @ g.conj().T
    return w / np.trace(w).real


def random_hermitian(rng, d):
    """One Ginibre draw, real then imaginary part, made Hermitian."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return herm(a)


def random_direction(rng, d):
    """One random Hermitian with unit Frobenius norm (GUE direction)."""
    h = random_hermitian(rng, d)
    return h / np.linalg.norm(h)


def random_pure(rng, d):
    """One random unit vector, real then imaginary part."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def trace_norm(a):
    """Sum of the singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(a), compute_uv=False)))


def subspace_distance(b1, b2):
    """Operator-norm distance between the projectors onto two column spans."""
    return op_norm(subspace_projector(b1) - subspace_projector(b2))


def haar_unitary(rng, d):
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed by R."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def amplitude_damping(gamma):
    return kraus_channel([np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex),
                          np.sqrt(gamma) * np.array([[0, 1], [0, 0]], dtype=complex)])


def product_support_full_grid(ms, psi, pure):
    """Reference for ``entropy._product_support``: every alternating round
    contracts the full grid of directions and starts, then masks out the
    starts that have stopped."""
    n, r, db = pure.shape
    da = ms.shape[-1] // db

    def outer(v):
        return v[..., :, None] * np.conj(v)[..., None, :]

    m4 = ms.reshape(n, da, db, da, db)
    vb = np.conj(np.linalg.svd(psi.reshape(n, da, db))[2][:, 0])
    mixed = np.broadcast_to(np.eye(db, dtype=complex) / db, (n, 1, db, db))
    rho_b = np.concatenate([outer(vb)[:, None], mixed, outer(pure)], axis=1)
    rho_a = np.zeros((n, r + 2, da, da), dtype=complex)
    val = np.full((n, r + 2), -np.inf)
    active = np.ones((n, r + 2), dtype=bool)
    for _ in range(20):
        if not active.any():
            break
        k1 = herm(np.einsum("najbl,nslj->nsab", m4, rho_b)[active])
        rho_a[active] = outer(np.linalg.eigh(k1)[1][..., -1])
        w, u = np.linalg.eigh(herm(np.einsum("najbl,nsba->nsjl", m4, rho_a)[active]))
        rho_b[active] = outer(u[..., -1])
        gain = w[:, -1] - val[active]
        val[active] = w[:, -1]
        active[active] = gain >= 1e-10
    return val.max(axis=1)


def random_cptp(rng, d_in, d_out, env=None):
    """Channel from a Haar-ish random Stinespring isometry."""
    if env is None:
        env = -(-d_in // d_out) + 1  # enough environment for a full-rank Choi
    g = rng.normal(size=(d_out * env, d_in)) + 1j * rng.normal(size=(d_out * env, d_in))
    v = np.linalg.qr(g)[0]
    blocks = v.reshape(d_out, env, d_in)
    return kraus_channel([blocks[:, e, :] for e in range(env)])


def random_povm(rng, d, k):
    raw = []
    for _ in range(k):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(g @ g.conj().T)
    s = sum(raw)
    w, u = np.linalg.eigh(s)
    isq = u @ np.diag(w ** -0.5) @ u.conj().T
    return [isq @ a @ isq.conj().T for a in raw]


def _spread_vertices(rng, n, k, affine_margin=5e-2, min_separation=0.25):
    """k affinely independent mixed states in M_n, resampled until the affine
    frame is well conditioned and the states are pairwise separated."""
    for _ in range(500):
        sig = [random_density(rng, n) for _ in range(k)]
        frame = np.array([np.concatenate([hvec(s), [1.0]]) for s in sig])
        sv = np.linalg.svd(frame, compute_uv=False)
        if sv[-1] < affine_margin:
            continue
        if min(trace_norm(sig[i] - sig[j]) for i in range(k) for j in range(i)) < min_separation:
            continue
        return sig
    raise RuntimeError("vertex resampling failed")  # pragma: no cover


def assembled_polytopic_fixture(seed):
    """CQ block on k vertex states, plus a residual block mapped strictly
    inside the hull.  Returns (channel, vertex states, k, d_out, w_dim)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 6))
    n = int(rng.integers(3, 6))
    w = int(rng.integers(1, 3))
    sig = _spread_vertices(rng, n, k)
    t1 = cq_channel(np.eye(k, dtype=complex), sig)
    effects = random_povm(rng, w, 3)
    preps = []
    for _ in range(3):
        wt = 0.5 * rng.dirichlet(np.ones(k)) + 0.5 / k  # stays away from every facet
        preps.append(sum(c * s for c, s in zip(wt, sig)))
    t2 = povm_channel(effects, preps)
    return direct_sum(t1, t2), sig, k, n, w


def ecq_fixture(seed, complement=None):
    """Unit-norm-POVM channel; complement > 0 adds nonzero residual effects.

    Returns (channel, vectors, tilde effects, vertex states).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    k = int(rng.integers(2, 5 if n == 2 else 6))  # affine independence needs k <= n*n
    c = int(rng.integers(0, 3)) if complement is None else int(complement)
    d = k + c
    sig = _spread_vertices(rng, n, k, min_separation=0.2)
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    vs = np.linalg.qr(g)[0]
    vectors = [vs[:, i] for i in range(k)]
    if c == 0:
        tilde = [np.zeros((d, d), dtype=complex) for _ in range(k)]
    else:
        comp = orthogonal_complement(vs, d)
        small = random_povm(rng, c, k)
        tilde = [comp @ b @ comp.conj().T for b in small]
    return ecq_channel(vectors, tilde, sig), vectors, tilde, sig
