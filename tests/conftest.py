"""Shared builders for the test suite.

Fixture channels are built from seeded generators and resampled until well
conditioned, so every test run sees the same channels.  The helpers are plain
functions; import them with ``from conftest import ...``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import chan_atlas
from chan_atlas import entropy, geometry
from chan_atlas.channels import (ChoiForm, CqForm, DirectSumForm, EcqForm, KrausForm, PovmForm,
                                 _natural_channel, cq_channel, direct_sum, ecq_channel,
                                 kraus_channel, povm_channel)
from chan_atlas.formats import FORMAT_VERSION, matrix_to_json, vector_to_json
from chan_atlas.linalg import (check_density_matrix, eig_clusters, generic, herm, hvec,
                               is_hermitian, op_norm, orthogonal_complement, subspace_projector,
                               vec)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# unit Bloch vectors of the regular tetrahedron
TETRA_DIRECTIONS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)


def fresh_output(code, **env):
    """Standard output of the Python source ``code`` run in a child process,
    with ``env`` added to the environment; the child imports ``chan_atlas``
    and ``conftest`` from this tree."""
    paths = [str(Path(chan_atlas.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          check=True, text=True).stdout


def blas_thread_outputs(code):
    """Standard output of ``code`` run in two child processes (``fresh_output``),
    with one and with two BLAS threads; the environment alone sets the count."""
    return [fresh_output(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]


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


def matrix_units(d):
    """Iterate ((i, j), E_ij) over the matrix-unit basis of M_d."""
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            yield (i, j), e


def linear_map_channel(apply_fn, d_in, d_out):
    """The linear map given by the callback ``apply_fn`` (no CPTP check), stored
    by the natural matrix read off its values on the matrix units."""
    n = np.zeros((d_out ** 2, d_in ** 2), dtype=complex)
    for (i, j), e in matrix_units(d_in):
        n[:, i * d_in + j] = vec(np.asarray(apply_fn(e), dtype=complex))
    return _natural_channel(n, d_in, d_out)


def constant_channel(sigma, d_in=None):
    """The channel ``rho -> Tr(rho) sigma`` as a one-outcome measure-and-prepare map."""
    sigma = check_density_matrix(sigma, name="constant output")
    d = sigma.shape[0] if d_in is None else int(d_in)
    return povm_channel([np.eye(d, dtype=complex)], [sigma], validate=False)


def kraus_operators(t):
    """Kraus operators of ``t``: its own for a Kraus form, else read off the
    Choi eigendecomposition at rank 1e-9; raises for a map that is not
    completely positive."""
    if isinstance(t.form, KrausForm):
        return list(t.form.operators)
    j = t.to_choi()
    if not is_hermitian(j, tol=1e-9):
        raise ValueError("Choi matrix is not Hermitian; map has no Kraus form")
    w, u = np.linalg.eigh(herm(j))
    if w[0] < -1e-9:
        raise ValueError(f"Choi matrix is not PSD (min eig {w[0]:.3e}); no Kraus form")
    return [np.sqrt(t.d_in * lam) * v.reshape(t.d_out, t.d_in)
            for lam, v in zip(w, u.T) if lam > 1e-9]


def channel_to_dict(t, top=True):
    """Spec object reproducing ``t`` through its native representation."""
    f = t.form
    out = {"format_version": FORMAT_VERSION} if top else {}
    if isinstance(f, KrausForm):
        out.update(kind="kraus", kraus=[matrix_to_json(k) for k in f.operators])
    elif isinstance(f, ChoiForm):
        out.update(kind="choi", choi=matrix_to_json(f.matrix), d_in=f.d_in, d_out=f.d_out)
        if not t.verify_cptp().is_cptp:
            out["allow_non_cptp"] = True
    elif isinstance(f, PovmForm):
        out.update(kind="povm", effects=[matrix_to_json(m) for m in f.effects],
                   states=[matrix_to_json(s) for s in f.states])
    elif isinstance(f, EcqForm):
        out.update(kind="ecq", vectors=[vector_to_json(e) for e in f.vectors],
                   tilde_effects=[matrix_to_json(m) for m in f.tilde_effects],
                   states=[matrix_to_json(s) for s in f.states])
    elif isinstance(f, CqForm):
        out.update(kind="cq", basis=matrix_to_json(f.basis),
                   states=[matrix_to_json(s) for s in f.states])
    elif isinstance(f, DirectSumForm):
        out.update(kind="direct_sum",
                   blocks=[channel_to_dict(b, top=False) for b in f.blocks])
    else:
        raise TypeError(f"cannot serialize form {type(f).__name__}")
    return out


def renyi_entropy(rho, p=1.0):
    """Renyi entropy H^(p) of the state ``rho`` (p = 1: von Neumann), from its
    spectrum through the program's own formula ``entropy._entropy_from_eigs``."""
    return float(entropy._entropy_from_eigs(np.linalg.eigvalsh(herm(np.asarray(rho))), p))


def support_function(t, h):
    """Reference support function of Im(T) in the Hermitian direction ``h``:
    ``(lambda_max(T*(h)), top eigenvector)``, straight from ``eigh``."""
    h = np.asarray(h, dtype=complex)
    if op_norm(h - h.conj().T) > 1e-10:
        raise ValueError("direction must be Hermitian")
    w, u = np.linalg.eigh(herm(t.dual_apply(h)))
    return float(w[-1]), u[:, -1]


def null_space(a, rtol=1e-8, atol=0.0):
    """Orthonormal basis of ker(a); threshold relative to the top singular value.

    ``atol`` puts an absolute floor under the cut, for matrices whose entries
    are pure roundoff around zero; a relative cut alone would read the noise
    as full rank.
    """
    a = np.asarray(a)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    scale = s[0] if s.size else 0.0
    r = int(np.sum(s > max(rtol * max(scale, 1e-300), atol)))
    return vh[r:].conj().T


def reference_characters(t):
    """Reference for ``geometry._characters``: the cluster pass it made before
    it read the input blocks.  Each eigenvalue cluster of one generic element
    of range(T*) is cut to the vectors every range element keeps inside it
    (stacked null space, floor ``VERDICT_TOL``) and split by a second generic
    element; every vector whose range images stay within ``VERDICT_TOL`` of
    multiples of it is a character, grouped with the first vector whose point
    lies within ``VERDICT_TOL`` (not transitively).  Returns the points and
    the preimage bases."""
    parts = geometry._adjoint_range(t)[2]
    first, second = generic(parts, 2)
    w, u = np.linalg.eigh(first)
    found = []
    for idx in eig_clusters(w):
        e = u[:, idx]
        if len(idx) > 1:
            xe = parts @ e
            e = e @ null_space((xe - e @ (e.conj().T @ xe)).reshape(-1, len(idx)),
                               atol=geometry.VERDICT_TOL)
            e = e @ np.linalg.eigh(herm(e.conj().T @ second @ e))[1]
        found.append(e)
    v = np.concatenate(found, axis=1)
    xv = parts @ v
    lam = np.einsum("am,kam->km", v.conj(), xv)
    v = v[:, np.linalg.norm(xv - lam[:, None, :] * v, axis=1).max(axis=0, initial=0.0)
          <= geometry.VERDICT_TOL]
    points = herm(t.pure_outputs(v.T))
    if not len(points):
        return points, []
    near = np.linalg.norm(points[:, None] - points[None], axis=(2, 3)) <= geometry.VERDICT_TOL
    label = np.argmax(near, axis=1)
    firsts = np.flatnonzero(label == np.arange(len(label)))
    return points[firsts], [v[:, label == i] for i in firsts]


def assert_same_characters(t):
    """``geometry._characters(t)`` against :func:`reference_characters`: the
    same count, points within 1e-9 in some order, the same preimage
    dimensions, and every preimage inside one of ``geometry.input_blocks(t)``."""
    points, bases = geometry._characters(t)
    ref_points, ref_bases = reference_characters(t)
    assert len(points) == len(ref_points)
    if not len(points):
        return
    dist = np.linalg.norm(points[:, None] - ref_points[None], axis=(2, 3))
    match = np.argmin(dist, axis=0)
    assert sorted(match) == list(range(len(points)))
    assert dist[match, np.arange(len(points))].max() <= 1e-9
    assert [bases[i].shape[1] for i in match] == [b.shape[1] for b in ref_bases]
    blocks = geometry.input_blocks(t)
    for b in bases:
        assert max(np.linalg.norm(v.conj().T @ b) ** 2 for v in blocks) >= b.shape[1] - 1e-9


def spin_one_channel():
    """The 4 -> 3 map ``T(rho) = rho_00 sigma + Tr(P_W rho) sigma + sum_a
    Tr(J_a rho_W) Delta_a`` on ``C^1 (+) W``, ``W = C^3``, with the spin-1
    matrices ``J_a`` and ``sigma = diag(0.5, 0.3, 0.2)``: CPTP, since the
    traceless ``Delta_a`` have norm 0.03 and ``||J_a|| = 1``.  The generic
    element of range(T*) is ``c I + alpha . J`` on ``W``, so the character
    ``|0>`` shares its eigenvalue ``c`` with the ``m = 0`` vector of ``W``.
    Returns the channel and ``sigma``."""
    s = np.sqrt(0.5)
    spin = [s * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex),
            s * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]),
            np.diag([1.0, 0.0, -1.0]).astype(complex)]
    delta = [0.03 * np.diag([1.0, -1.0, 0.0]), 0.03 * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
             0.03 * np.diag([0.0, 1.0, -1.0])]
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)

    def apply(rho):
        w = rho[1:, 1:]
        return np.trace(rho) * sigma + sum(np.trace(j @ w) * dl for j, dl in zip(spin, delta))

    return linear_map_channel(apply, 4, 3), sigma


def count_runs(monkeypatch, get):
    """Record every run of the body behind the kept accessor ``get``
    (``channels.kept`` calls it as ``get.__wrapped__``); returns the list of
    channels it ran on."""
    runs = []
    body = get.__wrapped__
    monkeypatch.setattr(get, "__wrapped__", lambda t: runs.append(t) or body(t))
    return runs


def outer(v):
    """``v v*`` for each vector along the last axis."""
    return v[..., :, None] * np.conj(v)[..., None, :]


def product_support_full_grid(ms, psi, pure):
    """Independent reference for ``entropy._product_support``, on complex
    matrices and sharing none of its code: every alternating round contracts
    the full grid of directions and starts against the observables (einsum),
    takes every top eigenpair from LAPACK (``lapack_top``), then masks out the
    starts that have stopped."""
    n, r, db = pure.shape
    da = ms.shape[-1] // db
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
        rho_a[active] = lapack_top(np.einsum("najbl,nslj->nsab", m4, rho_b)[active])[1]
        w, rho_b[active] = lapack_top(np.einsum("najbl,nsba->nsjl", m4, rho_a)[active])
        gain = w - val[active]
        val[active] = w
        active[active] = gain >= 1e-10
    return val.max(axis=1)


def product_support_sweep_grid(ms, psi, pure):
    """Reference for the compaction of ``entropy._product_support``: the same
    real coordinates (``entropy._coordinates``), starts (``entropy._sweep_outer``,
    the mixed one too) and top eigenpairs
    (``entropy._top``, looked up at call time), but every alternating round
    contracts the full grid of directions and starts, then masks out the
    starts that have stopped."""
    n, r, db = pure.shape
    da = ms.shape[-1] // db
    to_b = entropy._coordinates(ms, da, db)
    to_a = np.ascontiguousarray(to_b.transpose(0, 2, 1))
    vb = np.conj(np.linalg.svd(psi.reshape(n, da, db))[2][:, 0])
    mixed = np.broadcast_to(entropy._sweep_outer(np.eye(db)).mean(axis=0), (n, 1, db * db))
    y = np.concatenate([entropy._sweep_outer(vb)[:, None], mixed, entropy._sweep_outer(pure)],
                       axis=1)
    x = np.zeros((n, r + 2, da * da))
    val = np.full((n, r + 2), -np.inf)
    active = np.ones((n, r + 2), dtype=bool)
    for _ in range(20):
        if not active.any():
            break
        x[active] = entropy._top((y @ to_a)[active], da)[1]
        w, y[active] = entropy._top((x @ to_b)[active], db)
        gain = w - val[active]
        val[active] = w
        active[active] = gain >= 1e-10
    return val.max(axis=1)


def vertex_product_support(h, states, s):
    """Reference product support of ``conv{states} (x) Im S`` in each direction
    ``h`` on the joint output space, ``max_i lambda_max(S*(Tr_1[(sigma_i (x) I) h]))``:
    a linear functional peaks on a vertex of the first factor's hull."""
    n, na, nb = len(h), states[0].shape[0], s.d_out
    reduced = np.einsum("iac,ncjal->nijl", np.asarray(states), h.reshape(n, na, nb, na, nb))
    return np.linalg.eigvalsh(herm(s.dual_apply(reduced)))[..., -1].max(axis=1)


def lapack_top(k):
    """The top eigenvalue and eigenprojector of each matrix's Hermitian part,
    from ``np.linalg.eigh`` alone."""
    w, u = np.linalg.eigh(herm(k))
    return w[:, -1], outer(u[..., -1])


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
