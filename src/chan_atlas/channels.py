"""Quantum channels and their interchangeable representations.

A channel is a linear map ``T: M_{d_in} -> M_{d_out}``.  Several concrete
forms are supported (Kraus, Choi, measure-and-prepare variants, direct sums);
every operation accepts any form.  Evaluation and every combinator go through
one natural matrix ``N``, ``vec(T(rho)) = N vec(rho)``, built in closed form
once per channel.  The Choi matrix is normalized to trace one, ``J(T) = (T (x)
id)(psi psi*)`` with ``psi`` the maximally entangled unit vector, so the input
marginal of a trace-preserving channel is ``I/d_in``.

Non-CPTP linear maps are representable (as ``ChoiForm`` containers) so that
complete positivity can be *checked* rather than assumed; see
:func:`Channel.verify_cptp`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TOL_PSD,
    TOL_TRACE,
    PAULIS,
    check_density_matrix,
    check_povm,
    check_unitary,
    dag,
    herm,
    is_hermitian,
    op_norm,
    partial_trace,
    unvec,
    vec,
)


@dataclass
class KrausForm:
    """Completely positive map ``rho -> sum_k K_k rho K_k*``."""

    operators: list


@dataclass
class ChoiForm:
    """Linear map stored by its (trace-normalized) Choi matrix, output (x) input."""

    matrix: np.ndarray
    d_in: int
    d_out: int


@dataclass
class PovmForm:
    """Measure-and-prepare map ``rho -> sum_i Tr(M_i rho) sigma_i``."""

    effects: list
    states: list


@dataclass
class EcqForm:
    """POVM form with effects ``e_i e_i* + Mt_i``, the e_i orthonormal.

    The remainders satisfy ``Tr(Mt_i e_j e_j*) = 0`` for all i, j, which makes
    every effect attain operator norm one.  It is also the vertex certificate
    of a CQ or eCQ map (:func:`~.classify.vertex_certificate`).
    """

    vectors: list
    tilde_effects: list
    states: list

    def effects(self):
        return [np.outer(e, np.conj(e)) + m for e, m in zip(self.vectors, self.tilde_effects)]


@dataclass
class CqForm:
    """Classical-quantum map: dephase in a basis, then prepare states.

    ``basis`` holds the orthonormal input basis as columns; ``states[i]`` is
    prepared with probability ``<e_i, rho e_i>``.
    """

    basis: np.ndarray
    states: list


@dataclass
class DirectSumForm:
    """Input-block direct sum: off-diagonal input blocks are discarded."""

    blocks: list  # channels with a common output dimension


def kept(fn):
    """Compute ``fn(t)`` once per channel and keep it in ``t._kept``.

    Every result that depends on the channel alone goes through here.  The
    body is called as ``__wrapped__``, so a test can count its runs.
    """
    @functools.wraps(fn)
    def get(t):
        if get not in t._kept:
            t._kept[get] = get.__wrapped__(t)
        return t._kept[get]

    return get


class Channel:
    """A linear map between matrix spaces, in one of the concrete forms."""

    def __init__(self, form, d_in, d_out):
        self.form = form
        self.d_in = int(d_in)
        self.d_out = int(d_out)
        self._natural = None
        self._kept = {}

    def __repr__(self):
        return f"Channel({type(self.form).__name__}, {self.d_in}->{self.d_out})"

    # -- evaluation -----------------------------------------------------

    def apply(self, rho):
        """Evaluate ``T(rho)`` for an arbitrary (not necessarily PSD) matrix."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.d_in, self.d_in):
            raise ValueError(f"input has shape {rho.shape}, expected {(self.d_in, self.d_in)}")
        return unvec(self.natural_matrix() @ vec(rho), self.d_out)

    def natural_matrix(self):
        """The matrix ``N`` with ``vec(T(rho)) = N vec(rho)`` (row-major vec)."""
        if self._natural is None:
            self._natural = _natural_of(self.form, self.d_in, self.d_out)
        return self._natural

    def dual_apply(self, h):
        """Adjoint ``Tr(h T(rho)) = Tr(T*(h) rho)`` of one observable or a stack of them."""
        h = np.asarray(h, dtype=complex)
        if h.shape[-2:] != (self.d_out, self.d_out):
            raise ValueError(f"observable has shape {h.shape}, expected "
                             f"(..., {self.d_out}, {self.d_out})")
        lead = h.shape[:-2]
        g = h.reshape(*lead, self.d_out ** 2) @ np.conj(self.natural_matrix())
        return g.reshape(*lead, self.d_in, self.d_in)

    def pure_outputs(self, x):
        """Outputs ``T(x x*)`` of the pure inputs stacked in ``x``, shape ``(..., d_in)``."""
        x = np.asarray(x, dtype=complex)
        if x.shape[-1:] != (self.d_in,):
            raise ValueError(f"input vectors have shape {x.shape}, expected (..., {self.d_in})")
        lead = x.shape[:-1]
        v = (x[..., :, None] * np.conj(x[..., None, :])).reshape(*lead, self.d_in ** 2)
        return (v @ self.natural_matrix().T).reshape(*lead, self.d_out, self.d_out)

    # -- representation changes ----------------------------------------

    @kept
    def to_choi(self):
        """Trace-normalized Choi matrix on C^{d_out} (x) C^{d_in}."""
        j = _choi_from_natural(self.natural_matrix(), self.d_in, self.d_out)
        return herm(j) if is_hermitian(j, tol=1e-9) else j

    # -- verification ---------------------------------------------------

    @kept
    def verify_cptp(self):
        """Check complete positivity (Choi PSD within ``TOL_PSD``) and trace
        preservation (input marginal within ``TOL_TRACE``).

        Maps that fail to preserve hermiticity (non-Hermitian Choi) are
        reported as non-CP with the hermiticity defect folded into the
        eigenvalue bound.  The verdict is computed once per channel; later
        calls return the same frozen object.
        """
        j = self.to_choi()
        defect = op_norm(j - dag(j)) / 2
        min_eig = float(np.linalg.eigvalsh(herm(j))[0]) - defect
        marg = partial_trace(j, (self.d_out, self.d_in), keep=1)
        dev = op_norm(marg - np.eye(self.d_in) / self.d_in)
        is_cp = min_eig >= -TOL_PSD
        is_tp = dev <= TOL_TRACE
        return CptpVerdict(
            is_cp=is_cp,
            is_tp=is_tp,
            is_cptp=is_cp and is_tp,
            min_choi_eigenvalue=min_eig,
            marginal_deviation=float(dev),
        )

    def require_cptp(self):
        v = self.verify_cptp()
        if not v.is_cptp:
            raise NotCptpError(v)
        return v


@dataclass(frozen=True)
class CptpVerdict:
    is_cp: bool
    is_tp: bool
    is_cptp: bool
    min_choi_eigenvalue: float
    marginal_deviation: float


class NotCptpError(ValueError):
    """Raised when an operation requires a CPTP map but verification fails."""

    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            "map is not CPTP: min Choi eigenvalue "
            f"{verdict.min_choi_eigenvalue:.3e}, marginal deviation {verdict.marginal_deviation:.3e}"
        )


# -- constructors -------------------------------------------------------


def kraus_channel(operators):
    ops = [np.asarray(k, dtype=complex) for k in operators]
    if not ops:
        raise ValueError("need at least one Kraus operator")
    m, d = ops[0].shape
    for k in ops:
        if k.shape != (m, d):
            raise ValueError("Kraus operators must share a common shape")
    return Channel(KrausForm(ops), d_in=d, d_out=m)


def choi_channel(j, d_in, d_out):
    """Channel from a trace-normalized Choi matrix; a non-CPTP one raises :class:`NotCptpError`."""
    j = np.asarray(j, dtype=complex)
    if j.shape != (d_in * d_out, d_in * d_out):
        raise ValueError(f"Choi matrix has shape {j.shape}, expected {(d_in * d_out,) * 2}")
    if not is_hermitian(j, tol=1e-9):
        raise ValueError("Choi matrix is not Hermitian")
    t = Channel(ChoiForm(herm(j), d_in, d_out), d_in=d_in, d_out=d_out)
    t.require_cptp()
    return t


def povm_channel(effects, states, validate=True):
    if len(effects) != len(states):
        raise ValueError("need one prepared state per effect")
    effects = [np.asarray(m, dtype=complex) for m in effects]
    states = [np.asarray(s, dtype=complex) for s in states]
    d = effects[0].shape[0]
    n = states[0].shape[0]
    if validate:
        effects = check_povm(effects, d=d)
        states = [check_density_matrix(s, name=f"state {i}") for i, s in enumerate(states)]
    return Channel(PovmForm(effects, states), d_in=d, d_out=n)


def cq_channel(basis, states, validate=True):
    basis = np.asarray(basis, dtype=complex)
    states = [np.asarray(s, dtype=complex) for s in states]
    d = basis.shape[0]
    if basis.shape != (d, d) or len(states) != d:
        raise ValueError("CQ form needs a full orthonormal basis and one state per basis vector")
    if validate:
        basis = check_unitary(basis)
        states = [check_density_matrix(s, name=f"state {i}") for i, s in enumerate(states)]
    return Channel(CqForm(basis, states), d_in=d, d_out=states[0].shape[0])


def ecq_channel(vectors, tilde_effects, states):
    vectors = [np.asarray(e, dtype=complex).reshape(-1) for e in vectors]
    tilde_effects = [np.asarray(m, dtype=complex) for m in tilde_effects]
    states = [np.asarray(s, dtype=complex) for s in states]
    d = vectors[0].size
    if not len(vectors) == len(tilde_effects) == len(states):
        raise ValueError("vectors, remainders and states must align")
    for i, e in enumerate(vectors):
        for jj, f in enumerate(vectors):
            want = 1.0 if i == jj else 0.0
            if abs(np.vdot(e, f) - want) > 1e-9:
                raise ValueError("the e_i are not orthonormal")
    for i, m in enumerate(tilde_effects):
        if np.linalg.eigvalsh(herm(m))[0] < -1e-8:
            raise ValueError(f"remainder {i} is not positive semidefinite")
        for jj, e in enumerate(vectors):
            if abs(np.conj(e) @ m @ e) > 1e-8:
                raise ValueError(f"remainder {i} is not supported away from the e_j")
    total = sum(np.outer(e, np.conj(e)) + m for e, m in zip(vectors, tilde_effects))
    if op_norm(total - np.eye(d)) > 1e-8:
        raise ValueError("eCQ effects do not sum to the identity")
    states = [check_density_matrix(s, name=f"state {i}") for i, s in enumerate(states)]
    return Channel(EcqForm(vectors, tilde_effects, states), d_in=d, d_out=states[0].shape[0])


def direct_sum(*channels):
    """Direct-sum channel on block-diagonal inputs; off-diagonal blocks are dropped."""
    blocks = []
    for c in channels:
        if isinstance(c.form, DirectSumForm):
            blocks.extend(c.form.blocks)
        else:
            blocks.append(c)
    if not blocks:
        raise ValueError("need at least one block")
    n = blocks[0].d_out
    if any(b.d_out != n for b in blocks):
        raise ValueError("direct-sum blocks must share the output dimension")
    return Channel(DirectSumForm(blocks), d_in=sum(b.d_in for b in blocks), d_out=n)


def identity_channel(d):
    return kraus_channel([np.eye(d, dtype=complex)])


def dephasing_channel(d):
    eye = np.eye(d, dtype=complex)
    return cq_channel(eye, [np.outer(eye[:, i], eye[:, i]) for i in range(d)], validate=False)


def depolarizing_channel(r):
    """Qubit map ``rho -> r rho + (1-r) Tr(rho) I/2``; CP exactly for r in [-1/3, 1]."""
    if not -1 / 3 - 1e-12 <= r <= 1 + 1e-12:
        raise ValueError("depolarizing parameter outside the completely positive range [-1/3, 1]")
    c0 = (1 + 3 * r) / 4
    c1 = (1 - r) / 4
    ops = []
    if c0 > 0:
        ops.append(np.sqrt(c0) * np.eye(2, dtype=complex))
    for p in PAULIS:
        if c1 > 0:
            ops.append(np.sqrt(c1) * p.astype(complex))
    return kraus_channel(ops)


def unital_qubit_diag(lams):
    """Unital qubit map with diagonal Bloch action, possibly non-CP.

    ``rho = (I + w.sigma)/2`` maps to ``(I + (lam*w).sigma)/2``.  Stored as a
    ``ChoiForm`` so that signed compressions outside the CP region remain
    representable; use :func:`Channel.verify_cptp` to test them.
    """
    l1, l2, l3 = (float(x) for x in lams)
    eye = np.eye(2, dtype=complex)
    j = np.kron(eye, eye).astype(complex)
    for lam, p in zip((l1, l2, l3), PAULIS):
        j = j + lam * np.kron(p, p.T)
    return Channel(ChoiForm(j / 4, 2, 2), d_in=2, d_out=2)


def trine_channel():
    """The 2 -> 3 map with effects (2/3) P_j onto three coplanar unit vectors
    at mutual angle 2*pi/3; its image is a filled disc inside the probability
    simplex of the three output levels."""
    effects = []
    states = []
    for j in (1, 2, 3):
        a = 2 * np.pi * j / 3
        u = np.array([np.cos(a), np.sin(a)], dtype=complex)
        effects.append((2 / 3) * np.outer(u, np.conj(u)))
        e = np.zeros(3, dtype=complex)
        e[j - 1] = 1.0
        states.append(np.outer(e, np.conj(e)))
    return povm_channel(effects, states, validate=False)


# -- combinators --------------------------------------------------------


def tensor(t1, t2):
    """Tensor product channel on ``M_{d1 d2} -> M_{n1 n2}``."""
    n = _tensor_natural(
        t1.natural_matrix(), (t1.d_out, t1.d_in), t2.natural_matrix(), (t2.d_out, t2.d_in)
    )
    return _natural_channel(n, t1.d_in * t2.d_in, t1.d_out * t2.d_out)


def tensor_dual_apply(t1, t2, h):
    """``(T1 (x) T2)*(h)`` of a stack ``h`` of observables on ``C^{n1} (x) C^{n2}``,
    without the joint map: ``T1*`` acts on the first output factor, then
    ``T2*`` on the second, each one ``dual_apply`` on a 2-D stack, so one
    matmul with inner length ``n1^2`` and then ``n2^2``."""
    (n1, d1), (n2, d2) = (t1.d_out, t1.d_in), (t2.d_out, t2.d_in)
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (n1 * n2, n1 * n2):
        raise ValueError(f"observable has shape {h.shape}, expected "
                         f"(..., {n1 * n2}, {n1 * n2})")
    lead = h.shape[:-2]
    # h[a b, a' b'] -> (b, b', a, a'); T1* gives (b, b', i, i')
    g = t1.dual_apply(h.reshape(-1, n1, n2, n1, n2).transpose(0, 2, 4, 1, 3).reshape(-1, n1, n1))
    # -> (i, i', b, b'); T2* gives (i, i', j, j')
    g = t2.dual_apply(g.reshape(-1, n2, n2, d1, d1).transpose(0, 3, 4, 1, 2).reshape(-1, n2, n2))
    g = g.reshape(-1, d1, d1, d2, d2).transpose(0, 1, 3, 2, 4)
    return g.reshape(*lead, d1 * d2, d1 * d2)


def compose(t1, t2):
    """Composite ``rho -> T2(T1(rho))`` (T1 acts first)."""
    if t1.d_out != t2.d_in:
        raise ValueError(f"inner dimensions differ: {t1.d_out} vs {t2.d_in}")
    return _natural_channel(t2.natural_matrix() @ t1.natural_matrix(), t1.d_in, t2.d_out)


def conjugate(t, u):
    """Output rotation ``rho -> U T(rho) U*``."""
    u = check_unitary(u)
    if u.shape[0] != t.d_out:
        raise ValueError("unitary dimension does not match the output space")
    return _natural_channel(np.kron(u, np.conj(u)) @ t.natural_matrix(), t.d_in, t.d_out)


def _natural_channel(n, d_in, d_out):
    """Channel stored by the Choi matrix of the natural matrix ``n``, which it keeps."""
    ch = Channel(ChoiForm(_choi_from_natural(n, d_in, d_out), d_in, d_out),
                 d_in=d_in, d_out=d_out)
    ch._natural = n
    return ch


def _natural_of(form, d_in, d_out):
    """Closed-form ``N`` of one form: Kraus ``sum K (x) conj(K)``, Choi a reshape of
    ``d_in J``, measure-and-prepare ``sum vec(sigma_i) vec(M_i^T)^T`` (since
    ``Tr(M rho) = vec(M^T) . vec(rho)``), a direct sum its blocks' ``N`` placed
    on their diagonal input blocks."""
    if isinstance(form, KrausForm):
        return sum(np.kron(k, np.conj(k)) for k in form.operators)
    if isinstance(form, ChoiForm):
        j = form.matrix.reshape(d_out, d_in, d_out, d_in).transpose(0, 2, 1, 3)
        return d_in * j.reshape(d_out ** 2, d_in ** 2)
    if isinstance(form, DirectSumForm):
        n = np.zeros((d_out ** 2, d_in, d_in), dtype=complex)
        off = 0
        for blk in form.blocks:
            sl = slice(off, off + blk.d_in)
            n[:, sl, sl] = blk.natural_matrix().reshape(d_out ** 2, blk.d_in, blk.d_in)
            off += blk.d_in
        return n.reshape(d_out ** 2, d_in ** 2)
    if isinstance(form, (PovmForm, EcqForm, CqForm)):
        return sum(np.outer(vec(s), vec(m.T)) for m, s in zip(*_measure_prepare(form)))
    raise TypeError(f"unknown form {type(form).__name__}")


def _measure_prepare(form):
    """Effects ``M_i`` and prepared states ``sigma_i`` of a measure-and-prepare form."""
    if isinstance(form, CqForm):
        return [np.outer(b, np.conj(b)) for b in form.basis.T], form.states
    return (form.effects() if isinstance(form, EcqForm) else form.effects), form.states


def _choi_from_natural(n, d_in, d_out):
    j = n.reshape(d_out, d_out, d_in, d_in).transpose(0, 2, 1, 3).reshape(d_out * d_in, d_out * d_in)
    return j / d_in


def _tensor_natural(n1, dims1, n2, dims2):
    m1, d1 = dims1
    m2, d2 = dims2
    k = np.kron(n1, n2)
    t = k.reshape(m1, m1, m2, m2, d1, d1, d2, d2)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return t.reshape((m1 * m2) ** 2, (d1 * d2) ** 2)


def _max_column_op_norm(n, d_out):
    """Largest operator norm of ``unvec`` of a column of ``n``: the worst
    output over the matrix-unit inputs of the map with natural matrix ``n``."""
    return float(np.linalg.norm(n.T.reshape(-1, d_out, d_out), 2, axis=(1, 2)).max(initial=0.0))


def map_distance(t1, t2):
    """Largest operator-norm discrepancy over the matrix-unit input basis."""
    if (t1.d_in, t1.d_out) != (t2.d_in, t2.d_out):
        raise ValueError("maps act between different spaces")
    return _max_column_op_norm(t1.natural_matrix() - t2.natural_matrix(), t1.d_out)
