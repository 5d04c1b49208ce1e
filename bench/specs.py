"""Seeded channel specs for the benchmark workloads.

Every spec is built here with the benchmark's own code (no import of
``chan_atlas``) and written as format-version-1 JSON.  The seed fixes every
random choice; the shape of each workload (which operations, which input and
output dimensions, how many vertices) never depends on it, so two seeds ask
the program for the same amount of work on different numbers.  Where the
minimizer's work would follow the numbers (its number of iterations), the
channel is drawn once from a fixed generator and the seed draws only a
unitary frame on its output, which leaves every output entropy unchanged.

Each operation also carries the values its output must match, computed from
the construction itself (see ``oracles.py``).

Run as a script to write one workload's specs into a directory::

    python3 bench/specs.py --workload polytopic --seed 3 --out .bench_work/specs
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("round", "polytopic", "joint")

# generator key of the channel shapes that stay fixed across seeds
SHAPES = 1408

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


@dataclass
class Op:
    """One call of the program's command line.

    ``args`` holds the subcommand and its flags with ``{name}`` placeholders
    for the spec files in ``specs``; ``expect`` is what ``oracles.check``
    needs to judge the output.
    """

    name: str
    args: list
    specs: dict
    expect: dict = field(default_factory=dict)

    def argv(self, spec_dir):
        paths = {k: os.path.join(spec_dir, f"{self.name}.{k}.json") for k in self.specs}
        return [a.format(**paths) for a in self.args]

    def write(self, spec_dir):
        for key, spec in self.specs.items():
            with open(os.path.join(spec_dir, f"{self.name}.{key}.json"), "w",
                      encoding="utf-8") as f:
                json.dump(spec, f)


# -- JSON encoding ------------------------------------------------------


def _num(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _mat(a):
    return [[_num(z) for z in row] for row in np.asarray(a)]


def _vec(v):
    return [_num(z) for z in np.asarray(v).reshape(-1)]


def spec(kind, **fields):
    return {"format_version": "1", "kind": kind, **fields}


def kraus_spec(ops):
    return spec("kraus", kraus=[_mat(k) for k in ops])


# -- random ingredients -------------------------------------------------


def haar_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = g @ g.conj().T
    return w / np.trace(w).real


def trace_distance(a, b):
    return float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def real_coords(a):
    """Real coordinates of a Hermitian matrix (diagonal, then real and
    imaginary parts of the upper triangle)."""
    iu = np.triu_indices(a.shape[0], k=1)
    return np.concatenate([np.real(np.diag(a)), np.real(a[iu]), np.imag(a[iu])])


def spread_states(rng, n, k, margin=0.05, separation=0.25):
    """k affinely independent, pairwise separated mixed states in M_n."""
    while True:
        sig = [random_density(rng, n) for _ in range(k)]
        frame = np.array([np.concatenate([real_coords(s), [1.0]]) for s in sig])
        if np.linalg.svd(frame, compute_uv=False)[-1] < margin:
            continue
        if min(trace_distance(sig[i], sig[j]) for i in range(k) for j in range(i)) < separation:
            continue
        return sig


def random_povm(rng, d, k):
    raw = []
    for _ in range(k):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(g @ g.conj().T)
    w, u = np.linalg.eigh(sum(raw))
    isq = u @ np.diag(w ** -0.5) @ u.conj().T
    return [isq @ a @ isq.conj().T for a in raw]


def stinespring_kraus(rng, d_in, d_out, env):
    """Kraus operators of a channel from a random Stinespring isometry."""
    g = rng.normal(size=(d_out * env, d_in)) + 1j * rng.normal(size=(d_out * env, d_in))
    v = np.linalg.qr(g)[0].reshape(d_out, env, d_in)
    return [v[:, e, :] for e in range(env)]


def bloch_state(w):
    return (np.eye(2, dtype=complex) + sum(x * p for x, p in zip(w, PAULIS))) / 2


def pauli_kraus(lams):
    """Kraus operators of the unital qubit map with Bloch action diag(lams)."""
    l1, l2, l3 = lams
    probs = ((1 + l1 + l2 + l3) / 4, (1 + l1 - l2 - l3) / 4,
             (1 - l1 + l2 - l3) / 4, (1 - l1 - l2 + l3) / 4)
    mats = (np.eye(2, dtype=complex),) + PAULIS
    return [math.sqrt(p) * m for p, m in zip(probs, mats) if p > 0]


def conjugated(mats, u):
    """``U M U*`` for each matrix: states turned by ``U``, or the Kraus
    operators of ``rho -> U T(U* rho U) U*``."""
    return [u @ m @ u.conj().T for m in mats]


# -- entropies computed from the construction ---------------------------


def renyi(w, p):
    w = np.clip(np.real(np.asarray(w, dtype=float)), 0.0, None)
    if p == 1.0:
        w = w[w > 1e-18]
        return float(-np.sum(w * np.log(w)))
    return float(math.log(float(np.sum(w ** p))) / (1.0 - p))


def state_entropy(rho, p):
    return renyi(np.linalg.eigvalsh(rho), p)


def depolarizing_entropy(r, p):
    """Every pure input leaves with spectrum ((1+r)/2, (1-r)/2)."""
    return renyi([(1 + r) / 2, (1 - r) / 2], p)


def trine_entropy(p):
    """Minimal output entropy of the trine map over pure qubit inputs.

    The outputs are the distributions ``(1 + cos(phi - 4 pi j / 3)) / 3``
    over orthogonal pure states; only the in-plane Bloch angle ``phi``
    matters, entropy is concave, so the minimum lies on the circle.  A grid
    over one period followed by golden-section refinement finds it.
    """
    def h(phi):
        return renyi([(1 + math.cos(phi - 4 * math.pi * j / 3)) / 3 for j in (1, 2, 3)], p)

    grid = np.linspace(0.0, 2 * math.pi / 3, 2401)
    i = int(np.argmin([h(x) for x in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    g = (math.sqrt(5) - 1) / 2
    for _ in range(80):
        a, b = hi - g * (hi - lo), lo + g * (hi - lo)
        if h(a) <= h(b):
            hi = b
        else:
            lo = a
    return h((lo + hi) / 2)


def min_pt_eigenvalue(ops, d_in):
    """Smallest eigenvalue of the partial transpose (input factor) of the
    trace-one Choi matrix ``sum_ij T(E_ij) (x) E_ij / d_in``."""
    d_out = ops[0].shape[0]
    j = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for a in range(d_in):
        for b in range(d_in):
            e = np.zeros((d_in, d_in), dtype=complex)
            e[a, b] = 1.0
            out = sum(k @ e @ k.conj().T for k in ops)
            # partial transpose on the input factor: E_ab -> E_ba
            j += np.kron(out, e.T) / d_in
    return float(np.linalg.eigvalsh((j + j.conj().T) / 2)[0])


# -- workloads ----------------------------------------------------------


def round_ops(rng, shape):
    """Qubit-input channels whose images are round (strictly convex)."""
    ops = []

    # depolarizing, conjugated: the same map through other Kraus operators
    r = float(rng.uniform(0.45, 0.6))
    u = haar_unitary(rng, 2)
    ops.append(Op("depolarizing", ["report", "{ch}"],
                  {"ch": kraus_spec(conjugated(pauli_kraus((r, r, r)), u))},
                  {"kind": "round", "eb": "no", "min_pt": (1 - 3 * r) / 4,
                   "entropy": {1.0: depolarizing_entropy(r, 1.0),
                               2.0: -math.log((1 + r * r) / 2)},
                   "blocks": [(1, 2)], "identity_gap_min": r / 2}))

    # trine map with a rotated output frame
    v = haar_unitary(rng, 3)
    effects, states = [], []
    for j in (1, 2, 3):
        a = 2 * math.pi * j / 3
        effects.append((2 / 3) * np.outer([math.cos(a), math.sin(a)], [math.cos(a), math.sin(a)]))
        states.append(np.outer(v[:, j - 1], v[:, j - 1].conj()))
    ops.append(Op("trine", ["report", "{ch}"],
                  {"ch": spec("povm", effects=[_mat(m) for m in effects],
                              states=[_mat(s) for s in states])},
                  {"kind": "round", "eb": "yes",
                   "entropy": {1.0: trine_entropy(1.0), 2.0: trine_entropy(2.0)}}))

    # amplitude damping, conjugated: |0> stays pure, so H_min = 0
    g = float(rng.uniform(0.2, 0.5))
    u = haar_unitary(rng, 2)
    kraus = conjugated(damping_kraus(g), u)
    ops.append(Op("amplitude_damping", ["report", "{ch}"], {"ch": kraus_spec(kraus)},
                  {"kind": "round", "eb": "no", "min_pt": min_pt_eigenvalue(kraus, 2),
                   "entropy": {1.0: 0.0, 2.0: 0.0},
                   "blocks": [(1, 1)]}))
    return ops


def damping_kraus(g):
    return [np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex),
            np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)]


def _cq_spec(basis, states):
    return spec("cq", basis=_mat(basis), states=[_mat(s) for s in states])


def _polytopic_expect(states, **extra):
    return {"kind": "polytopic", "vertices": states,
            "entropy": {p: min(state_entropy(s, p) for s in states) for p in (1.0, 2.0)},
            "eb": "yes", **extra}


def polytopic_ops(rng, shape):
    """Channels whose images are polytopes with few vertices.

    The seeded channels have fixed shapes (vertex spectra, effects) and a
    seeded output frame: every seed poses the same minimization over the
    inputs (its path still moves a little through roundoff), while the
    outputs the program reports and the checks compare against change.
    """
    ops = []

    # dephasing(3): pure vertices, three 1-dim fixed blocks.  Kept in the
    # standard basis: in a rotated basis the p = 2 minimizer stops near 8e-4
    # instead of 0 on every seed tried
    u = np.eye(3, dtype=complex)
    states = [np.outer(u[:, i], u[:, i].conj()) for i in range(3)]
    ops.append(Op("dephasing3", ["report", "{ch}"], {"ch": _cq_spec(u, states)},
                  _polytopic_expect(states, cq="yes", uia="yes", ecq="yes",
                                    blocks=[(1, 1)] * 3)))

    # The eCQ channels below go through ``decompose``, ``classify`` and
    # ``entropy`` rather than ``report``: the report's image-additivity probe
    # against the identity claims a certified positive gap for about one
    # random channel in ten, although eCQ channels are universally image
    # additive.  With a residual block ``classify`` itself fails on some (the
    # CQ test assembles too few basis vectors), so those two skip it.

    # CQ channel 4 -> 3 on mixed vertex states
    basis = haar_unitary(shape, 4)
    states = conjugated(spread_states(shape, 3, 4), haar_unitary(rng, 3))
    ops += _stages("cq", _cq_spec(basis, states),
                   _polytopic_expect(states, cq="yes", uia="yes", ecq="yes"))

    # unit-norm-POVM channel 5 -> 2 with nonzero residual effects
    ops += _stages("ecq_residual", *_ecq(shape, haar_unitary(rng, 2), k=3, c=2),
                   cmds=("decompose", "entropy"))

    # CQ block on 3 vertices (+) a POVM block preparing points inside the hull
    k, n, w = 3, 3, 2
    sig = spread_states(shape, n, k)
    preps = []
    for _ in range(3):
        wt = 0.5 * shape.dirichlet(np.ones(k)) + 0.5 / k
        preps.append(sum(c * s for c, s in zip(wt, sig)))
    effects = random_povm(shape, w, 3)
    v = haar_unitary(rng, n)
    sig, preps = conjugated(sig, v), conjugated(preps, v)
    ch = spec("direct_sum", blocks=[
        {"kind": "cq", "basis": _mat(np.eye(k)), "states": [_mat(s) for s in sig]},
        {"kind": "povm", "effects": [_mat(m) for m in effects],
         "states": [_mat(s) for s in preps]}])
    ops += _stages("assembled", ch, _polytopic_expect(sig, uia="yes", ecq="yes"),
                   cmds=("decompose", "entropy"))

    # counterexample: mixed square vertices (+) a disc map whose image lies
    # inside their hull; breaking and polytopic, but not image additive
    rad = 0.8
    u = haar_unitary(rng, 2)
    square = conjugated([bloch_state(w) for w in
                         ((rad, 0, 0), (-rad, 0, 0), (0, rad, 0), (0, -rad, 0))], u)
    disc = [u @ m for m in pauli_kraus((0.5, 0.5, 0.0))]
    ch = spec("direct_sum", blocks=[
        {"kind": "cq", "basis": _mat(np.eye(4)), "states": [_mat(s) for s in square]},
        {"kind": "kraus", "kraus": [_mat(m) for m in disc]}])
    ops.append(Op("counterexample_disc", ["report", "{ch}"], {"ch": ch},
                  _polytopic_expect(square, uia="no", ecq="no")))
    return ops


def _stages(name, ch, expect, cmds=("decompose", "classify", "entropy")):
    """Stages of a report (image, classification, entropy), one command each."""
    return [Op(f"{name}-{cmd}", [cmd, "{ch}"], {"ch": ch}, expect) for cmd in cmds]


def _ecq(shape, frame, k, c):
    """Spec and expectations of a unit-norm-POVM channel on k + c inputs whose
    vertex states, drawn from ``shape``, are turned by the unitary ``frame``."""
    d = k + c
    sig = conjugated(spread_states(shape, frame.shape[0], k, separation=0.2), frame)
    vs = haar_unitary(shape, d)
    vectors, comp = vs[:, :k], vs[:, k:]
    if c:
        tilde = [comp @ b @ comp.conj().T for b in random_povm(shape, c, k)]
    else:
        tilde = [np.zeros((d, d), dtype=complex)] * k
    ch = spec("ecq", vectors=[_vec(vectors[:, i]) for i in range(k)],
              tilde_effects=[_mat(m) for m in tilde], states=[_mat(s) for s in sig])
    return ch, _polytopic_expect(sig, uia="yes", ecq="yes")


def joint_ops(rng, shape):
    """Channel pairs for the tensor-product questions."""
    ops = []
    eye2 = kraus_spec([np.eye(2, dtype=complex)])

    # halving depolarizing against the identity: gap 5/8 - 3/8 = 1/4
    u = haar_unitary(rng, 2)
    ops.append(Op("depolarizing_vs_identity",
                  ["image-additivity", "{a}", "--pair", "{b}", "--directions", "400"],
                  {"a": kraus_spec(conjugated(pauli_kraus((0.5, 0.5, 0.5)), u)), "b": eye2},
                  {"gap": 0.25, "lhs": 5 / 8, "rhs": 3 / 8}))

    # amplitude damping against a random qubit channel: the joint support can
    # only exceed the product support.  (eCQ first factors would pin the gap
    # to 0, but the program reports certified positive gaps for some of them,
    # so they are left out.)
    g = float(rng.uniform(0.2, 0.5))
    kraus = conjugated(damping_kraus(g), haar_unitary(rng, 2))
    ops.append(Op("amplitude_damping_image",
                  ["image-additivity", "{a}", "--pair", "{b}", "--directions", "200"],
                  {"a": kraus_spec(kraus), "b": kraus_spec(stinespring_kraus(rng, 2, 2, 2))}))

    # threshold depolarizing pair at p = 2: both factors breaking.  Not
    # seeded: other Kraus operators of this same map move the minimizer's
    # path through roundoff alone, from 1.1 s to 2.1 s
    r = 1 / 3
    h2 = -math.log((1 + r * r) / 2)
    ops.append(Op("depolarizing_third_pair",
                  ["additivity", "{a}", "--pair", "{b}", "--p", "2"],
                  {"a": spec("depolarizing", r=r), "b": spec("depolarizing", r=r)},
                  {"single_first": {2.0: h2}, "single_second": {2.0: h2}}))

    # unit-norm-POVM 5 -> 2 against a random qubit channel, p = 1 and 2; fixed
    # shapes in seeded output frames, as in the polytopic workload
    ch, exp = _ecq(shape, haar_unitary(rng, 2), k=3, c=2)
    v = haar_unitary(rng, 2)
    partner = [v @ m for m in stinespring_kraus(shape, 2, 2, 2)]
    ops.append(Op("ecq_entropy", ["additivity", "{a}", "--pair", "{b}"],
                  {"a": ch, "b": kraus_spec(partner)},
                  {"single_first": exp["entropy"]}))
    return ops


_BUILDERS = {"round": round_ops, "polytopic": polytopic_ops, "joint": joint_ops}


def build(workload, seed):
    """The operations of one pass of ``workload`` for ``seed``."""
    i = WORKLOADS.index(workload)
    return _BUILDERS[workload](np.random.default_rng([seed, i]),
                               np.random.default_rng([SHAPES, i]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the spec files")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for op in build(args.workload, args.seed):
        op.write(args.out)
        print(" ".join(op.argv(args.out)))


if __name__ == "__main__":
    main()
