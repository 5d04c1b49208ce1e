"""Property-based checks (``hypothesis``, derandomized, bounded examples)."""

import functools
import json

import numpy as np
import pytest

from conftest import (
    assembled_polytopic_fixture,
    assert_same_characters,
    bloch_state,
    channel_to_dict,
    ecq_fixture,
    haar_unitary,
    kraus_operators,
    outer,
    product_support_full_grid,
    random_cptp,
    random_density,
    random_povm,
    random_pure,
)

from chan_atlas import channels, classify, entropy
from chan_atlas.channels import (
    choi_channel,
    compose,
    conjugate,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    ecq_channel,
    kraus_channel,
    povm_channel,
    tensor,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.classify import (
    INDETERMINATE,
    NO,
    YES,
    is_cq,
    is_entanglement_breaking,
    is_universally_image_additive,
    vertex_certificate,
)
from chan_atlas.entropy import entropy_additivity_gap, min_output_entropy
from chan_atlas.fixed_points import fixed_point_structure
from chan_atlas.formats import channel_from_dict, form_kind
from chan_atlas.geometry import input_blocks, polytopic_decompose
from chan_atlas.linalg import random_directions, random_pure_vectors

hypothesis = pytest.importorskip("hypothesis")
given, settings, strategies = hypothesis.given, hypothesis.settings, hypothesis.strategies
assume = hypothesis.assume


@settings(max_examples=50, derandomize=True, deadline=None)
@given(d=strategies.sampled_from([2, 3, 4]), log_eps=strategies.floats(-12, -1),
       seed=strategies.integers(0, 2 ** 16))
def test_fixed_point_structure_near_identity_property(d, log_eps, seed):
    # (1 - eps) id + eps R: never raises, and a projection that is reported
    # has trace fixed_dim and satisfies the Cesaro identities
    eps = 10.0 ** log_eps
    r = random_cptp(np.random.default_rng(seed), d, d)
    t = kraus_channel([np.sqrt(1 - eps) * np.eye(d, dtype=complex),
                       *(np.sqrt(eps) * k for k in kraus_operators(r))])
    st = fixed_point_structure(t)
    assert st.status in ("ok", "indeterminate")
    if st.cesaro is not None:
        p, n = st.cesaro.natural_matrix(), t.natural_matrix()
        assert np.trace(p).real == pytest.approx(st.fixed_dim, abs=1e-8)
        for x in (n @ p, p @ n, p @ p):
            assert channels._max_column_op_norm(x - p, d) <= 1e-8


dims = strategies.integers(1, 3)
seeds = strategies.integers(0, 2 ** 16)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(d_in=dims, d_out=dims, extra=strategies.integers(0, 2), seed=seeds)
def test_kraus_choi_natural_round_trip_property(d_in, d_out, extra, seed):
    env = -(-d_in // d_out) + extra  # an isometry needs d_out * env >= d_in
    t = random_cptp(np.random.default_rng(seed), d_in, d_out, env=env)
    n = t.natural_matrix()
    via_choi = choi_channel(t.to_choi(), d_in, d_out)
    np.testing.assert_allclose(via_choi.natural_matrix(), n, rtol=0, atol=1e-12)
    ops = kraus_operators(via_choi)
    assert 1 <= len(ops) <= min(env, d_in * d_out)
    back = kraus_channel(ops)
    np.testing.assert_allclose(back.natural_matrix(), n, rtol=0, atol=1e-10)
    np.testing.assert_allclose(channels._natural_channel(n, d_in, d_out).to_choi(), t.to_choi(),
                               rtol=0, atol=1e-12)


def _channel_of_kind(kind, rng, d_in, d_out):
    """A seeded CPTP channel stored in the form that ``kind`` names."""
    states = [random_density(rng, d_out) for _ in range(max(d_in, 3))]
    if kind == "kraus":
        return random_cptp(rng, d_in, d_out)
    if kind == "choi":
        return choi_channel(random_cptp(rng, d_in, d_out).to_choi(), d_in, d_out)
    if kind == "povm":
        return povm_channel(random_povm(rng, d_in, 3), states[:3])
    if kind == "cq":
        return cq_channel(haar_unitary(rng, d_in), states[:d_in])
    if kind == "ecq":
        # unit vectors on all but one basis direction; the first remainder takes the rest
        u = haar_unitary(rng, d_in)
        k = max(1, d_in - 1)
        rest = u[:, k:] @ u[:, k:].conj().T
        tilde = [rest] + [np.zeros((d_in, d_in), dtype=complex)] * (k - 1)
        return ecq_channel(list(u[:, :k].T), tilde, states[:k])
    return direct_sum(random_cptp(rng, d_in, d_out), povm_channel(random_povm(rng, 2, 3),
                                                                  states[:3]))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(kind=strategies.sampled_from(["kraus", "choi", "povm", "cq", "ecq", "direct_sum"]),
       d_in=dims, d_out=dims, seed=seeds)
def test_spec_round_trip_property(kind, d_in, d_out, seed):
    t = _channel_of_kind(kind, np.random.default_rng(seed), d_in, d_out)
    assert form_kind(t) == kind
    back = channel_from_dict(json.loads(json.dumps(channel_to_dict(t))))
    assert form_kind(back) == kind
    assert (back.d_in, back.d_out) == (t.d_in, t.d_out)
    np.testing.assert_allclose(back.natural_matrix(), t.natural_matrix(), rtol=0, atol=1e-12)
    assert channel_to_dict(back) == channel_to_dict(t)


def _eb_block(kind, rng, r):
    """A qubit-output block whose EB verdict is decisive: depolarizing ``r``
    (EB iff r <= 1/3), measure-and-prepare (EB) or a unitary (not EB)."""
    if kind == "depolarizing":
        return depolarizing_channel(r)
    if kind == "povm":
        d = int(rng.integers(1, 4))
        return povm_channel(random_povm(rng, d, 3), [random_density(rng, 2) for _ in range(3)])
    return kraus_channel([haar_unitary(rng, 2)])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(kinds=strategies.tuples(*[strategies.sampled_from(["depolarizing", "povm", "unitary"])] * 2),
       rs=strategies.tuples(*[strategies.floats(-1 / 3, 1)] * 2), seed=seeds)
def test_direct_sum_entanglement_breaking_property(kinds, rs, seed):
    # a direct sum is EB yes iff both blocks are, and EB no iff one block is
    hypothesis.assume(all(abs(r - 1 / 3) > 1e-6 for r in rs))
    rng = np.random.default_rng(seed)
    a, b = (_eb_block(k, rng, r) for k, r in zip(kinds, rs))
    blocks = [is_entanglement_breaking(x).status for x in (a, b)]
    assert INDETERMINATE not in blocks
    both = is_entanglement_breaking(direct_sum(a, b)).status
    assert (both == YES) == (blocks == [YES, YES])
    assert (both == NO) == (NO in blocks)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(sizes=strategies.lists(dims, min_size=2, max_size=3), d_out=strategies.integers(2, 3),
       seed=seeds)
def test_input_blocks_of_a_rotated_direct_sum_property(sizes, d_out, seed):
    # random CPTP blocks in a Haar input frame: every true block lies inside
    # one found block (the found ones may be coarser), and the found blocks
    # reproduce the map, T(rho) = sum_k T(P_k rho P_k)
    rng = np.random.default_rng(seed)
    u = haar_unitary(rng, sum(sizes))
    t = compose(kraus_channel([u]), direct_sum(*(random_cptp(rng, d, d_out) for d in sizes)))
    found = input_blocks(t)
    assert sum(v.shape[1] for v in found) == t.d_in
    n = t.natural_matrix()
    split = sum(n @ np.kron(v @ v.conj().T, (v @ v.conj().T).conj()) for v in found)
    assert np.linalg.norm(split - n, 2) <= 1e-12
    ends = np.cumsum(sizes)
    for a, b in zip(ends - sizes, ends):
        true = u.conj().T[:, a:b]  # the block's basis in the frame of t
        inside = max(np.linalg.norm(v.conj().T @ true) ** 2 for v in found)
        assert inside >= (b - a) - 1e-9


block_kinds = strategies.sampled_from(["cq", "stinespring", "repeat"])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kinds=strategies.lists(block_kinds, min_size=2, max_size=3), d_out=strategies.integers(2, 3),
       seed=seeds)
def test_characters_read_from_the_input_blocks_match_the_cluster_pass_property(kinds, d_out, seed):
    # direct sums of CQ blocks, Stinespring blocks and repeats of the block
    # before (a first "repeat" is a CQ block) in a Haar input frame
    rng = np.random.default_rng(seed)
    blocks = []
    for kind in kinds:
        if kind == "repeat" and blocks:
            blocks.append(blocks[-1])
            continue
        d = int(rng.integers(1, 4))
        if kind == "stinespring":
            blocks.append(random_cptp(rng, d, d_out))
            continue
        basis = haar_unitary(rng, d)
        blocks.append(cq_channel(basis, [random_density(rng, d_out) for _ in range(d)]))
    u = haar_unitary(rng, sum(b.d_in for b in blocks))
    assert_same_characters(compose(kraus_channel([u]), direct_sum(*blocks)))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(d=strategies.integers(1, 3), seed=seeds)
def test_full_range_map_is_one_input_block_without_an_eigensolve_property(d, seed):
    t = random_cptp(np.random.default_rng(seed), d, d)
    eighs, eigh = [], np.linalg.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda *a, **k: eighs.append(1) or eigh(*a, **k))
        blocks = input_blocks(t)
    assert len(blocks) == 1 and eighs == []
    np.testing.assert_array_equal(blocks[0], np.eye(d))


forms = strategies.sampled_from(["kraus", "povm", "cq", "ecq", "direct_sum"])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(kinds=strategies.tuples(forms, forms), d_ins=strategies.tuples(dims, dims),
       d_outs=strategies.tuples(dims, dims), seed=seeds)
def test_tensor_acts_on_product_inputs_property(kinds, d_ins, d_outs, seed):
    # (t1 (x) t2)(rho1 (x) rho2) = t1(rho1) (x) t2(rho2)
    rng = np.random.default_rng(seed)
    t1, t2 = (_channel_of_kind(k, rng, a, b) for k, a, b in zip(kinds, d_ins, d_outs))
    r1, r2 = random_density(rng, t1.d_in), random_density(rng, t2.d_in)
    np.testing.assert_allclose(tensor(t1, t2).apply(np.kron(r1, r2)),
                               np.kron(t1.apply(r1), t2.apply(r2)), rtol=0, atol=1e-12)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(kinds=strategies.tuples(forms, forms), d_in=dims, d_outs=strategies.tuples(dims, dims),
       seed=seeds)
def test_compose_applies_the_first_channel_first_property(kinds, d_in, d_outs, seed):
    # compose(t1, t2)(rho) = t2(t1(rho)); t1 is built onto the input space of t2
    rng = np.random.default_rng(seed)
    t2 = _channel_of_kind(kinds[1], rng, d_outs[0], d_outs[1])
    t1 = _channel_of_kind(kinds[0], rng, d_in, t2.d_in)
    rho = random_density(rng, t1.d_in)
    np.testing.assert_allclose(compose(t1, t2).apply(rho), t2.apply(t1.apply(rho)),
                               rtol=0, atol=1e-12)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(kind=forms, d_in=dims, d_out=dims, seed=seeds)
def test_conjugate_rotates_the_output_property(kind, d_in, d_out, seed):
    # conjugate(t, u)(rho) = u t(rho) u*
    rng = np.random.default_rng(seed)
    t = _channel_of_kind(kind, rng, d_in, d_out)
    u = haar_unitary(rng, t.d_out)
    rho = random_density(rng, t.d_in)
    np.testing.assert_allclose(conjugate(t, u).apply(rho), u @ t.apply(rho) @ u.conj().T,
                               rtol=0, atol=1e-12)


def _square(radius):
    """CQ on four inputs onto the square of Bloch radius ``radius`` in the xy
    plane: its vertices are affinely dependent, so the CQ basis alone fixes
    the unit-norm POVM."""
    states = [bloch_state(radius, 0, 0), bloch_state(-radius, 0, 0),
              bloch_state(0, radius, 0), bloch_state(0, -radius, 0)]
    return cq_channel(np.eye(4, dtype=complex), states)


# channels whose CQ and universal image additivity verdicts are decided
_CLASSIFIED = {
    "trine": trine_channel,
    "depolarizing-1/2": lambda: depolarizing_channel(0.5),
    "depolarizing-1/5": lambda: depolarizing_channel(0.2),
    "dephasing3": lambda: dephasing_channel(3),
    "square0.8": lambda: _square(0.8),
    "square1": lambda: _square(1.0),
    **{f"ecq{i}": (lambda i=i: ecq_fixture(i)[0]) for i in range(3)},
    **{f"assembled{i}": (lambda i=i: assembled_polytopic_fixture(i)[0]) for i in range(2)},
}


def _cq_and_universal(t):
    # entanglement breaking rides along: its separable pairs come from the CQ
    # basis or the eCQ certificate wherever PPT is inconclusive
    return (is_cq(t).status, is_universally_image_additive(t).status,
            is_entanglement_breaking(t).status)


def _rotated(t, seed):
    """``V o T o U`` with Haar-random ``U`` on the input and ``V`` on the output."""
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(rng, t.d_in), haar_unitary(rng, t.d_out)
    return conjugate(compose(kraus_channel([u]), t), v)


@pytest.mark.parametrize("name", list(_CLASSIFIED))
@settings(max_examples=8, derandomize=True, deadline=None)
@given(seed=seeds)
def test_cq_and_universal_image_additivity_are_unitarily_invariant_property(name, seed):
    # and the inclusion chain CQ => eCQ (= universally image additive) => EB holds
    t = _CLASSIFIED[name]()
    verdicts = _cq_and_universal(t)
    assert INDETERMINATE not in verdicts
    assert _cq_and_universal(_rotated(t, seed)) == verdicts
    cq, uia, eb = verdicts
    assert cq != YES or uia == YES
    assert uia != YES or eb == YES


@settings(max_examples=30, derandomize=True, deadline=None)
@given(env=strategies.integers(1, 4), seed=seeds, frame=seeds)
def test_qubit_min_entropy_closed_form_property(env, seed, frame):
    # a random qubit channel in Haar input and output frames: the Bloch-ball
    # closed form is exact, never above the iterative minimizer, and does
    # not move under T -> V o T o U
    t = _rotated(random_cptp(np.random.default_rng(seed), 2, 2, env=env), seed + 1)
    for p in (1.0, 2.0):
        res = min_output_entropy(t, p=p)
        assert res.bound == "exact" and res.n_starts == 0
        assert res.value <= entropy._minimize_entropy(t, p, 0, 64).value + 1e-12
        assert abs(min_output_entropy(_rotated(t, frame), p=p).value - res.value) <= 1e-12


def _h2_band(h2):
    """The band above an exact ``H_2`` inside which a ``p < 2`` row reads exact."""
    return entropy._FLOOR_BAND * max(1.0, abs(h2))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(d_out=strategies.sampled_from([3, 4]), env=strategies.integers(1, 4), seed=seeds,
       frame=seeds)
def test_qubit_input_h2_is_exact_and_floors_p1_property(d_out, env, seed, frame):
    # a random qubit-input map with a larger output, in Haar frames: the
    # purity is |A x + b|^2 over the Bloch ball, so H_2 is exact, never above
    # the iterative minimizer, attained by its own output and unmoved by
    # T -> V o T o U; H_p does not increase with p, so it floors the p = 1 row
    t = _rotated(random_cptp(np.random.default_rng(seed), 2, d_out, env=env), seed + 1)
    h2 = min_output_entropy(t, p=2.0)
    assert h2.bound == "exact" and h2.n_starts == 0 and h2.converged
    assert h2.value <= entropy._minimize_entropy(t, 2.0, 0, 64).value + 1e-12
    assert abs(h2.value + np.log(np.trace(h2.output_state @ h2.output_state).real)) <= 1e-12
    assert abs(min_output_entropy(_rotated(t, frame), p=2.0).value - h2.value) <= 1e-12
    h1 = min_output_entropy(t, p=1.0)
    assert h1.value >= h2.value - 1e-12
    assert h1.n_starts > 0
    if h1.bound == "exact":
        assert h1.converged and h1.value <= h2.value + _h2_band(h2.value)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(d_out=strategies.sampled_from([3, 4]), env=strategies.integers(2, 4), seed=seeds)
def test_an_unreached_floor_changes_nothing_property(d_out, env, seed):
    # a mixing qubit-input map whose p = 1 minimum lies above its exact H_2
    # by more than the band: the floor never stops a start, so every field
    # of the minimizer's result is bit-identical with and without it
    t = _rotated(random_cptp(np.random.default_rng(seed), 2, d_out, env=env), seed + 1)
    floor = min_output_entropy(t, p=2.0).value
    plain = entropy._minimize_entropy(t, 1.0, seed, 16)
    assume(plain.value > floor + _h2_band(floor))
    floored = entropy._minimize_entropy(t, 1.0, seed, 16, floor=floor)
    for field in ("value", "converged", "grad_norm", "n_starts", "bound", "p"):
        assert getattr(floored, field) == getattr(plain, field)
    assert plain.bound == "upper"
    for field in ("minimizer", "output_state"):
        assert np.array_equal(getattr(floored, field), getattr(plain, field))


# the vertices of the Fujiwara-Algoet tetrahedron: the Pauli-diagonal unital
# qubit maps are the convex hull of the identity and the three Pauli conjugations
_FA_VERTICES = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=seeds, d_in=strategies.sampled_from([2, 3]), d_out=strategies.sampled_from([2, 3]),
       p=strategies.sampled_from([1.0, 2.0]))
def test_unital_qubit_factor_is_additive_property(seed, d_in, d_out, p):
    # King: a unital qubit factor makes the pair additive at every p >= 1.
    # The key fires in both orders, and the joint minimizer run directly on
    # T (x) S never goes below the sum of the single rows
    rng = np.random.default_rng(seed)
    t = _rotated(unital_qubit_diag(rng.dirichlet(np.ones(4)) @ _FA_VERTICES), seed + 1)
    s = random_cptp(rng, d_in, d_out)
    for first, second in ((t, s), (s, t)):
        rep = entropy_additivity_gap(first, second, p=p)
        total = rep.single_first.value + rep.single_second.value
        assert rep.gap == 0.0 and rep.joint.value == total and rep.joint.n_starts == 0
    assert entropy._minimize_entropy(tensor(t, s), p, seed, 16).value >= total - 1e-9


# the classified channels with a vertex certificate: CQ, then eCQ but not CQ
_CERTIFIED = ["dephasing3", "square0.8", "square1", "ecq0", "ecq2", "ecq1", "assembled0",
              "assembled1"]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(name=strategies.sampled_from(_CERTIFIED), seed=seeds)
def test_vertex_certificate_moves_with_the_frames_property(name, seed):
    # V o T o U prepares V sigma_i V* on the inputs U* e_i: the certificate
    # follows both frames, up to the order of the vertices and the phase of each vector
    t = _CLASSIFIED[name]()
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(rng, t.d_in), haar_unitary(rng, t.d_out)
    cert = vertex_certificate(t)
    moved = vertex_certificate(conjugate(compose(kraus_channel([u]), t), v))
    assert cert is not None and moved is not None
    states = [v @ s @ v.conj().T for s in cert.states]
    dist = np.array([[np.linalg.norm(s - r) for r in moved.states] for s in states])
    match = dist.argmin(axis=1)
    assert sorted(match) == list(range(len(moved.states)))
    assert dist.min(axis=1).max() <= 1e-8
    overlaps = [abs(np.vdot(u.conj().T @ e, moved.vectors[j]))
                for e, j in zip(cert.vectors, match)]
    np.testing.assert_allclose(overlaps, 1.0, rtol=0, atol=1e-8)


_CERTIFIED_GROUPS = {
    "classified": [_CLASSIFIED[name] for name in _CERTIFIED],
    "ecq_fixture": [lambda i=i: ecq_fixture(i)[0] for i in range(20)],
    "ecq_fixture-complement2": [lambda i=i: ecq_fixture(i, complement=2)[0] for i in range(20)],
    "assembled": [lambda i=i: assembled_polytopic_fixture(i)[0] for i in range(20)],
}


@pytest.mark.parametrize("group", list(_CERTIFIED_GROUPS))
def test_vertex_certificate_is_an_ecq_spec(group):
    # the certificate is the channel's eCQ form: ecq_channel accepts it, it
    # reproduces T, and it round-trips as an "ecq" spec
    for i, build in enumerate(_CERTIFIED_GROUPS[group]):
        t = build()
        cert = vertex_certificate(t)
        assert cert is not None, i
        rebuilt = ecq_channel(cert.vectors, cert.tilde_effects, cert.states)
        assert channels.map_distance(rebuilt, t) <= 1e-9, i
        back = channel_from_dict(json.loads(json.dumps(channel_to_dict(rebuilt))))
        assert form_kind(back) == "ecq"
        np.testing.assert_allclose(back.natural_matrix(), rebuilt.natural_matrix(),
                                   rtol=0, atol=1e-12)


def _image_shape(t):
    dec = polytopic_decompose(t)
    return dec.verdict, len(dec.vertices), sorted(r.preimage_basis.shape[1] for r in dec.vertices)


@pytest.mark.parametrize("name", list(_CLASSIFIED))
@settings(max_examples=8, derandomize=True, deadline=None)
@given(seed=seeds)
def test_decomposition_is_unitarily_invariant_property(name, seed):
    # the characters of range(T*) move with the frames, so the vertex
    # structure does not change
    t = _CLASSIFIED[name]()
    shape = _image_shape(t)
    assert shape[0] != INDETERMINATE
    assert _image_shape(_rotated(t, seed)) == shape


@functools.cache
def _same_output_pairs():
    d_out = {name: build().d_out for name, build in _CLASSIFIED.items()}
    return [(a, b) for a in d_out for b in d_out if d_out[a] == d_out[b]]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(pair=strategies.deferred(lambda: strategies.sampled_from(_same_output_pairs())))
def test_direct_sum_cq_property(pair):
    # the range of (T1 (+) T2)* is {T1*(H) (+) T2*(H)}, whose commutators are
    # the blocks' commutators side by side: CQ iff both blocks are
    a, b = (_CLASSIFIED[name]() for name in pair)
    blocks = [is_cq(x).status for x in (a, b)]
    assert INDETERMINATE not in blocks
    assert (is_cq(direct_sum(a, b)).status == YES) == (blocks == [YES, YES])


def test_is_cq_draws_no_sample(monkeypatch):
    # the CQ decision is algebraic: no vertex search and no random draw
    built = {name: build() for name, build in _CLASSIFIED.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("is_cq sampled")

    monkeypatch.setattr(classify, "polytopic_decompose", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for name, t in built.items():
        assert is_cq(t).status in (YES, NO), name


def _pair_directions(rng, kinds, da, db):
    """One observable on ``C^da (x) C^db`` per entry of ``kinds``, each turned
    by a Haar frame ``U (x) V``: a GUE direction, a multiple of the identity,
    or the projector onto a product or a random (entangled) unit vector."""
    out = []
    for kind in kinds:
        if kind == "gue":
            m = random_directions(rng, 1, da * db)[0]
        elif kind == "scalar":
            m = rng.normal() * np.eye(da * db, dtype=complex)
        else:
            v = (np.kron(random_pure(rng, da), random_pure(rng, db)) if kind == "product"
                 else random_pure(rng, da * db))
            m = outer(v)
        w = np.kron(haar_unitary(rng, da), haar_unitary(rng, db))
        out.append(w @ m @ w.conj().T)
    return np.array(out)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kinds=strategies.lists(strategies.sampled_from(["gue", "scalar", "product", "entangled"]),
                              min_size=1, max_size=12),
       dims=strategies.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]),
       seed=seeds)
def test_qubit_product_support_matches_the_eigh_full_grid_property(kinds, dims, seed):
    # the sweep of a pair of factors with a qubit among them (or two qutrits),
    # with the qubit factors' closed-form top eigenpairs in Bloch
    # coordinates, against the complex full grid with every top eigenpair
    # from LAPACK
    rng = np.random.default_rng(seed)
    da, db = dims
    ms = _pair_directions(rng, kinds, da, db)
    psi = np.linalg.eigh(ms)[1][:, :, -1]
    pure = random_pure_vectors(rng, (len(ms), 6), db)
    np.testing.assert_allclose(entropy._product_support(ms, psi, pure),
                               product_support_full_grid(ms, psi, pure),
                               rtol=0, atol=1e-12)
