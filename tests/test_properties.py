"""Property-based checks (``hypothesis``, derandomized, bounded examples)."""

import functools
import json

import numpy as np
import pytest

from conftest import (
    assembled_polytopic_fixture,
    ecq_fixture,
    haar_unitary,
    random_cptp,
    random_density,
    random_povm,
)

from chan_atlas import channels, classify
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
)
from chan_atlas.classify import (
    INDETERMINATE,
    NO,
    YES,
    is_cq,
    is_entanglement_breaking,
    is_universally_image_additive,
)
from chan_atlas.fixed_points import fixed_point_structure
from chan_atlas.formats import channel_from_dict, channel_to_dict, form_kind
from chan_atlas.geometry import polytopic_decompose

hypothesis = pytest.importorskip("hypothesis")
given, settings, strategies = hypothesis.given, hypothesis.settings, hypothesis.strategies


@settings(max_examples=50, derandomize=True, deadline=None)
@given(d=strategies.sampled_from([2, 3, 4]), log_eps=strategies.floats(-12, -1),
       seed=strategies.integers(0, 2 ** 16))
def test_fixed_point_structure_near_identity_property(d, log_eps, seed):
    # (1 - eps) id + eps R: never raises, and a projection that is reported
    # has trace fixed_dim and satisfies the Cesaro identities
    eps = 10.0 ** log_eps
    r = random_cptp(np.random.default_rng(seed), d, d)
    t = kraus_channel([np.sqrt(1 - eps) * np.eye(d, dtype=complex),
                       *(np.sqrt(eps) * k for k in r.kraus_operators())])
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
    ops = via_choi.kraus_operators()
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


# channels whose CQ and universal image additivity verdicts are decided
_CLASSIFIED = {
    "trine": trine_channel,
    "depolarizing-1/2": lambda: depolarizing_channel(0.5),
    "depolarizing-1/5": lambda: depolarizing_channel(0.2),
    "dephasing3": lambda: dephasing_channel(3),
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
    t = _CLASSIFIED[name]()
    verdicts = _cq_and_universal(t)
    assert INDETERMINATE not in verdicts
    assert _cq_and_universal(_rotated(t, seed)) == verdicts


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
