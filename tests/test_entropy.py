import numpy as np
import pytest

from conftest import haar_unitary, tetra_states

from chan_atlas.channels import (
    compose,
    conjugate,
    constant_channel,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    kraus_channel,
    trine_channel,
)
from chan_atlas.entropy import (
    ContainmentError,
    build_hiding_channel,
    entropy_additivity_gap,
    image_additivity_gap,
    min_output_entropy,
    renyi_entropy,
)
from chan_atlas.linalg import random_density

LOG2 = np.log(2.0)
# closed forms for the r = 1/3 depolarizing qubit channel: the minimizing
# output spectrum is (2/3, 1/3)
H1_DEPOL_THIRD = np.log(3.0) - (2 / 3) * LOG2
H2_DEPOL_THIRD = np.log(9 / 5)


def test_renyi_entropy_values():
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert renyi_entropy(rho, 1.0) == pytest.approx(LOG2, abs=1e-12)
    assert renyi_entropy(rho, 2.0) == pytest.approx(LOG2, abs=1e-12)
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert renyi_entropy(pure, 1.0) == pytest.approx(0.0, abs=1e-12)
    rho = np.diag([0.75, 0.25]).astype(complex)
    assert renyi_entropy(rho, 2.0) == pytest.approx(-np.log(0.625), abs=1e-12)
    assert renyi_entropy(rho, 1.0) == pytest.approx(
        -(0.75 * np.log(0.75) + 0.25 * np.log(0.25)), abs=1e-12)


def test_renyi_entropy_validates_p():
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        renyi_entropy(rho, 0.5)
    with pytest.raises(ValueError):
        renyi_entropy(rho, 100.0)


def test_min_output_entropy_identity_is_zero():
    for p in (1.0, 2.0):
        res = min_output_entropy(identity_channel(2), p=p)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.converged


def test_min_output_entropy_depolarizing_third():
    res1 = min_output_entropy(depolarizing_channel(1 / 3), p=1.0)
    assert res1.value == pytest.approx(H1_DEPOL_THIRD, abs=1e-9)
    res2 = min_output_entropy(depolarizing_channel(1 / 3), p=2.0)
    assert res2.value == pytest.approx(H2_DEPOL_THIRD, abs=1e-9)
    # the reported output state attains the reported value
    assert renyi_entropy(res2.output_state, 2.0) == pytest.approx(res2.value, abs=1e-9)


def test_min_output_entropy_trine():
    # flat direction: every boundary point gives spectrum (1/2, 1/2, 0)
    for p in (1.0, 2.0):
        res = min_output_entropy(trine_channel(), p=p)
        assert res.value == pytest.approx(LOG2, abs=1e-8)


def test_min_output_entropy_constant_channel():
    sigma = np.diag([0.9, 0.1]).astype(complex)
    res = min_output_entropy(constant_channel(sigma, d_in=2), p=1.0)
    assert res.value == pytest.approx(renyi_entropy(sigma, 1.0), abs=1e-9)


def test_min_output_entropy_dephasing_is_zero():
    res = min_output_entropy(dephasing_channel(3), p=1.0)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def _rotated(t, rng):
    """``V o T o U`` for Haar unitaries ``U`` on the input and ``V`` on the output."""
    u = kraus_channel([haar_unitary(rng, t.d_in)])
    return conjugate(compose(u, t), haar_unitary(rng, t.d_out))


def test_min_output_entropy_rotated_dephasing_reaches_vertex():
    # no start sits on a basis vector of the rotated frame, so every start
    # has to find a vertex of the image on its own
    for seed in range(3):
        t = _rotated(dephasing_channel(3), np.random.default_rng(seed))
        res = min_output_entropy(t, p=2.0)
        assert res.value <= 1e-9
        assert res.converged


def test_min_output_entropy_cap_is_not_convergence():
    # the standard-basis start |1> is an exact trine minimizer, so one step
    # stops it on its own; a fixed input rotation moves the minimizers off
    # the starts, and after one step every start is still moving
    t = compose(kraus_channel([haar_unitary(np.random.default_rng(5), 2)]), trine_channel())
    assert not min_output_entropy(t, p=1.0, max_iter=1).converged
    assert min_output_entropy(t, p=1.0).converged


def _invariance_fixtures():
    rng = np.random.default_rng(17)
    states = [random_density(rng, 2) for _ in range(3)]
    return {
        "depolarizing_third": depolarizing_channel(1 / 3),
        "trine": trine_channel(),
        "dephasing3": dephasing_channel(3),
        "cq": cq_channel(np.eye(3, dtype=complex), states),
        "hiding_tetrahedron": build_hiding_channel(tetra_states(1.0), depolarizing_channel(1 / 3)),
    }


@pytest.mark.parametrize("name", sorted(_invariance_fixtures()))
def test_min_output_entropy_unitary_invariance(name):
    t = _invariance_fixtures()[name]
    rotated = _rotated(t, np.random.default_rng(23))
    for p in (1.0, 2.0):
        assert min_output_entropy(rotated, p=p).value == pytest.approx(
            min_output_entropy(t, p=p).value, abs=1e-9)


def test_entropy_additivity_gap_identity_pair():
    rep = entropy_additivity_gap(identity_channel(2), identity_channel(2), p=2.0)
    assert abs(rep.gap) < 1e-8
    assert rep.joint.value == pytest.approx(
        rep.single_first.value + rep.single_second.value, abs=1e-8)


def test_image_additivity_gap_half_depolarizing_vs_identity():
    rep = image_additivity_gap(depolarizing_channel(0.5), identity_channel(2),
                               n_directions=40, seed=0)
    assert rep.max_gap == pytest.approx(0.25, abs=1e-6)
    assert rep.lhs == pytest.approx(5 / 8, abs=1e-6)
    assert rep.rhs == pytest.approx(3 / 8, abs=1e-6)
    assert rep.direction is not None
    assert rep.certified


def test_image_additivity_gap_third_depolarizing_vs_identity():
    # entanglement breaking alone does not give image additivity
    rep = image_additivity_gap(depolarizing_channel(1 / 3), identity_channel(2),
                               n_directions=40, seed=0)
    assert rep.max_gap == pytest.approx(1 / 6, abs=1e-6)


def test_image_additivity_gap_vanishes_for_cq():
    rep = image_additivity_gap(dephasing_channel(2), identity_channel(2),
                               n_directions=30, seed=1)
    # certification flags positive gaps only, so here it must stay off
    assert rep.max_gap <= 1e-6
    assert not rep.certified


def test_build_hiding_channel_accepts_tetrahedron():
    t = build_hiding_channel(tetra_states(1.0), depolarizing_channel(1 / 3))
    assert (t.d_in, t.d_out) == (6, 2)
    assert t.verify_cptp().is_cptp
    res = min_output_entropy(t, p=1.0)
    assert abs(res.value) <= 1e-6


def test_build_hiding_channel_rejects_large_inner_image():
    with pytest.raises(ContainmentError) as exc:
        build_hiding_channel(tetra_states(1.0), depolarizing_channel(0.5))
    assert exc.value.excess > 0.01
    assert exc.value.direction.shape == (2, 2)
    assert "exceeds the vertex hull" in str(exc.value)


def test_min_output_entropy_reports_minimizer():
    res = min_output_entropy(depolarizing_channel(1 / 3), p=2.0)
    rho = np.outer(res.minimizer, np.conj(res.minimizer))
    out = depolarizing_channel(1 / 3).apply(rho)
    assert renyi_entropy(out, 2.0) == pytest.approx(res.value, abs=1e-8)


def test_entropy_additivity_gap_cq_pair():
    rep = entropy_additivity_gap(dephasing_channel(2), depolarizing_channel(1 / 3), p=1.0)
    assert -1e-7 <= rep.gap <= 1e-6
