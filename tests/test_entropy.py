import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    amplitude_damping,
    assembled_polytopic_fixture,
    blas_thread_outputs,
    bloch_state,
    constant_channel,
    count_runs,
    ecq_fixture,
    haar_unitary,
    kraus_operators,
    lapack_top,
    outer,
    product_support_full_grid,
    product_support_sweep_grid,
    random_cptp,
    random_density,
    random_direction,
    random_pure,
    renyi_entropy,
    tetra_states,
    vertex_product_support,
)

from chan_atlas import entropy
from chan_atlas.channels import (
    compose,
    conjugate,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    direct_sum,
    identity_channel,
    kraus_channel,
    tensor,
    tensor_dual_apply,
    trine_channel,
    unital_qubit_diag,
)
from chan_atlas.classify import YES, is_entanglement_breaking, vertex_certificate
from chan_atlas.entropy import (
    ContainmentError,
    _product_support,
    build_hiding_channel,
    entropy_additivity_gap,
    image_additivity_gap,
    min_output_entropy,
)
from chan_atlas.formats import load_channel
from chan_atlas.geometry import bloch_map, input_blocks
from chan_atlas.linalg import herm, hvec, random_directions, random_pure_vectors, unhvec
from chan_atlas.pipeline import run_pipeline

LOG2 = np.log(2.0)
# closed forms for the r = 1/3 depolarizing qubit channel: the minimizing
# output spectrum is (2/3, 1/3)
H1_DEPOL_THIRD = np.log(3.0) - (2 / 3) * LOG2
H2_DEPOL_THIRD = np.log(9 / 5)


def _bloch_radius_entropy(rho, p):
    """``H_p`` of the qubit spectrum ``((1 + r)/2, (1 - r)/2)``, ``r`` the Bloch
    radius of ``rho``."""
    r = np.sqrt(max(0.0, 2 * np.trace(rho @ rho).real - 1))
    return _radius_entropy(min(r, 1.0), p)


def _radius_entropy(r, p):
    w = np.array([(1 + r) / 2, (1 - r) / 2])
    w = w[w > 0]
    return float(-np.sum(w * np.log(w)) if p == 1 else np.log(np.sum(w ** p)) / (1 - p))


def _assert_closed_form(t, want, p):
    res = min_output_entropy(t, p=p)
    assert res.bound == "exact" and res.n_starts == 0 and res.converged
    assert res.value == pytest.approx(want, abs=1e-12)
    # the reported input attains the value, and no gradient is left
    assert renyi_entropy(t.apply(np.outer(res.minimizer, np.conj(res.minimizer))),
                         p) == pytest.approx(want, abs=1e-12)
    assert renyi_entropy(res.output_state, p) == pytest.approx(want, abs=1e-12)
    assert res.grad_norm <= 1e-6
    return res


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
    t = depolarizing_channel(0.5)
    with pytest.raises(ValueError, match="outside supported range"):
        min_output_entropy(t, 0.5)
    with pytest.raises(ValueError, match="outside supported range"):
        min_output_entropy(t, 100.0)


def test_min_output_entropy_identity_is_zero():
    for p in (1.0, 2.0):
        res = min_output_entropy(identity_channel(2), p=p)
        assert res.value == 0.0 and np.copysign(1.0, res.value) == 1.0
        assert res.converged and res.bound == "exact"


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


def test_trine_report_solves_the_qubit_pencil_once_and_draws_no_p2_start(monkeypatch):
    # both rows of one report share the kept Bloch-ball solve of the purity:
    # p = 2 reads it off, p = 1 stops its minimizer at it, within the band
    runs = count_runs(monkeypatch, entropy._qubit_pencil)
    orders = []
    inner = entropy._minimize_entropy
    monkeypatch.setattr(entropy, "_minimize_entropy",
                        lambda t, p, *a, **k: orders.append(p) or inner(t, p, *a, **k))
    t = trine_channel()
    rows = run_pipeline(t)["entropy"]["min_output"]
    assert len(runs) == 1 and orders == [1.0]
    assert [row["bound"] for row in rows] == ["exact", "exact"]
    h1, h2 = min_output_entropy(t, p=1.0), min_output_entropy(t, p=2.0)
    assert len(runs) == 1 and orders == [1.0, 1.0]
    assert [h1.value, h2.value] == [row["value"] for row in rows]
    assert h2.n_starts == 0 and abs(h2.value - LOG2) <= 1e-15
    assert h2.value - 1e-15 <= h1.value <= h2.value + entropy._FLOOR_BAND


def test_min_output_entropy_constant_channel():
    # A = 0 in the Bloch picture: every input is a maximizer
    for sigma in (np.diag([0.9, 0.1]).astype(complex),
                  np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])):
        for p in (1.0, 2.0):
            _assert_closed_form(constant_channel(sigma, d_in=2), renyi_entropy(sigma, p), p)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_pure_certified_output_reads_zero(p):
    # the exact spectrum routes clamp a top eigenvalue within _PURE_RADIUS of
    # 1: the vertex certificate of a qubit-to-scalar trace map (its state
    # 1 - 1.1e-16 read 1.1e-16 and 2.2e-16), and the 1-dim block of a pure
    # constant beside depolarizing 1/2 in a Haar input frame (read -8.9e-16
    # to 2.1e-15 over these seeds)
    trace_map = random_cptp(np.random.default_rng(0), 2, 1)
    assert vertex_certificate(trace_map) is not None
    maps = [trace_map]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pure = outer(random_pure(rng, 2))
        t = direct_sum(depolarizing_channel(0.5), constant_channel(pure, d_in=1))
        maps.append(compose(kraus_channel([haar_unitary(rng, 3)]), t))
        assert sorted(v.shape[1] for v in input_blocks(maps[-1])) == [1, 2]
    for t in maps:
        res = min_output_entropy(t, p)
        assert (res.value, res.bound, res.n_starts) == (0.0, "exact", 0)


def test_min_output_entropy_dephasing_is_zero():
    res = min_output_entropy(dephasing_channel(3), p=1.0)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def _rotated(t, rng):
    """``V o T o U`` for Haar unitaries ``U`` on the input and ``V`` on the output."""
    u = kraus_channel([haar_unitary(rng, t.d_in)])
    return conjugate(compose(u, t), haar_unitary(rng, t.d_out))


def test_min_output_entropy_rotated_dephasing_reaches_vertex():
    # no start sits on a basis vector of the rotated frame, so every start of
    # the iterative minimizer has to find a vertex of the image on its own;
    # the channel is CQ, so min_output_entropy itself reads the vertex off
    for seed in range(3):
        t = _rotated(dephasing_channel(3), np.random.default_rng(seed))
        res = entropy._minimize_entropy(t, 2.0, 0, 64)
        assert res.value <= 1e-9
        assert res.converged and res.bound == "upper"
        exact = min_output_entropy(t, p=2.0)
        assert abs(exact.value) <= 1e-12
        assert exact.converged and exact.bound == "exact" and exact.n_starts == 0


def test_min_output_entropy_cap_is_not_convergence(monkeypatch):
    # the standard-basis start |1> is an exact trine minimizer, so one step
    # stops it on its own; a fixed input rotation moves the minimizers off
    # the starts, and after one step every start is still moving
    t = compose(kraus_channel([haar_unitary(np.random.default_rng(5), 2)]), trine_channel())
    with monkeypatch.context() as m:
        m.setattr(entropy, "_MAX_STEPS", 1)
        assert not entropy._minimize_entropy(t, 1.0, 0, 64).converged
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


def test_image_additivity_gap_vanishes_for_cq(monkeypatch):
    rep = image_additivity_gap(dephasing_channel(2), identity_channel(2),
                               n_directions=30, seed=1)
    # certification flags positive gaps only, so here it must stay off
    assert abs(rep.max_gap) <= 1e-12
    assert not rep.certified and rep.rhs_bound == "exact"
    # the sampled product support, with the CQ certificate hidden, finds no gap either
    monkeypatch.setattr(entropy, "vertex_certificate", lambda t: None)
    rep = image_additivity_gap(dephasing_channel(2), identity_channel(2),
                               n_directions=30, seed=1)
    assert rep.max_gap <= 1e-6
    assert not rep.certified and rep.rhs_bound == "lower"


def test_image_additivity_witness_does_not_depend_on_blas_threads():
    # the fixture is eCQ, so every gap is zero up to roundoff and the witness must not
    # follow the last bits of the BLAS reduction order, on the exact route and on the
    # sampled path (certificate hidden)
    code = ("from conftest import assembled_polytopic_fixture\n"
            "from chan_atlas import entropy\n"
            "from chan_atlas.channels import identity_channel\n"
            "t = assembled_polytopic_fixture(2)[0]\n"
            "r = entropy.image_additivity_gap(t, identity_channel(t.d_in), n_directions=24)\n"
            "entropy.vertex_certificate = lambda t: None\n"
            "s = entropy.image_additivity_gap(t, identity_channel(t.d_in), n_directions=24)\n"
            "print(repr(r.lhs), repr(r.rhs), repr(s.lhs), repr(s.rhs))\n")
    one, two = blas_thread_outputs(code)
    assert one == two


def test_image_additivity_gap_runs_one_stack(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    rep = image_additivity_gap(depolarizing_channel(0.5), identity_channel(2),
                               n_directions=400)
    assert rep.certified and rep.max_gap == pytest.approx(0.25, abs=1e-6)
    # one joint call, then two per alternating round in the sweep and in the rerun
    assert len(calls) <= 1 + 2 * 2 * 20


@pytest.mark.parametrize("t1, t2, rerun", [(depolarizing_channel(0.5), identity_channel(2), True),
                                           (dephasing_channel(3), identity_channel(3), False)])
def test_image_additivity_draws_match_the_per_direction_loop(t1, t2, rerun, monkeypatch):
    # dephasing(3) is CQ: hide its certificate and its three 1-dim input
    # blocks to keep it on the single-block sampled path
    monkeypatch.setattr(entropy, "vertex_certificate", lambda t: None)
    monkeypatch.setattr(entropy, "input_blocks", lambda t: [np.eye(t.d_in)])
    seen = []
    run = entropy._product_support
    monkeypatch.setattr(entropy, "_product_support",
                        lambda ms, psi, pure: seen.append((ms, pure)) or run(ms, psi, pure))
    image_additivity_gap(t1, t2, n_directions=12, seed=5)
    # the same draws made one matrix at a time: directions, then u and v per frame
    rng = np.random.default_rng(5)
    n, db = t1.d_out, t2.d_in
    directions = [random_direction(rng, n * n) for _ in range(9)]
    for _ in range(3):
        u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        v = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        psi = np.kron(u, v) @ np.eye(n).reshape(-1) / np.sqrt(n)
        directions.append(psi[:, None] * np.conj(psi)[None, :])
    pure = [[random_pure(rng, db) for _ in range(6)] for _ in range(12)]
    assert np.array_equal(seen[0][0], herm(tensor_dual_apply(t1, t2, np.array(directions))))
    joint = herm(tensor(t1, t2).dual_apply(np.array(directions)))
    assert np.abs(seen[0][0] - joint).max() <= 1e-15 * np.abs(joint).max()
    assert np.array_equal(seen[0][1], np.array(pure))
    assert len(seen) == 1 + rerun
    if rerun:  # from its own stream
        rng = np.random.default_rng(5 + 9091)
        assert np.array_equal(seen[1][1], [[random_pure(rng, db) for _ in range(14)]])


def test_product_support_frozen_starts_stay_put():
    rng = np.random.default_rng(5)
    da, db = 2, 3
    ms = np.array([random_direction(rng, da * db) for _ in range(3)])
    psi = np.linalg.eigh(ms)[1][:, :, -1]
    pure = np.array([[random_pure(rng, db) for _ in range(6)] for _ in range(3)])
    stacked = _product_support(ms, psi, pure)
    single = [_product_support(ms[i:i + 1], psi[i:i + 1], pure[i:i + 1])[0] for i in range(3)]
    assert stacked.tolist() == single == product_support_sweep_grid(ms, psi, pure).tolist()


def _sweep_input(da, db, n, seed):
    rng = np.random.default_rng([seed, da, db, n])
    ms = random_directions(rng, n, da * db)
    return ms, np.linalg.eigh(ms)[1][:, :, -1], random_pure_vectors(rng, (n, 6), db)


def _top_rounds(monkeypatch, sweep, ms, psi, pure):
    """The values of ``sweep`` and its number of alternating rounds."""
    calls = []
    top = entropy._top
    with monkeypatch.context() as m:
        m.setattr(entropy, "_top", lambda v, d: calls.append(1) or top(v, d))
        return sweep(ms, psi, pure).tolist(), len(calls) // 2


@pytest.mark.parametrize("n", [1, 24, 200])
@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_product_support_matches_the_full_grid(da, db, n):
    for seed in range(2):
        ms, psi, pure = _sweep_input(da, db, n, seed)
        assert _product_support(ms, psi, pure).tolist() == \
            product_support_sweep_grid(ms, psi, pure).tolist()


def test_product_support_when_every_start_stops_in_round_two(monkeypatch):
    # Tr(c I rho_a (x) rho_b) = c for every start: round 2 gains nothing
    c = np.array([-1.5, 0.0, 0.25, 2.0])
    for da, db in ((2, 3), (2, 2)):
        ms = c[:, None, None] * np.eye(da * db, dtype=complex)
        _, psi, pure = _sweep_input(da, db, len(c), 0)
        got = _top_rounds(monkeypatch, _product_support, ms, psi, pure)
        assert got == _top_rounds(monkeypatch, product_support_sweep_grid, ms, psi, pure)
        assert got == (c.tolist(), 2)


@pytest.mark.parametrize("da, db, n", [(3, 3, 1), (2, 3, 24)])
def test_product_support_at_the_round_cap(da, db, n, monkeypatch):
    ms, psi, pure = _sweep_input(da, db, n, 0)
    got = _top_rounds(monkeypatch, _product_support, ms, psi, pure)
    assert got == _top_rounds(monkeypatch, product_support_sweep_grid, ms, psi, pure)
    assert got[1] == 20


def _contracted_directions(monkeypatch, sweep):
    """Probe depolarizing 1/2 against the identity with ``sweep`` as the
    product-support solver.  Returns the report, the directions and half
    steps of each sweep call, and, for each ``_contract`` call, whether each
    direction it contracts holds a live start."""
    calls, held, tops = [], [], []
    contract, top = entropy._contract, entropy._top

    def counted_contract(op, slot, v, s):
        assert len(slot) == len(v)
        held.append(np.isin(np.arange(len(op)), slot // s))
        return contract(op, slot, v, s)

    def counted_sweep(ms, psi, pure):
        before = len(tops)
        out = sweep(ms, psi, pure)
        calls.append((len(ms), len(tops) - before))
        return out

    with monkeypatch.context() as m:
        m.setattr(entropy, "_product_support", counted_sweep)
        m.setattr(entropy, "_contract", counted_contract)
        m.setattr(entropy, "_top", lambda v, d: tops.append(1) or top(v, d))
        rep = image_additivity_gap(depolarizing_channel(0.5), identity_channel(2),
                                   n_directions=400)
    return rep, calls, held


def test_product_support_contracts_only_live_directions(monkeypatch):
    rep, calls, held = _contracted_directions(monkeypatch, entropy._product_support)
    ref, ref_calls, ref_held = _contracted_directions(monkeypatch, product_support_sweep_grid)
    assert (rep.max_gap, rep.lhs, rep.rhs, rep.certified) == \
        (ref.max_gap, ref.lhs, ref.rhs, ref.certified)
    assert calls == ref_calls and ref_held == []
    assert held and all(h.all() for h in held)
    # the full grid contracts every direction in each of its half steps
    assert 2 * sum(len(h) for h in held) <= sum(n * steps for n, steps in ref_calls)


_SWEEP_SIZES = [(da, db, n) for da, db in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
                for n in (1, 24, 200)]


@pytest.mark.parametrize("da, db, n", _SWEEP_SIZES + [(6, 6, 1), (6, 6, 24)])
def test_product_support_matches_an_eigh_reference(da, db, n):
    # the complex full grid with every top eigenpair from LAPACK: no shared code
    for seed in range(2):
        ms, psi, pure = _sweep_input(da, db, n, seed)
        np.testing.assert_allclose(_product_support(ms, psi, pure),
                                   product_support_full_grid(ms, psi, pure),
                                   rtol=0, atol=1e-12)


def _rows(k, d):
    """The sweep rows ``Tr(K B_k)`` of the matrices ``k`` (``entropy._sweep_basis``)."""
    return (k.reshape(-1, d * d) @ entropy._sweep_basis(d)[0].conj().T).real


def _coords(rho, d):
    """The sweep coordinates ``v`` of the matrices ``rho = sum_k v_k B_k``."""
    return (rho.reshape(-1, d * d) @ entropy._sweep_basis(d)[1].conj().T).real


def _states(v, d):
    """The matrices ``sum_k v_k B_k`` of the sweep coordinates ``v``."""
    return (v @ entropy._sweep_basis(d)[0]).reshape(-1, d, d)


def _matrices(k, d):
    """The matrices ``K`` of the sweep rows ``k_k = Tr(K B_k)``."""
    return (k @ entropy._sweep_basis(d)[1]).reshape(-1, d, d)


def test_sweep_coordinates_of_a_qubit_are_its_bloch_vector():
    basis, dual, _ = entropy._sweep_basis(2)
    pauli = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    assert basis.tolist() == (pauli.reshape(4, 4) / 2).tolist()
    assert dual.tolist() == pauli.reshape(4, 4).tolist()
    rng = np.random.default_rng(2)
    u = random_pure_vectors(rng, 50, 2)
    v = entropy._sweep_outer(u)
    np.testing.assert_allclose(v[:, 0], 1, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v, _coords(outer(u), 2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(_states(v, 2), outer(u), rtol=0, atol=1e-15)
    # the mixed start I/2 is (1, 0, 0, 0) exactly, and I/3 is hvec(I)/3 exactly
    assert entropy._sweep_outer(np.eye(2)).mean(axis=0).tolist() == [1, 0, 0, 0]
    assert entropy._sweep_outer(np.eye(3)).mean(axis=0).tolist() == (hvec(np.eye(3)) / 3).tolist()


def _check_top(k, top, proj):
    """``top`` and ``proj`` are the top eigenpair of each Hermitian 2x2 ``k``,
    with ``proj`` given by its sweep coordinates."""
    proj = _states(proj, 2)
    w = np.linalg.eigvalsh(k)
    scale = np.abs(w).max(axis=1)
    assert np.all(np.abs(top - w[:, -1]) <= 1e-14 * scale)
    residual = k @ proj - top[:, None, None] * proj
    assert np.all(np.linalg.norm(residual, axis=(1, 2)) <= 1e-14 * scale)
    assert np.all(np.linalg.norm(proj @ proj - proj, axis=(1, 2)) <= 1e-14)
    assert np.all(np.abs(np.trace(proj, axis1=1, axis2=2) - 1) <= 1e-14)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_top_solves_2x2_stacks_in_closed_form(scale, monkeypatch):
    rng = np.random.default_rng(int(np.log10(scale)) + 6)
    k = herm(scale * (rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))))
    monkeypatch.setattr(np.linalg, "eigh", None)  # no row is degenerate
    top, proj = entropy._top(_rows(k, 2), 2)
    _check_top(k, top, proj)


def test_top_covers_both_diagonal_orders_and_real_off_diagonals(monkeypatch):
    k = np.array([[[3, 0], [0, 1]], [[1, 0], [0, 3]], [[-1, 0], [0, -2]],
                  [[2, 1e-9], [1e-9, -1]], [[-1, 1e-9j], [-1e-9j, 2]],
                  [[1, 1 - 1j], [1 + 1j, 1.5]], [[1.5, 1 - 1j], [1 + 1j, 1]]], dtype=complex)
    monkeypatch.setattr(np.linalg, "eigh", None)
    top, proj = entropy._top(_rows(k, 2), 2)
    _check_top(k, top, proj)
    # a diagonal matrix: the projector is exact
    assert top[:3].tolist() == [3, 3, -1]
    assert proj[:3].tolist() == [[1, 0, 0, 1], [1, 0, 0, -1], [1, 0, 0, 1]]
    # a tiny transverse Bloch component keeps its relative accuracy: the
    # Bloch vectors are (1e-9, 0, 1.5) / |.| and (0, -1e-9, -1.5) / |.|
    np.testing.assert_allclose([proj[3, 1], proj[4, 2]], [1e-9 / 1.5, -1e-9 / 1.5], rtol=1e-12)


def test_top_sends_degenerate_2x2_rows_to_eigh(monkeypatch):
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    near = u @ np.diag([0.7, 0.7 + 1e-13]) @ np.conj(u.T)
    k = np.concatenate([rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)),
                        [np.zeros((2, 2)), 2.5 * np.eye(2), near]]).astype(complex)
    k = herm(k[[3, 0, 4, 1, 5, 2]])  # degenerate rows mixed in: 0, 2 and 4
    rows = _rows(k, 2)
    k = _matrices(rows, 2)  # the matrices these rows hold exactly
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or eigh(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the closed form never divides by r = 0
        top, proj = entropy._top(rows, 2)
    assert len(seen) == 1
    np.testing.assert_allclose(seen[0], k[[0, 2, 4]], rtol=0, atol=1e-16)
    ref_top, ref_proj = lapack_top(seen[0])
    assert top[[0, 2, 4]].tobytes() == ref_top.tobytes()
    np.testing.assert_allclose(_states(proj[[0, 2, 4]], 2), ref_proj, rtol=0, atol=1e-15)
    _check_top(k[[1, 3, 5]], top[[1, 3, 5]], proj[[1, 3, 5]])


def test_top_keeps_eigh_beyond_2x2(monkeypatch):
    rng = np.random.default_rng(4)
    k = herm(rng.normal(size=(50, 3, 3)) + 1j * rng.normal(size=(50, 3, 3)))
    seen = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or eigh(a))
    top, proj = entropy._top(hvec(k), 3)
    assert len(seen) == 1
    np.testing.assert_allclose(seen[0], k, rtol=0, atol=1e-15)
    ref_top, ref_proj = lapack_top(seen[0])
    assert top.tobytes() == ref_top.tobytes()
    np.testing.assert_allclose(unhvec(proj, 3), ref_proj, rtol=0, atol=1e-15)


def test_qubit_probe_sends_only_scalar_rows_from_top_to_eigh(monkeypatch):
    # From the mixed start I/2, a maximally entangled direction gives the
    # first half step T*(I/2)/2 = I/4 up to roundoff: the one degenerate row
    # per entangled direction (100 here, and at most 1 in the rerun).  Every
    # other row of the sweep is solved in closed form, with no warning.
    rows = []
    eigh = np.linalg.eigh

    def spy(a):
        if sys._getframe(1).f_code is entropy._top.__code__:
            rows.extend(a)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = image_additivity_gap(depolarizing_channel(0.5), identity_channel(2),
                                   n_directions=400)
    assert rep.certified and rep.max_gap == pytest.approx(0.25, abs=1e-6)
    assert 100 <= len(rows) <= 101
    np.testing.assert_allclose(rows, np.broadcast_to(np.eye(2) / 4, (len(rows), 2, 2)),
                               rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("r", [0.36, 0.38])
def test_build_hiding_channel_rejects_the_ball_past_the_insphere(r):
    # the tetrahedron's insphere has Bloch radius 1/3: the input with Bloch
    # vector -(1,1,1)/sqrt(3) leaves through the opposite face by (r - 1/3)
    # in Bloch units, (r - 1/3)/sqrt(2) in Hilbert-Schmidt distance
    states, inner = tetra_states(1.0), depolarizing_channel(r)
    with pytest.raises(ContainmentError) as exc:
        build_hiding_channel(states, inner)
    err = exc.value
    assert err.excess == pytest.approx((r - 1 / 3) / np.sqrt(2), abs=1e-12)
    f, x = err.direction, err.input
    assert np.abs(f - f.conj().T).max() < 1e-15
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    # the witness input's output lies beyond the facet by the excess
    out = inner.apply(np.outer(x, np.conj(x)))
    hull = max(np.trace(f @ s).real for s in states)
    assert np.trace(f @ out).real - hull == pytest.approx(err.excess, abs=1e-12)


def test_min_output_entropy_reports_minimizer():
    res = min_output_entropy(depolarizing_channel(1 / 3), p=2.0)
    rho = np.outer(res.minimizer, np.conj(res.minimizer))
    out = depolarizing_channel(1 / 3).apply(rho)
    assert renyi_entropy(out, 2.0) == pytest.approx(res.value, abs=1e-8)


def test_entropy_additivity_gap_cq_pair():
    rep = entropy_additivity_gap(dephasing_channel(2), depolarizing_channel(1 / 3), p=1.0)
    assert -1e-7 <= rep.gap <= 1e-6


# -- closed forms on certified factors ----------------------------------


def _certified_frames(family):
    """``(channel, vertex states)`` of seeds 0-11 of a fixture family, each
    in 3 Haar output frames."""
    for seed in range(12):
        if family == "assembled":
            t, sig = assembled_polytopic_fixture(seed)[:2]
        else:
            t, _, _, sig = ecq_fixture(seed, complement=2 if family == "ecq_complement2" else None)
        for frame in range(3):
            u = haar_unitary(np.random.default_rng([seed, frame]), t.d_out)
            yield conjugate(t, u), [u @ s @ u.conj().T for s in sig]


_FAMILIES = ["ecq", "ecq_complement2", "assembled"]


@pytest.mark.parametrize("family", _FAMILIES)
def test_certified_probe_has_no_gap_on_any_direction(family, monkeypatch):
    seen = []
    monkeypatch.setattr(entropy, "tensor_dual_apply",  # recording the directions of the probe
                        lambda t1, t2, h: seen.append(h) or tensor_dual_apply(t1, t2, h))
    monkeypatch.setattr(entropy, "tensor", None)  # the probe builds no joint map
    monkeypatch.setattr(entropy, "_product_support", None)  # the theorem route never samples
    for t, sig in _certified_frames(family):
        seen.clear()
        partner = identity_channel(t.d_in)
        rep = image_additivity_gap(t, partner, n_directions=24, seed=0)
        assert rep.max_gap == 0.0 and rep.rhs == rep.lhs
        assert not rep.certified and rep.rhs_bound == "exact"
        # the theorem, direction by direction: the joint support is the
        # product support over the vertex states
        (h,) = seen
        assert len(h) == 24
        lhs = np.linalg.eigvalsh(herm(tensor_dual_apply(t, partner, h)))[:, -1]
        assert np.abs(lhs - vertex_product_support(h, sig, partner)).max() <= 1e-12
        assert rep.lhs == lhs[0]


@pytest.mark.parametrize("family", _FAMILIES)
def test_exact_product_support_bounds_the_sampled_one(family):
    rng = np.random.default_rng(7)
    for t, sig in _certified_frames(family):
        partner = identity_channel(t.d_in)
        h = random_directions(rng, 12, t.d_out * t.d_in)
        ms = herm(tensor(t, partner).dual_apply(h))
        psi = np.linalg.eigh(ms)[1][:, :, -1]
        sampled = _product_support(ms, psi, random_pure_vectors(rng, (12, 6), t.d_in))
        assert np.all(vertex_product_support(h, sig, partner) >= sampled - 1e-12)


@pytest.mark.parametrize("family", _FAMILIES)
def test_exact_entropy_is_the_smallest_vertex_entropy(family):
    for t, sig in _certified_frames(family):
        for p in (1.0, 2.0):
            res = min_output_entropy(t, p=p)
            assert res.bound == "exact" and res.converged and res.n_starts == 0
            assert res.value == pytest.approx(min(renyi_entropy(s, p) for s in sig), abs=1e-12)
            assert renyi_entropy(t.apply(np.outer(res.minimizer, res.minimizer.conj())), p) == \
                pytest.approx(res.value, abs=1e-9)
            iterated = entropy._minimize_entropy(t, p, 0, 8)
            assert iterated.bound == "upper" and iterated.value >= res.value - 1e-9


def test_frame_4_ecq_channel_has_no_gap_against_the_identity():
    # the eCQ 5 -> 2 channel on which the sampled product support once stuck
    # and reported a certified gap of 4.97e-3
    t = load_channel(str(Path(__file__).parent / "data" / "ecq_frame4.json"))
    rep = image_additivity_gap(t, identity_channel(5), n_directions=24, seed=0)
    assert abs(rep.max_gap) <= 1e-12
    assert not rep.certified and rep.rhs_bound == "exact"


def test_swapped_certified_factor_gives_the_exact_product_support():
    t, _, _, sig = ecq_fixture(1)
    s = random_cptp(np.random.default_rng(3), 2, t.d_out)
    for first, second in ((t, s), (s, t)):
        rep = image_additivity_gap(first, second, n_directions=40, seed=2)
        assert rep.max_gap == 0.0 and rep.rhs == rep.lhs
        assert not rep.certified and rep.rhs_bound == "exact"
    # the witness of the certificate on the second factor, with its tensor
    # factors swapped: the product support from the vertex states is lhs
    n1, n2 = s.d_out, t.d_out
    h = rep.direction.reshape(n1, n2, n1, n2).transpose(1, 0, 3, 2).reshape(n1 * n2, -1)
    assert vertex_product_support(h[None], sig, s)[0] == pytest.approx(rep.lhs, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_ecq_factor_is_additive_without_a_tensor_product(p, monkeypatch):
    t = ecq_fixture(4, complement=2)[0]
    s = random_cptp(np.random.default_rng(11), 2, 2)
    calls = []
    monkeypatch.setattr(entropy, "tensor", lambda *a: calls.append(a) or tensor(*a))
    upper = entropy._minimize_entropy(s, p, 0, 64).value
    for first, second in ((t, s), (s, t)):
        rep = entropy_additivity_gap(first, second, p=p)
        assert rep.gap == 0.0
        assert rep.joint.value == rep.single_first.value + rep.single_second.value
        # the random qubit partner is exact from its Bloch ball, so the joint is too
        assert rep.joint.bound == "exact" and rep.joint.n_starts == 0
        qubit = rep.single_first if first is s else rep.single_second
        assert qubit.value == pytest.approx(_bloch_radius_entropy(qubit.output_state, p),
                                            abs=1e-12)
        assert qubit.value <= upper + 1e-12
        np.testing.assert_array_equal(rep.joint.minimizer,
                                      np.kron(rep.single_first.minimizer,
                                              rep.single_second.minimizer))
    assert calls == []
    both = entropy_additivity_gap(t, t, p=p)
    assert both.gap == 0.0 and both.joint.bound == "exact"


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_product_grad_norm_matches_the_joint_gradient(p):
    rng = np.random.default_rng(int(4 * p))
    t1, t2 = random_cptp(rng, 2, 3), random_cptp(rng, 3, 2)
    x1, x2 = random_pure(rng, 2), random_pure(rng, 3)
    g1, g2 = entropy._at_input(t1, x1, p)[1], entropy._at_input(t2, x2, p)[1]
    joint = entropy._at_input(tensor(t1, t2), np.kron(x1, x2), p)[1]
    assert entropy._product_grad_norm(g1, g2, p) == pytest.approx(joint, rel=1e-12)


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_half_step_matches_the_einsum_contraction(da, db):
    # R y and R^T x in sweep coordinates against Tr_b[m (I (x) rho_b)] and
    # Tr_a[m (rho_a (x) I)] on matrices
    rng = np.random.default_rng([da, db])
    ms = random_directions(rng, 30, da * db)
    m4 = ms.reshape(30, da, db, da, db)
    rho_a = herm(random_directions(rng, (30, 5), da))
    rho_b = herm(random_directions(rng, (30, 5), db))
    coords = entropy._coordinates(ms, da, db)
    assert coords.dtype == float
    slot = np.arange(150)
    to_a = entropy._contract(coords.transpose(0, 2, 1), slot, _coords(rho_b, db), 5)
    to_b = entropy._contract(coords, slot, _coords(rho_a, da), 5)
    ref_a = _rows(np.einsum("najbl,nslj->nsab", m4, rho_b), da)
    ref_b = _rows(np.einsum("najbl,nsba->nsjl", m4, rho_a), db)
    np.testing.assert_allclose(to_a, ref_a, rtol=0, atol=1e-13)
    np.testing.assert_allclose(to_b, ref_b, rtol=0, atol=1e-13)
    # with every slot held the rows skip the scatter, bit for bit: one more
    # direction, with no start held, sends the same rows through it
    extra = np.concatenate([coords, coords[:1]])
    assert entropy._contract(extra, slot, _coords(rho_a, da), 5).tobytes() == to_b.tobytes()
    # rows held at a subset of the slots come back as in the full grid
    held = np.sort(rng.choice(150, size=40, replace=False))
    assert entropy._contract(coords, held, _coords(rho_a, da)[held], 5).tolist() == \
        to_b[held].tolist()


# -- the Bloch-ball closed form of qubit-to-qubit maps -------------------


@pytest.mark.parametrize("r", [0.0, 0.2, 1 / 3, 0.5, 1.0])
def test_depolarizing_entropy_is_the_closed_form(r):
    # b = 0 and A^T A = r^2 I: the hard case on the whole sphere
    t = depolarizing_channel(r)
    assert vertex_certificate(t) is None or r == 0.0
    for p, want in ((1.0, _radius_entropy(r, 1.0)), (2.0, -np.log((1 + r * r) / 2))):
        _assert_closed_form(t, want, p)
        _assert_closed_form(_rotated(t, np.random.default_rng(int(10 * r))), want, p)


@pytest.mark.parametrize("lams", [(0.6, -0.6, -0.2), (0.5, 0.5, 0.5)])
def test_pauli_map_with_a_repeated_top_is_the_closed_form(lams):
    # (0.6, -0.6, -0.2) is (0.6, 0.6, 0.2) after a pi rotation about x, on the
    # complete-positivity boundary; (0.6, -0.6, +0.2) is not CP
    r = max(abs(x) for x in lams)
    for p in (1.0, 2.0):
        _assert_closed_form(unital_qubit_diag(lams), _radius_entropy(r, p), p)


def test_shift_orthogonal_to_the_top_direction_is_the_closed_form():
    # amplitude damping 1/2, then the Pauli map (0.6, 0.6, 0.2): A = diag(a, a,
    # 0.1) with a^2 = 0.18 and b = (0, 0, 0.1), so c = A^T b is orthogonal to
    # the top eigenspace, and |A x + b|^2 = 0.19 - 0.17 z^2 + 0.02 z peaks at
    # z = 1/17, off the top eigenspace
    t = compose(amplitude_damping(0.5), unital_qubit_diag((0.6, 0.6, 0.2)))
    r = np.sqrt(0.19 + 0.02 ** 2 / (4 * 0.17))
    for p in (1.0, 2.0):
        res = _assert_closed_form(t, _radius_entropy(r, p), p)
        z = np.vdot(res.minimizer, np.diag([1, -1]) @ res.minimizer).real
        assert z == pytest.approx(1 / 17, abs=1e-12)
        _assert_closed_form(_rotated(t, np.random.default_rng(3)), _radius_entropy(r, p), p)


@pytest.mark.parametrize("gamma", [0.0, 1e-9, 0.3, 1.0])
def test_amplitude_damping_entropy_is_exactly_zero(gamma):
    for p in (1.0, 2.0):
        res = min_output_entropy(amplitude_damping(gamma), p=p)
        assert res.value == 0.0 and np.copysign(1.0, res.value) == 1.0
        assert res.bound == "exact" and res.n_starts == 0


def test_qubit_closed_form_rows_do_not_depend_on_blas_threads():
    # the report fields of each row, byte for byte, in Haar frames
    code = (
        "import numpy as np\n"
        "from conftest import amplitude_damping, haar_unitary, random_cptp\n"
        "from chan_atlas.channels import compose, conjugate, depolarizing_channel, kraus_channel\n"
        "from chan_atlas.entropy import min_output_entropy\n"
        "rng = np.random.default_rng(5)\n"
        "for t in (amplitude_damping(0.3), depolarizing_channel(0.5), random_cptp(rng, 2, 2)):\n"
        "    t = conjugate(compose(kraus_channel([haar_unitary(rng, 2)]), t),\n"
        "                  haar_unitary(rng, 2))\n"
        "    for p in (1.0, 2.0):\n"
        "        r = min_output_entropy(t, p=p)\n"
        "        print(repr(r.value), repr(r.grad_norm), r.bound)\n"
    )
    one, two = blas_thread_outputs(code)
    assert one == two and one.count("exact") == 6


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_uncertified_qubit_pair_still_runs_the_joint_minimizer(p, monkeypatch):
    # both single values are exact, but neither factor has a vertex
    # certificate, so nothing proves the pair additive
    t, s = amplitude_damping(0.3), random_cptp(np.random.default_rng(7), 2, 2)
    assert vertex_certificate(t) is None and vertex_certificate(s) is None
    calls, runs = [], []
    monkeypatch.setattr(entropy, "tensor", lambda *a: calls.append(a) or tensor(*a))
    inner = entropy._minimize_entropy
    monkeypatch.setattr(entropy, "_minimize_entropy", lambda *a: runs.append(a) or inner(*a))
    rep = entropy_additivity_gap(t, s, p=p)
    assert rep.single_first.bound == rep.single_second.bound == "exact"
    assert len(calls) == 1 and len(runs) == 1 and runs[0][0].d_in == 4
    assert rep.joint.bound == "upper" and rep.joint.n_starts > 0
    assert rep.gap == pytest.approx(0.0, abs=1e-9)


def _joint_runs(monkeypatch):
    """Record every tensor product and every joint minimizer run."""
    calls, runs = [], []
    monkeypatch.setattr(entropy, "tensor", lambda *a: calls.append(a) or tensor(*a))
    inner = entropy._minimize_entropy
    monkeypatch.setattr(entropy, "_minimize_entropy", lambda *a: runs.append(a) or inner(*a))
    return calls, runs


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_unital_qubit_pair_is_additive_without_a_tensor_product(p, monkeypatch):
    # King's theorem keys the pair; both single rows come from the Bloch
    # ball, so the joint row is exact and the gap exactly 0
    t = depolarizing_channel(1 / 3)
    assert vertex_certificate(t) is None
    calls, runs = _joint_runs(monkeypatch)
    rep = entropy_additivity_gap(t, t, p=p)
    assert calls == [] and runs == []
    assert rep.gap == 0.0 and rep.joint.bound == "exact" and rep.joint.n_starts == 0
    h = H1_DEPOL_THIRD if p == 1.0 else H2_DEPOL_THIRD
    assert rep.joint.value == pytest.approx(2 * h, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_nearly_unital_qubit_pair_still_runs_the_joint_minimizer(p, monkeypatch):
    # (1 - delta) depolarizing(1/3) + delta amplitude_damping(0.3): a Bloch
    # shift of 3e-13, outside the roundoff band, proves nothing
    delta = 1e-12
    ops = kraus_operators(depolarizing_channel(1 / 3))
    t = kraus_channel([np.sqrt(1 - delta) * k for k in ops]
                      + [np.sqrt(delta) * k for k in kraus_operators(amplitude_damping(0.3))])
    shift = np.linalg.norm(bloch_map(t).shift)
    assert entropy._UNITAL_BAND < shift < 1e-12 and vertex_certificate(t) is None
    calls, runs = _joint_runs(monkeypatch)
    rep = entropy_additivity_gap(t, t, p=p)
    assert len(calls) == 1 and len(runs) == 1 and runs[0][0].d_in == 4
    assert rep.joint.bound == "upper" and rep.joint.n_starts > 0
    assert rep.gap == pytest.approx(0.0, abs=1e-9)


def test_unital_qutrit_pair_still_runs_the_joint_minimizer(monkeypatch):
    # the d = 3 Werner-Holevo map (Tr(rho) I - rho^T) / 2 is unital, but it
    # breaks multiplicativity for p > 4.79, so unitality keys qubits only
    e = np.eye(3)
    t = kraus_channel([(np.outer(e[i], e[j]) - np.outer(e[j], e[i])).astype(complex) / np.sqrt(2)
                       for i in range(3) for j in range(i + 1, 3)])
    assert vertex_certificate(t) is None
    calls, runs = _joint_runs(monkeypatch)
    rep = entropy_additivity_gap(t, t, p=1.0)
    assert len(calls) == 1 and len(runs) == 3 and runs[-1][0].d_in == 9
    assert rep.joint.bound == "upper" and rep.joint.n_starts > 0
    assert rep.single_first.value == pytest.approx(LOG2, abs=1e-9)
    assert rep.gap == pytest.approx(0.0, abs=1e-9)


def disc_counterexample():
    """The paper's CQ square (Bloch radius 0.8) (+) the Pauli (0.5, 0.5, 0) disc."""
    square = [bloch_state(0.8, 0, 0), bloch_state(-0.8, 0, 0),
              bloch_state(0, 0.8, 0), bloch_state(0, -0.8, 0)]
    return direct_sum(cq_channel(np.eye(4, dtype=complex), square),
                      unital_qubit_diag((0.5, 0.5, 0.0)))


# the blocks, and the minimal entropies at p = 1 and 2: a vertex of Bloch
# radius 0.8, and the pure outputs of dephasing(2)
DIRECT_SUMS = {
    "disc": (disc_counterexample, [1, 1, 1, 1, 2],
             (-0.9 * np.log(0.9) - 0.1 * np.log(0.1), -np.log(0.82))),
    "dephasing_depolarizing": (lambda: direct_sum(dephasing_channel(2), depolarizing_channel(0.2)),
                               [1, 1, 2], (0.0, 0.0)),
}


def _input_frame(t, seed):
    """``rho -> T(U rho U*)`` for a Haar unitary ``U``."""
    return compose(kraus_channel([haar_unitary(np.random.default_rng(seed), t.d_in)]), t)


@pytest.mark.parametrize("name", DIRECT_SUMS)
@pytest.mark.parametrize("frame", range(4))
def test_direct_sum_entropy_is_exact_per_block_in_any_input_frame(name, frame):
    make, sizes, values = DIRECT_SUMS[name]
    t = _input_frame(make(), frame)
    assert vertex_certificate(t) is None  # neither map is CQ or eCQ
    assert sorted(v.shape[1] for v in input_blocks(t)) == sorted(sizes)
    for p, want in zip((1.0, 2.0), values):
        r = min_output_entropy(t, p=p)
        assert r.bound == "exact" and r.n_starts == 0 and r.converged
        assert r.value == pytest.approx(want, abs=1e-12)
        # the minimizer is an input of t, and its output is the minimizing state
        np.testing.assert_allclose(t.apply(np.outer(r.minimizer, r.minimizer.conj())),
                                   r.output_state, atol=1e-12)
    # every block is EB, so the map is, where the whole-map test stays open
    v = is_entanglement_breaking(t)
    assert v.status == YES and [b.status for b in v.witness["blocks"]] == [YES]


@pytest.mark.parametrize("frame", range(4))
def test_disc_counterexample_probe_needs_no_sweep_in_any_input_frame(frame, monkeypatch):
    # at the report's seed 0 every direction is settled by an exact 1-dim
    # block: the qubit block's lambda_max never exceeds it, so no product
    # support sweep runs and no rerun either (the whole map's 8-start sweep
    # fell short and relied on its rerun)
    calls = []
    run = entropy._product_support
    monkeypatch.setattr(entropy, "_product_support",
                        lambda ms, psi, pure: calls.append(len(ms)) or run(ms, psi, pure))
    t = _input_frame(disc_counterexample(), frame)
    rep = image_additivity_gap(t, identity_channel(6), n_directions=24, seed=0)
    assert rep.max_gap == 0.0 and not rep.certified and rep.rhs_bound == "lower"
    assert calls == []


def test_exact_block_pairs_share_one_eigvalsh_per_shape(monkeypatch):
    # the disc's four 1-dim blocks against id(6) are four pairs of 6 x 6
    # compressions: one stacked eigvalsh for all, bit-identical to one per pair
    t, s = _input_frame(disc_counterexample(), 1), identity_channel(6)
    rng = np.random.default_rng(2)
    ms = herm(tensor_dual_apply(t, s, random_directions(rng, 24, 12)))
    blocks = input_blocks(t)
    ones = [v for v in blocks if v.shape[1] == 1]
    assert len(ones) == 4
    want = np.max([np.linalg.eigvalsh(herm(c.conj().T @ ms @ c))[:, -1]
                   for c in (np.kron(v, np.eye(6)) for v in ones)], axis=0)
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    lhs, rhs, exact, sweeps = entropy._block_supports(ms, blocks, input_blocks(s), rng)
    assert shapes == [(4, 24, 6, 6)]
    assert np.array_equal(exact, want)
    assert np.array_equal(lhs, np.maximum(want, sweeps[0][1])) and len(sweeps) == 1


def test_disc_counterexample_gap_against_the_identity_is_real():
    # at seed 1 one direction separates the disc block (x) id from every
    # product input: the gap is certified, and a fine grid over the qubit
    # block's pure inputs (a convex function peaks on them) finds no product
    # value above rhs, which the 1-dim blocks give exactly
    t = disc_counterexample()
    rep = image_additivity_gap(t, identity_channel(6), n_directions=24, seed=1)
    assert rep.certified and rep.max_gap > 5e-3
    m = herm(tensor_dual_apply(t, identity_channel(6), rep.direction[None]))[0]
    m = m.reshape(6, 6, 6, 6)
    theta, phi = np.meshgrid(np.linspace(0, np.pi, 200), np.linspace(0, 2 * np.pi, 400))
    a = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], -1).reshape(-1, 2)
    qubit = np.einsum("ni,iajb,nj->nab", a.conj(), m[4:, :, 4:], a)  # the disc block's rows
    ones = [np.linalg.eigvalsh(m[i, :, i])[-1] for i in range(4)]
    assert max(ones) == pytest.approx(rep.rhs, abs=1e-12)
    assert np.linalg.eigvalsh(qubit)[:, -1].max() < rep.rhs
