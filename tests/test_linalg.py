import tracemalloc

import numpy as np
import pytest

from conftest import (
    matrix_units,
    null_space,
    random_density,
    random_direction,
    random_hermitian,
    random_pure,
    subspace_distance,
    trace_norm,
)

from chan_atlas.linalg import (
    canonical_phase,
    check_density_matrix,
    check_povm,
    dag,
    herm,
    hvec,
    is_hermitian,
    op_norm,
    orthogonal_complement,
    partial_trace,
    partial_transpose,
    random_directions,
    random_pure_vectors,
    subspace_projector,
    unhvec,
    unvec,
    vec,
)


def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(vec(a), [1, 2, 3, 4])
    np.testing.assert_array_equal(unvec(vec(a), 2), a)


def test_unvec_rectangular():
    v = np.arange(6, dtype=complex)
    m = unvec(v, 2, 3)
    assert m.shape == (2, 3)
    np.testing.assert_array_equal(m[1], [3, 4, 5])


def test_norms():
    a = np.diag([1.0, -2.0])
    assert trace_norm(a) == pytest.approx(3.0)
    assert op_norm(a) == pytest.approx(2.0)


def test_herm_projects_onto_hermitian_part():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = herm(g)
    assert is_hermitian(h)
    np.testing.assert_allclose(h, (g + dag(g)) / 2)


def test_hvec_preserves_hs_inner_product():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    va, vb = hvec(a), hvec(b)
    assert va.dtype.kind == "f"
    np.testing.assert_allclose(va @ vb, np.trace(a @ b).real, atol=1e-12)
    np.testing.assert_allclose(unhvec(va, 4), a, atol=1e-12)


def test_partial_trace_on_products():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    x = np.kron(a, b)
    np.testing.assert_allclose(partial_trace(x, (2, 3), keep=0), a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(x, (2, 3), keep=1), b, atol=1e-12)


def test_partial_transpose_flags_the_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    w = np.linalg.eigvalsh(partial_transpose(rho, (2, 2), which=1))
    assert w[0] == pytest.approx(-0.5, abs=1e-12)
    # PT on a product state stays PSD
    rng = np.random.default_rng(4)
    prod = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert np.linalg.eigvalsh(partial_transpose(prod, (2, 2), which=0))[0] > -1e-12


def test_matrix_units():
    units = list(matrix_units(2))
    assert len(units) == 4
    assert units[1][0] == (0, 1)
    np.testing.assert_array_equal(units[1][1], [[0, 1], [0, 0]])


def test_random_helpers_are_seeded_and_normalized():
    r1 = random_density(np.random.default_rng(7), 3)
    r2 = random_density(np.random.default_rng(7), 3)
    np.testing.assert_array_equal(r1, r2)
    assert np.trace(r1).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(r1)[0] > -1e-12
    v = random_pure(np.random.default_rng(8), 4)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    h = random_direction(np.random.default_rng(9), 3)
    assert is_hermitian(h)
    assert np.linalg.norm(h) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
@pytest.mark.parametrize("shape", [(5,), (4, 3)])
def test_stacked_draws_repeat_successive_single_draws(d, shape):
    # seeded report bytes depend on this order, bit for bit
    n = int(np.prod(shape))
    stacked, single = np.random.default_rng(d), np.random.default_rng(d)
    hs = random_directions(stacked, shape, d)
    assert hs.shape == (*shape, d, d)
    assert np.array_equal(hs.reshape(n, d, d), [random_direction(single, d) for _ in range(n)])
    xs = random_pure_vectors(stacked, shape, d)
    assert xs.shape == (*shape, d)
    assert np.array_equal(xs.reshape(n, d), [random_pure(single, d) for _ in range(n)])
    assert stacked.normal() == single.normal()


def test_stacked_coordinates_and_phases_match_per_item_calls():
    rng = np.random.default_rng(12)
    d = 3
    hs = random_directions(rng, (2, 3), d)
    coords = hvec(hs)
    assert coords.shape == (2, 3, d * d)
    assert np.array_equal(coords, [[hvec(h) for h in row] for row in hs])
    back = unhvec(coords, d)
    assert np.array_equal(back, [[unhvec(c, d) for c in row] for row in coords])
    np.testing.assert_allclose(back, hs, rtol=1e-15, atol=0)
    vs = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
    vs[1, 2, 0] = 0.0  # a zero vector keeps its phase
    fixed = canonical_phase(vs)
    assert np.array_equal(fixed, [[[canonical_phase(v) for v in m] for m in row] for row in vs])
    assert np.array_equal(fixed[1, 2, 0], np.zeros(d))


def test_canonical_phase_fixes_global_phase():
    rng = np.random.default_rng(11)
    v = random_pure(rng, 3)
    w = np.exp(0.7j) * v
    np.testing.assert_allclose(canonical_phase(v), canonical_phase(w), atol=1e-12)


def test_subspace_helpers():
    b = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    p = subspace_projector(b)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    comp = orthogonal_complement(b, 3)
    assert comp.shape == (3, 1)
    assert abs(comp[2, 0]) == pytest.approx(1.0)
    assert subspace_distance(b, b[:, ::-1]) < 1e-12


def test_null_space_relative_threshold():
    a = np.diag([1.0, 1e-3, 1e-12])
    ns = null_space(a, rtol=1e-8)
    assert ns.shape == (3, 1)
    np.testing.assert_allclose(np.abs(ns[:, 0]), [0, 0, 1], atol=1e-9)
    # a wide matrix keeps its full row space complement
    assert null_space(np.ones((1, 3))).shape == (3, 2)
    # a tall one builds no square left basis (2000 x 2000 doubles are 32 MB)
    tall = np.random.default_rng(0).normal(size=(2000, 4))
    tall[:, 3] = tall[:, 0] - tall[:, 1]
    tracemalloc.start()
    ns = null_space(tall)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert ns.shape == (4, 1)
    np.testing.assert_allclose(np.abs(ns[:, 0]), np.array([1, 1, 0, 1]) / np.sqrt(3), atol=1e-9)
    assert peak < 1 << 20


def test_check_density_matrix_raises():
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(2 * np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        check_density_matrix(np.diag([1.5, -0.5]))


def test_check_povm():
    eye = np.eye(2, dtype=complex)
    check_povm([eye / 2, eye / 2])
    with pytest.raises(ValueError):
        check_povm([eye, eye])
