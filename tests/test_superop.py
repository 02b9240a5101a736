import numpy as np
import pytest
from numpy.testing import assert_allclose

from lioueps.dynamics import propagate_expm
from lioueps.errors import HermiticityError, SpectralError
from lioueps.ops_core import HilbertSpace, Operator, build_qubit_ops, hs_inner
from lioueps.spectral import liouvillian_eigensystem
from lioueps.superop import (
    LindbladModel,
    SuperOp,
    apply_liouvillian,
    assemble_liouvillian,
    assemble_liouvillian_no_jumps,
    devectorize,
    dissipator_superop,
    effective_hamiltonian,
    is_trace_preserving,
    jump_superop,
    kraus_step,
    left_action,
    right_action,
    trace_row,
    vectorize,
)
from lioueps.models import (
    dephasing,
    dephasing_closed_form,
    example1,
    example2,
    example3,
    family_names,
    get_family,
)
from conftest import assert_multiset_close, random_lindblad_model

Q = build_qubit_ops()
SPACE = Q["identity"].space


def test_vectorize_row_major():
    a = Operator(SPACE, [[1, 2], [3, 4]])
    assert_allclose(vectorize(a), [1, 2, 3, 4])
    # |m><n| sits at flat index m*D + n: the lowering operator |g><e|
    # occupies slot 1, the raising operator |e><g| slot 2
    assert_allclose(vectorize(Q["sigma_minus"]), [0, 1, 0, 0])
    assert_allclose(vectorize(Q["sigma_plus"]), [0, 0, 1, 0])


def test_devectorize_round_trip_and_errors(rng):
    a = Operator(SPACE, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    back = devectorize(vectorize(a), SPACE)
    assert_allclose(back.matrix, a.matrix)
    with pytest.raises(ValueError, match="square"):
        devectorize(np.zeros(3))


def test_vectorization_isometry(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 17))
        space = HilbertSpace((dim,))
        a = Operator(space, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        b = Operator(space, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vec_ip = np.vdot(vectorize(a), vectorize(b))
        assert abs(hs_inner(a, b) - vec_ip) <= 1e-14 * abs(vec_ip)


def test_left_right_action():
    assert_allclose(left_action(Q["identity"]).matrix, np.eye(4), atol=1e-15)
    # right_action(sigma_x) on vec(sigma_+) gives vec(sigma_+ sigma_x)
    out = right_action(Q["sigma_x"]).matrix @ vectorize(Q["sigma_plus"])
    assert_allclose(out, vectorize(Q["sigma_plus"] @ Q["sigma_x"]), atol=1e-15)
    lo = left_action(Q["sigma_y"]).matrix
    ro = right_action(Q["sigma_plus"]).matrix
    assert_allclose(lo @ ro, ro @ lo, atol=1e-15)


def test_left_right_action_reproduce_products(rng):
    for _ in range(10):
        o = Operator(SPACE, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        a = Operator(SPACE, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        left = devectorize(left_action(o).matrix @ vectorize(a), SPACE)
        assert np.abs(left.matrix - (o @ a).matrix).max() <= 1e-13
        right = devectorize(right_action(o).matrix @ vectorize(a), SPACE)
        assert np.abs(right.matrix - (a @ o).matrix).max() <= 1e-13


def test_dissipator_examples():
    zero = dissipator_superop(Operator(SPACE, np.zeros((2, 2))))
    assert_allclose(zero.matrix, np.zeros((4, 4)))
    # decay channel moves the excited population down
    ee = Operator(SPACE, np.diag([0.0, 1.0]))
    out = devectorize(dissipator_superop(Q["sigma_minus"]).matrix @ vectorize(ee), SPACE)
    assert_allclose(out.matrix, np.diag([1.0, -1.0]), atol=1e-14)
    # sigma_x channel flips sigma_z twice over
    out_z = devectorize(dissipator_superop(Q["sigma_x"]).matrix @ vectorize(Q["sigma_z"]), SPACE)
    assert_allclose(out_z.matrix, -2 * Q["sigma_z"].matrix, atol=1e-14)


def test_jump_superop_examples():
    jump = jump_superop(Q["sigma_minus"]).matrix
    ee, gg = np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
    assert_allclose(devectorize(jump @ ee.reshape(-1)), gg, atol=1e-15)
    assert_allclose(devectorize(jump @ gg.reshape(-1)), np.zeros((2, 2)), atol=1e-15)
    # dissipator minus jump leaves the pure anticommutator part
    g = Operator(SPACE, np.array([[0.3, 1.2j], [0.7, -0.4]]))
    gdg = g.matrix.conj().T @ g.matrix
    expected = -0.5 * (np.kron(gdg, np.eye(2)) + np.kron(np.eye(2), gdg.T))
    assert_allclose(dissipator_superop(g).matrix - jump_superop(g).matrix,
                    expected, atol=1e-15)


def test_liouvillian_commutator_spectrum():
    h = Operator(SPACE, 0.5 * 1.3 * Q["sigma_z"].matrix)
    liou = assemble_liouvillian(LindbladModel(h))
    vals = np.sort_complex(np.linalg.eigvals(liou.matrix))
    assert_allclose(np.sort(vals.imag), [-1.3, 0, 0, 1.3], atol=1e-12)
    assert_allclose(vals.real, np.zeros(4), atol=1e-12)


def test_liouvillian_dephasing_block_eigenvalues():
    model = dephasing(1.0, 1.0, 4)
    vals = np.linalg.eigvals(assemble_liouvillian(model).matrix)
    expected = dephasing_closed_form(1.0, 1.0, 4)["lambdas"].reshape(-1)
    assert_multiset_close(vals, expected, 1e-10)
    # (m, n) = (2, 0) slot
    assert np.min(np.abs(vals - (-2j - 2))) <= 1e-10


def test_liouvillian_example2_eigenvalues():
    vals = np.linalg.eigvals(assemble_liouvillian(example2(1.0, 1.0)).matrix)
    expected = np.array([0.0, -0.5, -0.75 + 1j * np.sqrt(15) / 4,
                         -0.75 - 1j * np.sqrt(15) / 4])
    assert_multiset_close(vals, expected, 1e-12)


def test_trace_preservation_row():
    for model in (example1(1.0, 0.3, 0.8, 2.0), example2(1.0, 2.5),
                  example3(1.0, 0.2, 1.0, 0.5, 3), dephasing(1.0, 0.7, 4)):
        liou = assemble_liouvillian(model)
        assert np.abs(trace_row(liou)).max() <= 1e-12 * max(np.abs(liou.matrix).max(), 1)


def test_no_jump_split_identity():
    models = [get_family(name).build() for name in family_names()]
    models += [example1(1.0, 0.4, 1.1, 2.0), example2(1.0, 3.0),
               example3(1.0, 0.15, 1.0, 0.5, 3), dephasing(1.0, 1.2, 4)]
    for model in models:
        full = assemble_liouvillian(model).matrix
        no_jump = assemble_liouvillian_no_jumps(model).matrix
        # L = L' + sum J holds bitwise: one assembly, same summation order
        total = no_jump.copy()
        for g in model.folded_jump_matrices():
            total += jump_superop(Operator(model.space, g)).matrix
        assert np.array_equal(full, total)
        # L' = -i(H_eff kron 1 - 1 kron H_eff^*), to the last bit
        heff = effective_hamiltonian(model).matrix
        eye = np.eye(model.dim)
        assert np.array_equal(no_jump, -1j * (np.kron(heff, eye) - np.kron(eye, heff.conj())))
        # the no-jump generator loses trace as soon as any channel is open
        assert np.abs(trace_row(assemble_liouvillian_no_jumps(model))).max() > 1e-6


def test_one_trace_preservation_predicate():
    model = example2(1.0, 1.0)
    liou = assemble_liouvillian(model)
    assert is_trace_preserving(liou)
    assert not is_trace_preserving(assemble_liouvillian_no_jumps(model))
    # a trace row of 1e-11 |L|_F: u has vec(1)^dag u = 1, v is a unit row
    c = 1e-11 * np.linalg.norm(liou.matrix)
    u = vectorize(np.eye(2)) / 2
    v = vectorize(np.diag([0.0, 1.0]))
    bent = SuperOp(model.space, liou.matrix + c * np.outer(u, v))
    assert np.linalg.norm(trace_row(bent)) == pytest.approx(c, rel=1e-3)
    assert not is_trace_preserving(bent)
    with pytest.raises(SpectralError, match="trace row"):
        liouvillian_eigensystem(bent)
    # propagate_expm does not hold the drifting trace to a density track
    rho0 = Operator(model.space, np.diag([0.0, 1.0]))
    prop = propagate_expm(bent, rho0, np.linspace(0.0, 100.0, 5))
    assert np.abs(prop.traces() - 1).max() > 1e-10


def test_no_jumps_means_no_difference():
    h = Operator(SPACE, Q["sigma_x"].matrix)
    model = LindbladModel(h)
    assert_allclose(assemble_liouvillian(model).matrix,
                    assemble_liouvillian_no_jumps(model).matrix, atol=1e-15)


def test_effective_hamiltonian_closed_forms():
    heff = effective_hamiltonian(example2(1.0, 0.8))
    expected = 0.5 * Q["sigma_x"].matrix - 0.5j * 0.8 * np.diag([0.0, 1.0])
    assert_allclose(heff.matrix, expected, atol=1e-15)
    model = example3(1.0, 0.2, 1.0, 0.5, 3)
    heff3 = effective_hamiltonian(model).matrix
    na = np.kron(np.diag([0, 1, 2.0]), np.eye(3))
    nb = np.kron(np.eye(3), np.diag([0, 1, 2.0]))
    shift = -0.5j * (1.0 * na + 0.5 * nb)
    assert_allclose(heff3 - model.H.matrix, shift, atol=1e-14)
    h_only = LindbladModel(Operator(SPACE, Q["sigma_z"].matrix))
    assert_allclose(effective_hamiltonian(h_only).matrix, Q["sigma_z"].matrix)


def test_adjoint_matrix_is_conjugate_transpose():
    # the adjoint generator built from the (A . B)^dag = A^dag . B^dag rules
    # must coincide with the conjugate transpose of the generator matrix
    for model in (example1(1.0, 0.2, 0.9, 2.0), example2(1.0, 1.7),
                  example3(1.0, 0.11, 1.0, 0.5, 3), dephasing(1.0, 0.9, 4)):
        d = model.dim
        eye = np.eye(d)
        h = model.H.matrix
        adj = 1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for g in model.folded_jump_matrices():
            gdg = g.conj().T @ g
            adj += (np.kron(g.conj().T, g.T)
                    - 0.5 * np.kron(gdg, eye) - 0.5 * np.kron(eye, gdg.T))
        liou = assemble_liouvillian(model).matrix
        assert np.abs(adj - liou.conj().T).max() <= 1e-13 * np.abs(liou).max()


def test_hermiticity_preservation(rng):
    for _ in range(10):
        model = random_lindblad_model(rng, max_dim=4)
        liou = assemble_liouvillian(model)
        d = model.dim
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = Operator(model.space, 0.5 * (m + m.conj().T))
        out = devectorize(liou.matrix @ vectorize(rho), model.space).matrix
        assert np.abs(out - out.conj().T).max() <= 1e-12 * max(np.abs(out).max(), 1.0)


def test_apply_liouvillian_matches_matrix_route(rng):
    for _ in range(10):
        model = random_lindblad_model(rng, max_dim=5)
        liou = assemble_liouvillian(model)
        d = model.dim
        rho = Operator(model.space,
                       rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        direct = apply_liouvillian(model, rho).matrix
        via_matrix = devectorize(liou.matrix @ vectorize(rho), model.space).matrix
        assert np.abs(direct - via_matrix).max() <= 1e-12 * max(np.abs(direct).max(), 1.0)


def test_model_validation():
    with pytest.raises(HermiticityError):
        LindbladModel(Operator(SPACE, [[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match=">= 0"):
        LindbladModel(Operator(SPACE, Q["sigma_z"].matrix), ((-0.1, Q["sigma_minus"]),))


class TestKrausStep:
    def setup_method(self):
        self.model = example2(1.0, 1.0)
        self.liou = assemble_liouvillian(self.model)
        self.rho0 = Operator(SPACE, np.diag([0.0, 1.0]))

    def euler(self, tau):
        return self.rho0.matrix + tau * (self.liou.matrix @ vectorize(self.rho0)).reshape(2, 2)

    def test_small_tau_limit(self):
        out = kraus_step(self.model, self.rho0, 1e-9)
        assert np.abs(out.matrix - self.rho0.matrix).max() <= 1e-8

    def test_matches_euler_step_to_second_order(self):
        out = kraus_step(self.model, self.rho0, 1e-3)
        assert np.abs(out.matrix - self.euler(1e-3)).max() <= 1e-5

    def test_halving_tau_quarters_the_defect(self):
        d1 = np.linalg.norm(kraus_step(self.model, self.rho0, 1e-3).matrix - self.euler(1e-3))
        d2 = np.linalg.norm(kraus_step(self.model, self.rho0, 5e-4).matrix - self.euler(5e-4))
        assert d1 / d2 == pytest.approx(4.0, rel=0.1)

    def test_multi_jump_rejected(self):
        model = example1(1.0, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="exactly one jump"):
            kraus_step(model, self.rho0, 1e-3)
