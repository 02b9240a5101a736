import numpy as np
import pytest
from numpy.testing import assert_allclose

from lioueps.errors import ModelBuildError
from lioueps.ops_core import Operator, build_boson_ops, tensor
from lioueps.superop import (
    apply_liouvillian,
    assemble_liouvillian,
    effective_hamiltonian,
    vectorize,
)
from lioueps.spectral import analyze_liouvillian, analyze_nhh
from lioueps.models import (
    dephasing,
    dephasing_closed_form,
    example1,
    example1_closed_form,
    example2,
    example2_closed_form,
    example3,
    example3_block_family,
    example3_ep_pair_states,
    example3_excitation_block,
    example3_mean_field_matrix,
    example3_one_excitation_closed_form,
    family_names,
    get_family,
    sigma_z_expectations,
)
from lioueps.ep_detect import locate_ep
from conftest import assert_multiset_close


class TestExample1:
    @pytest.mark.parametrize("gamma_minus", [0.0, 1.0])
    def test_closed_form_matches_numerics_on_grid(self, gamma_minus):
        for gx in np.linspace(0.0, 4.0, 50):
            cf = example1_closed_form(1.0, gamma_minus, gx, 2.0)
            vals = np.linalg.eigvals(
                assemble_liouvillian(example1(1.0, gamma_minus, gx, 2.0)).matrix)
            assert_multiset_close(vals, cf["lambdas"], 1e-8)

    def test_closed_form_eigenmatrices_are_eigenmatrices(self):
        model = example1(1.0, 0.7, 0.6, 2.0)
        cf = example1_closed_form(1.0, 0.7, 0.6, 2.0)
        liou = assemble_liouvillian(model).matrix
        for lam, rho in zip(cf["lambdas"], cf["rhos"]):
            resid = liou @ rho.reshape(-1) - lam * rho.reshape(-1)
            assert np.linalg.norm(resid) <= 1e-12 * max(np.linalg.norm(rho), 1.0)

    def test_unitary_limit(self):
        cf = example1_closed_form(1.0, 0.0, 0.0, 0.0)
        assert_multiset_close(cf["lambdas"], [0.0, 1j, -1j, 0.0], 1e-12)

    def test_decay_channel_shifts_coherence_pair(self):
        base = example1_closed_form(1.0, 0.0, 0.5, 2.0)["lambdas"]
        shifted = example1_closed_form(1.0, 1.0, 0.5, 2.0)["lambdas"]
        assert shifted[1] - base[1] == pytest.approx(-0.5, abs=1e-14)
        assert shifted[2] - base[2] == pytest.approx(-0.5, abs=1e-14)
        assert shifted[3] - base[3] == pytest.approx(-1.0, abs=1e-14)

    def test_ep_condition_from_closed_form(self):
        cf = example1_closed_form(1.0, 0.0, 1.0, 2.0)
        assert abs(cf["Omega"]) <= 1e-12
        assert cf["lambdas"][1] == pytest.approx(-3.0)
        assert cf["lambdas"][2] == pytest.approx(-3.0)

    def test_steady_state_populations(self):
        spec = analyze_liouvillian(assemble_liouvillian(example1(1.0, 0.7, 0.6, 2.0)))
        cf = example1_closed_form(1.0, 0.7, 0.6, 2.0)
        assert_allclose(spec.steady_state.matrix, cf["rhos"][0], atol=1e-10)
        # more population on the ground state whenever the qubit decays
        assert spec.steady_state.matrix[0, 0].real > spec.steady_state.matrix[1, 1].real

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelBuildError, match="gamma_x"):
            example1(1.0, 0.0, -1.0, 2.0)


class TestExample2:
    def test_closed_form_matches_numerics_on_grid(self):
        for gm in np.linspace(0.0, 6.0, 50):
            cf = example2_closed_form(1.0, gm)
            model = example2(1.0, gm)
            vals = np.linalg.eigvals(assemble_liouvillian(model).matrix)
            assert_multiset_close(vals, cf["lambdas"], 1e-8)
            h = np.linalg.eigvals(effective_hamiltonian(model).matrix)
            assert_multiset_close(h, cf["h"], 1e-8)

    def test_hep_degeneracy_and_coalescence(self):
        cf = example2_closed_form(1.0, 2.0)
        assert cf["h"][0] == pytest.approx(cf["h"][1])
        assert cf["h"][0] == pytest.approx(-0.5j)
        assert abs(np.vdot(cf["phis"][:, 0], cf["phis"][:, 1])) >= 1 - 1e-12

    def test_lep_degeneracy(self):
        cf = example2_closed_form(1.0, 4.0)
        assert cf["lambdas"][2] == pytest.approx(-3.0)
        assert cf["lambdas"][3] == pytest.approx(-3.0)

    def test_unitary_limit_is_purely_imaginary(self):
        cf = example2_closed_form(1.0, 0.0)
        assert np.abs(cf["lambdas"].real).max() <= 1e-14
        nonzero = cf["lambdas"][np.abs(cf["lambdas"]) > 1e-12]
        assert np.abs(nonzero.imag).min() > 0.1

    def test_printed_eigenmatrices_are_eigenmatrices(self):
        cf = example2_closed_form(1.0, 1.3)
        liou = assemble_liouvillian(example2(1.0, 1.3)).matrix
        for lam, rho in zip(cf["lambdas"], cf["rhos"]):
            resid = liou @ rho.reshape(-1) - lam * rho.reshape(-1)
            assert np.linalg.norm(resid) <= 1e-12 * max(np.linalg.norm(rho), 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ModelBuildError, match="omega_x"):
            example2(0.0, 1.0)
        with pytest.raises(ModelBuildError, match="gamma_minus"):
            example2(1.0, -2.0)


class TestExample3:
    def test_mean_field_matrix_against_generator_probe(self):
        # expectation drift extracted from the generator acting on the
        # vacuum/one-excitation coherences must equal -i M entrywise
        model = example3(1.0, 0.2, 1.0, 0.5, 3)
        mf = example3_mean_field_matrix(1.0, 0.2, 1.0, 0.5)
        bos = build_boson_ops(3)
        a = tensor(bos["a"], bos["identity"])
        b = tensor(bos["identity"], bos["a"])
        vac = np.zeros(9)
        vac[0] = 1.0
        probes = []
        for mode in (a, b):
            ket = mode.matrix.conj().T @ vac
            probes.append(Operator(model.space, np.outer(ket, vac.conj())))
        drift = np.array([[np.trace(x.matrix @ apply_liouvillian(model, p).matrix)
                           for p in probes] for x in (a, b)])
        assert np.abs(drift - (-1j) * mf).max() <= 1e-12

    def test_one_excitation_closed_form_matches_block(self):
        cf = example3_one_excitation_closed_form(1.0, 0.2, 1.0, 0.5)
        block = example3_excitation_block(1.0, 0.2, 1.0, 0.5, 1)
        assert_multiset_close(np.linalg.eigvals(block), cf["h"], 1e-12)
        for k in range(2):
            resid = block @ cf["phis"][:, k] - cf["h"][k] * cf["phis"][:, k]
            assert np.linalg.norm(resid) <= 1e-12

    def test_blocks_match_truncated_effective_hamiltonian(self):
        # independent construction: restrict the tensor-product H_eff to
        # the states of fixed total excitation number
        model = example3(1.0, 0.17, 1.0, 0.5, 4)
        heff = effective_hamiltonian(model).matrix
        space = model.space
        for n_exc in (1, 2, 3):
            idx = [space.index_of((n_exc - j, j)) for j in range(n_exc + 1)]
            sub = heff[np.ix_(idx, idx)]
            block = example3_excitation_block(1.0, 0.17, 1.0, 0.5, n_exc)
            assert np.abs(sub - block).max() <= 1e-14

    def test_block_diagonality_is_exact(self):
        model = example3(1.0, 0.2, 1.0, 0.5, 3)
        heff = effective_hamiltonian(model).matrix
        space = model.space
        total = np.array([sum(space.multi_of(i)) for i in range(space.dim)])
        mask = total[:, None] != total[None, :]
        assert np.count_nonzero(heff[mask]) == 0

    def test_all_blocks_share_the_ep(self):
        locations = []
        for n_exc in (1, 2, 3):
            fam = example3_block_family(1.0, 1.0, 0.5, n_exc)
            report = locate_ep(fam, (0.05, 0.25))
            locations.append(report.param_value)
            assert report.order_estimate == n_exc + 1
        assert np.ptp(locations) <= 1e-6
        assert locations[0] == pytest.approx(0.125, abs=1e-6)

    def test_vacuum_column_identity(self):
        model = example3(1.0, 0.125, 1.0, 0.5, 4)
        nhh = analyze_nhh(effective_hamiltonian(model))
        vac = np.zeros(model.dim, dtype=complex)
        vac[0] = 1.0
        for l in range(model.dim):
            rho = Operator(model.space, np.outer(nhh.vectors[:, l], vac.conj()))
            resid = apply_liouvillian(model, rho).matrix \
                + 1j * nhh.eigenvalues[l] * rho.matrix
            assert np.linalg.norm(resid) <= 1e-10

    def test_ep_pair_states_span_the_hermitian_combination(self):
        # |psi_1><psi_1| - |psi_2><psi_2| reconstructs the Hermitian
        # combination of |phi_EP><0,0| with its adjoint
        cf = example3_one_excitation_closed_form(1.0, 0.125, 1.0, 0.5)
        assert abs(cf["theta"]) <= 1e-12
        phi = cf["phis"][:, 0] / np.linalg.norm(cf["phis"][:, 0])
        # basis (|0,0>, |1,0>, |0,1>)
        phi3 = np.array([0.0, phi[0], phi[1]])
        vac3 = np.array([1.0, 0.0, 0.0], dtype=complex)
        psis = example3_ep_pair_states()
        assert abs(np.vdot(psis[:, 0], psis[:, 1])) <= 1e-12
        target = np.outer(phi3, vac3.conj())
        recon = (np.outer(psis[:, 0], psis[:, 0].conj())
                 - np.outer(psis[:, 1], psis[:, 1].conj()))
        herm = target * np.exp(1j * np.pi / 4) + (target * np.exp(1j * np.pi / 4)).conj().T
        assert np.abs(recon - herm).max() <= 1e-12

    def test_no_ep_for_symmetric_decay(self):
        cf = example3_one_excitation_closed_form(1.0, 0.3, 0.8, 0.8)
        assert cf["gamma"] == 0.0
        assert abs(cf["h"][0] - cf["h"][1]) > 0.5   # theta = g, never zero

    def test_levels_validation(self):
        with pytest.raises(ModelBuildError, match="levels"):
            example3(1.0, 0.1, 1.0, 0.5, 1)


class TestDephasing:
    def test_closed_form(self):
        cf = dephasing_closed_form(1.0, 1.0, 4)
        assert cf["lambdas"][2, 0] == pytest.approx(-2j - 2.0)
        assert np.abs(np.diag(cf["lambdas"])).max() == 0.0
        vals = np.linalg.eigvals(assemble_liouvillian(dephasing(1.0, 1.0, 4)).matrix)
        assert_multiset_close(vals, cf["lambdas"].reshape(-1), 1e-10)

    def test_number_jump_commutes_with_effective_hamiltonian(self):
        model = dephasing(1.0, 0.8, 4)
        heff = effective_hamiltonian(model).matrix
        g = model.folded_jump_matrices()[0]
        assert np.abs(g @ heff - heff @ g).max() == 0.0

    def test_basis_projector_eigenmatrices(self):
        model = dephasing(1.0, 1.0, 3)
        liou = assemble_liouvillian(model).matrix
        cf = dephasing_closed_form(1.0, 1.0, 3)["lambdas"]
        for m in range(3):
            for n in range(3):
                rho = np.zeros((3, 3), dtype=complex)
                rho[m, n] = 1.0
                resid = liou @ rho.reshape(-1) - cf[m, n] * rho.reshape(-1)
                assert np.linalg.norm(resid) <= 1e-13


class TestRegistryAndCurves:
    def test_family_lookup_and_unknown_name(self):
        assert family_names() == ["dephasing", "example1", "example2", "example3"]
        with pytest.raises(ModelBuildError, match="available families"):
            get_family("nope")
        with pytest.raises(ModelBuildError, match="unknown parameter"):
            get_family("example2", gamma_x=1.0)

    def test_family_build_and_sweep_override(self):
        fam = get_family("example2", omega_x=1.0)
        model = fam.build(3.0)
        assert model.jumps[0][0] == pytest.approx(3.0)
        model_b = fam.build(0.5, sweep_param="omega_x")
        assert np.abs(model_b.H.matrix).max() == pytest.approx(0.25)

    def test_family_params_are_the_registry_table_updated(self):
        table = {"omega": 1.0, "g": 0.1, "gamma_a": 1.0, "gamma_b": 0.5, "levels": 4}
        assert get_family("example3").params == table
        fam = get_family("example3", g=0.3, levels=2)
        assert fam.params == {**table, "g": 0.3, "levels": 2}
        assert fam.with_params(omega=2.0).params == {**table, "g": 0.3, "levels": 2,
                                                     "omega": 2.0}
        assert get_family("example3").params == table

    def test_nhh_family_has_no_space(self):
        fam = get_family("example3", levels=2)
        assert fam.nhh_family().space is None
        assert fam.liouvillian_family().space.dims == (2, 2)

    def test_sigma_z_double_bifurcation(self):
        grid = np.linspace(0.0, 6.0, 121)
        curves = sigma_z_expectations(1.0, grid)
        nhh_split = np.abs(curves["nhh"][0] - curves["nhh"][1])
        pm2 = np.sort(curves["pm"][:2], axis=0)
        pm3 = np.sort(curves["pm"][2:], axis=0)
        pm_split = np.abs(pm2 - pm3).max(axis=0)
        below_hep = grid <= 2.0 - 0.1
        above_hep = grid >= 2.0 + 0.1
        below_lep = grid <= 4.0 - 0.1
        above_lep = grid >= 4.0 + 0.1
        assert nhh_split[below_hep].max() <= 1e-10
        assert nhh_split[above_hep].min() >= 1e-2
        assert pm_split[below_lep].max() <= 1e-8
        assert pm_split[above_lep].min() >= 1e-2

    def test_sigma_z_limits(self):
        curves = sigma_z_expectations(1.0, np.array([1e-12, 1.0]))
        # weak decay: the effective-Hamiltonian eigenvectors are the
        # symmetric/antisymmetric drive eigenstates
        assert np.abs(curves["nhh"][:, 0]).max() <= 1e-10
        assert curves["steady"][1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert curves["convention"].startswith("sigma_z = diag(+1, -1)")

    def test_steady_state_curve_matches_closed_form(self):
        grid = np.linspace(0.2, 5.0, 9)
        curves = sigma_z_expectations(1.0, grid)
        for k, gm in enumerate(grid):
            spec = analyze_liouvillian(assemble_liouvillian(example2(1.0, gm)))
            sz = np.diag([1.0, -1.0])
            assert curves["steady"][k] == pytest.approx(
                np.real(np.trace(sz @ spec.steady_state.matrix)), abs=1e-10)
