import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lioueps.cli import main
from lioueps.errors import JordanOrderError, NoEPBracketedError
from lioueps.ep_detect import (
    Eigensystem,
    SpectrumFamily,
    chain_residual,
    ep_eigenmatrix,
    estimate_ep_order,
    jordan_chain,
    locate_ep,
    overlap_matrix,
    sweep,
)
from lioueps.ops_core import Operator
from lioueps.spectral import analyze_liouvillian
from lioueps.superop import SuperOp, assemble_liouvillian
from lioueps.models import (
    dephasing,
    example2,
    example3_block_family,
    get_family,
)
from conftest import assert_one_eig_per_sector

EX1 = get_family("example1").with_params(omega=1.0, gamma_y=2.0, gamma_minus=0.0)
EX2 = get_family("example2").with_params(omega_x=1.0)


def constant_family(mat):
    vals, vecs = np.linalg.eig(mat)
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    system = Eigensystem(vals, vecs, np.zeros(len(vals), dtype=bool))
    return SpectrumFamily("p", lambda values: [system] * len(values), lambda g: mat)


class TestSweep:
    def test_example1_three_regimes(self):
        res = sweep(EX1.liouvillian_family(), np.linspace(0.0, 4.0, 81))
        # the coherence pair: branches that are never the steady branch
        idx = [i for i in range(4) if not res.zero_mask[:, i].any()]
        pair = None
        for i in idx:
            for j in idx:
                if i < j:
                    gap = np.abs(res.eigenvalues[:, i] - res.eigenvalues[:, j])
                    if gap.min() < 1e-6:
                        pair = (i, j)
        assert pair is not None
        diff = res.eigenvalues[:, pair[0]] - res.eigenvalues[:, pair[1]]
        grid = res.grid
        inner = (grid > 1.05) & (grid < 2.95)
        outer = (grid < 0.95) | (grid > 3.05)
        # complex-split between the EPs, real-split outside
        assert np.all(np.abs(diff[inner].imag) > np.abs(diff[inner].real))
        assert np.all(np.abs(diff[outer].real) > np.abs(diff[outer].imag))

    def test_constant_family_matches_perfectly(self, rng):
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        res = sweep(constant_family(mat), np.linspace(0.0, 1.0, 7))
        assert_allclose(res.matching_quality, np.ones(6), atol=1e-12)
        assert res.continuation_breaks == ()
        for k in range(7):
            assert_allclose(res.eigenvalues[k], res.eigenvalues[0], atol=1e-14)

    def test_grid_validation(self):
        fam = EX2.liouvillian_family()
        with pytest.raises(ValueError, match="monotone"):
            sweep(fam, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="at least 2"):
            sweep(fam, [1.0])

    def test_systems_hold_the_branch_ordered_eigensystems(self):
        res = sweep(EX1.liouvillian_family(), np.linspace(0.0, 4.0, 21))
        assert len(res.systems) == res.grid.size
        for k, system in enumerate(res.systems):
            assert np.array_equal(system.values, res.eigenvalues[k])
            assert np.array_equal(system.zero_mask, res.zero_mask[k])
        # branch order: each point continues the previous one column by column
        for k in range(1, res.grid.size):
            ovl = np.abs(np.sum(res.systems[k - 1].vectors.conj() * res.systems[k].vectors,
                                axis=0))
            assert ovl.min() == pytest.approx(res.matching_quality[k - 1], abs=1e-15)

    def test_size_change_across_the_grid_is_refused(self):
        fam = get_family("example3", levels=2).liouvillian_family("levels")
        with pytest.raises(ValueError, match="size changed from 16 to 81 at grid index 1"):
            sweep(fam, [2.0, 3.0])

    def test_build_failure_carries_grid_index(self):
        fam = EX2.liouvillian_family()
        with pytest.raises(Exception, match="grid index 0"):
            sweep(fam, [-1.0, 1.0])


class TestOverlapMatrix:
    def test_orthogonal_eigenmatrices_give_identity(self):
        spec = analyze_liouvillian(assemble_liouvillian(dephasing(1.0, 1.0, 3)))
        ovl = overlap_matrix(spec)
        assert_allclose(ovl, np.eye(9), atol=1e-10)

    def test_example1_coalescence_entry(self):
        # at gamma_x = gamma_y - omega the coherence eigenmatrices merge
        spec = analyze_liouvillian(assemble_liouvillian(EX1.build(1.0)))
        ovl = overlap_matrix(spec)
        np.fill_diagonal(ovl, 0.0)
        assert ovl.max() >= 1 - 1e-6

    def test_symmetric_unit_diagonal(self):
        spec = analyze_liouvillian(assemble_liouvillian(example2(1.0, 2.2)))
        ovl = overlap_matrix(spec)
        assert_allclose(ovl, ovl.T, atol=1e-14)
        assert_allclose(np.diag(ovl), np.ones(4), atol=1e-12)

    def test_away_from_eps_overlap_bounded(self):
        # matched distinct branches stay clearly separated wherever the
        # eigenvalue gap exceeds 0.1
        res = sweep(EX1.liouvillian_family(), np.linspace(0.0, 4.0, 201))
        for k in range(res.grid.size):
            vecs = res.systems[k].vectors
            ovl = np.abs(vecs.conj().T @ vecs)
            vals = res.eigenvalues[k]
            for i in range(4):
                for j in range(i + 1, 4):
                    if abs(vals[i] - vals[j]) > 0.1:
                        assert ovl[i, j] < 1 - 1e-3


class TestLocateEP:
    def test_example1_both_eps(self):
        fam = EX1.liouvillian_family()
        for bracket, expected in (((0.5, 1.5), 1.0), ((2.5, 3.5), 3.0)):
            report = locate_ep(fam, bracket)
            assert report.param_value == pytest.approx(expected, abs=1e-6)
            assert report.overlap_at_ep >= 1 - 1e-6
            assert report.eigenvalue_gap <= 1e-3
            assert report.order_estimate == 2
            assert report.chain_residual <= 1e-6

    def test_example2_hamiltonian_and_liouvillian_eps(self):
        rh = locate_ep(EX2.nhh_family(), (1.0, 3.0))
        assert rh.param_value == pytest.approx(2.0, abs=1e-6)
        assert rh.lambda_ep == pytest.approx(-0.5j, abs=1e-6)
        assert rh.generalized_eigenmatrix is None
        rl = locate_ep(EX2.liouvillian_family(), (3.0, 5.0))
        assert rl.param_value == pytest.approx(4.0, abs=1e-6)
        assert rl.lambda_ep == pytest.approx(-3.0, abs=1e-5)
        assert rl.generalized_eigenmatrix is not None
        assert np.linalg.norm(rl.generalized_eigenmatrix.matrix) == pytest.approx(1.0, abs=1e-10)

    def test_example3_single_excitation(self):
        report = locate_ep(example3_block_family(1.0, 1.0, 0.5, 1), (0.05, 0.25))
        assert report.param_value == pytest.approx(0.125, abs=1e-6)
        assert report.order_estimate == 2

    def test_zero_branch_guard(self):
        with pytest.raises(NoEPBracketedError, match="zero-eigenvalue"):
            locate_ep(EX2.liouvillian_family(), (3.0, 5.0), branch_pair=(0, 2))

    @pytest.mark.parametrize("family, bracket, pair, n", [
        (EX2.liouvillian_family(), (3.0, 5.0), (2, 7), 4),
        (EX2.nhh_family(), (1.0, 3.0), (0, 2), 2),
    ], ids=["liouvillian", "nhh"])
    def test_branch_pair_out_of_range(self, family, bracket, pair, n):
        with pytest.raises(ValueError, match=f"has {n} branches"):
            locate_ep(family, bracket, branch_pair=pair)

    def test_no_ep_in_bracket(self):
        with pytest.raises(NoEPBracketedError,
                           match=r"^no EP bracketed: \d+ candidate cells, .*best overlap"):
            locate_ep(EX2.nhh_family(), (0.1, 1.0))

    def test_bracket_and_grid_validation(self):
        fam = EX2.nhh_family()
        with pytest.raises(ValueError, match="lo < hi"):
            locate_ep(fam, (3.0, 1.0))
        with pytest.raises(ValueError, match="at least 3"):
            locate_ep(fam, (1.0, 3.0), coarse_points=2)

    def test_decoupled_symmetric_modes_have_no_ep(self):
        # g = 0 with equal rates: degenerate but diagonalizable; theta
        # never vanishes along the sweep
        fam = example3_block_family(1.0, 1.0, 1.0, 1)
        with pytest.raises(NoEPBracketedError):
            locate_ep(fam, (0.01, 0.3))


class TestJordanChain:
    def test_canonical_two_by_two_block(self):
        lam = 0.3 - 0.2j
        mat = np.array([[lam, 1.0], [0.0, lam]])
        vec2, a = jordan_chain(mat, lam)
        assert abs(abs(vec2[1]) - 1.0) <= 1e-12
        assert abs(vec2[0]) <= 1e-12
        assert abs(a) == pytest.approx(1.0, abs=1e-12)
        v1 = np.array([1.0, 0.0])
        assert chain_residual(mat, lam, v1, vec2, a) <= 1e-12

    def test_superop_input_returns_operator(self):
        rl = locate_ep(EX2.liouvillian_family(), (3.0, 5.0))
        model = example2(1.0, rl.param_value)
        liou = assemble_liouvillian(model)
        rho1 = ep_eigenmatrix(liou, rl.lambda_ep)
        rho2, a = jordan_chain(liou, rl.lambda_ep)
        assert isinstance(rho1, Operator) and isinstance(rho2, Operator)
        # minimal-norm solution has no component along the eigenmatrix
        assert abs(np.vdot(rho1.matrix, rho2.matrix)) <= 1e-8
        assert np.linalg.norm(rho2.matrix) == pytest.approx(1.0, abs=1e-12)
        assert chain_residual(liou, rl.lambda_ep, rho1, rho2, a) <= 1e-6

    def test_order_mismatch_away_from_ep(self):
        mat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(JordanOrderError, match="order mismatch"):
            jordan_chain(mat, 10.0 + 0j)

    def test_order_estimates(self):
        lam = -1.0 + 0.5j
        block = np.diag(np.full(2, lam)) + np.diag([1.0], k=1)
        mat = np.zeros((4, 4), dtype=complex)
        mat[:2, :2] = block
        mat[2, 2] = 2.0
        mat[3, 3] = -3.0
        order, dims = estimate_ep_order(mat, lam)
        assert order == 2
        assert dims[:2] == [1, 2]
        order3, dims3 = estimate_ep_order(
            np.diag(np.full(3, lam)) + np.diag([1.0, 1.0], k=1), lam)
        assert order3 == 3
        assert dims3[:3] == [1, 2, 3]

    def test_kernel_growth_is_one_per_chain_step(self):
        rl = locate_ep(EX1.liouvillian_family(), (0.5, 1.5))
        mat = assemble_liouvillian(EX1.build(rl.param_value)).matrix
        order, dims = estimate_ep_order(mat, rl.lambda_ep)
        assert order == 2
        assert np.all(np.diff(dims[:order]) == 1)


class TestOneFactorisation:
    def test_jordan_analysis_takes_one_svd(self, monkeypatch):
        # the block family solves with eig, so every SVD-type call is the
        # Jordan analysis: one full SVD of (M - lambda) and one ||M||_2 serve
        # every stage, plus the singular values of (M - lambda)^2
        calls = []
        svd, norm = np.linalg.svd, np.linalg.norm

        def counting_svd(*args, **kwargs):
            calls.append("svd")
            return svd(*args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                calls.append("norm2")
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        report = locate_ep(example3_block_family(1.0, 1.0, 0.5, 1), (0.05, 0.25))
        assert report.order_estimate == 2
        assert len(calls) <= 3, calls

    def test_sweep_takes_one_right_only_eig_per_point(self, eig_calls):
        # one right-only eig per sector of size >= 2 at every grid point, in
        # one stacked call per sector size for the whole grid; the second
        # grid passes g = 0, where the sectors split
        for levels, grid in [(2, np.linspace(0.05, 0.25, 7)), (3, np.linspace(-0.1, 0.1, 9))]:
            del eig_calls[:]
            eig_calls.invocations = 0
            family = get_family("example3", levels=levels).liouvillian_family()
            sweep(family, grid)
            assert_one_eig_per_sector(eig_calls, [family.matrix(g) for g in grid], left=False)
            assert eig_calls.invocations == len({size for _, size in eig_calls})

    def test_spectrum_takes_one_right_only_eig(self, eig_calls, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"command": "spectrum", "output": "spec",
                                   "model": {"name": "example3", "levels": 2}}))
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 0
        family = get_family("example3", levels=2).liouvillian_family()
        assert_one_eig_per_sector(eig_calls, family.matrix(0.1), left=False)

    def test_diagonal_spectrum_takes_no_eig(self, eig_calls, tmp_path):
        # the dephasing L is diagonal: every sector is 1x1
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"command": "spectrum", "output": "spec",
                                   "model": {"name": "dephasing", "levels": 30}}))
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 0
        assert eig_calls == []

    @pytest.mark.parametrize("family, bracket", [
        (EX1.liouvillian_family(), (0.5, 1.5)),
        (EX1.liouvillian_family(), (2.5, 3.5)),
        (EX2.liouvillian_family(), (3.0, 5.0)),
        (EX2.nhh_family(), (1.0, 3.0)),
    ], ids=["example1-lo", "example1-hi", "example2-liouvillian", "example2-nhh"])
    def test_report_equals_public_jordan_analysis(self, family, bracket):
        report = locate_ep(family, bracket)
        lam = report.lambda_ep
        mat = family.matrix(report.param_value)
        op = SuperOp(family.space, mat) if family.space is not None else mat
        rho1 = ep_eigenmatrix(op, lam)
        rho2, a = jordan_chain(op, lam, rho1=rho1)
        vec2 = rho2.matrix.reshape(-1) if family.space is not None else rho2
        assert report.jordan_coefficient == a
        assert report.chain_residual == chain_residual(op, lam, rho1, rho2, a)
        assert report.order_estimate == max(estimate_ep_order(mat, lam)[0], 2)
        assert np.array_equal(report.generalized_vector, vec2)
        if family.space is not None:
            assert np.array_equal(report.generalized_eigenmatrix.matrix, rho2.matrix)
        else:
            assert report.generalized_eigenmatrix is None
