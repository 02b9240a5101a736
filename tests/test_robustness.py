"""Cross-cutting checks: EP localization wherever the EP sits relative to
the coarse grid (including a tangential coalescence) and its eigensystem
budget, degenerate spectra, concurrency of the pure analyzers, and
full-generator EPs of the two-mode model at a small cutoff."""

from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from lioueps import models, spectral, superop
from lioueps.ep_detect import Eigensystem, SpectrumFamily, locate_ep, overlap_matrix, sweep
from lioueps.ops_core import Operator, build_boson_ops, qubit_space, tensor
from lioueps.spectral import analyze_liouvillian, check_lemmas
from lioueps.superop import assemble_liouvillian
from lioueps.models import dephasing, example3, get_family


def touching_pair_family():
    """Synthetic pair whose gap closes linearly, so the pair discriminant
    touches zero quadratically at g = 1 without changing sign: a linear
    model of the discriminant has no root there, a parabola has one."""

    def matrix(g):
        return np.array([[0.0, 1.0], [(g - 1.0) ** 2, 0.0]], dtype=complex)

    def eigensystem(g):
        vals, vecs = np.linalg.eig(matrix(g))
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        order = np.lexsort((vals.real, np.abs(vals.imag)))
        return Eigensystem(vals[order], vecs[:, order], np.zeros(2, dtype=bool))

    return SpectrumFamily("g", lambda values: [eigensystem(g) for g in values], matrix)


def counting(family):
    """The family with the grid values it solves listed in the returned list."""
    calls = []

    def eigensystem(values):
        calls.extend(values)
        return family.eigensystem(values)

    return SpectrumFamily(family.param_name, eigensystem, family.matrix,
                          family.space), calls


EX3_L2 = get_family("example3").with_params(omega=1.0, gamma_a=1.0, gamma_b=0.5, levels=2)
EX3_L3 = EX3_L2.with_params(levels=3)
EX2 = get_family("example2").with_params(omega_x=1.0)


class TestTouchingCoalescence:
    @pytest.mark.parametrize("shift", [0.0, 0.013], ids=["shift-0", "shift-0.013"])
    def test_quadratic_touching_ep_is_found(self, shift):
        report = locate_ep(touching_pair_family(), (0.5 + shift, 1.5 + shift))
        assert report.param_value == pytest.approx(1.0, abs=1e-6)
        assert report.order_estimate == 2
        assert report.overlap_at_ep >= 1 - 1e-6
        assert report.chain_residual <= 1e-6


class TestOffGridBrackets:
    # 33 coarse points; at offset 0 a grid point sits on the EP, the other
    # offsets slide the bracket across one grid cell
    @pytest.mark.parametrize("cell_fraction", [0.0, 0.25, 1 / 3, 0.5, 2 / 3],
                             ids=["0", "0.25", "0.33", "0.5", "0.67"])
    @pytest.mark.parametrize("family, bracket, expected", [
        (EX3_L2.liouvillian_family(), (0.05, 0.25), 0.125),
        (EX3_L2.nhh_family(), (0.05, 0.25), 0.125),
        (EX3_L3.liouvillian_family(), (0.025, 0.225), 0.125),
        (EX3_L3.nhh_family(), (0.025, 0.225), 0.125),
        (EX2.liouvillian_family(), (3.0, 5.0), 4.0),
        (EX2.nhh_family(), (1.0, 3.0), 2.0),
    ], ids=["example3-l2-liouvillian", "example3-l2-nhh", "example3-l3-liouvillian",
            "example3-l3-nhh", "example2-liouvillian", "example2-nhh"])
    def test_ep_found_at_every_offset(self, family, bracket, expected, cell_fraction):
        shift = cell_fraction * (bracket[1] - bracket[0]) / 32
        report = locate_ep(family, (bracket[0] + shift, bracket[1] + shift))
        assert report.param_value == pytest.approx(expected, abs=1e-6)
        assert report.order_estimate == 2

    @pytest.mark.parametrize("lo", [0.025, 0.0271])
    def test_eigensystem_budget(self, lo):
        family, calls = counting(EX3_L3.liouvillian_family())
        report = locate_ep(family, (lo, lo + 0.2))
        assert report.param_value == pytest.approx(0.125, abs=1e-6)
        assert len(calls) <= 40

    def test_stacked_sweep_budget(self):
        """The Python around LAPACK in a 33-point locate_ep: its sweep takes
        one _generator call for the whole grid (every later call is one
        point: the Jordan analysis reads one matrix), the cutoff operators
        are built once per cutoff, and on the ep-locate-l3 benchmark grid
        at seed 0, whose clusters reach three members, the sequential
        cluster rule runs for no group."""
        models._boson_ops.cache_clear()
        models._two_mode_ops.cache_clear()
        with mock.patch.object(superop, "_generator", wraps=superop._generator) as generator, \
                mock.patch.object(models, "build_boson_ops", wraps=build_boson_ops) as ladders, \
                mock.patch.object(models, "tensor", wraps=tensor) as products:
            for family in (EX3_L3, EX3_L2, EX3_L3):
                locate_ep(family.liouvillian_family(), (0.025, 0.225))
        points = [call.args[0].shape[0] for call in generator.call_args_list]
        assert points.count(33) == 3 and set(points) == {1, 33}
        assert [call.args[0] for call in ladders.call_args_list] == [3, 2]
        assert products.call_count == 8

        omega, gamma_a, gamma_b = 1.065791612069049, 1.0099521614821052, 0.3915108573095691
        family = get_family("example3", levels=3, omega=omega, gamma_a=gamma_a, gamma_b=gamma_b)
        lo = (gamma_a - gamma_b) / 4 - 0.1
        sizes = []

        def cluster_labels(*args):
            labels = cluster(*args)
            sizes.append(np.bincount(labels).max())
            return labels

        cluster = spectral._cluster_labels
        with mock.patch.object(spectral, "_cluster_labels", cluster_labels), \
                mock.patch.object(spectral, "_cluster_chain") as chain:
            locate_ep(family.liouvillian_family(), (lo, lo + 0.2))
        assert max(sizes) >= 3 and chain.call_count == 0

    def test_same_conjugate_member_at_every_offset(self):
        # the complex EP comes as a conjugate pair; the pair sorts by Im at
        # every grid point, so the bracket offset does not pick the member
        reports = [locate_ep(EX3_L3.liouvillian_family(), (lo, lo + 0.2))
                   for lo in (0.025, 0.0271, 0.03, 0.051)]
        for report in reports:
            assert report.lambda_ep == pytest.approx(-0.375 - 1j, abs=1e-9)
            assert report.branch_pair == reports[0].branch_pair


class TestDegenerateSpectra:
    def test_zero_frequency_dephasing_has_multiplicity_clusters(self):
        # omega = 0 makes lambda = -gamma/2 (m-n)^2 real with two-fold
        # degeneracy for every m != n
        model = dephasing(0.0, 1.0, 4)
        spec = analyze_liouvillian(assemble_liouvillian(model))
        assert np.abs(spec.eigenvalues.imag).max() <= 1e-12
        n = len(spec.eigenvalues)
        unflagged = ~spec.defect_flags
        gram = np.array([[np.trace(spec.left_mats[i] @ spec.right_mats[j])
                          for j in range(n)] for i in range(n)])
        idx = np.flatnonzero(unflagged)
        sub = gram[np.ix_(idx, idx)]
        assert np.abs(sub - np.eye(idx.size)).max() <= 1e-8
        assert check_lemmas(spec, model).all_passed

    def test_highly_degenerate_sweep_is_stable(self):
        fam = get_family("dephasing").with_params(omega=0.0, levels=3)
        res = sweep(fam.liouvillian_family(), np.linspace(0.5, 2.0, 11))
        assert res.continuation_breaks == ()
        assert res.matching_quality.min() >= 0.9


class TestSweepBranchMerging:
    def test_example2_pair_merges_at_the_generator_ep(self):
        fam = get_family("example2").with_params(omega_x=1.0)
        res = sweep(fam.liouvillian_family(), np.linspace(0.0, 6.0, 121))
        idx = [i for i in range(4) if not res.zero_mask[:, i].any()]
        best = None
        for a in idx:
            for b in idx:
                if a < b:
                    gaps = np.abs(res.eigenvalues[:, a] - res.eigenvalues[:, b])
                    k = int(np.argmin(gaps))
                    if best is None or gaps[k] < best[0]:
                        best = (gaps[k], res.grid[k])
        assert best[0] <= 1e-6
        assert best[1] == pytest.approx(4.0, abs=0.05)


class TestTwoModeFullGenerator:
    def test_liouvillian_ep_at_the_same_coupling(self):
        # at a 2-level cutoff the one-excitation physics is exact and the
        # full generator inherits the EP location from the vacuum columns
        fam = get_family("example3").with_params(
            omega=1.0, gamma_a=1.0, gamma_b=0.5, levels=2)
        report = locate_ep(fam.liouvillian_family(), (0.05, 0.25))
        assert report.param_value == pytest.approx(0.125, abs=1e-6)
        assert report.overlap_at_ep >= 1 - 1e-6
        assert report.generalized_eigenmatrix is not None

    def test_overlap_matrix_shows_the_coalescence(self):
        model = example3(1.0, 0.125, 1.0, 0.5, 2)
        spec = analyze_liouvillian(assemble_liouvillian(model))
        ovl = overlap_matrix(spec)
        np.fill_diagonal(ovl, 0.0)
        assert ovl.max() >= 1 - 1e-6


class TestConcurrency:
    def test_parallel_analyses_are_identical(self):
        liou = assemble_liouvillian(get_family("example1").build(1.7))

        def run(_):
            return analyze_liouvillian(liou)

        with ThreadPoolExecutor(max_workers=4) as pool:
            specs = list(pool.map(run, range(8)))
        ref = specs[0]
        for spec in specs[1:]:
            assert np.array_equal(spec.eigenvalues, ref.eigenvalues)
            assert np.array_equal(spec.right_mats, ref.right_mats)
            assert np.array_equal(spec.left_mats, ref.left_mats)

    def test_operator_inputs_are_not_mutated(self):
        model = get_family("example2").build(1.0)
        before = model.H.matrix.copy()
        analyze_liouvillian(assemble_liouvillian(model))
        assert np.array_equal(model.H.matrix, before)
