import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from lioueps.errors import HermiticityError, SpectralError
from lioueps.ops_core import (
    HilbertSpace,
    Operator,
    build_qubit_ops,
    hermitian_spectral_decomposition,
    hs_norm,
)
from lioueps.ep_detect import overlap_matrix
from lioueps.superop import (
    LindbladModel,
    SuperOp,
    _dense_entries,
    assemble_liouvillian,
    assemble_liouvillian_no_jumps,
    devectorize,
    effective_hamiltonian,
    is_trace_preserving,
    trace_row,
    vectorize,
)
from lioueps.sectors import SCC_MIN_SIZE
from lioueps.spectral import (
    analyze_liouvillian,
    analyze_nhh,
    check_lemmas,
    _block_eig,
    _canonical_phase,
    _partner,
    _scatter,
    liouvillian_eigensystem,
    liouvillian_eigensystems,
    pm_decomposition,
    sym_antisym,
)
from lioueps.models import (
    dephasing,
    example1,
    example1_closed_form,
    example2,
    example2_closed_form,
    example3,
    family_names,
    get_family,
)
from conftest import (assert_conjugate_orbits, assert_multiset_close, assert_one_eig_per_orbit,
                      conjugation_key, random_lindblad_model)

Q = build_qubit_ops()
SPACE = Q["identity"].space


def biorthonormality_residual(spec) -> float:
    """max |Tr(sigma_i rho_j) - delta_ij| over the unflagged modes."""
    n = len(spec.eigenvalues)
    gram = spec.left_mats.transpose(0, 2, 1).reshape(n, -1) @ spec.right_mats.reshape(n, -1).T
    ok = ~spec.defect_flags
    return float(np.abs(gram[np.ix_(ok, ok)] - np.eye(ok.sum())).max())


class TestAnalyzeLiouvillian:
    def test_example2_sorted_spectrum_and_steady_state(self):
        spec = analyze_liouvillian(assemble_liouvillian(example2(1.0, 1.0)))
        expected = np.array([0.0, -0.5, -0.75 - 1j * np.sqrt(15) / 4,
                             -0.75 + 1j * np.sqrt(15) / 4])
        assert_allclose(spec.eigenvalues, expected, atol=1e-10)
        assert_allclose(spec.steady_state.matrix,
                        np.array([[2, 1j], [-1j, 1]]) / 3, atol=1e-10)
        assert spec.steady_state.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(spec.steady_state.matrix).min() >= -1e-10

    # example3 and dephasing have exactly degenerate eigenvalues that the
    # rounding of L interleaves in (|Re|, Im) order; none is an EP
    @pytest.mark.parametrize("model", [
        example2(1.0, 2.5),
        example3(1.0, 0.1, 1.0, 0.5),
        example3(1.0, 0.1, 1.0, 0.5, levels=3),
        dephasing(1.0, 1.0, 30),
    ], ids=["example2", "example3-levels4", "example3-levels3", "dephasing-levels30"])
    def test_normalization_and_biorthonormality(self, model):
        spec = analyze_liouvillian(assemble_liouvillian(model))
        for i in range(len(spec.eigenvalues)):
            assert hs_norm(spec.right(i)) == pytest.approx(1.0, abs=1e-10)
        assert not spec.defect_flags.any()
        assert biorthonormality_residual(spec) <= 1e-8

    def test_stability_of_spectrum_invariants(self, rng):
        for _ in range(8):
            model = random_lindblad_model(rng, max_dim=5)
            spec = analyze_liouvillian(assemble_liouvillian(model))
            assert spec.eigenvalues.real.max() <= 1e-10
            # sorted by |Re| then Im
            key = [(abs(v.real), v.imag) for v in spec.eigenvalues]
            assert key == sorted(key)
            # a nonzero trace pins the eigenvalue to zero and vice versa
            # (unique steady state for generic random channels)
            traces = np.array([abs(np.trace(m)) for m in spec.right_mats])
            carriers = set(np.flatnonzero(traces > 1e-8).tolist())
            assert carriers == set(np.flatnonzero(spec.zero_mask).tolist())

    def test_h_only_model_has_maximally_mixed_steady_state(self):
        h = Operator(SPACE, 0.7 * Q["sigma_z"].matrix)
        spec = analyze_liouvillian(assemble_liouvillian(LindbladModel(h)))
        assert_allclose(spec.steady_state.matrix, np.eye(2) / 2, atol=1e-12)

    def test_degenerate_zero_sector_is_orthonormalized(self):
        spec = analyze_liouvillian(assemble_liouvillian(dephasing(1.0, 1.0, 4)))
        assert spec.zero_mask.sum() == 4
        assert spec.zero_sector_rank == 4
        block = spec.vectors[:, spec.zero_mask]
        assert np.abs(block.conj().T @ block - np.eye(4)).max() <= 1e-12
        assert_allclose(spec.steady_state.matrix, np.eye(4) / 4, atol=1e-10)

    def test_rejects_trace_breaking_generator(self):
        with pytest.raises(SpectralError, match="not a Liouvillian"):
            analyze_liouvillian(assemble_liouvillian_no_jumps(example2(1.0, 1.0)))

    @pytest.mark.parametrize("analysis", [analyze_liouvillian, liouvillian_eigensystem])
    def test_rejects_a_generator_whose_trace_row_does_not_vanish(self, analysis):
        # L' has a zero eigenvalue (the vacuum |0,0><0,0|), so only the
        # trace row tells it from a Liouvillian
        liou = assemble_liouvillian_no_jumps(example3(1.0, 0.1, 1.0, 0.5, levels=3))
        with pytest.raises(SpectralError, match="trace row"):
            analysis(liou)

    def test_checks_hold_at_a_scale_whose_squares_overflow(self):
        # example2's L times 1e200: |L|_F^2 overflows, and with it the
        # trace-row and Hermiticity checks used to pass anything (a broken
        # trace row was refused late, as "no eigenvalue within zero_tol")
        liou = assemble_liouvillian(example2(1.0, 1.0))
        big = liou.matrix * 1e200
        assert is_trace_preserving(SuperOp(liou.space, big))
        broken = big.copy()
        broken[0, 0] += 0.5e200
        assert not is_trace_preserving(SuperOp(liou.space, broken))
        with pytest.raises(SpectralError, match="trace row"):
            liouvillian_eigensystem(SuperOp(liou.space, broken))
        bent = big.copy()
        bent[1, 0] += 1e190
        with pytest.raises(SpectralError, match="preserve Hermiticity"):
            liouvillian_eigensystem(SuperOp(liou.space, bent))

    def test_a_norm_bound_whose_product_overflows_is_still_finite(self):
        # omega_x = gamma_minus = 1e200: the column- and row-sum maxima of L
        # are finite but their product overflows; the cluster tolerance is
        # then sqrt(a) sqrt(b), with no overflow warning (an error under
        # pytest), and the analysis ends in its zero-eigenvalue refusal
        with pytest.raises(SpectralError, match="no eigenvalue within zero_tol"):
            analyze_liouvillian(assemble_liouvillian(example2(1e200, 1e200)))

    def test_an_overflow_in_the_hermitian_basis_names_its_grid_point(self):
        # L is finite, but its self-conjugate sector's change of basis adds
        # entries near the largest double into inf
        family = get_family("example3", levels=2).liouvillian_family("g")
        with pytest.raises(SpectralError, match="overflows in the Hermitian basis") as err:
            family.eigensystem(np.array([0.1, 0.2, 1.7e308]))
        assert err.value.point == 2

    @pytest.mark.parametrize("analysis", [analyze_liouvillian, liouvillian_eigensystem])
    def test_rejects_a_generator_that_does_not_preserve_hermiticity(self, analysis):
        # one entry off by 1e-6 on a row of an off-diagonal vec index: the
        # trace row still vanishes, but P conj(L) P = L fails, and the
        # mirrored sector would be the conjugate of the wrong block
        ok = assemble_liouvillian(example3(1.0, 0.1, 1.0, 0.5, levels=3))
        rows, cols, values = ok.entries
        d = ok.dim
        k = np.flatnonzero((rows // d != rows % d) & (rows != cols))[0]
        values = values.copy()
        values[k] += 1e-6
        bent = SuperOp(ok.space, entries=(rows, cols, values))
        assert np.linalg.norm(trace_row(bent)) <= 1e-12 * np.linalg.norm(values)
        with pytest.raises(SpectralError, match="preserve Hermiticity"):
            analysis(bent)
        with pytest.raises(SpectralError, match="preserve Hermiticity") as err:
            liouvillian_eigensystems([ok, bent])
        assert err.value.point == 1

    def test_an_entry_without_its_mirror_joins_the_partner_sectors(self):
        # an entry of 1e-14 |L|_F, below the symmetry check, from a k = 1
        # row to a k = 0 column: its mirror (k = -1 to k = 0) is 0, so the
        # three sectors (19 + 16 + 16 rows) are solved as one self-conjugate
        # sector, and the values stay closed under conjugation
        mat = assemble_liouvillian(example3(1.0, 0.1, 1.0, 0.5, levels=3)).matrix.copy()
        mat[1, 0] = 1e-14 * np.linalg.norm(mat)
        bent = SuperOp(HilbertSpace((9,)), mat)
        vals, blocks = _block_eig(81, bent.entries, partner=_partner([9]))
        assert sorted(r.shape[1] for r, _, _ in blocks for _ in r) == [1, 1, 4, 4, 10, 10, 51]
        assert conjugation_key(vals) == conjugation_key(vals.conj())
        assert_multiset_close(liouvillian_eigensystem(bent).eigenvalues,
                              np.linalg.eigvals(mat), 1e-12)

    def test_example3_takes_one_eig_per_conjugate_orbit(self, eig_calls):
        # levels=5: 17 sectors, two of them 1x1.  The sectors of at least
        # SCC_MIN_SIZE = 32 indices (85, 2 x 80, 2 x 68, 2 x 52, 2 x 35) are
        # solved by their units, the (N_l, N_r) blocks, the products of
        # H_eff's excitation blocks, which induce their values and vectors:
        # the seven of N = 1..7 (2, 3, 4, 5, 4, 3 and 2 states) take one
        # complex eig each, in one call per size, and the units none; the
        # three partner pairs left (20, 10 and 4
        # indices) take one complex eig each
        liou = assemble_liouvillian(example3(1.0, 0.1, 1.0, 0.5, levels=5))
        liouvillian_eigensystem(liou)
        assert sorted(eig_calls) == [(False, size, False) for size in (2, 2, 3, 3, 4, 4, 4, 5, 10,
                                                                        20)]
        assert eig_calls.invocations == 7
        del eig_calls[:]
        # the left vectors still take one eig per orbit of whole sectors
        analyze_liouvillian(liou)
        assert_one_eig_per_orbit(eig_calls, liou.matrix, left=True)
        assert sorted(real for _, _, real in eig_calls) == [False] * 7 + [True]

    def test_defect_flags_at_exceptional_point(self):
        spec = analyze_liouvillian(assemble_liouvillian(example2(1.0, 4.0)))
        merged = np.flatnonzero(np.abs(spec.eigenvalues + 3.0) < 1e-6)
        assert merged.size == 2
        assert spec.defect_flags[merged].any()
        assert not spec.defect_flags[spec.zero_mask].any()

    def test_complex_ep_clusters_are_conjugate(self):
        # complex EPs at -0.375 +- 1j and -1.125 +- 1j: each conjugate pair
        # of coalescing eigenvalues must be averaged the same way
        spec = analyze_liouvillian(assemble_liouvillian(example3(1.0, 0.125, 1.0, 0.5, levels=2)))
        means, counts = np.unique(spec.eigenvalues, return_counts=True)
        clustered = means[counts > 1]
        assert clustered.size == 4
        for lam in clustered:
            assert np.abs(clustered - lam.conjugate()).min() <= 1e-12

    def test_deterministic_output(self):
        liou = assemble_liouvillian(example1(1.0, 0.3, 1.7, 2.0))
        a = analyze_liouvillian(liou)
        b = analyze_liouvillian(liou)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.right_mats, b.right_mats)
        assert np.array_equal(a.left_mats, b.left_mats)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spectrum_invariants_on_random_models(seed):
    liou = assemble_liouvillian(random_lindblad_model(np.random.default_rng(seed)))
    spec = analyze_liouvillian(liou)
    vals = spec.eigenvalues
    assert biorthonormality_residual(spec) <= 1e-8
    key = list(zip(np.abs(vals.real), vals.imag))
    assert key == sorted(key)
    for lam in vals:
        assert np.abs(vals - lam.conjugate()).min() <= 1e-8
    # conjugate pairs are exact: the spectrum is closed under conjugation bitwise
    assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))
    # the right-only eigensystem is the same spectrum, in the same order,
    # bit for bit
    lean = liouvillian_eigensystem(liou)
    assert lean.eigenvalues.tobytes() == vals.tobytes()
    assert np.array_equal(lean.zero_mask, spec.zero_mask)
    overlaps = np.abs(np.sum(lean.vectors.conj() * spec.vectors, axis=0))
    assert overlaps.min() >= 1 - 1e-8
    # trace preservation: vec(1)^dag L = 0; the steady state is a density matrix
    assert np.linalg.norm(trace_row(liou)) <= 1e-12 * np.linalg.norm(liou.matrix)
    ss = spec.steady_state.matrix
    assert abs(np.trace(ss) - 1) <= 1e-12
    assert np.linalg.eigvalsh(ss).min() >= -1e-10


def real_singletons(spec) -> np.ndarray:
    """The nonzero eigenvalues with Im exactly 0 that occur once."""
    vals = spec.eigenvalues
    _, at, count = np.unique(vals, return_inverse=True, return_counts=True)
    return ~spec.zero_mask & (vals.imag == 0) & (count[at] == 1)


def isolated_real_modes_are_hermitian(spec) -> int:
    """Every real singleton has an eigenmatrix equal to its adjoint, and
    the real part of its largest entry, or the imaginary part where that
    is larger, is not negative.  Returns how many there are."""
    isolated = real_singletons(spec)
    for m in spec.right_mats[isolated]:
        assert np.array_equal(m, m.conj().T)
        piv = m.reshape(-1)[np.argmax(np.abs(m))]
        assert (piv.real if abs(piv.real) >= abs(piv.imag) else piv.imag) >= 0
    return int(isolated.sum())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_isolated_real_modes_are_hermitian_on_random_models(seed):
    model = random_lindblad_model(np.random.default_rng(seed))
    isolated_real_modes_are_hermitian(analyze_liouvillian(assemble_liouvillian(model)))


@pytest.mark.parametrize("name,grid", [
    ("example1", np.linspace(0.0, 4.0, 9)), ("example2", np.linspace(0.5, 5.0, 10)),
    ("example3", np.linspace(0.0, 0.25, 9)),
])
def test_isolated_real_modes_are_hermitian_through_the_eps(name, grid):
    """Each bundled family on a grid through its EPs; dephasing has no
    isolated real mode, as its only real eigenvalue is the zero one."""
    family = get_family(name)
    count = sum(isolated_real_modes_are_hermitian(
        analyze_liouvillian(assemble_liouvillian(family.build(float(g))))) for g in grid)
    assert count > 0


def test_a_real_cluster_of_a_conjugate_pair_keeps_the_canonical_phase():
    """At omega = 3e-8 example3 has the values -1.8 +- 9e-8 i in two
    partner sectors and -1.8 in the self-conjugate one, all within the
    cluster tolerance (1.4e-7) of each other or of the real axis.  The
    cluster rule joins all three into one real cluster, whose eigenmatrices
    are not Hermitian: they take the canonical phase, a real positive
    largest entry, and no real singleton is left with a non-Hermitian
    eigenmatrix."""
    spec = analyze_liouvillian(assemble_liouvillian(example3(3e-8, 0.1, 1.0, 0.5, levels=3)))
    vecs, p = spec.vectors, _partner([spec.dim])
    cluster = np.flatnonzero(spec.eigenvalues == -1.8)
    assert cluster.size == 3
    odd = [x for x in vecs[:, cluster].T if not np.array_equal(x, x[p].conj())]
    assert len(odd) == 2 and max(np.count_nonzero(x) for x in odd) > 1
    for x in odd:
        piv = x[np.argmax(np.abs(x))]
        assert piv.imag == 0 and piv.real > 0
    isolated_real_modes_are_hermitian(spec)


@pytest.mark.parametrize("levels", [2, 3])
def test_isolated_real_modes_are_hermitian_near_the_closed_limit(levels):
    """example3 at omega of the order of the cluster tolerance, where
    near-real conjugate pairs of partner sectors sit next to real values of
    the self-conjugate one: each pair lands in one cluster with them, so
    every real singleton is a Hermitian mode (46 were not before)."""
    count = 0
    for omega in np.linspace(1e-8, 2e-7, 20):
        for g in (0.05, 0.1, 0.3):
            liou = assemble_liouvillian(example3(float(omega), g, 1.0, 0.5, levels=levels))
            count += isolated_real_modes_are_hermitian(analyze_liouvillian(liou))
    assert count > 0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["random"] + family_names()), seed=st.integers(0, 2**32 - 1))
def test_block_eig_solves_each_conjugate_orbit_exactly(kind, seed):
    """_block_eig with the partner swap P, before any clustering, with the
    left vectors (every sector solved whole) and without them, given the
    generator's (H_eff, Gamma) factors (the sectors of at least
    SCC_MIN_SIZE indices whose units H_eff induces solved by those units):
    the values are closed under conjugation bit for bit; a mirrored
    sector's values and vectors, right and left, are the conjugates of
    its partner's with the rows moved by P, bit for bit; in
    a self-conjugate sector a value with Im exactly 0 has a Hermitian
    eigenmatrix, and every other value's conjugate is a value of the
    sector whose vector is P conj of its own, bit for bit; the multiset is
    the dense eig's within 1e-12 |L|.  The two solves agree bit for bit on
    every sector that is not split."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        model = random_lindblad_model(rng)
    else:
        model = get_family(kind).build(float(rng.uniform(0.05, 2.0)))
    liou = assemble_liouvillian(model)
    n, p = liou.dim ** 2, _partner([liou.dim])
    vals, blocks, lblocks = _block_eig(n, liou.entries, left=True, partner=p)
    right_vals, right_blocks = _block_eig(n, liou.entries, partner=p, factors=[liou.factors])
    dense = np.linalg.eigvals(liou.matrix)
    for got, stored, whole in ((vals, (blocks, lblocks), True),
                               (right_vals, (right_blocks,), False)):
        assert conjugation_key(got) == conjugation_key(got.conj())
        assert_conjugate_orbits(got, [_scatter(b) for b in stored], stored[0], p, whole)
        dist = np.abs(got[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-12 * np.linalg.norm(liou.entries[2])
    whole = np.concatenate([c.ravel() for r, c, _ in blocks if r.shape[1] < SCC_MIN_SIZE]
                           + [np.zeros(0, dtype=np.intp)])
    assert right_vals[whole].tobytes() == vals[whole].tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["example3", "dephasing", "random"]),
       levels=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1))
def test_blockwise_spectrum_matches_the_dense_one(kind, levels, seed):
    rng = np.random.default_rng(seed)
    if kind == "example3":
        model = example3(rng.uniform(0.5, 1.5), rng.uniform(0.02, 0.5),
                         rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5), levels=levels)
    elif kind == "dephasing":
        model = dephasing(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), levels)
    else:
        model = random_lindblad_model(rng)
    liou = assemble_liouvillian(model)
    mat = liou.matrix
    lean = liouvillian_eigensystem(liou)
    dist = np.abs(lean.eigenvalues[:, None] - scipy.linalg.eigvals(mat)[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-9 * np.abs(mat).max()
    # sectors: weakly connected components of the sparsity graph
    nonzero = mat != 0
    _, sector = connected_components(nonzero | nonzero.T, directed=False)
    if kind == "random":
        assert np.all(sector == 0)
    # each right vector lives on one sector, so vectors of different
    # sectors are exactly orthogonal
    support = [np.unique(sector[np.flatnonzero(v)]) for v in lean.vectors.T]
    assert all(s.size == 1 for s in support)
    own = np.concatenate(support)
    assert np.all(overlap_matrix(lean)[own[:, None] != own[None, :]] == 0)
    # the steady state is the trace-carrying part of the dense kernel
    kernel = scipy.linalg.null_space(mat)
    ss = devectorize(kernel @ (kernel.conj().T @ vectorize(np.eye(model.dim))))
    ss = 0.5 * (ss + ss.conj().T)
    ss = ss / np.trace(ss).real
    assert np.abs(analyze_liouvillian(liou).steady_state.matrix - ss).max() <= 1e-10


class TestAnalyzeNhh:
    def test_example2_closed_form(self):
        cf = example2_closed_form(1.0, 1.0)
        heff = effective_hamiltonian(example2(1.0, 1.0))
        nhh = analyze_nhh(heff)
        assert_multiset_close(nhh.eigenvalues, cf["h"], 1e-12)
        # eigenvectors match the printed ones up to phase
        for k in range(2):
            overlaps = [abs(np.vdot(cf["phis"][:, k], nhh.vectors[:, j]))
                        for j in range(2)]
            assert max(overlaps) >= 1 - 1e-12
        assert not nhh.near_defective
        # eigenpair residuals
        for k in range(2):
            resid = heff.matrix @ nhh.vectors[:, k] \
                - nhh.eigenvalues[k] * nhh.vectors[:, k]
            assert np.linalg.norm(resid) <= 1e-10

    def test_example1_nhh_never_merges(self):
        # the effective Hamiltonian is diagonal; its gap never closes
        for gx in np.linspace(0.0, 8.0, 17):
            nhh = analyze_nhh(effective_hamiltonian(example1(1.0, 0.0, gx, 2.0)))
            assert abs(nhh.eigenvalues[0] - nhh.eigenvalues[1]) >= 1.0

    def test_hermitian_limit(self):
        nhh = analyze_nhh(Operator(SPACE, Q["sigma_x"].matrix))
        assert np.abs(nhh.eigenvalues.imag).max() <= 1e-14
        assert np.abs(nhh.induced_eigenvalues().real).max() <= 1e-14

    def test_induced_pairs_reproduce_no_jump_spectrum(self):
        for gm in (0.5, 1.5, 3.0, 5.0):
            model = example2(1.0, gm)
            nhh = analyze_nhh(effective_hamiltonian(model))
            lp_vals = np.linalg.eigvals(assemble_liouvillian_no_jumps(model).matrix)
            assert_multiset_close(nhh.induced_eigenvalues(), lp_vals, 1e-8)

    def test_induced_eigenmatrices_are_no_jump_eigenmatrices(self):
        model = example2(1.0, 1.2)
        nhh = analyze_nhh(effective_hamiltonian(model))
        lp = assemble_liouvillian_no_jumps(model).matrix
        for l in range(2):
            for m in range(2):
                rho = nhh.induced_eigenmatrix(l, m)
                lam = -1j * (nhh.eigenvalues[l] - nhh.eigenvalues[m].conj())
                resid = lp @ rho.reshape(-1) - lam * rho.reshape(-1)
                assert np.linalg.norm(resid) <= 1e-10

    def test_near_defective_flag(self):
        nhh = analyze_nhh(effective_hamiltonian(example2(1.0, 2.0)))
        assert nhh.near_defective


class TestDecompositions:
    def test_pm_sigma_z(self):
        plus, minus = pm_decomposition(Q["sigma_z"])
        assert_allclose(plus.matrix, np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(minus.matrix, np.diag([0.0, 1.0]), atol=1e-14)

    def test_pm_outputs_are_density_matrices(self, rng):
        for _ in range(10):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = 0.5 * (m + m.conj().T)
            m -= np.trace(m) * np.eye(4) / 4
            from lioueps.ops_core import HilbertSpace
            rho = Operator(HilbertSpace((4,)), m)
            plus, minus = pm_decomposition(rho)
            for part in (plus, minus):
                assert part.trace() == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(part.matrix).min() >= -1e-10
            # rho is proportional to (plus - minus)
            diff = plus.matrix - minus.matrix
            scale = np.vdot(diff, m) / np.vdot(diff, diff)
            assert np.abs(m - scale * diff).max() <= 1e-8

    def test_pm_example1_population_eigenmatrix(self):
        rho3 = example1_closed_form(1.0, 0.5, 0.7, 2.0)["rhos"][3]
        from lioueps.ops_core import qubit_space
        plus, minus = pm_decomposition(Operator(qubit_space(), rho3))
        assert_allclose(plus.matrix, np.diag([0.0, 1.0]), atol=1e-14)
        assert_allclose(minus.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_pm_coherence_pair_below_generator_ep(self):
        # Hermitian combination of the conjugate coherence pair at weak
        # decay: the oracle is a dense Hermitian eigensolve
        cf = example2_closed_form(1.0, 1.0)
        combo = cf["rhos"][2] + cf["rhos"][3]
        rho = Operator(SPACE, combo)
        dec = hermitian_spectral_decomposition(rho)
        plus, minus = pm_decomposition(rho)
        psi_plus = dec.eigenvectors[:, 0]
        psi_minus = dec.eigenvectors[:, 1]
        assert_allclose(plus.matrix, np.outer(psi_plus, psi_plus.conj()), atol=1e-10)
        assert_allclose(minus.matrix, np.outer(psi_minus, psi_minus.conj()), atol=1e-10)
        # and the +- projector difference reconstructs the combination
        diff = plus.matrix - minus.matrix
        scale = np.vdot(diff, combo) / np.vdot(diff, diff)
        assert np.abs(combo - scale * diff).max() <= 1e-10

    def test_pm_matches_printed_states_above_generator_ep(self):
        # where the coherence eigenmatrices are Hermitian, their +- wave
        # functions coincide with the closed-form psi columns, both for the
        # printed eigenmatrices and for the Hermitian representatives that
        # analyze_liouvillian returns for the isolated real modes 2 and 3
        for gm in (4.5, 5.0, 6.0):
            cf = example2_closed_form(1.0, gm)
            spec = analyze_liouvillian(assemble_liouvillian(example2(1.0, gm)))
            for rho, psis in ((Operator(SPACE, cf["rhos"][2]), cf["psi2"]),
                              (Operator(SPACE, cf["rhos"][3]), cf["psi3"]),
                              (spec.right(2), cf["psi2"]),
                              (spec.right(3), cf["psi3"])):
                plus, minus = pm_decomposition(rho)
                states = []
                for part in (plus, minus):
                    dec = np.linalg.eigh(part.matrix)
                    states.append(dec[1][:, -1])
                for k in range(2):
                    best = max(abs(np.vdot(psis[:, k], s)) for s in states)
                    assert best >= 1 - 1e-8

    def test_pm_errors(self):
        with pytest.raises(HermiticityError):
            pm_decomposition(Q["sigma_plus"])
        with pytest.raises(SpectralError, match="not traceless"):
            pm_decomposition(Q["identity"])

    def test_sym_antisym(self):
        sym, anti = sym_antisym(Q["sigma_plus"])
        assert_allclose(sym.matrix, Q["sigma_x"].matrix, atol=1e-15)
        assert_allclose(anti.matrix, -Q["sigma_y"].matrix, atol=1e-15)
        sym_h, anti_h = sym_antisym(Q["sigma_z"])
        assert_allclose(sym_h.matrix, 2 * Q["sigma_z"].matrix, atol=1e-15)
        assert_allclose(anti_h.matrix, np.zeros((2, 2)), atol=1e-15)
        # both outputs Hermitian for arbitrary input
        spec = analyze_liouvillian(assemble_liouvillian(example2(1.0, 1.0)))
        s, a = sym_antisym(spec.right(2))
        assert s.is_hermitian(1e-12)
        assert a.is_hermitian(1e-12)

    def test_canonical_phase_of_a_column_stack_matches_each_column(self):
        # eigenvectors of a generator and of H_eff, plus a zero column
        _, vecs = np.linalg.eig(assemble_liouvillian(example3(1.0, 0.1, 1.0, 0.5, 3)).matrix)
        _, phis = np.linalg.eig(effective_hamiltonian(example3(1.0, 0.1, 1.0, 0.5, 9)).matrix)
        stack = np.hstack([vecs, phis, np.zeros((81, 1))])
        expected = stack.copy()
        for i in range(stack.shape[1]):
            v = stack[:, i]
            piv = v[np.argmax(np.abs(v))]
            if piv != 0:
                expected[:, i] = v * (abs(piv) / piv)
        assert _canonical_phase(stack).tobytes() == expected.tobytes()
        for i in (0, 40, stack.shape[1] - 1):
            assert _canonical_phase(stack[:, i]).tobytes() == expected[:, i].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_eig_refuses_a_nonfinite_1x1_sector(self, bad):
        # the 1x1 sectors never reach eig, whose own finiteness check
        # covers the larger ones
        mat = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, bad]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            _block_eig(3, _dense_entries(mat))


@pytest.mark.parametrize("entry, bad", [((4, 8), np.inf), ((4, 8), np.nan), ((1, 1), np.inf)],
                         ids=["mirrored-inf", "mirrored-nan", "solved-inf"])
@pytest.mark.parametrize("solve", [liouvillian_eigensystem, analyze_liouvillian])
def test_a_nonfinite_generator_entry_is_refused_before_any_check(solve, entry, bad):
    # entry (4, 8) of example3 levels=2 lies in the mirrored partner sector
    # of label 4, which _block_eig never solves, and (1, 1) in a solved one;
    # the trace-row and Hermiticity checks would read a NaN or inf scale
    liou = assemble_liouvillian(example3(1.0, 0.1, 1.0, 0.5, 2))
    mat = liou.matrix.copy()
    mat[entry] = bad
    with pytest.raises(SpectralError, match=rf"non-finite entry .* at \({entry[0]}, {entry[1]}\)"):
        solve(SuperOp(liou.space, mat))


class TestCheckLemmas:
    def test_dephasing_model_all_pass_including_commuting_case(self):
        model = dephasing(1.0, 1.0, 4)
        spec = analyze_liouvillian(assemble_liouvillian(model))
        report = check_lemmas(spec, model)
        assert report.all_passed
        named = {c.name: c for c in report.checks}
        assert "min best overlap" in named["commuting-jumps"].detail

    def test_example2_traceless_decaying_modes(self):
        model = example2(1.0, 1.0)
        spec = analyze_liouvillian(assemble_liouvillian(model))
        report = check_lemmas(spec, model)
        assert report.all_passed
        for i in range(1, 4):
            assert abs(np.trace(spec.right_mats[i])) <= 1e-8

    def test_propagation_check_is_exact_at_time_zero(self):
        model = example1(1.0, 0.2, 0.5, 2.0)
        spec = analyze_liouvillian(assemble_liouvillian(model))
        report = check_lemmas(spec, model, t=0.0)
        named = {c.name: c for c in report.checks}
        assert named["eigenmode-decay"].passed

    def test_report_formatting(self):
        model = example2(1.0, 0.5)
        spec = analyze_liouvillian(assemble_liouvillian(model))
        text = str(check_lemmas(spec, model))
        assert "PASS" in text and "FAIL" not in text
