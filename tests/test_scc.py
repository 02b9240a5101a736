"""The right-only eigensolve by strongly connected components against its
oracles.

_block_eig solves each sector of at least SCC_MIN_SIZE indices one
strongly connected component at a time and back-substitutes the
vectors; the dense solve of each sector (the left-vector path, and the
fallback of a sector that fails the residual check) and scipy's labelling
are the references here, with the untruncated spectrum of example3
(models.example3_spectrum) as the oracle of the values.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from lioueps import sectors
from lioueps.models import example3, example3_spectrum, get_family
from lioueps.ops_core import HilbertSpace, Operator, build_boson_ops, tensor
from lioueps.sectors import _block_eig, _partner, _strong_components
from lioueps.spectral import (_scatter, liouvillian_eigensystem, liouvillian_eigensystems,
                              nhh_eigensystem)
from lioueps.superop import LindbladModel, SuperOp, assemble_liouvillian, effective_hamiltonian

from conftest import random_hermitian, random_lindblad_model

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# the ep-locate-l3 benchmark config at seed 0: its 33-point bracket puts
# grid point 16 on the EP g = (gamma_a - gamma_b) / 4
OMEGA, GAMMA_A, GAMMA_B = 1.065791612069049, 1.0099521614821052, 0.3915108573095691


def smallest_node_labels(labels):
    """Component labels renamed to the smallest node of each component."""
    first = np.full(labels.max(initial=-1) + 1, labels.size)
    np.minimum.at(first, labels, np.arange(labels.size))
    return first[labels]


def expected_components(n, src, dst):
    """scipy's strong components, renamed to their smallest nodes, with
    each weakly connected piece whose strong components are more than the
    components of its edges present both ways labelled whole: the pieces
    whose contracted graph has a cycle."""
    graph = scipy.sparse.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n)).tocsr()
    labels = [smallest_node_labels(connected_components(g, directed=directed, connection=kind)[1])
              for g, directed, kind in ((graph, True, "strong"),
                                        (graph.multiply(graph.T), False, "weak"),
                                        (graph, False, "weak"))]
    strong, mutual, weak = labels
    cyclic = np.zeros(n, dtype=bool)
    cyclic[weak[strong != mutual]] = True
    return np.where(cyclic[weak], weak, strong), cyclic[weak]


def condensation_levels(n, src, dst):
    """The longest path into each node's strong component over scipy's
    condensation DAG of the graph, by Kahn's topological order."""
    graph = scipy.sparse.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n)).tocsr()
    strong = connected_components(graph, directed=True, connection="strong")[1]
    edges = {(a, b) for a, b in zip(strong[src].tolist(), strong[dst].tolist()) if a != b}
    into = np.zeros(strong.max(initial=-1) + 1, dtype=int)
    for _, b in edges:
        into[b] += 1
    level = np.zeros(into.size, dtype=int)
    ready = [c for c in range(into.size) if not into[c]]
    while ready:
        a = ready.pop()
        for b in [b for x, b in edges if x == a]:
            level[b] = max(level[b], level[a] + 1)
            into[b] -= 1
            if not into[b]:
                ready.append(b)
    return level[strong]


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["random", "mirrored", "chain"]))
def test_strong_components_match_scipy(seed, shape):
    """Random directed graphs: sparse and dense ones, with nodes on no
    edge (1x1 components), edges mirrored by the swap P of a Liouvillian's
    indices, and acyclic chains of 60 to 90 nodes, whose relaxation takes
    about as many steps, with or without one edge back that closes a
    long cycle.  Where a piece's edges one way
    only close no cycle, the labels are scipy's strong components and the
    levels the longest paths over their condensation; a piece where they
    do is labelled whole, the sector it is solved as, at level 0."""
    rng = np.random.default_rng(seed)
    if shape == "chain":
        n = int(rng.integers(60, 90))
        src = np.r_[np.arange(n - 1), rng.integers(0, n, 5)]
        dst = np.r_[np.arange(1, n), rng.integers(0, n, 5)]
        src, dst = src[src < dst], dst[src < dst]
        back = rng.random() < 0.5
        if back:
            # one edge back closes a long cycle
            src, dst = np.r_[src, n - 1 - int(rng.integers(0, 5))], np.r_[dst, int(rng.integers(0, 5))]
    else:
        d = int(rng.integers(1, 7))
        n = d * d
        m = int(rng.integers(0, 3 * n + 1))
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        if shape == "mirrored":
            p = _partner([d])
            src, dst = np.r_[src, p[src]], np.r_[dst, p[dst]]
    want, whole = expected_components(n, src, dst)
    labels, level = _strong_components(n, src, dst)
    assert np.array_equal(labels, want)
    assert np.array_equal(level, np.where(whole, 0, condensation_levels(n, src, dst)))
    if shape == "chain":
        assert whole.all() == back and (whole.any() or np.unique(want).size == n)


def mirrored_cycle_model():
    """A five-level generator whose self-conjugate sector holds the
    components C = {|0><1|}, P C, D = {|2><3|} and P D, with C -> D: a
    one-way entry D -> P C of 1e-14 |L|_F, whose mirror P D -> C is 0,
    closes a cycle only through the mirrored edges."""
    d, e = 5, np.eye(5)
    space = HilbertSpace((d,))
    jumps = (np.outer(e[2], e[0]) + 0.7 * np.outer(e[3], e[1]), np.outer(e[0] + 0.5 * e[1], e[4]))
    model = LindbladModel(Operator(space, np.diag([0.0, 0.3, 0.7, 1.1, 1.6]).astype(complex)),
                          tuple((rate, Operator(space, j)) for rate, j in zip((1.0, 0.6), jumps)))
    mat = assemble_liouvillian(model).matrix.copy()
    mat[1 * d + 0, 2 * d + 3] = 1e-14 * np.linalg.norm(mat)
    return SuperOp(space, mat)


def example3_one_way_model():
    """example3 at levels=5 with a one-way entry of 1e-14 |L|_F from
    |00><00| into |10><01|, against the jumps, whose mirror is 0."""
    mat = assemble_liouvillian(example3(1.0, 0.1, 1.0, 0.5, levels=5)).matrix.copy()
    mat[5 * 25 + 1, 0] = 1e-14 * np.linalg.norm(mat)
    return SuperOp(HilbertSpace((5, 5)), mat)


@pytest.mark.parametrize("build,min_size", [(mirrored_cycle_model, 1),
                                            (example3_one_way_model, sectors.SCC_MIN_SIZE)])
def test_one_way_entries_within_the_hermiticity_tolerance(build, min_size):
    """Generators that pass the 1e-12 |L|_F Hermiticity check with an
    entry whose P-mirror is 0: the components are those of the graph with
    the mirrored edges added, so the units of a self-conjugate sector
    form no cycle and the solve ends, with the dense eigenvalues (the
    five-level sector is split with SCC_MIN_SIZE = 1)."""
    liou = build()
    with mock.patch.object(sectors, "SCC_MIN_SIZE", min_size):
        got = liouvillian_eigensystem(liou).eigenvalues
    want = np.linalg.eigvals(liou.matrix)
    dist = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-12 * np.linalg.norm(liou.matrix, 1)


def random_lowering_model(rng, levels):
    """Two modes with a cutoff: a random Hermitian H that keeps the total
    excitation number and one or two channels c1 a + c2 b that lower it,
    so that L is block triangular on the (N_l, N_r) blocks, each one
    strongly connected component."""
    bos = build_boson_ops(levels)
    a, b = tensor(bos["a"], bos["identity"]), tensor(bos["identity"], bos["a"])
    total = np.add.outer(np.arange(levels), np.arange(levels)).ravel()
    h = random_hermitian(rng, levels * levels) * (total[:, None] == total[None, :])
    jumps = []
    for _ in range(int(rng.integers(1, 3))):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        jumps.append((float(rng.uniform(0.2, 1.0)),
                      Operator(a.space, c[0] * a.matrix + c[1] * b.matrix)))
    return LindbladModel(Operator(a.space, h), tuple(jumps))


def raw_residuals(liou, vals, blocks):
    """|L x - lambda x| / (|x| |L|_1) of each column of a solve, one
    stored sector block at a time."""
    mat, out = liou.matrix, np.empty(vals.size)
    for rows, cols, vecs in blocks:
        for r, c, v in zip(rows, cols, vecs):
            resid = np.linalg.norm(mat[np.ix_(r, r)] @ v - v * vals[c], axis=0)
            out[c] = resid / np.linalg.norm(v, axis=0)
    return out / np.linalg.norm(mat, 1)


@ORACLE
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "lowering"]))
def test_scc_solve_against_the_dense_sector_solve(seed, kind):
    """Every sector split (SCC_MIN_SIZE = 1): on random_lindblad_model a
    sector is one component and the solve is the dense sector solve's
    bit for bit; on models whose sectors hold several components the
    values match the dense solve's within 1e-10 |L|_1, and the residuals
    stay within SCC_RESIDUAL_TOL of |x| |L|_1 or within the dense solve's
    own."""
    rng = np.random.default_rng(seed)
    model = (random_lindblad_model(rng) if kind == "random"
             else random_lowering_model(rng, int(rng.integers(2, 4))))
    liou = assemble_liouvillian(model)
    n, p = liou.dim ** 2, _partner([liou.dim])
    dense_vals, dense_blocks, _ = _block_eig(n, liou.entries, left=True, partner=p)
    with mock.patch.object(sectors, "SCC_MIN_SIZE", 1):
        vals, blocks = _block_eig(n, liou.entries, partner=p)
    if kind == "random":
        assert vals.tobytes() == dense_vals.tobytes()
        assert _scatter(blocks).tobytes() == _scatter(dense_blocks).tobytes()
        return
    scale = np.linalg.norm(liou.matrix, 1)
    dist = np.abs(vals[:, None] - dense_vals[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-10 * scale
    worst = raw_residuals(liou, dense_vals, dense_blocks).max()
    assert raw_residuals(liou, vals, blocks).max() <= max(worst, 2 * sectors.SCC_RESIDUAL_TOL)


@pytest.mark.parametrize("levels", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("g", [0.02, 0.4])
def test_complete_sectors_match_the_untruncated_spectrum(levels, g):
    """Off the EP (g* = 0.125), the blocks that the cutoff leaves whole
    have exactly the lattice values of example3_spectrum, within 1e-13."""
    oracle = example3_spectrum(1.0, g, 1.0, 0.5, levels)
    want = oracle["lambdas"][oracle["complete"]]
    got = liouvillian_eigensystem(assemble_liouvillian(example3(1.0, g, 1.0, 0.5, levels)))
    dist = np.abs(want[:, None] - got.eigenvalues[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-13


def jordan_partition(mat, lam):
    """The Jordan block sizes of mat at its only eigenvalue lam, from the
    ranks of the powers of mat - lam (singular values above 1e-9 of the
    largest count)."""
    shifted, power, ranks = mat - lam * np.eye(len(mat)), np.eye(len(mat)), [len(mat)]
    while ranks[-1]:
        power = power @ shifted
        s = np.linalg.svd(power, compute_uv=False)
        ranks.append(int((s > 1e-9 * s[0]).sum()) if s[0] > 1e-9 else 0)
    at_least = -np.diff(ranks)
    return tuple(size for size in range(len(at_least), 0, -1)
                 for _ in range(at_least[size - 1] - (at_least[size] if size < len(at_least)
                                                      else 0)))


EP_PARTITIONS = {
    (0, 0): (1,), (0, 1): (2,), (0, 2): (3,), (0, 3): (4,),
    (1, 1): (3, 1), (1, 2): (4, 2), (1, 3): (5, 3),
    (2, 2): (5, 3, 1), (2, 3): (6, 4, 2), (3, 3): (7, 5, 3, 1),
}


def test_ep_jordan_partitions():
    """At kappa1 = kappa2 (g = 0.125) each (N_l, N_r) block of L has one
    eigenvalue, with the Clebsch-Gordan partition N_l + N_r + 1,
    N_l + N_r - 1, ..., |N_l - N_r| + 1, pinned up to (3, 3) and read off
    the blocks of the truncated L at levels=4, which leaves them whole."""
    levels = 4
    oracle = example3_spectrum(1.0, 0.125, 1.0, 0.5, levels)
    mat = assemble_liouvillian(example3(1.0, 0.125, 1.0, 0.5, levels)).matrix
    total = np.add.outer(np.arange(levels), np.arange(levels)).ravel()
    left, right = (total[i] for i in np.divmod(np.arange(mat.shape[0]), levels * levels))
    for (nl, nr), want in EP_PARTITIONS.items():
        for key in ((nl, nr), (nr, nl)):
            assert oracle["jordan"][key] == want
            at = (oracle["sectors"] == key).all(axis=1)
            assert oracle["complete"][at].all() and at.sum() == sum(want)
            lam = oracle["lambdas"][at]
            assert np.abs(lam - lam[0]).max() <= 1e-14
            idx = np.flatnonzero((left == key[0]) & (right == key[1]))
            assert jordan_partition(mat[np.ix_(idx, idx)], lam[0]) == want


def test_the_one_excitation_closed_form_is_the_n1_case():
    cf_spec = example3_spectrum(1.0, 0.2, 1.0, 0.5, levels=3)
    from lioueps.models import example3_one_excitation_closed_form
    cf = example3_one_excitation_closed_form(1.0, 0.2, 1.0, 0.5)
    one = (cf_spec["sectors"] == (1, 0)).all(axis=1)
    assert np.array_equal(cf["h"], 1j * cf_spec["lambdas"][one])
    assert np.abs(cf["h"] - 1j * cf_spec["kappa"]).max() <= 1e-15


@pytest.mark.parametrize("levels,min_size", [(3, 1), (4, None)])
def test_the_fallback_fires_only_at_the_ep(levels, min_size):
    """The ep-locate-l3 benchmark grid (seed 0) at levels=3, every sector
    split, and at levels=4, where the sectors of 44 and 40 indices are:
    the dense solve of the sectors that fail the residual check, the
    second call of _dense_eig (the first solves the sectors of one
    component), runs at the EP point (16) alone, where back-substitution
    through a defective component fails."""
    family = get_family("example3", levels=levels, omega=OMEGA, gamma_a=GAMMA_A,
                        gamma_b=GAMMA_B).liouvillian_family()
    lo = (GAMMA_A - GAMMA_B) / 4 - 0.1
    grid = np.linspace(lo, lo + 0.2, 33)
    size = min_size or sectors.SCC_MIN_SIZE
    with mock.patch.object(sectors, "SCC_MIN_SIZE", size), \
            mock.patch.object(sectors, "_dense_eig", wraps=sectors._dense_eig) as dense:
        family.eigensystem(grid)
    _, again = dense.call_args_list
    skip = again.args[5]
    assert set(np.flatnonzero(~skip) // levels ** 4) == {16}


@pytest.mark.parametrize("levels", [3, 5, 8])
def test_residuals_are_no_larger_than_the_dense_solve(levels):
    """example3 at g = 0.1 and g = 0.4: the worst |L x - lambda x| /
    (|x| |L|_1) of the right-only solve is at most that of the dense
    solve of each sector (every sector left whole)."""
    for g in (0.1, 0.4):
        liou = assemble_liouvillian(example3(1.0, g, 1.0, 0.5, levels))
        n, p = liou.dim ** 2, _partner([liou.dim])
        vals, blocks = _block_eig(n, liou.entries, partner=p)
        with mock.patch.object(sectors, "SCC_MIN_SIZE", n + 1):
            dense_vals, dense_blocks = _block_eig(n, liou.entries, partner=p)
        assert (raw_residuals(liou, vals, blocks).max()
                <= raw_residuals(liou, dense_vals, dense_blocks).max())


def test_each_grid_point_gets_the_bits_it_gets_alone():
    """A grid's split sectors are back-substituted in stacks of one shape,
    so no point's solve depends on the others: a 9-point levels=5 sweep,
    and a list that mixes cutoffs and g = 0, where the components split
    further."""
    family = get_family("example3", levels=5).liouvillian_family()
    grid = np.linspace(0.03, 0.23, 9)
    lious = [assemble_liouvillian(example3(1.0, g, 1.0, 0.5, levels))
             for g, levels in [(0.0, 5), (0.1, 5), (0.1, 6), (0.3, 4)]]
    pairs = list(zip(family.eigensystem(grid), (family.eigensystem([g])[0] for g in grid)))
    pairs += list(zip(liouvillian_eigensystems(lious), map(liouvillian_eigensystem, lious)))
    for got, alone in pairs:
        assert got.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert got.vectors.tobytes() == alone.vectors.tobytes()


def test_row_order_survives_a_perturbation_of_l():
    """example3 levels=5 with its parameters moved by 1e-14 of themselves:
    L moves by about 1e-14 and every row keeps its eigenvalue, to rounding,
    because values that share |Re| up to rounding order by Im (599 of 625
    rows moved before)."""
    params = np.array([1.0, 0.4, 1.0, 0.5])
    a = liouvillian_eigensystem(assemble_liouvillian(example3(*params, levels=5)))
    b = liouvillian_eigensystem(assemble_liouvillian(example3(*params * (1 + 1e-14), levels=5)))
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-12


def test_nhh_family_builds_the_grid_in_one_stack():
    """nhh_family's grid H_eff stack, made in one pass, gives each point's
    effective_hamiltonian bit for bit, and so its eigensystem."""
    family = get_family("example3", levels=3)
    grid = np.linspace(0.05, 0.25, 9)
    for g, got in zip(grid, family.nhh_family().eigensystem(grid)):
        want = nhh_eigensystem(effective_hamiltonian(family.build(g)).matrix)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()
