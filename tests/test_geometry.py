"""Partition enumeration, per-partition outcomes, rank/centrality/interior."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from synsetgeom import (
    DEFAULT_EPS,
    DEFAULT_MAX_SYNSET_SIZE,
    DegenerateGeometryError,
    ResolvedSynset,
    SynsetSizeError,
    analyze_synset,
    enumerate_partitions,
    partition_outcomes,
)
from synsetgeom import geometry

import oracle
from synth import (
    make_synset,
    partition_row,
    random_synset,
    synset_rows,
    unit_rows,
    vector_table,
)


def word_attributes(syn, focus, eps=DEFAULT_EPS, **kwargs):
    """One word's attributes, summed from its partition_outcomes table."""
    table = partition_outcomes(syn, focus, eps, **kwargs)
    return geometry.word_attributes(syn.tokens[focus], table, eps)


def brute_force_masks(m):
    """Proper nonempty subsets of {0..m-1} containing element 0."""
    return [
        mask
        for mask in range(1, (1 << m) - 1)
        if mask & 1
    ]


class TestEnumeratePartitions:
    def test_three_remaining_words_give_three_partitions(self):
        assert len(list(enumerate_partitions(3))) == 3

    def test_two_remaining_words_give_one_partition(self):
        assert list(enumerate_partitions(2)) == [0b01]

    def test_five_remaining_words_give_fifteen(self):
        masks = list(enumerate_partitions(5))
        assert len(masks) == 15
        assert sorted(masks) == brute_force_masks(5)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_count_identity_and_canonical_form(self, m):
        masks = list(enumerate_partitions(m))
        assert len(masks) == 2 ** (m - 1) - 1
        assert len(set(masks)) == len(masks)
        full = (1 << m) - 1
        for mask in masks:
            assert mask & 1, "lowest remaining word must sit in block 1"
            assert 0 < mask < full
        assert sorted(masks) == brute_force_masks(m)

    def test_too_few_words(self):
        with pytest.raises(SynsetSizeError):
            list(enumerate_partitions(1))


class TestSgnEps:
    @pytest.mark.parametrize(
        "x,eps,expected",
        [
            (0.3, 1e-9, 1),
            (-0.3, 1e-9, -1),
            (5e-10, 1e-9, 0),
            (-5e-10, 1e-9, 0),
            (1e-9, 1e-9, 0),  # band is closed
            (0.0, 0.0, 0),
        ],
    )
    def test_values(self, x, eps, expected):
        assert geometry._sgn_band(np.array([x]), eps).tolist() == [expected]


class TestPartitionOutcome:
    def test_two_clones_pulled_apart(self):
        # focus pulls both blocks away from their perfect alignment
        syn = make_synset(["v", "a", "b"], [[1, 0], [0, 1], [0, 1]])
        (sim, sim1, sim2, r_doubled, delta) = partition_row(syn, 0, 0b01)
        assert sim == 1.0
        assert sim1 == pytest.approx(math.sqrt(2) / 2, abs=1e-7)
        assert sim2 == pytest.approx(math.sqrt(2) / 2, abs=1e-7)
        assert r_doubled == -2
        assert delta == pytest.approx(math.sqrt(2) - 2, abs=1e-7)

    def test_identical_vectors_are_neutral(self):
        syn = make_synset(["v", "a", "b"], [[1, 0]] * 3)
        sim, sim1, sim2, r_doubled, delta = partition_row(syn, 0, 0b01)
        assert sim == sim1 == sim2 == 1.0
        assert r_doubled == 0
        assert delta == 0.0

    def test_matches_oracle_on_random_synsets(self):
        # the reference vector table, row by row, against the oracle
        rng = np.random.default_rng(42)
        for _ in range(30):
            syn = random_synset(rng)
            rows = synset_rows(syn)
            for focus in range(syn.n):
                table = vector_table(syn, focus, DEFAULT_EPS)
                for mask, *got in zip(*(column.tolist() for column in table)):
                    exp = oracle.partition_outcome(rows, focus, mask)
                    assert got[3] == exp[3]
                    for g, want in zip(got[:3] + got[4:], exp[:3] + exp[4:]):
                        assert g == pytest.approx(want, abs=1e-9)

    def test_focus_mismatch_rejected(self):
        # a negative focus is refused, not wrapped around to the last word
        syn = make_synset(["v", "a", "b"], [[1, 0], [0, 1], [1, 1]])
        with pytest.raises(IndexError, match="focus"):
            partition_outcomes(syn, -1)

    def test_block_symmetry(self):
        # swapping block labels keeps sim, swaps sim1/sim2, and leaves the
        # contributions unchanged; the swapped split is recomputed by the oracle
        rng = np.random.default_rng(9)
        syn = random_synset(rng, n=5, dim=4)
        rows = synset_rows(syn)
        focus = 2
        v = rows[focus]
        remaining = [row for i, row in enumerate(rows) if i != focus]
        table = vector_table(syn, focus, DEFAULT_EPS)
        for mask, sim, sim1, sim2, r_doubled, delta in zip(*(c.tolist() for c in table)):
            s1 = [remaining[j] for j in range(len(remaining)) if mask >> j & 1]
            s2 = [remaining[j] for j in range(len(remaining)) if not mask >> j & 1]
            # swapped labels: block1 <- s2, block2 <- s1
            swapped_sim = oracle.sim_sets(s2, s1)
            swapped_sim1 = oracle.sim_sets(s2 + [v], s1)
            swapped_sim2 = oracle.sim_sets(s2, s1 + [v])
            assert swapped_sim == pytest.approx(sim, abs=1e-12)
            assert swapped_sim1 == pytest.approx(sim2, abs=1e-12)
            assert swapped_sim2 == pytest.approx(sim1, abs=1e-12)
            r_swapped = oracle.sgn(swapped_sim1 - swapped_sim, 1e-9) + oracle.sgn(
                swapped_sim2 - swapped_sim, 1e-9
            )
            assert r_swapped == r_doubled
            assert (swapped_sim1 - swapped_sim) + (swapped_sim2 - swapped_sim) == (
                pytest.approx(delta, abs=1e-12)
            )


class TestRankAndCentrality:
    def test_three_clones_and_one_orthogonal(self):
        # frozen from the naive oracle; see also the derivation in-line:
        # partitions of {a,b,c} around v=(1,0,0): one neutral delta and one
        # positive per split, so every split contributes r=+1/2
        syn = make_synset(
            ["v", "a", "b", "c"],
            [[1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]],
        )
        attrs = word_attributes(syn, 0)
        assert attrs.rank_doubled == 3  # rank 1.5: each split has one zero sign
        expected = 2 * (2 / math.sqrt(5) - math.sqrt(2) / 2) + math.sqrt(2) / 2
        assert attrs.centrality == pytest.approx(expected, abs=1e-9)
        assert attrs.centrality == pytest.approx(1.0817476008132842, abs=1e-9)
        assert attrs.partition_count == 3
        assert not attrs.in_interior
        got = oracle.word_attributes(synset_rows(syn), 0)
        assert (attrs.rank_doubled, attrs.in_interior, attrs.partition_count) == (
            got[0],
            got[2],
            got[3],
        )
        assert attrs.centrality == pytest.approx(got[1], abs=1e-9)

    @pytest.mark.parametrize("n", range(3, DEFAULT_MAX_SYNSET_SIZE + 1))
    def test_identical_vectors_all_zero(self, n):
        syn = make_synset([f"w{i}" for i in range(n)], [[0, 1, 0]] * n)
        per_focus = [word_attributes(syn, focus) for focus in range(n)]
        for attrs in per_focus + list(analyze_synset(syn).words):
            assert attrs.rank_doubled == 0
            assert attrs.centrality == 0.0
            assert not attrs.in_interior
            assert attrs.partition_count == 2 ** (n - 2) - 1

    def test_matches_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            syn = random_synset(rng)
            rows = synset_rows(syn)
            for focus in range(syn.n):
                attrs = word_attributes(syn, focus)
                rank_d, cent, member, count = oracle.word_attributes(rows, focus)
                assert attrs.rank_doubled == rank_d
                assert attrs.centrality == pytest.approx(cent, abs=1e-9)
                assert attrs.in_interior == member
                assert attrs.partition_count == count

    def test_bounds(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            syn = random_synset(rng)
            count = 2 ** (syn.n - 2) - 1
            for focus in range(syn.n):
                attrs = word_attributes(syn, focus)
                assert abs(attrs.rank_doubled) <= 2 * count
                assert abs(attrs.centrality) <= 4 * count
                table = partition_outcomes(syn, focus)
                assert np.all(np.abs(table.centrality_delta) <= 4.0)
                assert set(table.r_doubled.tolist()) <= {-2, -1, 0, 1, 2}

    def test_too_small_synset(self):
        syn = make_synset(["a", "b"], [[1, 0], [0, 1]])
        with pytest.raises(SynsetSizeError, match="at least 3"):
            partition_outcomes(syn, 0)

    def test_size_cap(self):
        n = 9
        rng = np.random.default_rng(0)
        syn = random_synset(rng, n=n, dim=3)
        with pytest.raises(SynsetSizeError, match="size cap"):
            partition_outcomes(syn, 0, max_size=8)
        attrs = word_attributes(syn, 0, max_size=n)  # raising the cap works
        assert attrs.partition_count == 2 ** (n - 2) - 1

    def test_focus_out_of_range(self):
        syn = make_synset(["a", "b", "c"], np.eye(3))
        with pytest.raises(IndexError):
            partition_outcomes(syn, 3)

    def test_degenerate_block_is_annotated(self):
        syn = make_synset(
            ["v", "up", "down", "side"],
            [[1, 0], [0, 1], [0, -1], [1, 0]],
        )
        with pytest.raises(DegenerateGeometryError) as exc:
            partition_outcomes(syn, 0)
        msg = str(exc.value)
        assert "'syn'" in msg and "'v'" in msg and "mask" in msg

    def test_degenerate_focus_addition(self):
        # focus exactly cancels block 1's single word
        syn = make_synset(
            ["v", "anti", "x", "y"],
            [[1, 0], [-1, 0], [0, 1], [0.6, 0.8]],
        )
        with pytest.raises(DegenerateGeometryError):
            partition_outcomes(syn, 0)


class TestInteriorMembership:
    def test_identical_vectors_never_interior(self):
        syn = make_synset(["a", "b", "c"], [[1, 0]] * 3)
        assert not any(word_attributes(syn, f).in_interior for f in range(3))

    def test_central_word_is_interior(self):
        # w is exactly the normalized mean of the rest; adding it to any
        # block pulls that block toward the other
        rest = np.array([[1, 0.5, 0.0], [1, 0, 0.5], [1, -0.5, 0]], float)
        rest /= np.linalg.norm(rest, axis=1, keepdims=True)
        w = rest.sum(axis=0)
        syn = make_synset(["w", "a", "b", "c"], np.vstack([w, rest]))
        attrs = word_attributes(syn, 0)
        assert attrs.in_interior
        assert attrs.rank_doubled == 2 * attrs.partition_count

    def test_membership_equals_maximal_rank(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            syn = random_synset(rng)
            for focus in range(syn.n):
                attrs = word_attributes(syn, focus)
                member = attrs.in_interior
                assert member == (attrs.rank_doubled == 2 * attrs.partition_count)
                # and the independent oracle agrees on membership
                assert member == oracle.word_attributes(synset_rows(syn), focus)[2]


class TestPartitionOutcomes:
    def test_matches_single_partition_path(self):
        # the engine's rows against the reference vector table's, row by row
        rng = np.random.default_rng(31)
        syn = random_synset(rng, n=6, dim=5)
        for focus in range(syn.n):
            table = partition_outcomes(syn, focus)
            exact = vector_table(syn, focus, DEFAULT_EPS)
            assert len(table.masks) == 2 ** (syn.n - 2) - 1
            assert table.masks.tolist() == exact.masks.tolist()
            assert table.r_doubled.tolist() == exact.r_doubled.tolist()
            for name in ("sim", "sim1", "sim2", "centrality_delta"):
                np.testing.assert_allclose(
                    getattr(table, name), getattr(exact, name), rtol=0, atol=1e-12
                )

    def test_totals_match_aggregation(self):
        # the rows sum to exactly what analyze_synset reports for the word
        rng = np.random.default_rng(32)
        syn = random_synset(rng, n=5, dim=4)
        by_token = {w.token: w for w in analyze_synset(syn).words}
        for focus, token in enumerate(syn.tokens):
            table = partition_outcomes(syn, focus)
            attrs = by_token[token]
            assert int(table.r_doubled.sum()) == attrs.rank_doubled
            assert float(table.centrality_delta.sum()) == attrs.centrality


class TestAnalyzeSynset:
    def test_three_word_synset_has_single_partition(self):
        syn = make_synset(["a", "b", "c"], [[1, 0], [0.6, 0.8], [0, 1]])
        report = analyze_synset(syn)
        assert report.n == 3
        assert len(report.words) == 3
        assert all(w.partition_count == 1 for w in report.words)

    def test_sort_order(self):
        rng = np.random.default_rng(55)
        syn = random_synset(rng, n=6, dim=4)
        report = analyze_synset(syn)
        keys = [(-w.rank_doubled, -w.centrality, w.token) for w in report.words]
        assert keys == sorted(keys)
        assert report.interior == frozenset(
            w.token for w in report.words if w.in_interior
        )

    def test_sorting_breaks_rank_ties_by_centrality(self):
        syn = make_synset(
            ["v", "a", "b", "c"],
            [[1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]],
        )
        report = analyze_synset(syn)
        ranks = [w.rank_doubled for w in report.words]
        assert ranks == sorted(ranks, reverse=True)
        # the three clones tie on rank and centrality; token breaks the tie
        tied = [w.token for w in report.words if w.rank_doubled == 3]
        assert tied == sorted(tied)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(66)
        rows = np.asarray(synset_rows(random_synset(rng, n=6, dim=5)))
        tokens = [f"w{i}" for i in range(6)]
        base = analyze_synset(make_synset(tokens, rows))
        perm = rng.permutation(6)
        shuffled = analyze_synset(
            make_synset([tokens[i] for i in perm], rows[perm])
        )
        assert [w.token for w in base.words] == [w.token for w in shuffled.words]
        for wb, ws in zip(base.words, shuffled.words):
            assert wb.rank_doubled == ws.rank_doubled
            assert wb.in_interior == ws.in_interior
            assert wb.centrality == pytest.approx(ws.centrality, abs=1e-9)

    def test_report_matches_oracle_ordering(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            syn = random_synset(rng)
            report = analyze_synset(syn)
            expected = oracle.analyze(list(syn.tokens), synset_rows(syn))
            assert [w.token for w in report.words] == [row[0] for row in expected]
            for w, row in zip(report.words, expected):
                assert w.rank_doubled == row[1]
                assert w.centrality == pytest.approx(row[2], abs=1e-9)
                assert w.in_interior == row[3]

    def test_too_small(self):
        syn = make_synset(["a", "b"], [[1, 0], [0, 1]])
        with pytest.raises(SynsetSizeError):
            analyze_synset(syn)


def _rescored(monkeypatch):
    """Record (focus, masks) of every rescore of nearly cancelling splits
    made from here on."""
    calls = []
    rescore = geometry._rescore

    def recording(synset, focus, masks, s1, s2):
        calls.append((focus, masks.tolist()))
        return rescore(synset, focus, masks, s1, s2)

    monkeypatch.setattr(geometry, "_rescore", recording)
    return calls


def _smallest_block_q(rows):
    """Smallest squared norm of a sum of 2..n-1 of the rows."""
    n = len(rows)
    return min(
        float(np.sum(np.sum([rows[i] for i in range(n) if t >> i & 1], axis=0) ** 2))
        for t in range(1, (1 << n) - 1)
        if bin(t).count("1") >= 2
    )


class TestSubsetNormEngine:
    """analyze_synset reads every word from one subset-norm table and
    rescores from their block sums only the splits whose blocks nearly
    cancel."""

    def assert_matches_oracle(self, syn):
        report = analyze_synset(syn)
        expected = oracle.analyze(list(syn.tokens), synset_rows(syn))
        assert [w.token for w in report.words] == [row[0] for row in expected]
        for w, row in zip(report.words, expected):
            assert w.rank_doubled == row[1]
            assert w.centrality == pytest.approx(row[2], abs=1e-9)
            assert w.in_interior == row[3]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_near_cancelling_block_falls_back(self, monkeypatch, dim):
        rng = np.random.default_rng(4100 + dim)
        rows = unit_rows(rng, 6, dim).astype(np.float64)
        # word 2 is word 1 reversed and tilted by 1e-3: their sum nearly cancels
        tilt = np.zeros(dim)
        tilt[0], tilt[1] = rows[1][1], -rows[1][0]
        rows[2] = -rows[1] + 1e-3 * tilt
        syn = make_synset([f"w{i}" for i in range(6)], rows)
        assert _smallest_block_q(synset_rows(syn)) < geometry.GRAM_MIN_BLOCK_Q
        rescores = _rescored(monkeypatch)
        self.assert_matches_oracle(syn)
        assert rescores, "no split was rescored"

    def test_well_conditioned_synset_reads_the_table(self, monkeypatch):
        rng = np.random.default_rng(4200)
        syn = random_synset(rng, n=7, dim=50)
        assert _smallest_block_q(synset_rows(syn)) > geometry.GRAM_MIN_BLOCK_Q
        rescores = _rescored(monkeypatch)
        self.assert_matches_oracle(syn)
        assert rescores == []

    def test_degenerate_block_still_raises_with_mask(self):
        syn = make_synset(
            ["v", "up", "down", "side"],
            [[1, 0], [0, 1], [0, -1], [1, 0]],
        )
        with pytest.raises(DegenerateGeometryError, match="mask"):
            analyze_synset(syn)

    def test_equals_per_focus_vector_path(self):
        rng = np.random.default_rng(4300)
        for _ in range(150):
            syn = random_synset(rng, n_range=(3, 10), dim_range=(2, 40))
            by_token = {w.token: w for w in analyze_synset(syn).words}
            for focus, token in enumerate(syn.tokens):
                exact = vector_table(syn, focus, DEFAULT_EPS)
                want = geometry.word_attributes(token, exact, DEFAULT_EPS)
                got = by_token[token]
                assert got.rank_doubled == want.rank_doubled
                assert got.in_interior == want.in_interior
                assert got.partition_count == want.partition_count
                assert got.centrality == pytest.approx(want.centrality, abs=1e-9)

    def test_near_cancelling_synset_above_n16_is_scored(self, monkeypatch):
        # two nearly cancelling pairs at dim 300: a whole-word vector table
        # would take over 1 GiB at n=18, the rescored splits tens of KiB
        n, dim = 18, 300
        rng = np.random.default_rng(4500)
        rows = unit_rows(rng, n, dim).astype(np.float64)
        rows[1] = -rows[0] + 1e-3 * rows[4]
        rows[3] = -rows[2] + 1e-3 * rows[5]
        syn = make_synset([f"w{i}" for i in range(n)], rows)
        rescores = _rescored(monkeypatch)
        assert len(analyze_synset(syn, max_size=n).words) == n
        assert sorted(focus for focus, _ in rescores) == list(range(n))
        focus, masks = rescores[6]
        table = partition_outcomes(syn, focus, max_size=n)
        at = {mask: i for i, mask in enumerate(table.masks.tolist())}
        assert len(masks) == 3
        for mask in masks:
            got = [column[at[mask]].item() for column in table[1:]]
            exp = oracle.partition_outcome(synset_rows(syn), focus, mask)
            assert got[3] == exp[3]
            for g, want in zip(got[:3] + got[4:], exp[:3] + exp[4:]):
                assert g == pytest.approx(want, abs=1e-9)

    def test_rescore_budget_refuses_before_allocating(self, monkeypatch):
        # a 1 MiB budget fits the subset-norm table and the block sums of
        # one nearly cancelling split per word, but not those of the dozens
        # of splits that six nearly cancelling pairs flag
        n, dim = 12, 4000
        tokens = [f"w{i}" for i in range(n)]
        rng = np.random.default_rng(4600)
        rows = unit_rows(rng, n, dim).astype(np.float64)
        one_pair, six_pairs = rows.copy(), rows.copy()
        one_pair[1] = -rows[0] + 1e-3 * rows[2]
        six_pairs[1::2] = -rows[::2] + 1e-3 * np.roll(rows[::2], 1, axis=0)
        monkeypatch.setattr(geometry, "MEMORY_BUDGET", 1 << 20)
        for scored in (rows, one_pair):
            assert len(analyze_synset(make_synset(tokens, scored)).words) == n
        near = make_synset(tokens, six_pairs)
        with pytest.raises(SynsetSizeError, match="budget"):
            analyze_synset(near)
        # traced from the table on: sorting the rows for the table peaks
        # with their dimension, not with the splits
        q = geometry._subset_norms(near)
        masks = enumerate_partitions(n - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SynsetSizeError, match="budget"):
                geometry._word_table(near, q, 0, masks, DEFAULT_EPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_subset_norm_table_memory_does_not_grow_per_dimension(self):
        # a row order with one sort key per dimension peaked at 276 MB here
        n, dim = 8, 100_000
        syn = random_synset(np.random.default_rng(4700), n=n, dim=dim)
        tracemalloc.start()
        try:
            geometry._subset_norms(syn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * syn.vectors.nbytes + (80 << n)

    def test_memory_budget_refuses_before_allocating(self):
        rng = np.random.default_rng(4400)
        syn = random_synset(rng, n=40, dim=2)
        tracemalloc.start()
        try:
            for call in (
                lambda: analyze_synset(syn, max_size=64),
                lambda: partition_outcomes(syn, 0, max_size=64),
            ):
                with pytest.raises(SynsetSizeError, match="budget"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestResolvedSynset:
    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ResolvedSynset("s", ("a", "a"), ("x", "x"), [[1, 0], [1, 0]], 2)

    def test_mixed_dimensions_rejected(self):
        # the vectors must be one (n, dim) matrix, one row per token
        for vectors in (np.eye(3), np.eye(2)[0], np.ones((2, 1, 1))):
            with pytest.raises(ValueError, match="dimension"):
                ResolvedSynset("s", ("a", "b"), ("a", "b"), vectors, 2)
        with pytest.raises(ValueError, match="dimension"):
            ResolvedSynset("s", ("a", "b"), ("a",), np.eye(2), 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ResolvedSynset("s", (), (), np.zeros((0, 2)), 0)

    def test_make_synset_normalizes_as_a_model_does(self):
        syn = make_synset(["a", "b", "c"], [[2, 0], [0, 3], [4, 4]])
        norms = np.linalg.norm(syn.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-7)
        assert syn.vectors.dtype == np.float64
        assert syn.model_keys == syn.tokens

    def test_vectors_are_read_only_copies(self):
        rows = np.eye(3)
        syn = ResolvedSynset("s", ("a", "b", "c"), ("a", "b", "c"), rows, 3)
        with pytest.raises(ValueError):
            syn.vectors[0, 0] = 5.0
        rows[0, 0] = 5.0
        assert syn.vectors[0, 0] == 1.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 7),
    dim=st.integers(2, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_membership_maximal_rank_and_bounds(n, dim, seed):
    """Membership <=> maximal rank, plus rank/centrality bounds."""
    rng = np.random.default_rng(seed)
    syn = random_synset(rng, n=n, dim=dim)
    count = 2 ** (n - 2) - 1
    for focus in range(n):
        attrs = word_attributes(syn, focus)
        assert attrs.in_interior == (attrs.rank_doubled == 2 * count)
        assert abs(attrs.rank_doubled) <= 2 * count
        assert abs(attrs.centrality) <= 4 * count


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 12),
    dim=st.integers(2, 60),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_word_order_invariance(n, dim, seed):
    """Permuting a synset's words moves no rank or interior flag, and moves
    centrality only by summation-order rounding.  The rows are float64 unit
    vectors built directly, not through make_synset's float32 rounding."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    tokens = tuple(f"w{i}" for i in range(n))
    perm = rng.permutation(n)
    shuffled = tuple(tokens[i] for i in perm)
    base = analyze_synset(ResolvedSynset("s", tokens, tokens, rows, n))
    moved = analyze_synset(ResolvedSynset("s", shuffled, shuffled, rows[perm], n))
    before = {w.token: w for w in base.words}
    for after in moved.words:
        word = before[after.token]
        assert after.rank_doubled == word.rank_doubled
        assert after.in_interior == word.in_interior
        assert after.centrality == pytest.approx(word.centrality, rel=0, abs=1e-11)


def side_signs(table, eps):
    """The per-side signs whose sum is the table's r_doubled."""
    return [geometry._sgn_band(side - table.sim, eps) for side in (table.sim1, table.sim2)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 10),
    dim=st.integers(2, 20),
    eps1=st.floats(1e-12, 0.2),
    widen=st.floats(1e-12, 0.3),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_eps_monotonicity(n, dim, eps1, widen, seed):
    """A wider band only flattens signs: for eps2 > eps1 each per-side sign
    keeps its value or becomes 0, and interior(eps2) is within
    interior(eps1).  Float64 rows built directly, as above."""
    eps2 = eps1 + widen
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    tokens = tuple(f"w{i}" for i in range(n))
    synset = ResolvedSynset("s", tokens, tokens, rows, n)
    for focus in range(n):
        narrow = partition_outcomes(synset, focus, eps=eps1)
        wide = partition_outcomes(synset, focus, eps=eps2)
        for column in ("sim", "sim1", "sim2"):
            assert np.array_equal(getattr(narrow, column), getattr(wide, column))
        narrow_signs, wide_signs = side_signs(narrow, eps1), side_signs(wide, eps2)
        assert np.array_equal(narrow.r_doubled, sum(narrow_signs))
        assert np.array_equal(wide.r_doubled, sum(wide_signs))
        for before, after in zip(narrow_signs, wide_signs):
            assert np.all((after == before) | (after == 0))
    assert analyze_synset(synset, eps=eps2).interior <= analyze_synset(synset, eps=eps1).interior


def edge_free(table, eps):
    """The partitions whose deltas all lie more than 1e-10 from +-eps, where
    rounding at the 1e-11 level cannot move a sign across the band's edge."""
    return np.all(
        [np.abs(np.abs(side - table.sim) - eps) > 1e-10 for side in (table.sim1, table.sim2)],
        axis=0,
    )


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 16),
    dim=st.integers(2, 3),
    tilt_exponent=st.floats(-5, -1),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_engines_agree_at_high_n(n, dim, tilt_exponent, seed):
    """Near-cancelling synsets up to n=16 in 2 and 3 dimensions: the table
    _word_table reads from the subset norms (rescoring the splits below
    GRAM_MIN_BLOCK_Q) equals the reference vector table for every word.  The
    oracle stops at n=12, so above it this is the only check of the
    threshold."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    # word 1 is word 0 reversed and tilted: blocks holding both nearly cancel,
    # with squared norms from about 1e-10 to 1e-2, across the threshold
    tilt = 10.0**tilt_exponent * rng.standard_normal(dim)
    rows[1] = -rows[0] / np.linalg.norm(rows[0]) + tilt
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    tokens = tuple(f"w{i}" for i in range(n))
    synset = ResolvedSynset("s", tokens, tokens, rows, n)
    q = geometry._subset_norms(synset)
    masks = enumerate_partitions(n - 1)
    for focus in range(n):
        read = geometry._word_table(synset, q, focus, masks, DEFAULT_EPS)
        exact = vector_table(synset, focus, DEFAULT_EPS)
        for column in ("sim", "sim1", "sim2"):
            np.testing.assert_allclose(
                getattr(read, column), getattr(exact, column), rtol=0, atol=1e-9
            )
        keep = edge_free(exact, DEFAULT_EPS)
        assert np.array_equal(read.r_doubled[keep], exact.r_doubled[keep])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 10),
    dim=st.integers(2, 20),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_rotation_invariance(n, dim, seed):
    """Rotating every vector by one orthogonal Q (the QR of a Gaussian
    matrix) moves no rank or interior flag away from the eps edge, and moves
    centrality by at most 1e-9.  Float64 rows built directly: make_synset's
    float32 rounding alone moves centrality by about 1e-5."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    tokens = tuple(f"w{i}" for i in range(n))
    base = ResolvedSynset("s", tokens, tokens, rows, n)
    turned = ResolvedSynset("s", tokens, tokens, rows @ rotation, n)
    on_edge = set()
    for focus, token in enumerate(tokens):
        before, after = partition_outcomes(base, focus), partition_outcomes(turned, focus)
        for column in ("sim", "sim1", "sim2"):
            np.testing.assert_allclose(
                getattr(after, column), getattr(before, column), rtol=0, atol=1e-9
            )
        keep = edge_free(before, DEFAULT_EPS)
        assert np.array_equal(after.r_doubled[keep], before.r_doubled[keep])
        if not keep.all():
            on_edge.add(token)
    report, moved = analyze_synset(base), analyze_synset(turned)
    after_by_token = {w.token: w for w in moved.words}
    for word in report.words:
        after = after_by_token[word.token]
        assert after.centrality == pytest.approx(word.centrality, rel=0, abs=1e-9)
        if word.token not in on_edge:
            assert after.rank_doubled == word.rank_doubled
            assert after.in_interior == word.in_interior
    assert report.interior - on_edge == moved.interior - on_edge


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 11),
    dim=st.integers(2, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_orthogonal_intruder_ranks_lowest(n, dim, seed):
    """The paper's claim that rank and the interior single out the words that
    belong, in a case where it is a theorem: the other words' pairwise inner
    products are all at least 1e-3 and one word is orthogonal to all of them.
    Every split then has sim > 0, and joining the intruder to a block A
    lengthens its sum to sqrt(q(A) + 1) without turning it, which lowers
    both sim1 and sim2: the intruder has rank -P over its P splits and lies
    outside the interior.  Float64 rows built directly, as above."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, dim))
    rows[:, 1:] = np.abs(rng.standard_normal((n, dim - 1)))
    intruder = int(rng.integers(n))
    rows[intruder] = np.eye(dim)[0]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    others = np.delete(rows, intruder, axis=0)
    assume((others @ others.T).min() >= 1e-3)
    tokens = tuple(f"w{i}" for i in range(n))
    report = analyze_synset(ResolvedSynset("s", tokens, tokens, rows, n))
    (word,) = [w for w in report.words if w.token == tokens[intruder]]
    assert word.rank_doubled == -2 * word.partition_count
    assert not word.in_interior
    assert word.token not in report.interior
