import math

import numpy as np
import pytest

from conceptrank import query
from conceptrank.embeddings import EmbeddingTable, cosine
from conceptrank.errors import CoverageError
from conceptrank.query import (
    Concept,
    ConceptVocabulary,
    EventQuery,
    PseudoLabels,
    QueryLayer,
    RelevanceVector,
    VideoRecord,
    concept_relevance,
    partition_pseudo,
    query_vector,
    select_concepts,
    weak_labels,
)

from helpers import phrase_partition, phrase_relevance, phrase_weak_labels

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _vocab(*names):
    return ConceptVocabulary(
        concepts=[Concept(concept_id=f"c{i:02d}", name=n) for i, n in enumerate(names)]
    )


def _relevance(query, vocab, table):
    """``concept_relevance`` of one event, through a layer without weak videos."""
    return concept_relevance(QueryLayer.build(vocab, [], table), query_vector(query, table))


class TestConceptRelevance:
    def test_identical_text_scores_one(self, tiny_table):
        rel = _relevance(
            EventQuery(event_id="e1", name="dog show"), _vocab("dog show"), tiny_table
        )
        assert rel.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_oov_concept_flagged_zero(self, tiny_table):
        rel = _relevance(
            EventQuery(event_id="e1", name="dog"), _vocab("dog", "zzz qqq"), tiny_table
        )
        assert rel.values[1] == 0.0
        assert rel.oov_concepts == frozenset({1})

    def test_fixture_values(self, tiny_table):
        rel = _relevance(
            EventQuery(event_id="e1", name="dog show"),
            _vocab("dog", "parade"),
            tiny_table,
        )
        assert rel.values[0] == pytest.approx(INV_SQRT2, abs=1e-9)
        assert rel.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_fully_oov_query(self, tiny_table):
        with pytest.raises(CoverageError):
            _relevance(
                EventQuery(event_id="e1", name="zzz"), _vocab("dog"), tiny_table
            )

    def test_values_clamped_to_unit_interval(self):
        # random tables exercise the negative-cosine clamp
        rng = np.random.default_rng(11)
        for _ in range(25):
            tokens = [f"t{i}" for i in range(6)]
            table = EmbeddingTable(
                dimension=4,
                vectors={t: rng.normal(size=4) for t in tokens},
            )
            rel = _relevance(
                EventQuery(event_id="e", name="t0 t1"),
                _vocab("t2 t3", "t4", "t5"),
                table,
            )
            assert np.all(rel.values >= 0.0) and np.all(rel.values <= 1.0)


class TestSelectConcepts:
    def test_top_two(self):
        vocab = _vocab("a", "b", "c")
        w = RelevanceVector(values=np.array([0.9, 0.1, 0.5]))
        assert select_concepts(w, 2, vocab) == [0, 2]

    def test_full_selection_descending(self):
        vocab = _vocab("a", "b", "c")
        w = RelevanceVector(values=np.array([0.2, 0.8, 0.5]))
        assert select_concepts(w, 3, vocab) == [1, 2, 0]

    def test_tie_break_by_concept_id(self):
        vocab = ConceptVocabulary(
            concepts=[Concept(concept_id="c02", name="x"), Concept(concept_id="c01", name="y")]
        )
        w = RelevanceVector(values=np.array([0.5, 0.5]))
        assert select_concepts(w, 1, vocab) == [1]

    def test_k_out_of_range(self):
        vocab = _vocab("a")
        with pytest.raises(ValueError):
            select_concepts(RelevanceVector(values=np.array([0.5])), 2, vocab)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(3)
        vocab = _vocab(*[f"n{i}" for i in range(8)])
        for _ in range(50):
            vals = rng.uniform(0, 1, 8)
            w1 = RelevanceVector(values=vals)
            w2 = RelevanceVector(values=np.clip(vals * 0.37, 0, 1))
            assert select_concepts(w1, 4, vocab) == select_concepts(w2, 4, vocab)


class TestWeakLabels:
    def test_description_matching_concept(self, tiny_table):
        rec = VideoRecord(video_id="v1", split="weak", description="a dog")
        values = weak_labels(QueryLayer.build(_vocab("dog"), [rec], tiny_table))
        assert values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_all_stopword_description(self, tiny_table):
        # no covered token: the video gets no weak-label row
        rec = VideoRecord(video_id="v1", split="weak", description="the of and")
        layer = QueryLayer.build(_vocab("dog"), [rec], tiny_table)
        assert weak_labels(layer).shape == (0, 1)
        assert layer.uncovered_ids() == ["v1"]

    def test_test_split_rejected(self, tiny_table):
        rec = VideoRecord(video_id="v1", split="test")
        with pytest.raises(ValueError):
            QueryLayer.build(_vocab("dog"), [rec], tiny_table)


class TestPartitionPseudo:
    def _records(self, *descs):
        return [
            VideoRecord(video_id=f"v{i}", split="weak", description=d)
            for i, d in enumerate(descs)
        ]

    def _partition(self, query, records, table, n_pos, n_neg):
        layer = QueryLayer.build(_vocab("dog"), records, table)
        return partition_pseudo(layer, query_vector(query, table), n_pos, n_neg)

    def test_top_and_bottom(self, tiny_table):
        query = EventQuery(event_id="e", name="dog")
        records = self._records("dog", "parade", "dog parade")
        labels = self._partition(query, records, tiny_table, 1, 1)
        assert labels.positives == (0,)
        assert labels.negatives == (1,)

    def test_insufficient_records(self, tiny_table):
        query = EventQuery(event_id="e", name="dog")
        with pytest.raises(ValueError):
            self._partition(query, self._records("dog", "parade"), tiny_table, 2, 1)

    def test_all_equal_similarities_split_by_id(self, tiny_table):
        query = EventQuery(event_id="e", name="dog")
        records = self._records("dog", "dog", "dog")
        labels = self._partition(query, records, tiny_table, 1, 1)
        assert labels.positives == (0,)
        assert labels.negatives == (2,)

    def test_disjoint_union_size(self, tiny_table):
        rng = np.random.default_rng(5)
        words = ["dog", "show", "parade"]
        query = EventQuery(event_id="e", name="dog show")
        for _ in range(40):
            count = int(rng.integers(4, 9))
            records = self._records(
                *(" ".join(rng.choice(words, size=2)) for _ in range(count))
            )
            n_pos = int(rng.integers(1, count - 1))
            n_neg = int(rng.integers(1, count - n_pos + 1))
            labels = self._partition(query, records, tiny_table, n_pos, n_neg)
            pos, neg = set(labels.positives), set(labels.negatives)
            assert not pos & neg
            assert len(pos | neg) == n_pos + n_neg


def test_pseudo_labels_validation():
    with pytest.raises(ValueError):
        PseudoLabels(positives=(0,), negatives=(0,))
    with pytest.raises(ValueError):
        PseudoLabels(positives=(), negatives=(1,))


class TestQueryLayer:
    """The query steps against the per-phrase references of ``helpers``.

    Each instance has an out-of-vocabulary concept name, a weak video
    whose description no table token covers, and two concepts with the
    same name (their relevances tie and order by concept_id).
    """

    TOL = 1e-12

    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        tokens = [f"tok{chr(97 + i)}" for i in range(12)]
        table = EmbeddingTable(
            dimension=6, vectors={t: rng.normal(size=6) for t in tokens}
        )

        def phrase(size):
            return " ".join(rng.choice(tokens, size=size))

        names = [phrase(int(rng.integers(1, 4))) for _ in range(7)]
        names.append(names[int(rng.integers(0, 7))])
        names.insert(int(rng.integers(0, 8)), "zzz qqq")  # out of vocabulary
        order = rng.permutation(len(names))  # concept ids unrelated to positions
        vocab = ConceptVocabulary(
            concepts=[
                Concept(concept_id=f"c{order[i]:02d}", name=n) for i, n in enumerate(names)
            ]
        )
        descs = [phrase(int(rng.integers(1, 5))) for _ in range(9)]
        descs[int(rng.integers(1, 9))] = "the of and"  # no covered token
        descs.append(descs[0])  # equal similarities, ordered by video_id
        ids = rng.permutation(len(descs))
        records = [
            VideoRecord(video_id=f"v{ids[i]:02d}", split="weak", description=d)
            for i, d in enumerate(descs)
        ]
        queries = [EventQuery(event_id=f"E{j}", name=phrase(2)) for j in range(4)]
        return table, vocab, records, queries

    @pytest.mark.parametrize("seed", range(8))
    def test_relevance_matches_per_phrase(self, seed):
        table, vocab, records, queries = self._instance(seed)
        layer = QueryLayer.build(vocab, records, table)
        names = [c.name for c in vocab.concepts]
        for query in queries:
            got = concept_relevance(layer, query_vector(query, table))
            want = phrase_relevance(query, vocab, table)
            # the same cosines bit for bit: the fit and the tie order see the last bit
            np.testing.assert_array_equal(got.values, want.values)
            assert got.oov_concepts == want.oov_concepts and len(got.oov_concepts) == 1
            for name in set(names):
                assert len({got.values[i] for i, n in enumerate(names) if n == name}) == 1
            for k in (1, 3, len(vocab)):
                assert select_concepts(got, k, vocab) == select_concepts(want, k, vocab)

    @pytest.mark.parametrize("seed", range(8))
    def test_cached_norm_cosines_are_cosines(self, seed):
        # the layer's cached row norms and one query norm give each row
        # cosine(q, row) bit for bit: 1.0 for a row equal to q, and the
        # negative cosines that relevance clamps to 0
        table, vocab, records, queries = self._instance(seed)
        twin = Concept(concept_id="c99", name=queries[0].name)
        vocab = ConceptVocabulary(concepts=vocab.concepts + [twin])
        records = records + [
            VideoRecord(video_id="v99", split="weak", description=queries[0].name)
        ]
        layer = QueryLayer.build(vocab, records, table)
        named = np.flatnonzero(~layer.concept_oov)
        pool = np.flatnonzero(layer.covered)
        negative = 0
        for q in queries:
            qvec = query_vector(q, table)
            want = [cosine(qvec, layer.concepts[k]) for k in named]
            got = query._cosines(qvec, layer.concepts, layer.concept_norms, named)
            assert got.tobytes() == np.array(want).tobytes()
            values = concept_relevance(layer, qvec).values[named]
            assert values.tobytes() == np.array([max(0.0, c) for c in want]).tobytes()
            negative += sum(c < 0.0 for c in want)
            want = [cosine(qvec, layer.descriptions[i]) for i in pool]
            got = query._cosines(qvec, layer.descriptions, layer.description_norms, pool)
            assert got.tobytes() == np.array(want).tobytes()
        qvec = query_vector(queries[0], table)
        assert concept_relevance(layer, qvec).values[-1] == 1.0
        assert query._cosines(qvec, layer.descriptions, layer.description_norms, pool)[-1] == 1.0
        assert negative > 0

    def test_cosines_of_rows_at_any_scale(self):
        # off the unit sphere, dot(q, q) / |q|^2 falls short of 1.0 on about
        # a quarter of draws; a row equal to q still gets cosine's 1.0
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = rng.normal(size=6) * rng.uniform(0.1, 10.0)
            rows = rng.normal(size=(8, 6)) * rng.uniform(0.1, 10.0, (8, 1))
            rows[3], rows[5] = q, -q
            idx = np.array([0, 3, 5, 7, 2])
            got = query._cosines(q, rows, query._row_norms(rows), idx)
            assert got.tobytes() == np.array([cosine(q, rows[i]) for i in idx]).tobytes()
            assert got[1] == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_weak_labels_match_per_phrase(self, seed):
        table, vocab, records, _ = self._instance(seed)
        layer = QueryLayer.build(vocab, records, table)
        got = weak_labels(layer)
        covered = []
        for record in records:
            try:
                covered.append(phrase_weak_labels(record, vocab, table).values)
            except CoverageError:
                assert record.description == "the of and"
        assert layer.uncovered_ids() == [
            r.video_id for r in records if r.description == "the of and"
        ]
        np.testing.assert_allclose(got, np.array(covered), rtol=0.0, atol=self.TOL)

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_matches_per_phrase(self, seed):
        table, vocab, records, queries = self._instance(seed)
        layer = QueryLayer.build(vocab, records, table)
        pool = [i for i, r in enumerate(records) if r.description != "the of and"]
        for query in queries:
            for n_pos, n_neg in ((1, 1), (3, 4), (2, len(pool) - 2)):
                got = partition_pseudo(layer, query_vector(query, table), n_pos, n_neg)
                want = phrase_partition(
                    query, [records[i] for i in pool], table, n_pos, n_neg
                )
                assert got.positives == tuple(pool[i] for i in want.positives)
                assert got.negatives == tuple(pool[i] for i in want.negatives)

    def test_partition_counts_only_covered_videos(self, tiny_table):
        records = [
            VideoRecord(video_id=f"v{i}", split="weak", description=d)
            for i, d in enumerate(("dog", "the of and", "parade"))
        ]
        layer = QueryLayer.build(_vocab("dog"), records, tiny_table)
        qvec = query_vector(EventQuery(event_id="e", name="dog"), tiny_table)
        labels = partition_pseudo(layer, qvec, 1, 1)
        assert (labels.positives, labels.negatives) == ((0,), (2,))
        with pytest.raises(ValueError, match="exceeds the 2 weak videos"):
            partition_pseudo(layer, qvec, 2, 1)

    def test_test_split_rejected(self, tiny_table):
        with pytest.raises(ValueError):
            QueryLayer.build(_vocab("dog"), [VideoRecord(video_id="v", split="test")], tiny_table)
