import json

import numpy as np
import pytest

from conceptrank import io
from conceptrank.errors import FormatError, ValidationError
from conceptrank.query import Concept, ConceptVocabulary, EventQuery, VideoRecord
from conceptrank.synth import gen_instance, toy_embedding_rows
from conceptrank.embeddings import load_embeddings


@pytest.fixture
def instance():
    return gen_instance(seed=2, l=6, u=6, m=4, n_informative=1, sigma=0.1)


class TestVocabulary:
    def test_round_trip(self, tmp_path, instance):
        path = str(tmp_path / "vocab.csv")
        io.write_vocabulary(path, instance.vocabulary)
        back = io.read_vocabulary(path)
        assert back.ids == instance.vocabulary.ids
        assert [c.name for c in back.concepts] == [
            c.name for c in instance.vocabulary.concepts
        ]

    def test_header_required(self, tmp_path):
        path = tmp_path / "vocab.csv"
        path.write_text("id,name\nc1,x\n")
        with pytest.raises(FormatError, match="header"):
            io.read_vocabulary(str(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "vocab.csv"
        path.write_text("concept_id,name,source\nc1,x,s\nc1,y,s\n")
        with pytest.raises(FormatError):
            io.read_vocabulary(str(path))


class TestVideos:
    def test_round_trip(self, tmp_path, instance):
        path = str(tmp_path / "videos.tsv")
        io.write_videos(path, instance.videos)
        back = io.read_videos(path)
        assert back == instance.videos

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "videos.tsv"
        path.write_text("v1\tweak\n")
        with pytest.raises(FormatError, match=":1:"):
            io.read_videos(str(path))

    def test_weak_requires_description(self, tmp_path):
        path = tmp_path / "videos.tsv"
        path.write_text("v1\tweak\t\n")
        with pytest.raises(FormatError):
            io.read_videos(str(path))

    def test_unknown_split(self, tmp_path):
        path = tmp_path / "videos.tsv"
        path.write_text("v1\ttrain\tx\n")
        with pytest.raises(FormatError):
            io.read_videos(str(path))

    def test_duplicate_video_rejected(self, tmp_path):
        path = tmp_path / "videos.tsv"
        path.write_text("v1\tweak\tx\n\nv2\ttest\t\nv1\ttest\t\n")
        with pytest.raises(FormatError, match=r"videos\.tsv:4: duplicate video_id 'v1'"):
            io.read_videos(str(path))


class TestEvents:
    def test_round_trip(self, tmp_path, instance):
        path = str(tmp_path / "events.jsonl")
        io.write_events(path, [instance.event])
        back = io.read_events(path)
        assert back == [instance.event]

    def test_bad_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(FormatError, match="bad JSON"):
            io.read_events(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event_id": "e1"}\n')
        with pytest.raises(FormatError):
            io.read_events(str(path))

    @pytest.mark.parametrize(
        "event_id", ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b"]
    )
    def test_event_id_that_is_no_plain_file_name_rejected(self, tmp_path, event_id):
        # the id names the event's output files, so it must not leave the
        # output directory or be empty
        path = tmp_path / "events.jsonl"
        good = {"event_id": "e1", "name": "x"}
        bad = {"event_id": event_id, "name": "y"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(FormatError, match=r"events\.jsonl:2: event_id"):
            io.read_events(str(path))

    def test_event_id_with_dots_inside_accepted(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"event_id": "E.1..x", "name": "x"}) + "\n")
        assert [e.event_id for e in io.read_events(str(path))] == ["E.1..x"]

    @pytest.mark.parametrize(
        "field, value", [("event_id", 1), ("name", 5), ("description", ["a", "b"])]
    )
    def test_non_string_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "events.jsonl"
        good = {"event_id": "e1", "name": "x", "description": "y"}
        bad = {**good, "event_id": "e2", field: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(FormatError, match=rf"events\.jsonl:2: {field} must be a JSON string"):
            io.read_events(str(path))


class TestScores:
    def test_round_trip_reorders_weak_first(self, tmp_path, instance):
        path = str(tmp_path / "scores.csv")
        # write rows in scrambled order
        order = np.random.default_rng(0).permutation(len(instance.videos))
        ids = [instance.video_ids[i] for i in order]
        io.write_scores(path, instance.vocabulary, ids, instance.scores[order])
        back = io.read_scores(path, instance.vocabulary, instance.videos)
        assert back.video_ids == instance.video_ids
        np.testing.assert_array_equal(back.values, instance.scores)
        assert back.l == instance.l and back.u == instance.u

    def test_column_order_must_match(self, tmp_path, instance):
        path = tmp_path / "scores.csv"
        header = "video_id," + ",".join(reversed(instance.vocabulary.ids))
        rows = [header] + [
            ",".join([vid] + ["0.5"] * len(instance.vocabulary))
            for vid in instance.video_ids
        ]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="vocabulary order"):
            io.read_scores(str(path), instance.vocabulary, instance.videos)

    def test_missing_video_rows(self, tmp_path, instance):
        path = str(tmp_path / "scores.csv")
        io.write_scores(
            path, instance.vocabulary, instance.video_ids[:-1], instance.scores[:-1]
        )
        with pytest.raises(ValidationError, match="missing score rows"):
            io.read_scores(path, instance.vocabulary, instance.videos)

    def test_duplicate_video_rejected(self, tmp_path, instance):
        path = str(tmp_path / "scores.csv")
        ids = instance.video_ids + instance.video_ids[2:3]
        values = np.vstack([instance.scores, instance.scores[3:4]])
        io.write_scores(path, instance.vocabulary, ids, values)
        lineno = len(ids) + 1
        match = rf"scores\.csv:{lineno}: duplicate video_id '{ids[2]}'"
        with pytest.raises(FormatError, match=match):
            io.read_scores(path, instance.vocabulary, instance.videos)

    @pytest.mark.parametrize("bad", ["abc", "0.5.5", ""])
    def test_bad_float_names_file_line_and_value(self, tmp_path, instance, bad):
        path = str(tmp_path / "scores.csv")
        io.write_scores(path, instance.vocabulary, instance.video_ids, instance.scores)
        lines = open(path, encoding="utf-8").read().splitlines()
        fields = lines[3].split(",")
        # the first field that does not parse is the one named
        fields[2], fields[4] = bad, "later"
        lines[3] = ",".join(fields)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            io.read_scores(path, instance.vocabulary, instance.videos)
        assert str(info.value) == f"{path}:4: bad float {bad!r}"

    def test_csv_formats_each_value_by_repr(self, instance):
        values = np.array([
            [-0.0, 5e-324, 1e16, 0.1],
            [1.0 / 3.0, -1e-310, 2.0**53 + 2.0, 123456789.125],
        ])
        ids = ["v0", "v1"]
        text = io.scores_csv(instance.vocabulary, ids, values)
        want = "video_id," + ",".join(instance.vocabulary.ids) + "\n" + "".join(
            vid + "," + ",".join(repr(float(x)) for x in row) + "\n"
            for vid, row in zip(ids, values)
        )
        assert text == want
        assert text.splitlines()[1] == "v0,-0.0,5e-324,1e+16,0.1"


class TestSupervisedAndTruth:
    def test_supervised_round_trip(self, tmp_path, instance):
        path = str(tmp_path / "sup.csv")
        scores = dict(zip(instance.video_ids, instance.supervised))
        io.write_supervised(path, scores)
        assert io.read_supervised(path) == scores

    def test_truth_round_trip(self, tmp_path):
        path = str(tmp_path / "gt.csv")
        truth = {"e1": {"v1": 1, "v2": 0}}
        io.write_ground_truth(path, truth)
        assert io.read_ground_truth(path) == truth

    def test_bad_label(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("event_id,video_id,label\ne1,v1,2\n")
        with pytest.raises(FormatError):
            io.read_ground_truth(str(path))

    def test_supervised_duplicate_video_rejected(self, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text("video_id,score\nv1,0.5\nv2,0.25\nv1,0.75\n")
        with pytest.raises(FormatError, match=r"sup\.csv:4: duplicate video_id 'v1'"):
            io.read_supervised(str(path))

    def test_truth_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        # the same video under two events is fine; twice under one is not
        path.write_text("event_id,video_id,label\ne1,v1,1\ne2,v1,0\ne1,v1,0\n")
        with pytest.raises(FormatError, match=r"gt\.csv:4: duplicate event_id,video_id"):
            io.read_ground_truth(str(path))


class TestRankingAndEmbeddings:
    def test_ranking_round_trip(self, tmp_path):
        path = str(tmp_path / "rank.tsv")
        ranking = [("v2", 0.75), ("v1", 0.25)]
        io.write_ranking(path, ranking)
        assert io.read_ranking(path) == ranking

    def test_ranking_bad_score(self, tmp_path):
        path = tmp_path / "rank.tsv"
        path.write_text("v2\t0.75\nv1\tabc\n")
        with pytest.raises(FormatError, match=r"rank\.tsv:2: bad float 'abc'"):
            io.read_ranking(str(path))

    def test_ranking_duplicate_video_rejected(self, tmp_path):
        path = tmp_path / "rank.tsv"
        path.write_text("v1\t0.75\nv2\t0.5\nv1\t0.25\n")
        with pytest.raises(FormatError, match=r"rank\.tsv:3: duplicate video_id 'v1'"):
            io.read_ranking(str(path))

    def test_embeddings_round_trip(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        io.write_embeddings(path, toy_embedding_rows())
        table = load_embeddings(path)
        for token, vec in toy_embedding_rows():
            np.testing.assert_array_equal(table.vectors[token], vec)
