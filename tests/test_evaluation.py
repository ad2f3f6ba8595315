"""POIs, baseline fits, NLL/accuracy reports and corpus statistics."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_score
from nesscore import evaluation as ev
from nesscore.score import (
    SILENCE,
    ExpressiveFrame,
    ExpressiveScore,
    to_blended,
    to_separated,
)

NOTE = ExpressiveFrame(p1_note=69, p1_vel=12, p1_timbre=2, p2_note=45, p2_vel=3,
                       p2_timbre=0, tr_note=57, no_note=12, no_vel=9, no_timbre=1)


def pois(values) -> set[int]:
    """Timesteps the POI mask marks."""
    return set(np.flatnonzero(ev._poi_mask(np.asarray(values))).tolist())


class TestFindPois:
    def test_change_points(self):
        assert pois([0, 0, 69, 69, 0]) == {0, 2, 4}

    def test_constant(self):
        assert pois([7] * 5) == {0}

    def test_all_changes(self):
        assert pois([1, 2, 3]) == {0, 1, 2}

    def test_grid_column_changes_when_any_row_does(self):
        # blended grids: one row per key, POIs along the time axis
        assert pois([[0, 0, 1, 1, 1], [1, 1, 1, 0, 0]]) == {0, 2, 3}


class TestRandomBaseline:
    def test_separated_closed_forms(self):
        model = ev.fit("random", [], "separated")
        report = ev.evaluate(model, [random_score(random.Random(1), 100)],
                             "separated")
        expected = {"P1": math.log(78), "P2": math.log(78),
                    "TR": math.log(89), "NO": math.log(17)}
        for cat in report.categories:
            assert cat.nll_all == pytest.approx(expected[cat.category], abs=1e-12)
            assert cat.nll_poi == pytest.approx(expected[cat.category], abs=1e-12)
        assert report.nll_all == pytest.approx(sum(expected.values()), abs=1e-9)

    def test_expressive_closed_forms(self):
        model = ev.fit("random", [], "expressive")
        report = ev.evaluate(model, [random_score(random.Random(2), 50)],
                             "expressive")
        nlls = {c.category: c.nll_all for c in report.categories}
        assert nlls["V_P1"] == nlls["V_P2"] == nlls["V_NO"] == pytest.approx(math.log(16))
        assert nlls["T_P1"] == nlls["T_P2"] == pytest.approx(math.log(4))
        assert report.nll_all == pytest.approx(3 * math.log(16) + 2 * math.log(4))

    def test_blended_closed_form(self):
        model = ev.fit("random", [], "blended")
        report = ev.evaluate(model, [random_score(random.Random(3), 50)], "blended")
        assert report.nll_all == pytest.approx(88 * math.log(2), abs=1e-9)
        assert report.nll_poi == pytest.approx(88 * math.log(2), abs=1e-9)

    def test_uniform_scores_pois_like_everything_else(self):
        # one fixed per-timestep distribution: POI and global NLL coincide
        corpus = [random_score(random.Random(23), 80)]
        report = ev.evaluate(ev.fit("random", [], "separated"), corpus, "separated")
        for c in report.categories:
            assert c.nll_poi == pytest.approx(c.nll_all, abs=1e-12)

    def test_aggregates_are_sum_and_mean(self):
        corpus = [random_score(random.Random(24), 60)]
        for kind in ("unigram", "bigram"):
            report = ev.evaluate(ev.fit(kind, corpus, "separated"),
                                 corpus, "separated")
            assert report.nll_poi == pytest.approx(
                sum(c.nll_poi for c in report.categories))
            assert report.acc_all == pytest.approx(
                sum(c.acc_all for c in report.categories) / len(report.categories))

    def test_accuracy_is_hit_rate_of_first_symbol(self):
        # the argmax of a uniform distribution is pinned to the first symbol
        score = ExpressiveScore(24.0, [SILENCE, NOTE, SILENCE, SILENCE])
        model = ev.fit("random", [], "separated")
        report = ev.evaluate(model, [score], "separated")
        accs = {c.category: c.acc_all for c in report.categories}
        assert accs["P1"] == 0.75  # silence matches the note-0 prediction


class TestUnigram:
    def test_predicts_silence_on_silent_corpus(self):
        corpus = [ExpressiveScore(24.0, [SILENCE] * 20)]
        model = ev.fit("unigram", corpus, "separated")
        mixed = ExpressiveScore(24.0, [SILENCE] * 9 + [NOTE])
        report = ev.evaluate(model, [mixed], "separated")
        assert all(c.acc_all == 0.9 for c in report.categories)

    def test_distributions_sum_to_one(self):
        model = ev.fit("unigram", [random_score(random.Random(4), 60)], "separated")
        for cat in model.category_names:
            probs = np.exp(model._logp[cat])
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert (probs > 0).all()

    def test_self_nll_never_beats_uniform(self):
        # Gibbs: the smoothed empirical distribution scores its own corpus at
        # most as badly as the uniform model does
        for seed in range(10):
            corpus = [random_score(random.Random(seed), 40)]
            uni = ev.evaluate(ev.fit("unigram", corpus, "separated"),
                              corpus, "separated")
            rand = ev.evaluate(ev.fit("random", [], "separated"),
                               corpus, "separated")
            for u, r in zip(uni.categories, rand.categories):
                assert u.nll_all <= r.nll_all + 1e-6

    def test_empty_corpus(self):
        with pytest.raises(ev.EmptyCorpus):
            ev.fit("unigram", [], "separated")
        with pytest.raises(ev.EmptyCorpus):
            ev.fit("bigram", [ExpressiveScore(24.0, [])], "expressive")


class TestBigram:
    def test_predicts_previous_value(self):
        corpus = [random_score(random.Random(8), 60)]
        model = ev.fit("bigram", corpus, "separated")
        report = ev.evaluate(model, corpus, "separated")
        notes = corpus[0].to_array()[:, 0]
        expected = (notes[1:] == notes[:-1]).sum() / len(notes)
        p1 = next(c for c in report.categories if c.category == "P1")
        assert p1.acc_all == pytest.approx(expected)

    def test_poi_accuracy_identically_zero(self):
        for seed in range(6):
            corpus = [random_score(random.Random(seed), 30, hold=0.3)]
            model = ev.fit("bigram", corpus, "separated")
            report = ev.evaluate(model, corpus, "separated")
            assert report.acc_poi == 0.0

    @given(st.lists(st.integers(0, 16), min_size=1, max_size=60))
    @settings(max_examples=80)
    def test_poi_accuracy_zero_property(self, noise_notes):
        frames = [ExpressiveFrame(no_note=n, no_vel=1 if n else 0)
                  for n in noise_notes]
        corpus = [ExpressiveScore(24.0, frames)]
        model = ev.fit("bigram", corpus, "separated")
        report = ev.evaluate(model, corpus, "separated")
        assert report.acc_poi == 0.0

    def test_rows_sum_to_one(self):
        model = ev.fit("bigram", [random_score(random.Random(5), 40)], "expressive")
        for cat in model.category_names:
            rows = np.exp(model._logp[cat]).sum(axis=1)
            assert np.allclose(rows, 1.0, atol=1e-9)

    def test_nll_uses_transition_structure(self):
        # alternating values: bigram learns the alternation and beats uniform
        frames = [ExpressiveFrame(no_note=(1 if i % 2 else 2), no_vel=1)
                  for i in range(60)]
        corpus = [ExpressiveScore(24.0, frames)]
        report = ev.evaluate(ev.fit("bigram", corpus, "separated"),
                             corpus, "separated")
        no = next(c for c in report.categories if c.category == "NO")
        assert no.nll_all < math.log(17)


class TestBlendedModels:
    def test_note_unigram_learns_on_probabilities(self):
        corpus = [ExpressiveScore(24.0, [NOTE] * 50)]
        model = ev.fit("note-unigram", corpus, "blended")
        report = ev.evaluate(model, corpus, "blended")
        assert report.nll_all < 88 * math.log(2)
        assert report.acc_all == 1.0  # constant corpus is fully predictable

    def test_chord_unigram_seen_vs_unseen(self):
        corpus = [ExpressiveScore(24.0, [NOTE] * 9 + [SILENCE])]
        model = ev.fit("chord-unigram", corpus, "blended")
        grids = ev._category_values(corpus, "blended")[0]["blended"]
        logp = model.log_probs("blended", grids)
        # 2 distinct chords, 10 columns: p(NOTE chord) = 10/13, p(silence) = 2/13
        assert logp[0] == pytest.approx(math.log(10 / 13))
        assert logp[-1] == pytest.approx(math.log(2 / 13))
        unseen = ExpressiveScore(24.0, [ExpressiveFrame(tr_note=99)])
        unseen_grid = ev._category_values([unseen], "blended")[0]["blended"]
        assert model.log_probs("blended", unseen_grid)[0] == pytest.approx(
            math.log(1 / 13))

    def test_chord_unigram_total_mass(self):
        corpus = [random_score(random.Random(11), 40)]
        model = ev.fit("chord-unigram", corpus, "blended")
        mass = sum(math.exp(lp) for lp in model._logp.values()) \
            + math.exp(model._log_unseen)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_kind_task_pairing_enforced(self):
        with pytest.raises(ValueError):
            ev.fit("bigram", [], "blended")
        with pytest.raises(ValueError):
            ev.fit("note-unigram", [], "separated")

    def test_accepts_separated_and_blended_inputs(self):
        score = random_score(random.Random(12), 20)
        model = ev.fit("random", [], "blended")
        a = ev.evaluate(model, [score], "blended")
        b = ev.evaluate(model, [to_blended(to_separated(score))], "blended")
        assert a.nll_all == b.nll_all

    def test_separated_task_accepts_separated_scores(self):
        score = random_score(random.Random(18), 25)
        model = ev.fit("unigram", [score], "separated")
        a = ev.evaluate(model, [score], "separated")
        b = ev.evaluate(model, [to_separated(score)], "separated")
        assert [c.nll_all for c in a.categories] == [c.nll_all for c in b.categories]

    def test_separated_score_rejected_for_expressive(self):
        score = to_separated(random_score(random.Random(19), 5))
        model = ev.fit("random", [], "expressive")
        with pytest.raises(ValueError):
            ev.evaluate(model, [score], "expressive")


class TestAlphabets:
    def test_out_of_alphabet_value_raises(self):
        bad = ExpressiveScore(24.0, [ExpressiveFrame(p1_note=31, p1_vel=1)])
        model = ev.fit("random", [], "separated")
        with pytest.raises(ev.AlphabetMismatch):
            ev.evaluate(model, [bad], "separated")

    def test_task_mismatch_raises(self):
        model = ev.fit("random", [], "separated")
        with pytest.raises(ValueError):
            ev.evaluate(model, [], "expressive")


class TestCorpusStats:
    def test_all_on(self):
        stats = ev.corpus_stats([ExpressiveScore(24.0, [NOTE] * 10)])
        assert stats.average_polyphony == 4.0
        assert all(p == 1.0 for p in stats.on_probability.values())
        assert stats.note_count == 4  # one onset per voice
        assert stats.duration_seconds == pytest.approx(10 / 24)

    def test_empty_corpus(self):
        stats = ev.corpus_stats([])
        assert stats.song_count == 0 and stats.note_count == 0
        assert stats.average_polyphony == 0.0

    def test_silent_scores(self):
        stats = ev.corpus_stats([ExpressiveScore(24.0, [SILENCE] * 8)])
        assert stats.note_count == 0
        assert stats.average_polyphony == 0.0

    def test_polyphony_identity(self):
        rng = random.Random(13)
        for _ in range(10):
            corpus = [random_score(rng, rng.randint(1, 50)) for _ in range(3)]
            stats = ev.corpus_stats(corpus)
            assert stats.average_polyphony == pytest.approx(
                sum(stats.on_probability.values()), abs=1e-12)

    def test_onset_counting(self):
        frames = [SILENCE, NOTE, NOTE, SILENCE, NOTE]
        stats = ev.corpus_stats([ExpressiveScore(24.0, frames)])
        assert stats.note_count == 8  # 4 voices x 2 onsets


class TestReports:
    def test_json_schema(self):
        model = ev.fit("random", [], "separated")
        report = ev.evaluate(model, [random_score(random.Random(14), 20)],
                             "separated")
        doc = json.loads(ev.report_to_json(report))
        assert doc["task"] == "separated" and doc["model"] == "random"
        assert {c["category"] for c in doc["categories"]} == {"P1", "P2", "TR", "NO"}
        assert set(doc["aggregates"]) == {"nll_poi", "nll_all", "acc_poi", "acc_all"}
        assert doc["aggregates"]["nll_all"] == pytest.approx(16.0353, abs=5e-3)

    def test_json_stable(self):
        report = ev.evaluate(ev.fit("random", [], "expressive"),
                             [random_score(random.Random(15), 10)], "expressive")
        text = ev.report_to_json(report)
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text

    def test_empty_report_valid(self):
        doc = json.loads(ev.report_to_json(ev.EvalReport("separated", "random")))
        assert doc["categories"] == []
        assert doc["aggregates"]["nll_all"] == 0.0

    def test_table_layout(self):
        report = ev.evaluate(ev.fit("random", [], "separated"),
                             [random_score(random.Random(16), 10)], "separated")
        table = ev.report_to_table(report)
        lines = table.splitlines()
        assert lines[0].startswith("category")
        assert lines[-1].startswith("aggregate")
        assert len(lines) == 6  # header + 4 voices + aggregate


class TestManifest:
    def test_round_trip(self, tmp_path):
        scores = {f"song{i}.nesscore": random_score(random.Random(i), 5)
                  for i in range(3)}
        from nesscore.score import write_score_text
        for name, s in scores.items():
            (tmp_path / name).write_bytes(write_score_text(s))
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(
            "# comment line\n"
            "song0.nesscore game=alpha composer=ann,bo\n"
            "song1.nesscore game=alpha\n"
            "song2.nesscore\n")
        entries = ev.read_manifest(manifest)
        assert len(entries) == 3
        assert entries[0].composer_ids == frozenset({"ann", "bo"})
        assert entries[1].game_id == "alpha"
        assert entries[2].composer_ids == frozenset({"~song2.nesscore"})
        corpus = ev.load_corpus(entries)
        assert [len(s.frames) for s in corpus] == [5, 5, 5]

    def test_bad_attribute(self, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("song.nesscore gamealpha\n")
        with pytest.raises(ValueError):
            ev.read_manifest(manifest)
