"""End-to-end subcommand coverage through main()."""

import gzip
import json
import random

import pytest

from conftest import random_score
from nesscore import midi, synth, vgm
from nesscore.cli import main
from nesscore.score import ExpressiveFrame, ExpressiveScore, read_score_text, write_score_text

A440 = ExpressiveFrame(p1_note=69, p1_vel=15, p1_timbre=2)


@pytest.fixture
def song(tmp_path):
    score = ExpressiveScore(24.0, [A440] * 12)
    vgm_path = tmp_path / "song.vgm"
    vgm_path.write_bytes(vgm.write_vgm(synth.score_to_writes(score)))
    return score, vgm_path


class TestVgm2Score:
    def test_extracts_score(self, song, tmp_path):
        score, vgm_path = song
        out = tmp_path / "song.nesscore"
        assert main(["vgm2score", str(vgm_path), str(out)]) == 0
        assert read_score_text(out.read_bytes()).frames == score.frames

    def test_empty_body(self, tmp_path):
        vgm_path = tmp_path / "empty.vgm"
        vgm_path.write_bytes(vgm.write_vgm(vgm.TimedWriteStream()))
        out = tmp_path / "empty.nesscore"
        assert main(["vgm2score", str(vgm_path), str(out)]) == 0
        assert read_score_text(out.read_bytes()).frames == []

    def test_corrupt_file_names_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.vgm"
        data = bytearray(vgm.write_vgm(vgm.TimedWriteStream(total_samples=100)))
        data[0xC0] = 0x51  # mangle the first command
        bad.write_bytes(bytes(data))
        assert main(["vgm2score", str(bad), str(tmp_path / "x.nesscore")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "0xc0" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["vgm2score", str(tmp_path / "nope.vgm"),
                     str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_truncated_vgz(self, song, tmp_path, capsys):
        _score, vgm_path = song
        vgz = tmp_path / "song.vgz"
        vgz.write_bytes(gzip.compress(vgm_path.read_bytes())[:-12])
        assert main(["vgm2score", str(vgz), str(tmp_path / "x.nesscore")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


    @pytest.mark.parametrize("rate", ["0.00001", "inf", "nan", "-24", "44101", "1e12"])
    def test_unusable_rate(self, song, tmp_path, capsys, rate):
        # 1e-5 Hz makes one frame span 4.41e9 samples, more than a stream can hold;
        # above 44100 Hz a frame is shorter than a sample
        _score, vgm_path = song
        out = tmp_path / "x.nesscore"
        assert main(["vgm2score", str(vgm_path), str(out), "--rate", rate]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestRender:
    def test_score_input(self, tmp_path):
        score_path = tmp_path / "s.nesscore"
        score_path.write_bytes(write_score_text(ExpressiveScore(24.0, [A440] * 6)))
        wav = tmp_path / "s.wav"
        assert main(["render", str(score_path), str(wav)]) == 0
        assert wav.read_bytes()[:4] == b"RIFF"

    def test_vgm_input(self, song, tmp_path):
        _, vgm_path = song
        wav = tmp_path / "v.wav"
        assert main(["render", str(vgm_path), str(wav)]) == 0
        data = wav.read_bytes()
        assert data[:4] == b"RIFF" and len(data) > 44

    def test_gzipped_vgm_input(self, song, tmp_path):
        _, vgm_path = song
        vgz = tmp_path / "song.vgz"
        vgz.write_bytes(gzip.compress(vgm_path.read_bytes()))
        wav = tmp_path / "z.wav"
        assert main(["render", str(vgz), str(wav)]) == 0
        assert wav.read_bytes()[:4] == b"RIFF"

    def test_unknown_input(self, tmp_path, capsys):
        other = tmp_path / "other.bin"
        other.write_bytes(b"\x00" * 32)
        assert main(["render", str(other), str(tmp_path / "o.wav")]) == 1
        assert "error:" in capsys.readouterr().err


class TestMidi2Score:
    @pytest.mark.parametrize("rate", ["0.00001", "inf", "nan", "-24", "44101", "1e12"])
    def test_unusable_rate(self, tmp_path, capsys, rate):
        # at 1e-5 Hz the one frame covering a half-second file spans 4.41e9 samples;
        # above 44100 Hz a frame is shorter than a sample
        mid = tmp_path / "song.mid"
        mid.write_bytes(midi.score_to_midi(ExpressiveScore(24.0, [A440] * 12)))
        out = tmp_path / "x.nesscore"
        assert main(["midi2score", str(mid), str(out), "--rate", rate]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


class TestMidiCommands:
    def test_score_midi_round_trip(self, tmp_path):
        score = random_score(random.Random(21), 18)
        a = tmp_path / "a.nesscore"
        a.write_bytes(write_score_text(score))
        mid = tmp_path / "a.mid"
        b = tmp_path / "b.nesscore"
        assert main(["score2midi", str(a), str(mid)]) == 0
        assert main(["midi2score", str(mid), str(b)]) == 0
        assert read_score_text(b.read_bytes()) == score


@pytest.fixture
def manifest(tmp_path):
    rng = random.Random(31)
    lines = []
    for i in range(10):
        name = f"s{i}.nesscore"
        (tmp_path / name).write_bytes(write_score_text(random_score(rng, 20)))
        lines.append(f"{name} game=g{i} composer=c{i}")
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCorpusCommands:
    def test_eval_random_separated(self, manifest, capsys):
        assert main(["eval", str(manifest), "--task", "separated",
                     "--model", "random"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregates"]["nll_all"] == pytest.approx(16.04, abs=5e-3)

    def test_eval_bigram_with_table(self, manifest, capsys):
        assert main(["eval", str(manifest), "--task", "expressive",
                     "--model", "bigram", "--table"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["aggregates"]["acc_poi"] == 0.0
        assert "aggregate" in captured.err

    def test_stats(self, manifest, capsys):
        assert main(["stats", str(manifest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["song_count"] == 10
        assert doc["average_polyphony"] == pytest.approx(
            sum(doc["on_probability"].values()), abs=1e-9)

    def test_split_exact_ratio(self, manifest, capsys):
        assert main(["split", str(manifest), "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["test", "train", "valid"]
        assert [len(doc["train"]), len(doc["valid"]), len(doc["test"])] == [8, 1, 1]

    def test_split_deterministic(self, manifest, capsys):
        main(["split", str(manifest), "--seed", "7"])
        first = capsys.readouterr().out
        main(["split", str(manifest), "--seed", "7"])
        assert capsys.readouterr().out == first

    def test_eval_with_train_manifest(self, manifest, capsys):
        assert main(["eval", str(manifest), "--task", "separated",
                     "--model", "unigram", "--train", str(manifest)]) == 0
        json.loads(capsys.readouterr().out)


class TestEndToEnd:
    def test_vgm_to_score_to_wav_round_trip(self, tmp_path):
        """vgm2score then render then re-extraction reproduces the score."""
        score = random_score(random.Random(41), 16)
        vgm_path = tmp_path / "in.vgm"
        vgm_path.write_bytes(vgm.write_vgm(synth.score_to_writes(score)))
        score_path = tmp_path / "mid.nesscore"
        assert main(["vgm2score", str(vgm_path), str(score_path)]) == 0
        extracted = read_score_text(score_path.read_bytes())
        assert extracted.frames == score.frames
        wav_path = tmp_path / "out.wav"
        assert main(["render", str(score_path), str(wav_path)]) == 0
        again = synth.score_to_writes(extracted)
        from nesscore import apu
        from nesscore.score import downsample
        assert downsample(apu.extract_timeline(again), 24.0).frames == score.frames
