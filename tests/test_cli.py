"""End-to-end subcommand coverage through main()."""

import gzip
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nesscore
from conftest import five_track_file, random_score
from nesscore import midi, synth, vgm
from nesscore.cli import build_parser, main
from nesscore.score import (
    DEFAULT_RATE_HZ,
    MAX_FRAMES,
    ExpressiveFrame,
    ExpressiveScore,
    read_score_text,
    write_score_text,
)

A440 = ExpressiveFrame(p1_note=69, p1_vel=15, p1_timbre=2)


@pytest.fixture
def song(tmp_path):
    score = ExpressiveScore(24.0, [A440] * 12)
    vgm_path = tmp_path / "song.vgm"
    vgm_path.write_bytes(vgm.write_vgm(synth.score_to_writes(score)))
    return score, vgm_path


@pytest.fixture
def too_long(tmp_path):
    """A VGM of 65,538 longest waits: 2^32 + 65,534 samples, past what a stream may span."""
    path = tmp_path / "too_long.vgm"
    body = b"\x61\xff\xff" * 65538 + b"\x66"
    path.write_bytes(vgm.write_vgm(vgm.TimedWriteStream())[:vgm.HEADER_SIZE] + body)
    return path


@pytest.mark.parametrize("command", ["vgm2score", "render"])
def test_stream_past_32_bits_fails_fast(too_long, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, str(too_long), str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: wait at offset 0x300c3") and "Traceback" not in err
    assert not out.exists()


# Run in a child process that caps its own address space at what it holds
# after its imports plus 256 MiB, then runs each command line of argv[1].
CAPPED = """
import json, resource, sys
from nesscore.cli import main
with open("/proc/self/status") as status:
    held = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
_soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (held + (256 << 20), hard))
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc, caps RLIMIT_AS")
def test_inputs_past_the_frame_bound_fail_typed_under_a_memory_cap(tmp_path):
    # Each asks for more than MAX_FRAMES frames, which would need GBs, in a few bytes.
    midi_path = tmp_path / "late_note.mid"   # 2^28 - 1 ticks, one sample each
    midi_path.write_bytes(five_track_file(b"\xff\xff\xff\x7f\x90\x45\x7f"))
    text_path = tmp_path / "huge_count.nesscore"
    text_path.write_bytes(b"NESSCORE 1 44100 4294967295\n")
    vgm_path = tmp_path / "long_wait.vgm"   # 257 longest waits: 16,842,495 samples
    header = vgm.write_vgm(vgm.TimedWriteStream())[:vgm.HEADER_SIZE]
    vgm_path.write_bytes(header + b"\x61\xff\xff" * 257 + b"\x66")
    assert 257 * 0xFFFF > MAX_FRAMES and len(midi_path.read_bytes()) < 100
    out = str(tmp_path / "out")
    runs = [["midi2score", str(midi_path), out, "--rate", "44100"],
            ["render", str(text_path), out],
            ["vgm2score", str(vgm_path), out, "--rate", "44100"]]
    src = str(Path(nesscore.__file__).resolve().parent.parent)
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.run([sys.executable, "-c", CAPPED, json.dumps(runs)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [1, 1, 1]
    errors = child.stderr.splitlines()
    assert len(errors) == 3 and all(e.startswith("error: ") for e in errors), errors
    assert all("more than the 16777216" in e for e in errors), errors
    assert not Path(out).exists()


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


def test_both_rate_options_default_to_the_score_rate():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices
    rates = [next(a for a in sub[name]._actions if a.dest == "rate")
             for name in ("vgm2score", "midi2score")]
    assert rates[0].help == rates[1].help
    for name in ("vgm2score", "midi2score"):
        assert parser.parse_args([name, "in", "out"]).rate == DEFAULT_RATE_HZ


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

    def test_eval_names_bad_manifest_line(self, manifest, capsys):
        manifest.write_bytes(manifest.read_bytes() + b"s0.nesscore gameb\n")
        assert main(["eval", str(manifest), "--task", "separated",
                     "--model", "random"]) == 1
        assert capsys.readouterr().err == \
            f"error: {manifest}: line 11: bad manifest attribute 'gameb'\n"

    def test_eval_names_non_utf8_manifest_line(self, manifest, capsys):
        manifest.write_bytes(b"s0.nesscore\ns\xff.nesscore\n")
        assert main(["eval", str(manifest), "--task", "separated",
                     "--model", "random"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: line 2: not UTF-8")

    def test_eval_names_bad_score_file(self, manifest, capsys):
        bad = manifest.parent / "s3.nesscore"
        bad.write_bytes(b"NESSCORE 1 24 1\n200 1 0 0 0 0 0 0 0 0\n")
        assert main(["eval", str(manifest), "--task", "separated",
                     "--model", "random"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: ")


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
