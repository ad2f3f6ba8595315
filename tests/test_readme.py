"""The README's "Library" example, run as written against a small VGM."""

import re
from pathlib import Path

from nesscore import synth, vgm
from nesscore.score import ExpressiveFrame, ExpressiveScore

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first Python block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    score = ExpressiveScore(24.0, [ExpressiveFrame(p1_note=69, p1_vel=15, p1_timbre=2)] * 6
                            + [ExpressiveFrame(tr_note=57)] * 6)
    stream = synth.score_to_writes(score)
    (tmp_path / "song.vgm").write_bytes(vgm.write_vgm(stream))
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(library_example(), names)
    assert names["score"] == score
    assert names["roll"].shape == (88, 12)
    assert len(names["wav"]) == 44 + 2 * stream.total_samples
