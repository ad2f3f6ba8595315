"""nesscore: NES APU register logs <-> symbolic scores, synthesis, evaluation.

The pipeline, end to end:

    VGM bytes --parse_vgm--> TimedWriteStream --extract/downsample-->
    ExpressiveScore --to_separated/to_blended--> modeling representations

and back:

    ExpressiveScore --score_to_writes--> TimedWriteStream --render--> WAV
"""

from .score import (
    BlendedScore,
    CorpusEntry,
    ExpressiveFrame,
    ExpressiveScore,
    SeparatedScore,
    downsample,
    read_score_text,
    split_corpus,
    to_blended,
    to_separated,
    validate,
    write_score_text,
)
from .vgm import (
    TimedWrite,
    TimedWriteStream,
    VgmDocument,
    flatten_to_writes,
    parse_vgm,
    write_vgm,
)
from .apu import (
    ApuState,
    Timeline,
    extract_timeline,
    midi_to_timer,
    pitch_to_midi,
    snapshot,
)
from .midi import midi_to_score, score_to_midi
from .synth import (
    PcmBuffer,
    mix,
    render_writes,
    score_to_writes,
    write_wav,
)
from .evaluation import (
    CorpusStats,
    EvalReport,
    corpus_stats,
    evaluate,
    fit,
    report_to_json,
    report_to_table,
)

__version__ = "0.1.0"
