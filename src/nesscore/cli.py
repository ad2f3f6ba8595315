"""Command-line surface for batch conversions, rendering and evaluation.

Diagnostics go to stderr; data goes to output files or stdout, so the
subcommands compose in shell pipelines.  Every subcommand is deterministic
given its flags and inputs.
"""

import argparse
import json
import sys
from pathlib import Path

from . import apu, evaluation, midi, score, synth, vgm


def _read_stream(path: str) -> vgm.TimedWriteStream:
    return vgm.parse_vgm(Path(path).read_bytes()).stream


def cmd_vgm2score(args) -> int:
    stream = _read_stream(args.input)
    timeline = apu.extract_timeline(stream)
    out = score.downsample(timeline, args.rate)
    Path(args.output).write_bytes(score.write_score_text(out))
    return 0


def cmd_score2midi(args) -> int:
    s = score.read_score_text(Path(args.input).read_bytes())
    Path(args.output).write_bytes(midi.score_to_midi(s))
    return 0


def cmd_midi2score(args) -> int:
    s = midi.midi_to_score(Path(args.input).read_bytes(), args.rate)
    Path(args.output).write_bytes(score.write_score_text(s))
    return 0


def cmd_render(args) -> int:
    data = Path(args.input).read_bytes()
    if data[:2] == vgm.GZIP_MAGIC or data[:4] == vgm.MAGIC:
        stream = vgm.parse_vgm(data).stream
    elif data.startswith(b"NESSCORE"):
        stream = synth.score_to_writes(score.read_score_text(data))
    else:
        raise ValueError(f"{args.input}: neither a VGM image nor a NESSCORE file")
    buffer = synth.render_writes(stream)
    Path(args.output).write_bytes(synth.write_wav(buffer))
    return 0


def cmd_stats(args) -> int:
    corpus = evaluation.load_corpus(evaluation.read_manifest(args.manifest))
    print(evaluation.corpus_stats(corpus).to_json())
    return 0


def cmd_eval(args) -> int:
    corpus = evaluation.load_corpus(evaluation.read_manifest(args.manifest))
    train = corpus
    if args.train:
        train = evaluation.load_corpus(evaluation.read_manifest(args.train))
    model = evaluation.fit(args.model, train, args.task)
    report = evaluation.evaluate(model, corpus, args.task)
    if args.table:
        print(evaluation.report_to_table(report), file=sys.stderr)
    print(evaluation.report_to_json(report))
    return 0


def cmd_split(args) -> int:
    entries = evaluation.read_manifest(args.manifest)
    ratios = tuple(int(r) for r in args.ratios.split(","))
    assignment = score.split_corpus(entries, ratios=ratios, seed=args.seed)
    doc = {name: [e.song_id for e in group] for name, group in assignment.items()}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


_RATE_HELP = "score frame rate in Hz (default %(default)s)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nesscore",
        description="Convert NES APU register logs to scores, render scores "
                    "to audio, and run baseline evaluations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vgm2score", help="extract a NESSCORE file from a .vgm/.vgz log")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--rate", type=float, default=score.DEFAULT_RATE_HZ, help=_RATE_HELP)
    p.set_defaults(func=cmd_vgm2score)

    p = sub.add_parser("score2midi", help="export a score as a Standard MIDI File")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_score2midi)

    p = sub.add_parser("midi2score", help="import a profile MIDI file as a score")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--rate", type=float, default=score.DEFAULT_RATE_HZ, help=_RATE_HELP)
    p.set_defaults(func=cmd_midi2score)

    p = sub.add_parser("render", help="render a score or VGM log to WAV")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("stats", help="print corpus statistics as JSON")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="fit and evaluate a baseline model")
    p.add_argument("manifest")
    p.add_argument("--task", required=True, choices=evaluation.TASKS)
    p.add_argument("--model", required=True,
                   choices=list(dict.fromkeys(k for m in evaluation.MODELS.values() for k in m)))
    p.add_argument("--train", help="fit on this manifest instead of the eval one")
    p.add_argument("--table", action="store_true",
                   help="also print a human-readable table to stderr")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("split", help="composer-disjoint train/valid/test split")
    p.add_argument("manifest")
    p.add_argument("--ratios", default="8,1,1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
