"""Baseline models and evaluation metrics for the score corpora.

Metrics follow the evaluation protocol the score formats were built for:
negative log-likelihood in nats per timestep and argmax accuracy, reported
per category and aggregated (NLL summed, accuracy averaged), both globally
and restricted to points of interest (POIs) -- timesteps whose value differs
from the previous one within its song, with each song's first timestep
always counted.

Baselines are deliberately simple: add-1-smoothed unigram and bigram over
each category, and for the blended piano-roll task a per-pitch independent
unigram and a chord unigram with a single smoothed bucket for unseen columns.
``random`` is the task's unigram fitted on no timesteps, which is uniform.

A corpus is a sequence of ``ExpressiveScore``s: the separated and blended
views are derived from it here, as the NES-MDB baselines derive them from
the one expressive score.  It is read as one array: its songs placed end to
end, per category one array over all timesteps (for blended, one 88-row
grid built once), with a mask of the songs' first timesteps.  A separated
or expressive category's array holds alphabet indices, one table lookup per
category built from the schema's alphabets; a value outside raises
``AlphabetMismatch``.  Each model is fitted, and each metric computed, in
one pass per category over those arrays.  Anything in a corpus but an
``ExpressiveScore`` raises ValueError.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import score as sc
from .score import (
    CorpusEntry,
    ExpressiveScore,
    SeparatedScore,
    read_score_text,
    to_blended,
)


def _category(voice: str, field: str) -> tuple[np.ndarray, int]:
    """A voice field's alphabet (0 and its sounding values) and frame column, per the schema."""
    i = sc.FIELD_NAMES.index(field)
    return np.array(sorted({0, *sc.SCHEMA[voice][i]}), np.int64), sc.VOICE_COLUMNS[voice][i]


# category -> (alphabet, column index into the flat expressive frame)
CATEGORIES = {
    "separated": {voice: _category(voice, "note") for voice in sc.VOICES},
    # noise timbre is omitted: it is set on well under 1% of timesteps
    "expressive": {
        "V_P1": _category("P1", "vel"),
        "V_P2": _category("P2", "vel"),
        "V_NO": _category("NO", "vel"),
        "T_P1": _category("P1", "timbre"),
        "T_P2": _category("P2", "timbre"),
    },
}


class EmptyCorpus(ValueError):
    """Learned baselines need a non-empty training corpus."""


class AlphabetMismatch(ValueError):
    """A corpus value falls outside the model's category alphabet."""


def _poi_mask(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Timesteps (the last axis) that open a song (``first``) or where the
    value, or for a grid any of its rows, differs from its predecessor."""
    changed = values[..., 1:] != values[..., :-1]
    mask = first.copy()
    mask[1:] |= changed.any(axis=0) if values.ndim == 2 else changed
    return mask


def _index_table(alphabet: np.ndarray) -> np.ndarray:
    """Each value's index into ``alphabet``, -1 for a value outside it; the
    last slot, one past the alphabet's largest value, is -1."""
    table = np.full(alphabet[-1] + 2, -1, np.intp)
    table[alphabet] = np.arange(len(alphabet))
    return table


# category -> its index table
_INDEX_TABLES = {cat: _index_table(alphabet) for categories in CATEGORIES.values()
                 for cat, (alphabet, _col) in categories.items()}


def _to_indices(values: np.ndarray, category: str) -> np.ndarray:
    """The int16 ``values`` as indices into the category's alphabet.  Read as
    uint16, a negative value lies past the table, and ``mode="clip"`` sends
    every value past it to the last slot, -1."""
    idx = _INDEX_TABLES[category].take(values.view(np.uint16), mode="clip")
    bad = idx < 0
    if bad.any():
        raise AlphabetMismatch(
            f"value {int(values[bad][0])} not in the {category} alphabet")
    return idx


def _expressive(corpus) -> list[ExpressiveScore]:
    """The corpus as a list; a song that is not an ExpressiveScore raises
    ValueError naming its type."""
    songs = list(corpus)
    for s in songs:
        if not isinstance(s, ExpressiveScore):
            raise ValueError(f"a corpus holds ExpressiveScores, not {type(s).__name__}")
    return songs


def _category_values(corpus, task: str) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The corpus's songs end to end: its category values, and ``first``.

    A separated or expressive category is one (ΣT,) array of indices into its
    alphabet; the blended task's one category is the 88 x ΣT uint8 grid,
    built by one ``to_blended`` call on the corpus's note columns.  ``first``
    marks the first timestep of each non-empty song.  A song that is not an
    ExpressiveScore raises ValueError naming its type.
    """
    songs = [s.to_array() for s in _expressive(corpus)]
    lengths = np.array([len(f) for f in songs], np.int64)
    frames = np.concatenate([np.zeros((0, 10), np.int16), *songs])
    if task == "blended":   # the grid is column by column, so the rate is never read
        notes = SeparatedScore(sc.DEFAULT_RATE_HZ, frames[:, sc.NOTE_COLUMNS].T)
        values = {"blended": to_blended(notes).grid}
    else:
        values = {cat: _to_indices(frames[:, col], cat)
                  for cat, (_alphabet, col) in CATEGORIES[task].items()}
    first = np.zeros(lengths.sum(), dtype=bool)
    first[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    return values, first


# ---------------------------------------------------------------------------
# baselines: each is fitted on one category as model(values, first, size), and
# model.score(values, first) gives each timestep's log-probability and whether
# the model's prediction hits it

# alphabet size per separated/expressive category; the blended models need none
_SIZES = {cat: len(alphabet) for categories in CATEGORIES.values()
          for cat, (alphabet, _col) in categories.items()}


class Unigram:
    """Add-1-smoothed marginal; predicts the most frequent symbol, the first
    of the alphabet among ties."""

    def __init__(self, idx, first, size):
        counts = np.bincount(idx, minlength=size)
        self._logp = np.log((counts + 1) / (counts.sum() + size))
        self._pred = np.argmax(counts)

    def score(self, idx, first):
        return self._logp[idx], idx == self._pred


def _transitions(idx, first, size):
    """Flat (previous, current) cells; each song's first timestep comes from
    the start row, ``size``."""
    prev = np.empty_like(idx)
    prev[1:] = idx[:-1]
    prev[first] = size
    return prev * size + idx


class Bigram:
    """Add-1-smoothed order-1 transitions within each song.

    Its accuracy does not read the table: a timestep is a hit exactly when
    it is not a POI, so accuracy at POIs is identically 0.  That is the
    table's argmax only where each row's argmax is its previous value; it
    is not where values step, as decaying noise velocity does, nor at the
    first timestep of a song.
    """

    def __init__(self, idx, first, size):
        counts = np.bincount(_transitions(idx, first, size), minlength=(size + 1) * size)
        table = counts.reshape(size + 1, size)
        self._logp = np.log((table + 1) / (table.sum(axis=1, keepdims=True) + size))

    def score(self, idx, first):
        return (self._logp.ravel()[_transitions(idx, first, self._logp.shape[1])],
                ~_poi_mask(idx, first))


class NoteUnigram:
    """Independent add-1-smoothed on-probability per key; predicts each key on
    where that probability exceeds 1/2."""

    def __init__(self, grid, first, size):
        p_on = (grid.sum(axis=1) + 1) / (grid.shape[1] + 2)
        self._log_on, self._log_off = np.log(p_on), np.log1p(-p_on)
        self._pred = p_on > 0.5

    def score(self, grid, first):
        logp = np.zeros(grid.shape[1])     # key by key: T floats of temporaries, not 88 x T
        for on, log_on, log_off in zip(grid, self._log_on, self._log_off):
            logp += np.where(on, log_on, log_off)
        return logp, np.all(grid == self._pred[:, None], axis=0)


def _chords(grid: np.ndarray) -> np.ndarray:
    """Each grid column as one 11-byte key."""
    return np.packbits(np.ascontiguousarray(grid.T), axis=1).view("V11")[:, 0]


class ChordUnigram:
    """Add-1-smoothed distribution over the observed 88-key columns plus one
    bucket for every unseen column; predicts the most frequent chord, the
    first seen among ties."""

    def __init__(self, grid, first, size):
        chords = _chords(grid)
        self._keys, index, counts = np.unique(chords, return_index=True, return_counts=True)
        denom = len(chords) + len(self._keys) + 1
        self._logp = np.log((counts + 1) / denom)
        self._log_unseen = math.log(1 / denom)
        self._pred = chords[index[counts == counts.max()].min()]

    def score(self, grid, first):
        chords = _chords(grid)
        i = np.searchsorted(self._keys, chords).clip(max=len(self._keys) - 1)
        return (np.where(self._keys[i] == chords, self._logp[i], self._log_unseen),
                chords == self._pred)


# ---------------------------------------------------------------------------
# fitting and evaluation

# Per task, its model kinds.  "random" is the task's unigram (for blended, the
# note-unigram) fitted on no timesteps: its add-1 estimate is uniform, and its
# argmax is the first symbol (for blended, the all-off column).
_CATEGORICAL = {"random": Unigram, "unigram": Unigram, "bigram": Bigram}
MODELS = {
    "separated": _CATEGORICAL,
    "expressive": _CATEGORICAL,
    "blended": {"random": NoteUnigram, "note-unigram": NoteUnigram,
                "chord-unigram": ChordUnigram},
}
TASKS = tuple(MODELS)


@dataclass
class Baseline:
    """A fitted baseline: one fitted model per category of its task."""

    task: str
    kind: str
    categories: dict


def fit(kind: str, corpus, task: str) -> Baseline:
    """Fit a baseline of the given kind on a corpus of ExpressiveScores.

    The random baseline reads no data, though it checks the songs' types as
    the learned kinds do; learned kinds raise EmptyCorpus when the corpus
    holds no timesteps.
    """
    if task not in MODELS:
        raise ValueError(f"unknown task {task!r}")
    if kind not in MODELS[task]:
        raise ValueError(f"model kind {kind!r} is not defined for the {task} task")
    songs = _expressive(corpus)
    values, first = _category_values(() if kind == "random" else songs, task)
    if kind != "random" and not len(first):
        raise EmptyCorpus(f"cannot fit {kind} on an empty corpus")
    model = MODELS[task][kind]
    return Baseline(task, kind, {cat: model(v, first, _SIZES.get(cat))
                                 for cat, v in values.items()})


@dataclass
class CategoryResult:
    category: str
    nll_poi: float
    nll_all: float
    acc_poi: float
    acc_all: float


# The metrics, and whether a report aggregates each over its categories by
# mean (accuracy) or by sum (NLL).
METRICS = {"nll_poi": False, "nll_all": False, "acc_poi": True, "acc_all": True}


@dataclass
class EvalReport:
    task: str
    model: str
    categories: list[CategoryResult] = field(default_factory=list)

    def _agg(self, metric: str) -> float:
        """The metric over the categories, by ``METRICS``; 0.0 for none."""
        values = [getattr(c, metric) for c in self.categories]
        total = sum(values, 0.0)
        return total / len(values) if METRICS[metric] and values else total

    nll_poi = property(lambda self: self._agg("nll_poi"))
    nll_all = property(lambda self: self._agg("nll_all"))
    acc_poi = property(lambda self: self._agg("acc_poi"))
    acc_all = property(lambda self: self._agg("acc_all"))


def evaluate(model: Baseline, corpus, task: str) -> EvalReport:
    """Score a fitted baseline on a corpus of ExpressiveScores, pooling
    timesteps (micro-average)."""
    if task != model.task:
        raise ValueError(f"model was fit for {model.task!r}, not {task!r}")
    values, first = _category_values(corpus, task)
    n_a = len(first)
    report = EvalReport(task=task, model=model.kind)
    for cat, m in model.categories.items():
        poi = _poi_mask(values[cat], first)
        logp, hits = m.score(values[cat], first)
        n_p = poi.sum()
        report.categories.append(CategoryResult(
            category=cat,
            nll_poi=-logp[poi].sum() / n_p if n_p else 0.0,
            nll_all=-logp.sum() / n_a if n_a else 0.0,
            acc_poi=hits[poi].sum() / n_p if n_p else 0.0,
            acc_all=hits.sum() / n_a if n_a else 0.0,
        ))
    return report


def report_to_json(report: EvalReport) -> str:
    """The report as JSON: its task, model, per-category results and, per
    metric in ``METRICS``, its aggregate."""
    doc = {
        "task": report.task,
        "model": report.model,
        "categories": [vars(c).copy() for c in report.categories],
        "aggregates": {m: getattr(report, m) for m in METRICS},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def report_to_table(report: EvalReport) -> str:
    """Human-readable table: a column per metric in ``METRICS``, a row per
    category plus the aggregates."""
    headers = ("category", *METRICS)
    rows = [[c.category, *(f"{getattr(c, m):.3f}" for m in METRICS)] for c in report.categories]
    rows.append(["aggregate", *(f"{getattr(report, m):.3f}" for m in METRICS)])
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.extend("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# corpus statistics

@dataclass
class CorpusStats:
    song_count: int
    note_count: int
    duration_seconds: float
    on_probability: dict[str, float]
    average_polyphony: float

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)


def corpus_stats(corpus) -> CorpusStats:
    """Song/note counts, duration, per-voice on-rates and mean polyphony of
    a corpus of ExpressiveScores.

    Average polyphony equals the sum of the per-voice on-probabilities by
    construction (both divide the same on-counts by the same frame total).
    Notes are counted at onsets: timesteps that open a song or whose note
    differs from the previous one, and whose note is sounding.  A note
    outside its voice's alphabet raises AlphabetMismatch, and a rate
    ``check_rate`` refuses ValueError.
    """
    corpus = list(corpus)
    notes, first = _category_values(corpus, "separated")   # index 0 is note 0
    duration = sum(len(s) / sc.check_rate(s.rate_hz, len(s)) for s in corpus)
    frames = max(len(first), 1)      # an empty corpus has on-rates and polyphony 0
    on_counts = {v: int(np.count_nonzero(notes[v])) for v in sc.VOICES}
    note_count = sum(int(np.count_nonzero(_poi_mask(notes[v], first) & (notes[v] > 0)))
                     for v in sc.VOICES)
    probs = {v: on_counts[v] / frames for v in sc.VOICES}
    polyphony = sum(on_counts.values()) / frames
    return CorpusStats(len(corpus), note_count, duration, probs, polyphony)


# ---------------------------------------------------------------------------
# corpus manifests

class BadManifest(ValueError):
    """A manifest line that cannot be read, named by path and 1-based line."""

    def __init__(self, path, line_number: int, message: str):
        super().__init__(f"{path}: line {line_number}: {message}")
        self.line_number = line_number


class BadScoreFile(ValueError):
    """A corpus score that cannot be read, named by path; the reader's error
    is its ``__cause__``."""


def read_manifest(path) -> list[CorpusEntry]:
    """Parse a manifest: one score path per line, optional key=value attrs.

        songs/abadox-01.nesscore game=abadox composer=sada

    Entries without a composer get a synthetic singleton id so the split
    invariant (no composer in two subsets) stays well defined.  Lines end at
    LF only, so line numbers match what an editor shows.
    """
    entries = []
    base = Path(path).parent
    for number, raw in enumerate(Path(path).read_bytes().split(b"\n"), 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise BadManifest(path, number, f"not UTF-8: byte {raw[exc.start]:#04x} "
                                            f"at column {exc.start + 1}") from None
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        ref = tokens[0]
        attrs = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise BadManifest(path, number, f"bad manifest attribute {token!r}")
            key, value = token.split("=", 1)
            attrs[key] = value
        game = attrs.get("game", Path(ref).stem)
        composers = frozenset(c for c in attrs.get("composer", "").split(",") if c)
        if not composers:
            composers = frozenset({f"~{ref}"})
        entries.append(CorpusEntry(song_id=ref, game_id=game, composer_ids=composers,
                                   score_ref=str(base / ref)))
    return entries


def load_corpus(entries) -> list[ExpressiveScore]:
    corpus = []
    for e in entries:
        try:
            corpus.append(read_score_text(Path(e.score_ref).read_bytes()))
        except ValueError as exc:
            raise BadScoreFile(f"{e.score_ref}: {exc}") from exc
    return corpus
