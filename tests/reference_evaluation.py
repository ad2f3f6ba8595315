"""The per-song baselines that the whole-corpus ones replaced.

Kept as the reference the evaluation tests compare against: every model
observes one song at a time and is finalised after the last, the bigram
counts transitions with ``np.add.at``, the chord unigram keys a dict by each
column's bytes, and ``random`` has its own classes.  ``fit``, ``evaluate``
and ``corpus_stats`` loop over the songs and pool their sums in song order.
"""

import math

import numpy as np

from nesscore import score as sc
from nesscore.evaluation import (
    CATEGORIES,
    TASKS,
    AlphabetMismatch,
    CategoryResult,
    CorpusStats,
    EmptyCorpus,
    EvalReport,
)
from nesscore.score import BlendedScore, ExpressiveScore, SeparatedScore, to_blended, to_separated


_START = -1   # bigram context index for t = 0; never equals an alphabet value


def _poi_mask(values: np.ndarray) -> np.ndarray:
    """Timesteps (the last axis) where the value, or for a grid any of its
    rows, differs from its predecessor; 0 included."""
    changed = values[..., 1:] != values[..., :-1]
    mask = np.empty(values.shape[-1], dtype=bool)
    mask[0] = True
    mask[1:] = changed.any(axis=0) if values.ndim == 2 else changed
    return mask


def _to_indices(values: np.ndarray, alphabet: np.ndarray, category: str) -> np.ndarray:
    idx = np.searchsorted(alphabet, values)
    idx_c = np.clip(idx, 0, len(alphabet) - 1)
    bad = alphabet[idx_c] != values
    if bad.any():
        raise AlphabetMismatch(
            f"value {int(values[bad][0])} not in the {category} alphabet")
    return idx_c


def _category_values(scores, task: str) -> list[dict[str, np.ndarray]]:
    """Per-score category value sequences (or blended grids)."""
    out = []
    for s in scores:
        if task == "blended":
            if isinstance(s, ExpressiveScore):
                s = to_blended(to_separated(s))
            elif isinstance(s, SeparatedScore):
                s = to_blended(s)
            if not isinstance(s, BlendedScore):
                raise ValueError(f"cannot evaluate {type(s).__name__} on blended task")
            out.append({"blended": s.grid.astype(np.int64)})
            continue
        if isinstance(s, ExpressiveScore):
            arr = s.to_array().astype(np.int64)
        elif isinstance(s, SeparatedScore) and task == "separated":
            arr = np.zeros((s.notes.shape[1], 10), dtype=np.int64)
            arr[:, sc.NOTE_COLUMNS] = s.notes.T
        else:
            raise ValueError(f"cannot evaluate {type(s).__name__} on {task} task")
        out.append({cat: arr[:, col] for cat, (_a, col) in CATEGORIES[task].items()})
    return out


# ---------------------------------------------------------------------------
# categorical baselines (separated / expressive)

class _CategoricalBaseline:
    task: str
    kind: str

    def __init__(self, task: str):
        if task not in ("separated", "expressive"):
            raise ValueError(f"{self.kind} baseline is for separated/expressive tasks")
        self.task = task
        self.alphabets = {cat: a for cat, (a, _c) in CATEGORIES[task].items()}

    @property
    def category_names(self):
        return list(self.alphabets)

    def log_probs(self, category: str, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def matches(self, category: str, values: np.ndarray) -> np.ndarray:
        """Whether the model's argmax prediction equals the actual value."""
        raise NotImplementedError


class RandomBaseline(_CategoricalBaseline):
    """Uniform over each category alphabet; predicts the first symbol."""

    kind = "random"

    def log_probs(self, category, values):
        alphabet = self.alphabets[category]
        _to_indices(values, alphabet, category)
        return np.full(values.shape[0], -math.log(len(alphabet)))

    def matches(self, category, values):
        return values == self.alphabets[category][0]


class UnigramBaseline(_CategoricalBaseline):
    """Add-1-smoothed marginal over each category alphabet."""

    kind = "unigram"

    def __init__(self, task):
        super().__init__(task)
        self.counts = {cat: np.zeros(len(a), dtype=np.int64)
                       for cat, a in self.alphabets.items()}
        self._logp: dict[str, np.ndarray] = {}

    def observe(self, category, values):
        idx = _to_indices(values, self.alphabets[category], category)
        self.counts[category] += np.bincount(idx, minlength=len(self.alphabets[category]))

    def finalize(self):
        for cat, c in self.counts.items():
            self._logp[cat] = np.log((c + 1) / (c.sum() + len(c)))

    def log_probs(self, category, values):
        idx = _to_indices(values, self.alphabets[category], category)
        return self._logp[category][idx]

    def matches(self, category, values):
        pred = self.alphabets[category][int(np.argmax(self.counts[category]))]
        return values == pred


class BigramBaseline(_CategoricalBaseline):
    """Add-1-smoothed order-1 transitions within each category.

    Likelihoods condition on the previous value (a start row covers t = 0);
    the argmax prediction is the previous observed value itself, which is
    what makes accuracy at POIs identically zero.
    """

    kind = "bigram"

    def __init__(self, task):
        super().__init__(task)
        self.counts = {cat: np.zeros((len(a) + 1, len(a)), dtype=np.int64)
                       for cat, a in self.alphabets.items()}
        self._logp: dict[str, np.ndarray] = {}

    def observe(self, category, values):
        idx = _to_indices(values, self.alphabets[category], category)
        table = self.counts[category]
        table[-1, idx[0]] += 1              # start-of-score row
        if len(idx) > 1:
            np.add.at(table, (idx[:-1], idx[1:]), 1)

    def finalize(self):
        for cat, table in self.counts.items():
            rows = table.sum(axis=1, keepdims=True)
            self._logp[cat] = np.log((table + 1) / (rows + table.shape[1]))

    def log_probs(self, category, values):
        idx = _to_indices(values, self.alphabets[category], category)
        prev = np.concatenate(([_START], idx[:-1]))
        return self._logp[category][prev, idx]

    def matches(self, category, values):
        out = np.zeros(values.shape[0], dtype=bool)
        out[1:] = values[1:] == values[:-1]   # t = 0 has no previous value
        return out


# ---------------------------------------------------------------------------
# blended baselines

class _BlendedBaseline:
    task = "blended"
    category_names = ["blended"]

    def log_probs(self, category: str, grid: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def matches(self, category: str, grid: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class BlendedRandomBaseline(_BlendedBaseline):
    """Independent fair coin per key: 88*ln(2) nats per column."""

    kind = "random"

    def log_probs(self, category, grid):
        return np.full(grid.shape[1], -sc.BLENDED_ROWS * math.log(2.0))

    def matches(self, category, grid):
        return ~grid.any(axis=0)    # argmax column is all-off


class NoteUnigramBaseline(_BlendedBaseline):
    """Independent smoothed on-probability per key."""

    kind = "note-unigram"

    def __init__(self):
        self.on_counts = np.zeros(sc.BLENDED_ROWS, dtype=np.int64)
        self.total = 0

    def observe(self, category, grid):
        self.on_counts += grid.sum(axis=1)
        self.total += grid.shape[1]

    def finalize(self):
        p_on = (self.on_counts + 1) / (self.total + 2)
        self._log_on = np.log(p_on)
        self._log_off = np.log1p(-p_on)
        self._pred = (p_on > 0.5).astype(np.int64)

    def log_probs(self, category, grid):
        return (self._log_on[:, None] * grid
                + self._log_off[:, None] * (1 - grid)).sum(axis=0)

    def matches(self, category, grid):
        return np.all(grid == self._pred[:, None], axis=0)


class ChordUnigramBaseline(_BlendedBaseline):
    """Distribution over observed 88-bit columns, plus one unseen bucket."""

    kind = "chord-unigram"

    def __init__(self):
        self.counts: dict[bytes, int] = {}
        self.total = 0

    def observe(self, category, grid):
        for col in np.ascontiguousarray(grid.T.astype(np.uint8)):
            key = col.tobytes()
            self.counts[key] = self.counts.get(key, 0) + 1
        self.total += grid.shape[1]

    def finalize(self):
        denom = self.total + len(self.counts) + 1
        self._logp = {k: math.log((c + 1) / denom) for k, c in self.counts.items()}
        self._log_unseen = math.log(1 / denom)
        self._pred = max(self.counts, key=self.counts.get) if self.counts else None

    def log_probs(self, category, grid):
        cols = np.ascontiguousarray(grid.T.astype(np.uint8))
        return np.array([self._logp.get(col.tobytes(), self._log_unseen)
                         for col in cols])

    def matches(self, category, grid):
        cols = np.ascontiguousarray(grid.T.astype(np.uint8))
        return np.array([col.tobytes() == self._pred for col in cols])


# ---------------------------------------------------------------------------
# fitting and evaluation

_KINDS = {
    "separated": ("random", "unigram", "bigram"),
    "expressive": ("random", "unigram", "bigram"),
    "blended": ("random", "note-unigram", "chord-unigram"),
}


def fit(kind: str, corpus, task: str):
    """Fit a baseline of the given kind on a corpus of scores.

    The random baseline needs no data; learned kinds raise EmptyCorpus when
    the corpus holds no timesteps.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if kind not in _KINDS[task]:
        raise ValueError(f"model kind {kind!r} is not defined for the {task} task")

    if kind == "random":
        return BlendedRandomBaseline() if task == "blended" else RandomBaseline(task)

    if task == "blended":
        model = NoteUnigramBaseline() if kind == "note-unigram" else ChordUnigramBaseline()
    else:
        model = UnigramBaseline(task) if kind == "unigram" else BigramBaseline(task)
    n = 0
    for per_score in _category_values(corpus, task):
        for cat in model.category_names:
            values = per_score[cat]
            if values.shape[-1]:
                model.observe(cat, values)
        n += next(iter(per_score.values())).shape[-1]
    if n == 0:
        raise EmptyCorpus(f"cannot fit {kind} on an empty corpus")
    model.finalize()
    return model


def evaluate(model, corpus, task: str) -> EvalReport:
    """Score a fitted baseline on a corpus, pooling timesteps (micro-average)."""
    if task != model.task:
        raise ValueError(f"model was fit for {model.task!r}, not {task!r}")
    sums = {cat: np.zeros(6) for cat in model.category_names}  # nllP nllA hitP hitA nP nA
    for per_score in _category_values(corpus, task):
        for cat in model.category_names:
            values = per_score[cat]
            n = values.shape[-1]
            if n == 0:
                continue
            mask = _poi_mask(values)
            logp = model.log_probs(cat, values)
            hits = model.matches(cat, values)
            sums[cat] += (-logp[mask].sum(), -logp.sum(),
                          hits[mask].sum(), hits.sum(), mask.sum(), n)
    report = EvalReport(task=task, model=model.kind)
    for cat in model.category_names:
        nll_p, nll_a, hit_p, hit_a, n_p, n_a = sums[cat]
        report.categories.append(CategoryResult(
            category=cat,
            nll_poi=nll_p / n_p if n_p else 0.0,
            nll_all=nll_a / n_a if n_a else 0.0,
            acc_poi=hit_p / n_p if n_p else 0.0,
            acc_all=hit_a / n_a if n_a else 0.0,
        ))
    return report


def corpus_stats(corpus) -> CorpusStats:
    """Song/note counts, duration, per-voice on-rates and mean polyphony.

    Average polyphony equals the sum of the per-voice on-probabilities by
    construction (both divide the same on-counts by the same frame total).
    Notes are counted at onsets: timesteps whose note differs from the
    previous one and is sounding.
    """
    corpus = list(corpus)
    on_counts = dict.fromkeys(sc.VOICES, 0)
    total_frames = 0
    note_count = 0
    duration = 0.0
    for s in corpus:
        arr = s.to_array().astype(np.int64)
        total_frames += arr.shape[0]
        duration += len(s) / s.rate_hz
        if arr.shape[0] == 0:
            continue
        for voice, col in zip(sc.VOICES, sc.NOTE_COLUMNS):
            notes = arr[:, col]
            on_counts[voice] += int((notes > 0).sum())
            onsets = _poi_mask(notes) & (notes > 0)
            note_count += int(onsets.sum())
    if total_frames == 0:
        return CorpusStats(len(corpus), 0, duration, dict.fromkeys(sc.VOICES, 0.0), 0.0)
    probs = {v: on_counts[v] / total_frames for v in sc.VOICES}
    polyphony = sum(on_counts.values()) / total_frames
    return CorpusStats(len(corpus), note_count, duration, probs, polyphony)
