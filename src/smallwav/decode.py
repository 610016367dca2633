"""Best-path CTC decoding and word error rate.

Token id 0 is always the CTC blank.  Decoded sequences are plain lists
of non-blank ids.  Words are runs of tokens between boundary tokens;
WER pools counts over the whole corpus rather than averaging per-line
rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLANK = 0


def best_path_decode(logits) -> list:
    """Greedy CTC decode of per-frame logits (or probabilities).

    Takes the argmax token per frame (ties resolve to the lowest id, as
    numpy's argmax does), collapses adjacent repeats, then removes
    blanks.  A (0, M) input decodes to the empty sequence.
    """
    arr = getattr(logits, "data", logits)
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValueError(f"best_path_decode: expected (N, M) logits, got {arr.shape}")
    if arr.shape[0] == 0:
        return []
    path = np.argmax(arr, axis=1)
    out = []
    prev = -1
    for tok in path.tolist():
        if tok != prev:
            if tok != BLANK:
                out.append(tok)
            prev = tok
    return out


@dataclass(frozen=True)
class EditCounts:
    substitutions: int
    insertions: int
    deletions: int

    @property
    def total(self) -> int:
        return self.substitutions + self.insertions + self.deletions


def edit_distance(ref, hyp) -> EditCounts:
    """Levenshtein alignment counts between two sequences.

    Minimizes total edits; among minimal alignments, prefers the one
    with fewer insertions, which makes the reported split deterministic.
    """
    ref = list(ref)
    hyp = list(hyp)
    # Each cell holds (total, ins, subs, dels); compare on (total, ins).
    prev = [(j, j, 0, 0) for j in range(len(hyp) + 1)]
    for i in range(1, len(ref) + 1):
        cur = [(i, 0, 0, i)]
        for j in range(1, len(hyp) + 1):
            t, n, s, d = prev[j - 1]
            if ref[i - 1] != hyp[j - 1]:
                diag = (t + 1, n, s + 1, d)
            else:
                diag = (t, n, s, d)
            t, n, s, d = prev[j]
            up = (t + 1, n, s, d + 1)
            t, n, s, d = cur[j - 1]
            left = (t + 1, n + 1, s, d)
            best = diag
            for cand in (up, left):
                if (cand[0], cand[1]) < (best[0], best[1]):
                    best = cand
            cur.append(best)
        prev = cur
    _, ins, subs, dels = prev[-1]
    return EditCounts(subs, ins, dels)


def split_words(tokens, boundary: int) -> list:
    """Runs of tokens between boundary markers, as tuples.  Empty runs drop."""
    words = []
    current = []
    for tok in tokens:
        if tok == boundary:
            if current:
                words.append(tuple(current))
                current = []
        else:
            current.append(tok)
    if current:
        words.append(tuple(current))
    return words


@dataclass(frozen=True)
class WerReport:
    substitutions: int
    insertions: int
    deletions: int
    n_ref_words: int

    @property
    def n_errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        return self.n_errors / self.n_ref_words

    def __str__(self):
        return (
            f"WER {100.0 * self.wer:.2f}% "
            f"(S={self.substitutions} I={self.insertions} D={self.deletions} "
            f"over {self.n_ref_words} words)"
        )


def wer(refs, hyps, boundary: int) -> WerReport:
    """Corpus word error rate: summed edits over summed reference words.

    refs and hyps are parallel lists of token sequences; words are
    delimited by the boundary token.  A corpus whose references contain
    no words at all has no defined rate and raises ValueError.
    """
    if len(refs) != len(hyps):
        raise ValueError(f"wer: {len(refs)} references vs {len(hyps)} hypotheses")
    subs = ins = dels = n_ref = 0
    for ref, hyp in zip(refs, hyps):
        counts = edit_distance(split_words(ref, boundary), split_words(hyp, boundary))
        subs += counts.substitutions
        ins += counts.insertions
        dels += counts.deletions
        n_ref += len(split_words(ref, boundary))
    if n_ref == 0:
        raise ValueError("wer: reference corpus contains no words")
    return WerReport(subs, ins, dels, n_ref)


def token_error_rate(refs, hyps) -> float:
    """Diagnostic edit rate over raw tokens, boundary included."""
    if len(refs) != len(hyps):
        raise ValueError(f"token_error_rate: {len(refs)} refs vs {len(hyps)} hyps")
    errors = sum(edit_distance(r, h).total for r, h in zip(refs, hyps))
    n_ref = sum(len(r) for r in refs)
    if n_ref == 0:
        raise ValueError("token_error_rate: empty reference corpus")
    return errors / n_ref


# ---------------------------------------------------------------------------
# transcript dumps: one utterance per line, ids space-separated, the word
# boundary written as "|"


def format_transcript(tokens, boundary: int) -> str:
    return " ".join("|" if t == boundary else str(int(t)) for t in tokens)


def write_transcripts(path, seqs, boundary: int) -> None:
    with open(path, "w") as fh:
        for seq in seqs:
            fh.write(format_transcript(seq, boundary) + "\n")
