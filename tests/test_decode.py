import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallwav.decode import (
    EditCounts,
    best_path_decode,
    edit_distance,
    format_transcript,
    split_words,
    token_error_rate,
    wer,
    write_transcripts,
)


def collapse_oracle(path):
    """Independent statement of the CTC collapse rule."""
    merged = [t for t, _ in itertools.groupby(path)]
    return [t for t in merged if t != 0]


def one_hot(path, m=3):
    out = np.full((len(path), m), -5.0)
    for i, t in enumerate(path):
        out[i, t] = 5.0
    return out


def test_decode_hand_cases():
    assert best_path_decode(one_hot([1, 1, 0, 1])) == [1, 1]
    assert best_path_decode(one_hot([0, 0, 0])) == []
    assert best_path_decode(one_hot([1, 2, 2, 0, 2])) == [1, 2, 2]
    assert best_path_decode(np.zeros((0, 3))) == []


def test_decode_exhaustive_short_paths():
    # Every path of length <= 5 over {blank, 1, 2} against the oracle.
    for n in range(1, 6):
        for path in itertools.product(range(3), repeat=n):
            got = best_path_decode(one_hot(list(path)))
            assert got == collapse_oracle(path), path


def test_decode_tie_prefers_lower_id():
    logits = np.zeros((1, 4))  # four-way tie, argmax must pick id 0 (blank)
    assert best_path_decode(logits) == []
    logits = np.array([[0.0, 1.0, 1.0, 0.0]])  # tie between 1 and 2
    assert best_path_decode(logits) == [1]


def test_decode_rejects_bad_rank():
    with pytest.raises(ValueError):
        best_path_decode(np.zeros(7))


# ---------------------------------------------------------------------------
# edit distance


@lru_cache(maxsize=None)
def lev_oracle(a, b):
    """Plain recursive Levenshtein total, memoized."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        lev_oracle(a[1:], b[1:]) + (a[0] != b[0]),
        lev_oracle(a[1:], b) + 1,
        lev_oracle(a, b[1:]) + 1,
    )


def test_edit_distance_against_recursion():
    rng = np.random.default_rng(42)
    for _ in range(500):
        a = tuple(rng.integers(0, 4, rng.integers(0, 7)).tolist())
        b = tuple(rng.integers(0, 4, rng.integers(0, 7)).tolist())
        counts = edit_distance(a, b)
        assert counts.total == lev_oracle(a, b), (a, b)
        # Any alignment satisfies this length identity.
        assert len(b) == len(a) + counts.insertions - counts.deletions


def test_edit_distance_hand_counts():
    assert edit_distance([1], [2, 3]) == EditCounts(1, 1, 0)
    assert edit_distance([1, 2], [2]) == EditCounts(0, 0, 1)
    assert edit_distance([], [5, 5]) == EditCounts(0, 2, 0)
    assert edit_distance([7, 8], []) == EditCounts(0, 0, 2)
    assert edit_distance([1, 2, 3], [1, 2, 3]) == EditCounts(0, 0, 0)


def test_edit_distance_total_is_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = rng.integers(0, 3, rng.integers(0, 6)).tolist()
        b = rng.integers(0, 3, rng.integers(0, 6)).tolist()
        ab = edit_distance(a, b)
        ba = edit_distance(b, a)
        assert ab.total == ba.total
        # Swapping roles swaps insertions and deletions.
        assert ab.substitutions == ba.substitutions
        assert ab.insertions == ba.deletions


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), st.lists(st.integers(0, 3), max_size=6))
def test_edit_distance_triangle_inequality(a, b):
    c = a[: len(a) // 2] + b[len(b) // 2 :]
    assert edit_distance(a, b).total <= edit_distance(a, c).total + edit_distance(c, b).total


# ---------------------------------------------------------------------------
# words and WER


B = 9  # boundary token for these tests


def test_split_words():
    assert split_words([1, 2, B, 3], B) == [(1, 2), (3,)]
    assert split_words([B, 1, B, B, 2, B], B) == [(1,), (2,)]
    assert split_words([], B) == []
    assert split_words([B, B], B) == []


def test_wer_pools_over_corpus():
    refs = [[1], [1, B, 2]]
    hyps = [[1], [3]]
    # Utterance 1: perfect.  Utterance 2: ref words (1,) (2,), hyp word (3,):
    # one substitution plus one deletion.
    report = wer(refs, hyps, boundary=B)
    assert (report.substitutions, report.insertions, report.deletions) == (1, 0, 1)
    assert report.n_ref_words == 3
    assert abs(report.wer - 2.0 / 3.0) < 1e-12


def test_wer_empty_corpus_rejected():
    with pytest.raises(ValueError):
        wer([[B]], [[1]], boundary=B)
    with pytest.raises(ValueError):
        wer([[1]], [[1], [2]], boundary=B)


def test_wer_can_exceed_one():
    report = wer([[1]], [[2, B, 3, B, 4]], boundary=B)
    assert report.wer > 1.0


def test_token_error_rate():
    assert token_error_rate([[1, 2, 3]], [[1, 2, 3]]) == 0.0
    assert abs(token_error_rate([[1, 2]], [[1]]) - 0.5) < 1e-12


@pytest.mark.parametrize(
    "refs, hyps, message",
    [
        ([[1, 2]], [], "token_error_rate: 1 refs vs 0 hyps"),
        ([[1]], [[1], [2]], "token_error_rate: 1 refs vs 2 hyps"),
        ([[], []], [[1], []], "token_error_rate: empty reference corpus"),
    ],
    ids=["missing hypothesis", "extra hypothesis", "no reference tokens"],
)
def test_token_error_rate_rejects_a_corpus_it_cannot_score(refs, hyps, message):
    with pytest.raises(ValueError, match=message):
        token_error_rate(refs, hyps)


# ---------------------------------------------------------------------------
# dumps


def test_transcript_format_roundtrip(tmp_path):
    seqs = [[1, 2, B, 3], [], [B], [10, 11]]
    path = tmp_path / "hyp.txt"
    write_transcripts(path, seqs, boundary=B)
    text = path.read_text().splitlines()
    assert [[B if p == "|" else int(p) for p in line.split()] for line in text] == seqs
    assert text[0] == "1 2 | 3"
    assert text[1] == ""
    assert text[2] == "|"


def test_transcript_format_single_line():
    assert format_transcript([5, B, 6], B) == "5 | 6"
