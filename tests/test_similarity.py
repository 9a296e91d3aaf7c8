import concurrent.futures as futures
import functools
import logging
import multiprocessing
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pedlex
from pedlex import (
    DistanceConfig,
    DpStats,
    SubstitutionCosts,
    WordList,
    align_lists,
    build_matrix,
    default_inventory,
    default_manner_table,
    format_report,
    ped,
    read_wordlist,
    tokenize,
    write_wordlist,
)
from pedlex import similarity
from pedlex.errors import TokenizeError, WordListError
from pedlex.ped import Bucket, band, dp_labels, nearest, start_bound, threshold

INV = default_inventory()
XI = default_manner_table()
CFG = DistanceConfig()
COSTS = SubstitutionCosts(CFG, XI)


def wordlist(lang, pos, ipa_strings):
    return WordList(
        language=lang,
        pos=pos,
        lemmas=tuple(ipa_strings),
        ipa_by_lemma={w: w for w in ipa_strings},
    )


def greedy_oracle(short_ipas, long_ipas, shuffle_seed=None):
    """Step-by-step replay of the greedy procedure with the public API."""
    remaining = list(long_ipas)
    total = 0.0
    order = sorted(short_ipas)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    for w in order:
        scored = []
        for x in remaining:
            nd = ped(tokenize(w, INV), tokenize(x, INV), costs=COSTS).normalized
            scored.append((nd, x))
        best = min(scored)  # ties resolved lexicographically by the tuple
        total += best[0]
        remaining.remove(best[1])
    return total / len(short_ipas)


TOY_L1 = ["pa", "ta", "ka", "ma", "na"]
TOY_L2 = ["ba", "da", "ga", "sa", "la"]


def test_toy_lists_match_greedy_oracle():
    cell = align_lists(
        wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2), INV, costs=COSTS
    )
    assert cell.mu_psi == greedy_oracle(TOY_L1, TOY_L2)


def test_toy_lists_frozen_value():
    # hand total: 0.2/2 + 0.0667/2 + 0.0667/2 + 0.2/2 + 0.5333/2 over 5 words
    cell = align_lists(
        wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2), INV, costs=COSTS
    )
    assert cell.mu_psi == pytest.approx(0.10667, abs=0.0005)


def test_self_similarity_zero(fixtures_dir):
    words = read_wordlist(fixtures_dir / "pronouns" / "ur.tsv")
    cell = align_lists(words, words, INV, costs=COSTS)
    assert cell.mu_psi == 0.0
    assert cell.size_a == cell.size_b == 20


def test_min_size_skip():
    small = wordlist("aa", "PRON", ["ab", "cd"])
    big = wordlist("bb", "PRON", TOY_L2)
    cell = align_lists(small, big, INV, costs=COSTS)
    assert cell.skipped
    assert cell.mu_psi is None
    assert cell.skipped_reason == "list smaller than 5"


def test_min_size_configurable():
    small = wordlist("aa", "PRON", ["ab", "cd"])
    big = wordlist("bb", "PRON", TOY_L2)
    cell = align_lists(small, big, INV, costs=COSTS, min_size=2)
    assert not cell.skipped


def test_longer_list_drives_sizes_not_roles():
    # sizes follow the lang_a/lang_b naming, not the L1/L2 roles
    l_big = wordlist("zz", "PRON", TOY_L1 + ["sa"])
    l_small = wordlist("aa", "PRON", TOY_L2)
    cell = align_lists(l_big, l_small, INV, costs=COSTS)
    assert (cell.lang_a, cell.size_a) == ("aa", 5)
    assert (cell.lang_b, cell.size_b) == ("zz", 6)


def test_equal_sizes_tie_broken_by_language_id():
    a = wordlist("aa", "PRON", TOY_L1)
    b = wordlist("bb", "PRON", TOY_L2)
    assert align_lists(a, b, INV, costs=COSTS) == align_lists(b, a, INV, costs=COSTS)


def test_pruned_equals_unpruned():
    a = wordlist("aa", "PRON", TOY_L1 + ["t̪ʰuma:", "xira:d̪", "ko:i:"])
    b = wordlist("bb", "PRON", TOY_L2 + ["d̪ʰuma:", "sira:t̪", "mo:i:"])
    pruned = align_lists(a, b, INV, costs=COSTS, prune=True)
    unpruned = align_lists(a, b, INV, costs=COSTS, prune=False)
    assert pruned.mu_psi == unpruned.mu_psi


def test_pruning_reduces_cells():
    a = wordlist("aa", "PRON", TOY_L1 + ["t̪ʰuma:", "xira:d̪", "ko:i:"])
    b = wordlist("bb", "PRON", TOY_L2 + ["d̪ʰuma:", "sira:t̪", "mo:i:"])
    s_pruned, s_unpruned = DpStats(), DpStats()
    align_lists(a, b, INV, costs=COSTS, prune=True, stats=s_pruned)
    align_lists(a, b, INV, costs=COSTS, prune=False, stats=s_unpruned)
    assert s_pruned.cells < s_unpruned.cells


def test_each_long_word_used_at_most_once():
    # one shared word: only one of the two identical shorts can claim it
    l1 = wordlist("aa", "PRON", ["pa", "po", "pi", "pe", "pu"])
    l2 = wordlist("bb", "PRON", ["pa", "pa:", "paj", "zzz", "qqq"])
    cell = align_lists(l1, l2, INV, costs=COSTS)
    assert cell.mu_psi == greedy_oracle(["pa", "po", "pi", "pe", "pu"],
                                        ["pa", "pa:", "paj", "zzz", "qqq"])
    assert cell.mu_psi > 0.0


def test_shuffle_seed_is_deterministic_diagnostic():
    a = wordlist("aa", "PRON", TOY_L1)
    b = wordlist("bb", "PRON", TOY_L2)
    one = align_lists(a, b, INV, costs=COSTS, shuffle_seed=5)
    two = align_lists(a, b, INV, costs=COSTS, shuffle_seed=5)
    assert one == two


# no two of these join into a longer inventory symbol; "aː" and "a:" are two
# spellings of one label
DIFF_SYMBOLS = ["p", "b", "t", "d", "m", "s", "a", "a:", "aː", "i", "u"]
diff_words = st.lists(st.sampled_from(DIFF_SYMBOLS), min_size=1, max_size=6).map("".join)


@st.composite
def list_pairs(draw):
    """(short, long) distinct-IPA lists; the first is never the longer."""
    long_ = draw(st.lists(diff_words, min_size=1, max_size=14, unique=True))
    short = draw(st.lists(diff_words, min_size=1, max_size=len(long_), unique=True))
    return short, long_


@given(list_pairs(), st.one_of(st.none(), st.integers(0, 2**16)))
@settings(max_examples=150, deadline=None)
# after "pad" or "bat" sets the bound, later candidates of that length fail
# it on rows their neighbours already failed: a shared "u"/"uu" prefix, or
# all of "paa:"
@example((["pat"], ["pad", "uui", "uum", "uut"]), None)
@example((["pat"], ["bat", "paa:", "paaː", "pas"]), None)
# one-phone queries only: every query is a single column
@example((["a", "p"], ["a:", "b", "pa"]), None)
# "di" is 1/2 from "ui" (scanned first) and from "d" (scanned next): the
# exact tie goes to "d", the smaller IPA
@example((["di"], ["d", "ui"]), None)
# the start word ties the optimum exactly: "ia:t" starts at 2/3 and keeps
# the pick over "stm", a larger IPA at 2/3; "p" starts at 1.0 and loses it
# to "aːa", a smaller IPA at 1.0
@example((["taː"], ["ia:t", "iiaːs", "iid", "stm"]), None)
@example((["u"], ["aːa", "ba:a", "p"]), None)
# claims empty the nearest bucket: the last two queries start from a word
# of another length
@example((["a:aːb", "mb", "u"], ["aːt", "ma:si", "pmaːa:", "tbi"]), None)
def test_align_lists_pruned_unpruned_and_oracle_agree(pair, shuffle_seed):
    short, long_ = pair
    l1, l2 = wordlist("aa", "NOUN", short), wordlist("bb", "NOUN", long_)
    s_pruned, s_unpruned = DpStats(), DpStats()
    pruned = align_lists(l1, l2, INV, costs=COSTS, min_size=1, shuffle_seed=shuffle_seed,
                         stats=s_pruned)
    unpruned = align_lists(l1, l2, INV, costs=COSTS, min_size=1, shuffle_seed=shuffle_seed,
                           prune=False, stats=s_unpruned)
    oracle = greedy_oracle(short, long_, shuffle_seed)
    assert pruned.mu_psi.hex() == unpruned.mu_psi.hex() == oracle.hex()
    # every query visits each unclaimed word once: prefiltered, abandoned or completed
    visits = sum(len(long_) - q for q in range(len(short)))
    for stats in (s_pruned, s_unpruned):
        assert stats.dps + stats.prefiltered == visits
        assert stats.abandoned <= stats.dps
    assert s_unpruned.prefiltered == s_unpruned.abandoned == 0
    assert s_pruned.cells <= s_unpruned.cells


def test_seeded_200_word_cell_work_and_score_pinned():
    # the DP work and score of one mid-sized cell, bit for bit: the kernel
    # must compute the same cells, abandon the same candidates and pick the
    # same words
    rng = random.Random(200)
    alphabet = ["p", "t", "k", "b", "d", "g", "m", "n", "s", "z", "a", "e", "i", "o", "u",
                "a:", "ʃ", "r", "l"]

    def seeded_list(lang):
        words = set()
        while len(words) < 200:
            words.add("".join(rng.choice(alphabet) for _ in range(rng.randint(2, 9))))
        return wordlist(lang, "NOUN", sorted(words))

    a, b = seeded_list("aa"), seeded_list("bb")
    stats = DpStats()
    cell = align_lists(a, b, INV, costs=COSTS, stats=stats)
    assert (stats.cells, stats.dps, stats.abandoned, stats.prefiltered) == (
        102748, 9511, 8823, 10589)
    assert cell.mu_psi.hex() == "0x1.72c24e72ba1d2p-2"


def full_visit(order, query, prune, stats):
    """A query's search over every bucket of ``order`` that rules a bucket
    out, with ``prune``, by the kernel's own band: none is left of
    ``threshold(best, maxlen)``."""
    best, bucket, k = start_bound(order, query)
    best_ipa, best_at = bucket.ipas[k], (bucket, k)
    n = len(query)
    for bucket in order:
        m = bucket.length
        if prune and band(threshold(best, max(m, n)), m, n) is None:
            stats.prefiltered += len(bucket.labels)
            continue
        hit = dp_labels(bucket, query, best, best_ipa, prune, stats)
        if hit:
            k, best = hit
            best_ipa, best_at = bucket.ipas[k], (bucket, k)
    return best, best_at


@st.composite
def visit_cases(draw):
    """(long words, queries, rows, prune) over 1-3 label ids, words of 0-9."""
    labels = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, labels - 1), max_size=9).map(tuple)
    long_ = draw(st.lists(word, min_size=1, max_size=16, unique=True))
    queries = draw(st.lists(word, min_size=1, max_size=len(long_)))
    cost = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    rows = [draw(st.lists(cost, min_size=labels, max_size=labels)) for _ in range(labels)]
    return long_, queries, rows, draw(st.booleans())


@given(visit_cases())
@settings(max_examples=300, deadline=None)
# the query matches a word exactly: every other length is ruled out on its gap
@example(([(0,), (0, 0, 0, 0), (0,) * 6, (0,) * 8, ()], [(0,)], [[0.0]], True))
# a bound that rules out the far end of each side only
@example(([(0,) * k for k in range(10)], [(1, 1, 1, 1), (1,)], [[1.0, 0.5], [0.5, 0.0]], True))
def test_nearest_rules_out_the_buckets_the_kernel_band_rules_out(case):
    long_, queries, rows, prune = case

    def buckets():
        by_length = {}
        for k, word in enumerate(long_):
            by_length.setdefault(len(word), []).append((word, f"{k:02}"))
        return [Bucket(m, entries, rows) for m, entries in sorted(by_length.items())]

    ours, theirs = buckets(), buckets()
    for query in queries:
        if not any(b.labels for b in ours):
            break
        n = len(query)

        def order(bs):
            return sorted(bs, key=lambda b: (abs(b.length - n), b.length))

        mine, full = DpStats(), DpStats()
        best, bucket, k = nearest(order(ours), query, prune, mine)
        ref_best, (ref_bucket, ref_k) = full_visit(order(theirs), query, prune, full)
        assert (best, bucket.ipas[k]) == (ref_best, ref_bucket.ipas[ref_k])
        assert [getattr(mine, c) for c in DpStats.__slots__] == [
            getattr(full, c) for c in DpStats.__slots__]
        bucket.remove(k)
        ref_bucket.remove(ref_k)


def test_equal_nd_tie_goes_to_smaller_ipa():
    # "m" is 1/2 from both "am" and "ma" and must claim "am", the smaller IPA,
    # which leaves "pam" (iterated second) with "ma" instead of its nearest
    short, long_ = ["m", "pam"], ["ma", "am", "uuuu"]
    cell = align_lists(wordlist("aa", "NOUN", short), wordlist("bb", "NOUN", long_),
                       INV, costs=COSTS, min_size=1)
    assert cell.mu_psi == greedy_oracle(short, long_)
    pam_ma = ped(tokenize("pam", INV), tokenize("ma", INV), costs=COSTS).normalized
    assert pam_ma > 1 / 3
    assert cell.mu_psi == (0.5 + pam_ma) / 2


def test_two_spellings_of_one_label_tuple():
    short, long_ = ["pa:", "paː"], ["ba:", "baː", "mu"]
    cell = align_lists(wordlist("aa", "NOUN", short), wordlist("bb", "NOUN", long_),
                       INV, costs=COSTS, min_size=1)
    assert cell.mu_psi == greedy_oracle(short, long_)
    assert cell.mu_psi == ped(tokenize("pa:", INV), tokenize("ba:", INV), costs=COSTS).normalized


def test_unknown_symbol_fatal_by_default():
    bad = wordlist("aa", "PRON", ["pa", "ta", "ka", "ma", "☃a"])
    good = wordlist("bb", "PRON", TOY_L2)
    with pytest.raises(TokenizeError):
        align_lists(bad, good, INV, costs=COSTS)


def test_unknown_symbol_names_its_list():
    bad = wordlist("aa", "PRON", ["pa", "ta", "ka", "ma", "p☃a"])
    with pytest.raises(TokenizeError, match=r"list \(aa, PRON\): .* at offset 1 in 'p☃a'"):
        align_lists(bad, wordlist("bb", "PRON", TOY_L2), INV, costs=COSTS)


def test_skip_unknown_drops_word_not_symbol():
    bad = wordlist("aa", "PRON", ["pa", "ta", "ka", "ma", "na", "☃a"])
    good = wordlist("bb", "PRON", TOY_L2)
    cell = align_lists(bad, good, INV, costs=COSTS, skip_unknown=True)
    assert cell.size_a == 5  # the word is gone, not just the bad symbol


def test_skip_unknown_logs_one_warning_per_list(caplog):
    bad = wordlist("aa", "PRON", ["pa", "ta", "ka", "ma", "na", "☃a", "b☃"])
    with caplog.at_level(logging.DEBUG, logger="pedlex.similarity"):
        align_lists(bad, wordlist("bb", "PRON", TOY_L2), INV, costs=COSTS, skip_unknown=True)
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.WARNING]
    assert warnings == [
        "dropped 2 of 7 words of (aa, PRON): not tokenizable against the inventory"
    ]
    per_word = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.DEBUG]
    assert [message.split(":")[0] for message in per_word] == [
        "dropped 'b☃' (aa, PRON)",
        "dropped '☃a' (aa, PRON)",
    ]


def test_min_size_below_one_skips_fully_dropped_list():
    bad = wordlist("aa", "PRON", ["☃a", "☃b"])
    good = wordlist("bb", "PRON", TOY_L2)
    for min_size in (0, -3):
        cell = align_lists(bad, good, INV, costs=COSTS, min_size=min_size, skip_unknown=True)
        assert cell.skipped_reason == "list smaller than 1"
        assert (cell.size_a, cell.size_b) == (0, 5)


def test_skip_unknown_lets_internal_errors_through(monkeypatch):
    def broken(text, inventory):
        raise RuntimeError("scanner bug")

    monkeypatch.setattr(similarity, "tokenize", broken)
    with pytest.raises(RuntimeError, match="scanner bug"):
        align_lists(wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2),
                    INV, costs=COSTS, skip_unknown=True)


# ---------------------------------------------------------------- matrix


def lists_for_matrix():
    return [
        wordlist("aa", "PRON", TOY_L1),
        wordlist("bb", "PRON", TOY_L2),
        wordlist("cc", "PRON", ["fa", "va", "ra", "ja", "ha"]),
        wordlist("aa", "NOUN", ["pat̪a", "kat̪a", "mat̪a", "rat̪a", "sat̪a"]),
        wordlist("bb", "NOUN", ["bad̪a", "gad̪a", "nad̪a", "lad̪a", "zad̪a"]),
        wordlist("cc", "VERB", ["fu", "vu", "ru", "ju", "hu"]),  # unshared tag
    ]


def test_matrix_one_cell_per_pair_per_tag():
    report = build_matrix(lists_for_matrix(), INV, costs=COSTS)
    keys = [(c.pos, c.lang_a, c.lang_b) for c in report.cells]
    assert keys == [
        ("NOUN", "aa", "bb"),
        ("PRON", "aa", "bb"),
        ("PRON", "aa", "cc"),
        ("PRON", "bb", "cc"),
    ]


def test_matrix_two_languages_one_tag():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2)], INV, costs=COSTS
    )
    assert len(report.cells) == 1


def test_build_matrix_rejects_two_lists_of_one_language_and_tag(tmp_path):
    # the second list would make a cell of its language against itself; the
    # error names both lists' files, when they came from files
    lists = [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2),
             wordlist("aa", "PRON", TOY_L2)]
    for twice in (lists, lists[:1] * 2):
        with pytest.raises(WordListError, match=r"^two lists of \(aa, PRON\)"):
            build_matrix(twice, INV, costs=COSTS, jobs=2)
    paths = [tmp_path / f"{k}.tsv" for k in range(len(lists))]
    for wl, path in zip(lists, paths):
        write_wordlist(wl, path)
    with pytest.raises(WordListError) as info:
        build_matrix([read_wordlist(path) for path in paths], INV, costs=COSTS)
    assert str(info.value).startswith(f"{paths[0]} and {paths[2]}: two lists of (aa, PRON)")


def test_align_lists_rejects_lists_of_two_tags(tmp_path):
    # a cell is one tag's: NOUN against VERB must not come back as a NOUN cell
    noun, verb = wordlist("aa", "NOUN", TOY_L1), wordlist("bb", "VERB", TOY_L2)
    for a, b in ((noun, verb), (verb, noun)):
        with pytest.raises(WordListError, match=r"^lists of \((aa, NOUN|bb, VERB)\) and"):
            align_lists(a, b, INV, costs=COSTS)
    noun_path, verb_path = tmp_path / "aa_NOUN.tsv", tmp_path / "bb_VERB.tsv"
    write_wordlist(noun, noun_path)
    write_wordlist(verb, verb_path)
    with pytest.raises(WordListError) as info:
        align_lists(read_wordlist(noun_path), read_wordlist(verb_path), INV, costs=COSTS)
    assert str(info.value).startswith(f"{noun_path} and {verb_path}: lists of (aa, NOUN)")


def test_matrix_no_overlap_empty_report(caplog):
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "NOUN", TOY_L2)], INV, costs=COSTS
    )
    assert report.cells == ()


def test_matrix_parallel_determinism():
    lists = lists_for_matrix()
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    parallel = build_matrix(lists, INV, costs=COSTS, jobs=4)
    assert serial.cells == parallel.cells
    assert format_report(serial) == format_report(parallel)


class RecordingPool:
    """Runs the cells in-process, as one worker would, and starts no process."""

    built = []

    def __init__(self, max_workers, **kwargs):
        self.max_workers = max_workers
        self.kwargs = kwargs
        self.tasks = []
        RecordingPool.built.append(self)
        events.append(("pool",))
        kwargs["initializer"](*kwargs["initargs"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks.extend(tasks)
        return map(fn, self.tasks)


events = []  # ("pool",) when a RecordingPool is built, ("cell", ...) per logged cell


def fork_guard(monkeypatch):
    """build_matrix's start-method guard reads fork, whatever the default."""
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda *args, **kwargs: "fork")


@pytest.fixture
def recording_pool(monkeypatch):
    """build_matrix's pools are RecordingPools, whose workers are this
    process as forked ones are its copies, so the start-method guard reads
    fork; yields the list of those built."""
    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    fork_guard(monkeypatch)
    monkeypatch.setattr(RecordingPool, "built", [])
    monkeypatch.setattr(similarity, "_worker_state", None)  # restored after the test
    events.clear()
    return RecordingPool.built


def cells_largest_first(lists):
    """(i, j) of sized_lists' four cells, largest first, and their products."""
    sizes = [len(wl.ipa_strings()) for wl in lists]
    pairs = [(0, 1), (2, 3), (2, 4), (3, 4)]
    pairs.sort(key=lambda p: -sizes[p[0]] * sizes[p[1]])
    return pairs, [sizes[i] * sizes[j] for i, j in pairs]


def test_matrix_pool_never_outnumbers_its_cells(recording_pool):
    lists = lists_for_matrix()  # four cells
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    assert build_matrix(lists, INV, costs=COSTS, jobs=64) == serial
    assert build_matrix(lists, INV, costs=COSTS, jobs=3).cells == serial.cells
    assert len(build_matrix(lists[:2], INV, costs=COSTS, jobs=8).cells) == 1
    # (workers, tasks): at jobs=64 three cells would be left after the
    # largest, fewer than jobs, so the pool gets all four; at jobs=3 the
    # caller runs the largest and three workers the rest; the one-cell
    # matrix ran in-process
    assert [(pool.max_workers, len(pool.tasks)) for pool in recording_pool] == [(4, 4), (3, 3)]


@pytest.mark.parametrize("jobs", [0, -1])
def test_matrix_with_jobs_below_one_runs_in_process(monkeypatch, jobs):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was built")

    lists = lists_for_matrix()
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", NoPool)
    assert build_matrix(lists, INV, costs=COSTS, jobs=jobs) == serial


def sized_lists():
    """Lists of 5 to 40 words, so cell sizes differ and the canonical order
    (NOUN before PRON) is not the largest-first one."""
    rng = random.Random(7)
    syllables = ["pa", "ti", "ku", "ma", "ne", "so", "la", "ri", "ba", "d̪u"]

    def words(count):
        out = set()
        while len(out) < count:
            out.add("".join(rng.choice(syllables) for _ in range(rng.randint(1, 3))))
        return sorted(out)

    return [
        wordlist("aa", "NOUN", words(5)),
        wordlist("bb", "NOUN", words(9)),
        wordlist("aa", "PRON", words(40)),
        wordlist("bb", "PRON", words(12)),
        wordlist("cc", "PRON", words(25)),
        wordlist("cc", "VERB", words(30)),  # unshared tag
    ]


def test_matrix_pool_gets_state_once_and_index_pairs_largest_first(recording_pool):
    lists = sized_lists()
    serial = build_matrix(lists, INV, costs=COSTS, min_size=3, jobs=1)
    assert build_matrix(lists, INV, costs=COSTS, min_size=3, jobs=2) == serial
    [pool] = recording_pool
    assert set(pool.kwargs) == {"initializer", "initargs"}
    # the state: the lists, min_size, each list's prepared ids (None for the
    # VERB list, which is in no cell) and one table priced over the run's
    # phones in label order
    lists_, min_size, tokens, rows = pool.kwargs["initargs"]
    assert (lists_, min_size) == (tuple(lists), 3)
    words = [{ipa: tokenize(ipa, INV) for ipa in wl.ipa_strings()} for wl in lists[:5]]
    phones = {p.label: p for ws in words for w in ws.values() for p in w}
    labels = sorted(phones)
    table = [phones[label] for label in labels]
    assert rows == COSTS.rows_for(table, table)
    assert tokens[:5] == [{ipa: tuple(labels.index(p.label) for p in w) for ipa, w in ws.items()}
                          for ws in words]
    assert tokens[5] is None
    # the caller ran the largest cell; the pool gets the other three, still
    # largest first
    pairs, products = cells_largest_first(lists)
    assert products[0] > products[1] > products[-1]
    assert pool.tasks == pairs[1:]
    for task in pool.tasks:
        assert type(task) is tuple and [type(k) for k in task] == [int, int]
        assert len(pickle.dumps(task)) < 100


def logging_align_lists(monkeypatch, fail_on=None):
    """Log each cell align_lists computes; raise ``fail_on(l1, l2)`` if it
    returns an exception."""
    align_lists = similarity.align_lists

    def logged(l1, l2, *args, **kwargs):
        events.append(("cell", l1.language, l2.language, l1.pos))
        error = fail_on and fail_on(l1, l2)
        if error:
            raise error
        return align_lists(l1, l2, *args, **kwargs)

    monkeypatch.setattr(similarity, "align_lists", logged)


def test_matrix_runs_the_largest_cell_before_it_builds_the_pool(monkeypatch, recording_pool):
    lists = sized_lists()
    logging_align_lists(monkeypatch)
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    events.clear()
    assert build_matrix(lists, INV, costs=COSTS, jobs=2) == serial
    assert events == [("cell", "aa", "cc", "PRON"), ("pool",), ("cell", "aa", "bb", "PRON"),
                      ("cell", "bb", "cc", "PRON"), ("cell", "aa", "bb", "NOUN")]
    [pool] = recording_pool
    assert pool.max_workers == 2


@pytest.mark.parametrize("guard", ["largest cell at the limit", "largest cell too large",
                                   "too few cells left", "spawn", "forkserver"])
def test_matrix_guards_decide_whether_the_caller_runs_the_largest_cell(
    monkeypatch, recording_pool, guard
):
    lists = sized_lists()
    pairs, products = cells_largest_first(lists)
    jobs = 3  # three cells are left after the largest
    if guard == "largest cell at the limit":
        monkeypatch.setattr(similarity, "_WARM_MAX_PAIRS", products[0])
    elif guard == "largest cell too large":
        monkeypatch.setattr(similarity, "_WARM_MAX_PAIRS", products[0] - 1)
    elif guard == "too few cells left":
        jobs = 4
    else:
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda *args, **kwargs: guard)
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    assert build_matrix(lists, INV, costs=COSTS, jobs=jobs) == serial
    [pool] = recording_pool
    # past any guard, every cell goes to the pool as before
    assert pool.tasks == (pairs[1:] if guard == "largest cell at the limit" else pairs)
    assert pool.max_workers == jobs


def test_matrix_failing_largest_cell_raises_before_any_pool(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was built")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", NoPool)
    fork_guard(monkeypatch)  # with jobs=2 the caller runs the largest cell only under fork
    lists = sized_lists()

    def fail_on(l1, l2):
        if "bb" not in (l1.language, l2.language):  # the largest cell, (aa, cc, PRON)
            return ZeroDivisionError("kernel bug")

    logging_align_lists(monkeypatch, fail_on)
    messages = []
    for jobs in (1, 2):
        events.clear()
        with pytest.raises(RuntimeError, match=r"^cell \(aa, cc, PRON\) failed") as caught:
            build_matrix(lists, INV, costs=COSTS, jobs=jobs)
        messages.append(str(caught.value))
        assert events == [("cell", "aa", "cc", "PRON")]
    assert messages[0] == messages[1]


def test_in_process_matrix_keeps_no_list_alive():
    lists = sized_lists()
    refs = [weakref.ref(wl) for wl in lists]
    build_matrix(lists, INV, costs=COSTS, jobs=1)
    del lists
    assert [ref() for ref in refs] == [None] * len(refs)


def test_pooled_matrix_keeps_no_list_alive():
    lists = sized_lists()
    refs = [weakref.ref(wl) for wl in lists]
    build_matrix(lists, INV, costs=COSTS, jobs=2)
    del lists
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_bad_lists_raise_before_any_pool_starts(monkeypatch, jobs):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was built")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", NoPool)
    lists = sized_lists()
    # the largest cell, (aa, cc, PRON), fails first, on cc; the NOUN list and
    # the VERB list come first in list order, and the VERB list is in no cell
    lists[1] = wordlist("bb", "NOUN", ["p☃a", "ta", "ka"])
    lists[4] = wordlist("cc", "PRON", ["pa", "ta", "x☃"])
    lists[5] = wordlist("cc", "VERB", ["☃"])
    with pytest.raises(TokenizeError, match=r"^list \(cc, PRON\): .* in 'x☃'"):
        build_matrix(lists, INV, costs=COSTS, jobs=jobs)
    # a list without IPA sizes 0, so its cells come last
    lists[1] = sized_lists()[1]
    lists[4] = WordList(language="cc", pos="PRON", lemmas=("pa",), ipa_by_lemma=None)
    with pytest.raises(WordListError, match=r"\(cc, PRON\) has no IPA"):
        build_matrix(lists, INV, costs=COSTS, jobs=jobs)
    assert len(build_matrix([lists[0], lists[1], lists[5]], INV, costs=COSTS,
                            jobs=jobs).cells) == 1


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_matrix_pool_workers_start_from_a_fresh_import(monkeypatch, method):
    # the initializer and task function must pickle by name, not be inherited
    lists = lists_for_matrix()
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    context = multiprocessing.get_context(method)
    pool = functools.partial(futures.ProcessPoolExecutor, mp_context=context)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", pool)
    assert build_matrix(lists, INV, costs=COSTS, jobs=2) == serial


def test_importing_pedlex_loads_no_process_pool():
    # only a matrix run that forks imports concurrent.futures (and with it
    # multiprocessing); extract, g2p, dist, compare and library users do not
    src = str(Path(pedlex.__file__).resolve().parent.parent)
    code = "import sys, pedlex; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_matrix_shares_one_cost_table(monkeypatch):
    lists = lists_for_matrix()
    parallel = build_matrix(lists, INV, costs=COSTS, jobs=4)
    built = []

    class CountingCosts(similarity.SubstitutionCosts):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(similarity, "SubstitutionCosts", CountingCosts)
    serial = build_matrix(lists, INV, jobs=1)
    assert len(built) == 1  # one table for all four cells
    assert serial == parallel


def test_fixture_matrix_pinned_bit_for_bit(fixtures_dir):
    lists = [read_wordlist(p) for p in sorted((fixtures_dir / "pronouns").glob("*.tsv"))]
    cells = {(c.lang_a, c.lang_b): c.mu_psi.hex() for c in build_matrix(lists, INV).cells}
    assert cells == {
        ("ar", "hi"): "0x1.1830373ccbdd2p-1",
        ("ar", "ur"): "0x1.1f0c2a1ab20d7p-1",
        ("hi", "ur"): "0x1.1111111111111p-6",
    }


def test_prepare_lists_keeps_one_phone_per_label():
    # two lists that share phones: one id and one table row per label, with
    # the ids in label order
    lists = [wordlist("aa", "NOUN", ["papa", "apa"]), wordlist("bb", "NOUN", ["tat̪a", "pat"])]
    (first, second), rows = similarity._prepare_lists(lists, INV, COSTS, skip_unknown=False)
    phones = [INV[label] for label in ("a", "p", "t", "t̪")]
    assert first == {"papa": (1, 0, 1, 0), "apa": (0, 1, 0)}
    assert second == {"tat̪a": (2, 0, 3, 0), "pat": (1, 0, 2)}
    assert rows == [[COSTS.pair(a, b) for b in phones] for a in phones]


def test_report_csv_format():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2)], INV, costs=COSTS
    )
    text = format_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "lang_a,lang_b,pos,mu_psi,size_a,size_b,skipped"
    assert lines[1] == "aa,bb,PRON,0.1067,5,5,"


def test_report_long_tsv_same_data():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2)], INV, costs=COSTS
    )
    csv_text = format_report(report, "csv")
    tsv_text = format_report(report, "long-tsv")
    assert tsv_text.replace("\t", ",") == csv_text


@pytest.mark.parametrize("langs, pos, out_format", [
    (("a,b", "c"), "PRON", "csv"),  # was an 8-field row under the 7-field header
    (("aa", "bb"), "PR\nON", "long-tsv"),  # was a row split in two
])
def test_report_rejects_a_cell_that_would_split_its_row(langs, pos, out_format):
    # lists built through the library skip read_wordlist's header rule
    report = build_matrix([wordlist(lang, pos, TOY_L1) for lang in langs], INV, costs=COSTS)
    cell = repr((*sorted(langs), pos))
    with pytest.raises(WordListError, match=re.escape(f"report cell {cell}")):
        format_report(report, out_format)


def test_report_skipped_cell_row():
    report = build_matrix(
        [wordlist("aa", "PRON", ["pa"]), wordlist("bb", "PRON", TOY_L2)], INV, costs=COSTS
    )
    line = format_report(report).splitlines()[1]
    assert line == "aa,bb,PRON,,1,5,list smaller than 5"


def test_mu_psi_always_in_unit_interval(fixtures_dir):
    lists = [
        read_wordlist(fixtures_dir / "pronouns" / name)
        for name in ("ur.tsv", "hi.tsv", "ar.tsv")
    ]
    report = build_matrix(lists, INV, costs=COSTS)
    assert len(report.cells) == 3
    for cell in report.cells:
        assert 0.0 <= cell.mu_psi <= 1.0
