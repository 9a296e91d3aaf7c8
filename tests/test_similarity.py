import functools
import multiprocessing
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

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
)
from pedlex import similarity
from pedlex.errors import TokenizeError

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
# after "pad" or "bat" sets the bound, later candidates of that length resume
# from rows that already failed it: a shared "u"/"uu" prefix, or all of "paa:"
@example((["pat"], ["pad", "uui", "uum", "uut"]), None)
@example((["pat"], ["bat", "paa:", "paaː", "pas"]), None)
# one-phone queries only: each cost profile row holds a single cost
@example((["a", "p"], ["a:", "b", "pa"]), None)
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
        126127, 9511, 7644, 10589)
    assert cell.mu_psi.hex() == "0x1.72c24e72ba1d2p-2"


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


def test_matrix_same_language_twice_is_diagonal_zero():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("aa", "PRON", TOY_L1)], INV, costs=COSTS
    )
    (cell,) = report.cells
    assert cell.lang_a == cell.lang_b == "aa"
    assert cell.mu_psi == 0.0


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


def test_matrix_pool_never_outnumbers_its_cells(monkeypatch):
    started = []

    class RecordingPool:  # runs the cells in-process; starts no worker
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(similarity, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(similarity, "_worker_state", None)  # restored after the test
    lists = lists_for_matrix()  # four cells
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    assert build_matrix(lists, INV, costs=COSTS, jobs=64) == serial
    assert build_matrix(lists, INV, costs=COSTS, jobs=3).cells == serial.cells
    assert len(build_matrix(lists[:2], INV, costs=COSTS, jobs=8).cells) == 1
    assert started == [4, 3]  # the one-cell matrix ran in-process


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


def test_matrix_pool_gets_state_once_and_index_pairs_largest_first(monkeypatch):
    pools = []

    class RecordingPool:  # runs the cells in-process, as one worker would; starts no process
        def __init__(self, max_workers, **kwargs):
            self.kwargs = kwargs
            self.tasks = []
            pools.append(self)
            kwargs["initializer"](*kwargs["initargs"])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks.extend(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr(similarity, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(similarity, "_worker_state", None)  # restored after the test
    lists = sized_lists()
    serial = build_matrix(lists, INV, costs=COSTS, min_size=3, jobs=1)
    assert build_matrix(lists, INV, costs=COSTS, min_size=3, jobs=2) == serial
    [pool] = pools
    assert set(pool.kwargs) == {"initializer", "initargs"}
    assert pool.kwargs["initargs"] == (tuple(lists), INV, COSTS, 3, False)
    assert len(pool.tasks) == len(serial.cells) == 4
    for task in pool.tasks:
        assert type(task) is tuple and [type(k) for k in task] == [int, int]
        assert len(pickle.dumps(task)) < 100
    products = [len(lists[i].ipa_strings()) * len(lists[j].ipa_strings()) for i, j in pool.tasks]
    assert products == sorted(products, reverse=True)
    assert products[0] > products[-1]


def test_in_process_matrix_keeps_no_list_alive():
    lists = sized_lists()
    refs = [weakref.ref(wl) for wl in lists]
    build_matrix(lists, INV, costs=COSTS, jobs=1)
    del lists
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_matrix_pool_workers_start_from_a_fresh_import(monkeypatch, method):
    # the initializer and task function must pickle by name, not be inherited
    lists = lists_for_matrix()
    serial = build_matrix(lists, INV, costs=COSTS, jobs=1)
    context = multiprocessing.get_context(method)
    pool = functools.partial(similarity.ProcessPoolExecutor, mp_context=context)
    monkeypatch.setattr(similarity, "ProcessPoolExecutor", pool)
    assert build_matrix(lists, INV, costs=COSTS, jobs=2) == serial


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


def test_prepare_tokens_keeps_one_phone_per_label():
    words = wordlist("aa", "NOUN", ["papa", "apa", "tat̪a"])
    tokens, phones = similarity._prepare_tokens(words, INV, skip_unknown=False)
    labels = [p.label for p in phones]
    assert sorted(labels) == ["a", "p", "t", "t̪"]
    assert all(INV[p.label] == p for p in phones)


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
