import pytest

from pedlex import (
    DistanceConfig,
    DpStats,
    WordList,
    align_lists,
    build_matrix,
    default_inventory,
    default_manner_table,
    format_report,
    normalized_ped,
    read_wordlist,
    tokenize,
)
from pedlex import similarity
from pedlex.errors import TokenizeError

INV = default_inventory()
XI = default_manner_table()
CFG = DistanceConfig()


def wordlist(lang, pos, ipa_strings):
    return WordList(
        language=lang,
        pos=pos,
        lemmas=tuple(ipa_strings),
        ipa_by_lemma={w: w for w in ipa_strings},
    )


def greedy_oracle(short_ipas, long_ipas):
    """Step-by-step replay of the greedy procedure with the public API."""
    remaining = list(long_ipas)
    total = 0.0
    for w in sorted(short_ipas):
        scored = []
        for x in remaining:
            nd = normalized_ped(tokenize(w, INV), tokenize(x, INV), CFG, XI)
            scored.append((nd, x))
        best = min(scored)  # ties resolved lexicographically by the tuple
        total += best[0]
        remaining.remove(best[1])
    return total / len(short_ipas)


TOY_L1 = ["pa", "ta", "ka", "ma", "na"]
TOY_L2 = ["ba", "da", "ga", "sa", "la"]


def test_toy_lists_match_greedy_oracle():
    cell = align_lists(wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2), INV, CFG, XI)
    assert cell.mu_psi == greedy_oracle(TOY_L1, TOY_L2)


def test_toy_lists_frozen_value():
    # hand total: 0.2/2 + 0.0667/2 + 0.0667/2 + 0.2/2 + 0.5333/2 over 5 words
    cell = align_lists(wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2), INV, CFG, XI)
    assert cell.mu_psi == pytest.approx(0.10667, abs=0.0005)


def test_self_similarity_zero(fixtures_dir):
    words = read_wordlist(fixtures_dir / "pronouns" / "ur.tsv")
    cell = align_lists(words, words, INV, CFG, XI)
    assert cell.mu_psi == 0.0
    assert cell.size_a == cell.size_b == 20


def test_min_size_skip():
    small = wordlist("aa", "PRON", ["ab", "cd"])
    big = wordlist("bb", "PRON", TOY_L2)
    cell = align_lists(small, big, INV, CFG, XI)
    assert cell.skipped
    assert cell.mu_psi is None
    assert cell.skipped_reason == "list smaller than 5"


def test_min_size_configurable():
    small = wordlist("aa", "PRON", ["ab", "cd"])
    big = wordlist("bb", "PRON", TOY_L2)
    cell = align_lists(small, big, INV, CFG, XI, min_size=2)
    assert not cell.skipped


def test_longer_list_drives_sizes_not_roles():
    # sizes follow the lang_a/lang_b naming, not the L1/L2 roles
    l_big = wordlist("zz", "PRON", TOY_L1 + ["sa"])
    l_small = wordlist("aa", "PRON", TOY_L2)
    cell = align_lists(l_big, l_small, INV, CFG, XI)
    assert (cell.lang_a, cell.size_a) == ("aa", 5)
    assert (cell.lang_b, cell.size_b) == ("zz", 6)


def test_equal_sizes_tie_broken_by_language_id():
    a = wordlist("aa", "PRON", TOY_L1)
    b = wordlist("bb", "PRON", TOY_L2)
    assert align_lists(a, b, INV, CFG, XI) == align_lists(b, a, INV, CFG, XI)


def test_pruned_equals_unpruned():
    a = wordlist("aa", "PRON", TOY_L1 + ["t̪ʰuma:", "xira:d̪", "ko:i:"])
    b = wordlist("bb", "PRON", TOY_L2 + ["d̪ʰuma:", "sira:t̪", "mo:i:"])
    pruned = align_lists(a, b, INV, CFG, XI, prune=True)
    unpruned = align_lists(a, b, INV, CFG, XI, prune=False)
    assert pruned.mu_psi == unpruned.mu_psi


def test_pruning_reduces_cells():
    a = wordlist("aa", "PRON", TOY_L1 + ["t̪ʰuma:", "xira:d̪", "ko:i:"])
    b = wordlist("bb", "PRON", TOY_L2 + ["d̪ʰuma:", "sira:t̪", "mo:i:"])
    s_pruned, s_unpruned = DpStats(), DpStats()
    align_lists(a, b, INV, CFG, XI, prune=True, stats=s_pruned)
    align_lists(a, b, INV, CFG, XI, prune=False, stats=s_unpruned)
    assert s_pruned.cells < s_unpruned.cells


def test_each_long_word_used_at_most_once():
    # one shared word: only one of the two identical shorts can claim it
    l1 = wordlist("aa", "PRON", ["pa", "po", "pi", "pe", "pu"])
    l2 = wordlist("bb", "PRON", ["pa", "pa:", "paj", "zzz", "qqq"])
    cell = align_lists(l1, l2, INV, CFG, XI)
    assert cell.mu_psi == greedy_oracle(["pa", "po", "pi", "pe", "pu"],
                                        ["pa", "pa:", "paj", "zzz", "qqq"])
    assert cell.mu_psi > 0.0


def test_shuffle_seed_is_deterministic_diagnostic():
    a = wordlist("aa", "PRON", TOY_L1)
    b = wordlist("bb", "PRON", TOY_L2)
    one = align_lists(a, b, INV, CFG, XI, shuffle_seed=5)
    two = align_lists(a, b, INV, CFG, XI, shuffle_seed=5)
    assert one == two


def test_unknown_symbol_fatal_by_default():
    bad = wordlist("aa", "PRON", ["pa", "ta", "ka", "ma", "☃a"])
    good = wordlist("bb", "PRON", TOY_L2)
    with pytest.raises(TokenizeError):
        align_lists(bad, good, INV, CFG, XI)


def test_skip_unknown_drops_word_not_symbol():
    bad = wordlist("aa", "PRON", ["pa", "ta", "ka", "ma", "na", "☃a"])
    good = wordlist("bb", "PRON", TOY_L2)
    cell = align_lists(bad, good, INV, CFG, XI, skip_unknown=True)
    assert cell.size_a == 5  # the word is gone, not just the bad symbol


def test_min_size_below_one_skips_fully_dropped_list():
    bad = wordlist("aa", "PRON", ["☃a", "☃b"])
    good = wordlist("bb", "PRON", TOY_L2)
    for min_size in (0, -3):
        cell = align_lists(bad, good, INV, CFG, XI, min_size=min_size, skip_unknown=True)
        assert cell.skipped_reason == "list smaller than 1"
        assert (cell.size_a, cell.size_b) == (0, 5)


def test_skip_unknown_lets_internal_errors_through(monkeypatch):
    def broken(text, inventory):
        raise RuntimeError("scanner bug")

    monkeypatch.setattr(similarity, "tokenize", broken)
    with pytest.raises(RuntimeError, match="scanner bug"):
        align_lists(wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2),
                    INV, CFG, XI, skip_unknown=True)


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
    report = build_matrix(lists_for_matrix(), INV, CFG, XI)
    keys = [(c.pos, c.lang_a, c.lang_b) for c in report.cells]
    assert keys == [
        ("NOUN", "aa", "bb"),
        ("PRON", "aa", "bb"),
        ("PRON", "aa", "cc"),
        ("PRON", "bb", "cc"),
    ]


def test_matrix_two_languages_one_tag():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2)], INV, CFG, XI
    )
    assert len(report.cells) == 1


def test_matrix_same_language_twice_is_diagonal_zero():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("aa", "PRON", TOY_L1)], INV, CFG, XI
    )
    (cell,) = report.cells
    assert cell.lang_a == cell.lang_b == "aa"
    assert cell.mu_psi == 0.0


def test_matrix_no_overlap_empty_report(caplog):
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "NOUN", TOY_L2)], INV, CFG, XI
    )
    assert report.cells == ()


def test_matrix_parallel_determinism():
    lists = lists_for_matrix()
    serial = build_matrix(lists, INV, CFG, XI, jobs=1)
    parallel = build_matrix(lists, INV, CFG, XI, jobs=4)
    assert serial.cells == parallel.cells
    assert format_report(serial) == format_report(parallel)


def test_report_csv_format():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2)], INV, CFG, XI
    )
    text = format_report(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "lang_a,lang_b,pos,mu_psi,size_a,size_b,skipped"
    assert lines[1] == "aa,bb,PRON,0.1067,5,5,"


def test_report_long_tsv_same_data():
    report = build_matrix(
        [wordlist("aa", "PRON", TOY_L1), wordlist("bb", "PRON", TOY_L2)], INV, CFG, XI
    )
    csv_text = format_report(report, "csv")
    tsv_text = format_report(report, "long-tsv")
    assert tsv_text.replace("\t", ",") == csv_text


def test_report_skipped_cell_row():
    report = build_matrix(
        [wordlist("aa", "PRON", ["pa"]), wordlist("bb", "PRON", TOY_L2)], INV, CFG, XI
    )
    line = format_report(report).splitlines()[1]
    assert line == "aa,bb,PRON,,1,5,list smaller than 5"


def test_mu_psi_always_in_unit_interval(fixtures_dir):
    lists = [
        read_wordlist(fixtures_dir / "pronouns" / name)
        for name in ("ur.tsv", "hi.tsv", "ar.tsv")
    ]
    report = build_matrix(lists, INV, CFG, XI)
    assert len(report.cells) == 3
    for cell in report.cells:
        assert 0.0 <= cell.mu_psi <= 1.0
