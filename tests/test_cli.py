import io
import logging
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from pedlex import (
    DistanceConfig, SubstitutionCosts, default_inventory, paper_voice, ped, read_wordlist, tokenize,
)
from pedlex import cli
from pedlex.cli import build_parser, main
from pedlex.errors import WordListError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- dist / phones


def test_dist_prints_three_decimals(capsys):
    code, out, _ = run(capsys, "dist", "ʃəlɒm", "səla:m")
    assert code == 0
    assert out == "0.800\n"


def test_dist_identical_strings(capsys):
    code, out, _ = run(capsys, "dist", "abc", "abc")
    assert code == 0
    assert out == "0.000\n"


def test_dist_normalized(capsys):
    code, out, _ = run(capsys, "dist", "fa:tər", "pedær", "--normalized")
    assert out == "0.160\n"


def test_dist_trace_lists_operations(capsys):
    # one line per operation, "-" for the side an insertion or deletion lacks
    _, out, _ = run(capsys, "dist", "pɛn", "bɛnd", "--trace")
    assert out == (
        "1.200\n"
        "substitute\tp→b\t0.200\n"
        "match\tɛ→ɛ\t0.000\n"
        "match\tn→n\t0.000\n"
        "insert\t-→d\t1.000\n"
    )
    _, out, _ = run(capsys, "dist", "bɛnd", "pɛn", "--trace")
    assert out == (
        "1.200\n"
        "substitute\tb→p\t0.200\n"
        "match\tɛ→ɛ\t0.000\n"
        "match\tn→n\t0.000\n"
        "delete\td→-\t1.000\n"
    )


def test_dist_unknown_symbol_exits_one(capsys):
    code, _, err = run(capsys, "dist", "☃", "a")
    assert code == 1
    assert "unknown symbol" in err


def test_dist_literal_vowel_branch_flag(capsys):
    _, default_out, _ = run(capsys, "dist", "i", "ɪ")
    _, literal_out, _ = run(capsys, "dist", "i", "ɪ", "--literal-vowel-branch")
    assert float(literal_out) > float(default_out)


def test_paper_mode_changes_voice_encoding(capsys):
    # with the published per-symbol voice values, ʃ/s differ in voicing too
    _, default_out, _ = run(capsys, "dist", "ʃa", "sa")
    _, paper_out, _ = run(capsys, "dist", "ʃa", "sa", "--paper-mode")
    assert float(paper_out) == pytest.approx(float(default_out) + 0.2, abs=0.001)


def test_paper_voice_in_library_matches_paper_mode(capsys):
    inv = paper_voice(default_inventory())
    cfg = DistanceConfig(literal_vowel_branch=True)
    value = ped(tokenize("ʃa", inv), tokenize("sa", inv), costs=SubstitutionCosts(cfg)).distance
    _, paper_out, _ = run(capsys, "dist", "ʃa", "sa", "--paper-mode")
    assert paper_out == f"{value:.3f}\n"
    assert default_inventory()["s"].features.voiced == 0  # the bundled copy is untouched


def test_dist_alpha_and_cross_type_cost_flags(capsys):
    # each flag reaches DistanceConfig: the library's value under that config
    inv = default_inventory()
    a, b = tokenize("fa:tər", inv), tokenize("pedær", inv)
    value = ped(a, b, costs=SubstitutionCosts(DistanceConfig(alpha=0.1))).distance
    assert run(capsys, "dist", "fa:tər", "pedær")[:2] == (0, "0.800\n")
    assert run(capsys, "dist", "fa:tər", "pedær", "--alpha", "0.1")[:2] == (0, "0.850\n")
    assert f"{value:.3f}" == "0.850"
    assert run(capsys, "dist", "a", "b", "--cross-type-cost", "0.5")[:2] == (0, "0.500\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--cross-type-cost", "1.5", "cross_type_cost=1.5 outside [0, 1]"),
    ("--alpha", "0", "alpha=0.0 outside (0, 1]"),
])
def test_dist_config_out_of_range_exits_one(capsys, flag, value, message):
    code, out, err = run(capsys, "dist", "a", "b", flag, value)
    assert code == 1 and out == ""
    assert err == f"pedlex: error: {message}\n"


def test_phones_lists_tokens(capsys):
    code, out, _ = run(capsys, "phones", "tʃʰa:t")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 3
    assert lines[0].startswith("tʃʰ\tconsonant\tmanner=plosive")
    assert lines[1].startswith("a:\tvowel\topen=1")


def test_phones_ignores_a_broken_manner_table(capsys, tmp_path, monkeypatch):
    # phones needs only the inventory; the manner table is never loaded
    (tmp_path / "manner_distance.tsv").write_text("plosive\tnasal\n", encoding="utf-8")
    monkeypatch.setenv("PEDLEX_DATA", str(tmp_path))
    code, out, err = run(capsys, "phones", "tʃʰa:t", "--paper-mode")
    assert code == 0, err
    assert out.startswith("tʃʰ\tconsonant\tmanner=plosive")
    assert run(capsys, "dist", "pa", "ba")[0] == 1  # the table is broken


def test_unknown_subcommand_exits_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_unknown_flag_exits_one(capsys):
    assert run(capsys, "dist", "a", "b", "--no-such-flag")[0] == 1


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["dist", "--help"], ["matrix", "--help"], ["g2p", "--help"]):
        assert run(capsys, *argv)[0] == 0


def test_inventory_override_flag(capsys, tmp_path):
    tiny = tmp_path / "tiny.tsv"
    tiny.write_text("a\tv\t1\t0\t0\nb\tc\tplosive\t0.05\t1\t0\t0\t0\n", encoding="utf-8")
    code, out, _ = run(capsys, "dist", "ab", "ab", "--inventory", str(tiny))
    assert code == 0
    assert out == "0.000\n"
    code, _, err = run(capsys, "dist", "x", "a", "--inventory", str(tiny))
    assert code == 1


def test_bad_inventory_row_names_its_file(capsys, tmp_path):
    bad = tmp_path / "inv.tsv"
    bad.write_text("a\tv\t1\t0\t0\nb\tc\tplosivez\t0.05\t1\t0\t0\t0\n", encoding="utf-8")
    code, _, err = run(capsys, "dist", "a", "b", "--inventory", str(bad))
    assert code == 1
    assert f"{bad} line 2: unknown manner 'plosivez'" in err


def test_missing_data_file_exits_one(capsys):
    code, _, err = run(capsys, "dist", "a", "b", "--inventory", "/no/such/file.tsv")
    assert code == 1
    assert "not found" in err


def test_data_dir_env_var_overrides_bundled(capsys, tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "inventory.tsv").write_text(
        "a\tv\t1\t0\t0\nb\tc\tplosive\t0.05\t1\t0\t0\t0\n", encoding="utf-8"
    )
    monkeypatch.setenv("PEDLEX_DATA", str(data_dir))
    code, out, _ = run(capsys, "dist", "ab", "ba")
    assert code == 0  # the two-symbol inventory suffices
    code, _, _ = run(capsys, "dist", "ʃəlɒm", "səla:m")
    assert code == 1  # and the bundled symbols are gone


# ---------------------------------------------------------------- pipeline


CONLLU = """# sent_id = 1
1\tمیں\tمیں\tPRON\t_\t_\t0\troot\t_\t_
2\tتم\tتم\tPRON\t_\t_\t1\tdep\t_\t_
3\tآپ\tآپ\tPRON\t_\t_\t1\tdep\t_\t_
4\tجو\tجو\tPRON\t_\t_\t1\tdep\t_\t_
5\tسب\tسب\tPRON\t_\t_\t1\tdep\t_\t_
6\tگھر\tگھر\tNOUN\t_\t_\t1\tdep\t_\t_

# sent_id = 2
1\tمیں\tمیں\tPRON\t_\t_\t0\troot\t_\t_
"""


def test_extract_g2p_compare_pipeline(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    out_dir = tmp_path / "lists"

    code, _, err = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                       "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "ur_PRON.tsv").exists()
    assert (out_dir / "ur_NOUN.tsv").exists()

    code, _, _ = run(capsys, "g2p", "--script", "perso-arabic",
                     "--in", str(out_dir / "ur_PRON.tsv"),
                     "--out", str(out_dir / "ur_PRON_ipa.tsv"))
    assert code == 0
    text = (out_dir / "ur_PRON_ipa.tsv").read_text(encoding="utf-8")
    # orthographic conversion: short vowels unwritten, nasalization sign dropped
    assert "میں\tmj" in text
    assert "تم\tt̪m" in text

    code, out, _ = run(capsys, "compare", "--a", str(out_dir / "ur_PRON_ipa.tsv"),
                       "--b", str(out_dir / "ur_PRON_ipa.tsv"))
    assert code == 0
    row = out.splitlines()[1]
    assert row.startswith("ur,ur,PRON,0.0000,5,5")


def test_extract_leaves_out_a_whitespace_lemma_and_g2p_never_counts_it(capsys, tmp_path):
    # a lemma of one space would be written as a blank row, which reads back
    # as nothing
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU.replace("\tسب\tسب\t", "\tسب\t \t"), encoding="utf-8")
    out_dir = tmp_path / "lists"
    code, _, err = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                       "--out-dir", str(out_dir), "--pos", "PRON")
    assert code == 0
    assert err == f"wrote {out_dir / 'ur_PRON.tsv'} (4 lemmas)\n"
    code, _, err = run(capsys, "g2p", "--script", "perso-arabic",
                       "--in", str(out_dir / "ur_PRON.tsv"), "--out", str(tmp_path / "ipa.tsv"))
    assert code == 0
    assert err == "converted 4/4 lemmas of (ur, PRON)\n"
    assert read_wordlist(tmp_path / "ipa.tsv").lemmas == ("آپ", "تم", "جو", "میں")


def test_verbose_flag_sets_the_level_on_every_call(capsys, caplog, tmp_path):
    # logging.basicConfig does nothing once the root logger has a handler,
    # as it has here (pytest's) and after a first call in any process
    words = tmp_path / "ur_PROPN.tsv"
    words.write_text("# lang=ur pos=PROPN\nAli\nتم\n", encoding="utf-8")
    argv = ["g2p", "--script", "perso-arabic", "--in", str(words), "--out", str(tmp_path / "o.tsv")]
    root = logging.getLogger()
    level = root.level
    try:
        for flags, expected in (([], logging.WARNING), (["-vv"], logging.DEBUG),
                                (["-v"], logging.INFO), ([], logging.WARNING)):
            caplog.clear()
            assert run(capsys, *argv, *flags)[0] == 0
            assert root.level == expected
            # g2p logs the Latin word it drops at DEBUG, and their count as a warning
            assert [rec.levelno for rec in caplog.records] == (
                [logging.DEBUG] if expected == logging.DEBUG else []) + [logging.WARNING]
    finally:
        root.setLevel(level)


def test_diagnostics_go_to_the_stderr_of_the_call_that_logs_them(tmp_path):
    # the first call installs the root handler, so pytest's handlers are set
    # aside here, whatever ran before; a caller may redirect stderr around
    # that call alone
    words = tmp_path / "ur_PROPN.tsv"
    words.write_text("# lang=ur pos=PROPN\nAli\nتم\n", encoding="utf-8")
    argv = ["g2p", "--script", "perso-arabic", "--in", str(words), "--out", str(tmp_path / "o.tsv")]
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    for handler in handlers:
        root.removeHandler(handler)
    try:
        streams = io.StringIO(), io.StringIO()
        for stream in streams:
            with redirect_stderr(stream):
                assert main(argv) == 0
        for stream in streams:
            assert stream.getvalue().count("pedlex.corpus: g2p dropped 1 of 2 words") == 1
    finally:
        for handler in root.handlers[:]:
            root.removeHandler(handler)
        for handler in handlers:
            root.addHandler(handler)
        root.setLevel(level)


def test_extract_pos_filter(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    out_dir = tmp_path / "only_nouns"
    code, _, _ = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                     "--pos", "NOUN", "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "ur_NOUN.tsv").exists()
    assert not (out_dir / "ur_PRON.tsv").exists()


def test_parser_built_once_and_reused_unchanged(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    helps = [run(capsys, *argv)[1] for argv in (["--help"], ["extract", "--help"])]
    for tag in ("NOUN", "PRON"):
        out_dir = tmp_path / tag
        code, _, _ = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                         "--pos", tag, "--out-dir", str(out_dir))
        assert code == 0
        # the --pos list of the first call must not leak into the second
        assert [p.name for p in out_dir.iterdir()] == [f"ur_{tag}.tsv"]
    assert [run(capsys, *argv)[1] for argv in (["--help"], ["extract", "--help"])] == helps
    assert build_parser() is build_parser()


def test_extract_rejects_unknown_tag(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    code, _, err = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                       "--pos", "ADJ", "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert "unsupported tag" in err


def test_extract_and_g2p_take_no_distance_flags(capsys, tmp_path):
    for command in ("extract", "g2p"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--verbose" in out
        for flag in ("--alpha", "--inventory", "--manner-table", "--paper-mode"):
            assert flag not in out
    code, out, _ = run(capsys, "phones", "--help")
    assert code == 0
    assert "--inventory" in out and "--paper-mode" in out and "--verbose" in out
    for flag in ("--alpha", "--cross-type-cost", "--literal-vowel-branch", "--manner-table"):
        assert flag not in out
    code, _, err = run(capsys, "phones", "a", "--alpha", "0.3")
    assert code == 1
    assert "unrecognized arguments: --alpha" in err
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    out_dir = tmp_path / "lists"
    code, _, err = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                       "--out-dir", str(out_dir), "--inventory", "missing.tsv")
    assert code == 1
    assert "unrecognized arguments: --inventory" in err
    code, _, _ = run(capsys, "extract", "-v", "--input", str(conllu), "--lang", "ur",
                     "--out-dir", str(out_dir))
    assert code == 0
    code, _, _ = run(capsys, "g2p", "-v", "--script", "perso-arabic",
                     "--in", str(out_dir / "ur_PRON.tsv"), "--out", str(tmp_path / "ipa.tsv"))
    assert code == 0
    assert "میں\tmj" in (tmp_path / "ipa.tsv").read_text(encoding="utf-8")


# ---------------------------------------------------------------- matrix


def test_matrix_deterministic_across_jobs(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    shutil.copytree(fixtures_dir / "pronouns", lists_dir)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert run(capsys, "matrix", "--lists", str(lists_dir), "--out", str(out1), "--jobs", "1")[0] == 0
    assert run(capsys, "matrix", "--lists", str(lists_dir), "--out", str(out2), "--jobs", "2")[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lang_a,lang_b,pos,mu_psi,size_a,size_b,skipped"
    assert len(lines) == 4  # 3 unordered pairs, one tag


def test_matrix_long_tsv(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    shutil.copytree(fixtures_dir / "pronouns", lists_dir)
    out = tmp_path / "r.tsv"
    code, _, _ = run(capsys, "matrix", "--lists", str(lists_dir), "--out", str(out),
                     "--out-format", "long-tsv", "--jobs", "1")
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == \
        "lang_a\tlang_b\tpos\tmu_psi\tsize_a\tsize_b\tskipped"


# header values: any text but lone surrogates, which no file can hold;
# read_wordlist decides which of them a list may carry
header_values = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@given(header_values, header_values, header_values, st.sampled_from(["csv", "long-tsv"]))
@settings(max_examples=20, deadline=None)
def test_matrix_rows_have_the_header_field_count(lang_a, lang_b, pos, out_format):
    assume(lang_a != lang_b)
    with tempfile.TemporaryDirectory() as tmp:
        lists_dir = Path(tmp) / "lists"
        lists_dir.mkdir()
        for name, lang in (("a", lang_a), ("b", lang_b)):
            path = lists_dir / f"{name}.tsv"
            rows = "".join(f"{w}\t{w}\n" for w in ("pa", "ta", "ka", "ma", "na"))
            path.write_text(f"# lang={lang} pos={pos}\n{rows}", encoding="utf-8")
            try:
                read_wordlist(path)
            except WordListError:
                assume(False)
        out = Path(tmp) / "report"
        argv = ["matrix", "--lists", str(lists_dir), "--out", str(out), "--jobs", "1",
                "--out-format", out_format]
        assert main(argv) == 0
        sep = "," if out_format == "csv" else "\t"
        lines = out.read_text(encoding="utf-8").split("\n")
        assert len(lines) == 3 and lines[-1] == ""  # the header and one cell
        assert [len(line.split(sep)) for line in lines[:-1]] == [7, 7]


def test_compare_order_shuffle_flag(capsys, fixtures_dir):
    ur = str(fixtures_dir / "pronouns" / "ur.tsv")
    hi = str(fixtures_dir / "pronouns" / "hi.tsv")
    code, sorted_out, _ = run(capsys, "compare", "--a", ur, "--b", hi)
    assert code == 0
    code, shuffled_out, _ = run(capsys, "compare", "--a", ur, "--b", hi,
                                "--order", "shuffle:3")
    assert code == 0
    code, again_out, _ = run(capsys, "compare", "--a", ur, "--b", hi,
                             "--order", "shuffle:3")
    assert shuffled_out == again_out  # seeded order is reproducible
    for bad in ("bogus", "shuffle:x"):
        code, _, err = run(capsys, "compare", "--a", ur, "--b", hi, "--order", bad)
        assert code == 1
        assert f"bad --order value {bad!r}" in err


def test_compare_prints_the_matrix_row_of_its_pair(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    lists_dir.mkdir()
    for name in ("ur.tsv", "ar.tsv"):
        shutil.copy(fixtures_dir / "pronouns" / name, lists_dir)
    out = tmp_path / "r.csv"
    assert run(capsys, "matrix", "--lists", str(lists_dir), "--out", str(out), "--jobs", "1")[0] == 0
    code, compared, _ = run(capsys, "compare", "--a", str(lists_dir / "ur.tsv"),
                            "--b", str(lists_dir / "ar.tsv"))
    assert code == 0
    assert compared.encode("utf-8") == out.read_bytes()
    assert len(compared.splitlines()) == 2


def test_compare_rejects_lists_of_two_tags(capsys, tmp_path, fixtures_dir):
    ur = fixtures_dir / "pronouns" / "ur.tsv"
    hi = tmp_path / "hi.tsv"
    text = (fixtures_dir / "pronouns" / "hi.tsv").read_text(encoding="utf-8")
    hi.write_text(text.replace("pos=PRON", "pos=NOUN", 1), encoding="utf-8")
    for a, b in ((ur, hi), (hi, ur)):
        code, out, err = run(capsys, "compare", "--a", str(a), "--b", str(b))
        assert code == 1
        assert out == ""
        assert str(ur) in err and str(hi) in err
        assert "PRON" in err and "NOUN" in err


def test_compare_rejects_two_lists_of_one_language_and_tag(capsys, tmp_path, fixtures_dir):
    # as matrix does on the same two files: the pair has no matrix row
    ur = fixtures_dir / "pronouns" / "ur.tsv"
    copy = tmp_path / "ur_copy.tsv"
    shutil.copy(ur, copy)
    code, out, err = run(capsys, "compare", "--a", str(ur), "--b", str(copy))
    assert code == 1
    assert out == ""
    assert str(ur) in err and str(copy) in err
    assert "two lists of (ur, PRON)" in err


def test_matrix_empty_dir_exits_one(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, "matrix", "--lists", str(empty), "--out", str(tmp_path / "r.csv"))
    assert code == 1


def test_matrix_missing_dir_exits_one(capsys, tmp_path):
    missing = tmp_path / "none"
    code, _, err = run(capsys, "matrix", "--lists", str(missing), "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert err == f"pedlex: error: --lists must be a directory of word-list files: {missing}\n"


def test_a_list_without_ipa_names_its_file(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    lists_dir.mkdir()
    ur = lists_dir / "ur.tsv"
    ur.write_text("# lang=ur pos=PRON\nAli\nBob\n", encoding="utf-8")
    shutil.copy(fixtures_dir / "pronouns" / "hi.tsv", lists_dir / "hi.tsv")
    message = f"pedlex: error: {ur}: word list (ur, PRON) has no IPA; run g2p first\n"
    code, _, err = run(capsys, "compare", "--a", str(ur), "--b", str(lists_dir / "hi.tsv"))
    assert (code, err) == (1, message)
    for jobs in ("1", "2"):
        code, _, err = run(capsys, "matrix", "--lists", str(lists_dir),
                           "--out", str(tmp_path / "r.csv"), "--jobs", jobs)
        assert (code, err) == (1, message)


def test_matrix_rejects_two_lists_of_one_language_and_tag(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    shutil.copytree(fixtures_dir / "pronouns", lists_dir)
    shutil.copy(lists_dir / "ar.tsv", lists_dir / "ar_copy.tsv")
    out = tmp_path / "r.csv"
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out", str(out),
                       "--jobs", "1")
    assert code == 1
    assert str(lists_dir / "ar.tsv") in err and str(lists_dir / "ar_copy.tsv") in err
    assert not out.exists()


def test_matrix_rejects_jobs_below_one(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    shutil.copytree(fixtures_dir / "pronouns", lists_dir)
    out = tmp_path / "r.csv"
    for jobs in ("-4", "0"):
        code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out", str(out),
                           "--jobs", jobs)
        assert code == 1
        assert "--jobs" in err
    assert not out.exists()


def test_matrix_refuses_jobs_below_one_before_reading_a_list(capsys, monkeypatch, tmp_path,
                                                            fixtures_dir):
    refuse_work(monkeypatch, "read_wordlist")
    code, _, err = run(capsys, "matrix", "--lists", str(fixtures_dir / "pronouns"),
                       "--out", str(tmp_path / "r.csv"), "--jobs", "0")
    assert (code, err) == (1, "pedlex: error: --jobs must be at least 1, got 0\n")


def test_matrix_jobs_default_counts_the_cpus_this_process_may_use(
    capsys, tmp_path, monkeypatch, fixtures_dir
):
    import os

    from pedlex import cli

    received = []
    build_matrix = cli.build_matrix

    def recording(*args, jobs, **kwargs):
        received.append(jobs)
        return build_matrix(*args, jobs=1, **kwargs)

    monkeypatch.setattr(cli, "build_matrix", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # the host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    argv = ("matrix", "--lists", str(fixtures_dir / "pronouns"), "--out", str(tmp_path / "r.csv"))
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--jobs", "7")[0] == 0
    # a platform without affinity masks counts the host's CPUs
    monkeypatch.delattr(os, "sched_getaffinity")
    assert run(capsys, *argv)[0] == 0
    assert received == [2, 7, 64]


def test_matrix_skips_a_list_g2p_emptied(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    lists_dir.mkdir()
    ur = lists_dir / "ur_PROPN.tsv"
    ur.write_text("# lang=ur pos=PROPN\nAli\nBob\n", encoding="utf-8")
    hi = (fixtures_dir / "pronouns" / "hi.tsv").read_text(encoding="utf-8")
    (lists_dir / "hi_PROPN.tsv").write_text(hi.replace("pos=PRON", "pos=PROPN"), encoding="utf-8")
    code, _, err = run(capsys, "g2p", "--script", "perso-arabic",
                       "--in", str(ur), "--out", str(ur))
    assert code == 0, err
    assert "converted 0/2 lemmas" in err
    out = tmp_path / "r.csv"
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out", str(out),
                       "--jobs", "1")
    assert code == 0, err
    assert out.read_text(encoding="utf-8").splitlines()[1] == (
        "hi,ur,PROPN,,20,0,list smaller than 5"
    )


def test_compare_min_size_zero_with_every_word_dropped(capsys, tmp_path, fixtures_dir):
    bad = tmp_path / "xx_PRON.tsv"
    bad.write_text("# lang=xx pos=PRON\nw1\t☃a\nw2\tb☃\n", encoding="utf-8")
    hi = str(fixtures_dir / "pronouns" / "hi.tsv")
    code, out, err = run(capsys, "compare", "--a", str(bad), "--b", hi,
                         "--min-size", "0", "--skip-unknown")
    assert code == 0, err
    assert out.splitlines()[1] == "hi,xx,PRON,,20,0,list smaller than 1"


def test_skip_unknown_internal_error_exits_two(capsys, monkeypatch, fixtures_dir):
    def broken(text, inventory):
        raise RuntimeError("scanner bug")

    monkeypatch.setattr("pedlex.similarity.tokenize", broken)
    ur = str(fixtures_dir / "pronouns" / "ur.tsv")
    code, _, err = run(capsys, "compare", "--a", ur, "--b", ur, "--skip-unknown")
    assert code == 2
    assert "scanner bug" in err


# ---------------------------------------------------------------- unreadable files


def assert_bad_file(code, err, path, where):
    assert code == 1, err
    assert err.startswith("pedlex: error: ") and "Traceback" not in err
    assert f"{path}" in err and where in err


def test_untokenizable_word_names_its_list(capsys, tmp_path, fixtures_dir):
    bad = tmp_path / "xx_PRON.tsv"
    bad.write_text("# lang=xx pos=PRON\nba\tbQa\n", encoding="utf-8")
    code, _, err = run(capsys, "compare", "--a", str(bad),
                       "--b", str(fixtures_dir / "pronouns" / "hi.tsv"))
    assert code == 1
    assert "(xx, PRON)" in err and "'bQa'" in err and "offset 1" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_untokenizable_word_names_its_file_and_line(capsys, tmp_path, fixtures_dir, jobs):
    lists_dir = tmp_path / "lists"
    lists_dir.mkdir()
    bad = lists_dir / "xx_PRON.tsv"
    bad.write_text("# lang=xx pos=PRON\npa\tpa\nba\tbQa\nda\tbQa\n", encoding="utf-8")
    shutil.copy(fixtures_dir / "pronouns" / "hi.tsv", lists_dir)
    where = f"pedlex: error: {bad} line 3: list (xx, PRON): unknown symbol 'Q' at offset 1"
    code, _, err = run(capsys, "compare", "--a", str(bad), "--b", str(lists_dir / "hi.tsv"))
    assert code == 1 and err.startswith(where), err
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir),
                       "--out", str(tmp_path / "r.csv"), "--jobs", jobs)
    assert code == 1 and err.startswith(where), err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_matrix_skip_unknown_warns_once_per_list(caplog, capsys, tmp_path, fixtures_dir, jobs):
    lists_dir = tmp_path / "lists"
    shutil.copytree(fixtures_dir / "pronouns", lists_dir)
    hi = lists_dir / "hi.tsv"
    hi.write_text(hi.read_text(encoding="utf-8") + "बक\tbQa\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="pedlex.similarity"):
        code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out",
                           str(tmp_path / "r.csv"), "--jobs", jobs, "--skip-unknown")
    assert code == 0, err
    # hi is in two cells, and its list is prepared once per run
    assert [rec.getMessage() for rec in caplog.records if rec.name == "pedlex.similarity"] == [
        "dropped 1 of 21 words of (hi, PRON): not tokenizable against the inventory"
    ]


def test_pool_worker_error_names_its_cell(capsys, tmp_path, monkeypatch, fixtures_dir,
                                         forked_workers):
    from pedlex import similarity
    from pedlex.errors import WordListError

    lists_dir = fixtures_dir / "pronouns"  # three cells
    out = str(tmp_path / "r.csv")
    align_lists = similarity.align_lists

    def broken(l1, l2, *args, **kwargs):
        if {l1.language, l2.language} == {"hi", "ur"}:
            raise ZeroDivisionError("kernel bug")
        return align_lists(l1, l2, *args, **kwargs)

    monkeypatch.setattr(similarity, "align_lists", broken)
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out", out, "--jobs", "2")
    assert code == 2
    assert "cell (hi, ur, PRON) failed: ZeroDivisionError('kernel bug')" in err

    def bad_input(*args, **kwargs):
        raise WordListError("bad list")

    monkeypatch.setattr(similarity, "align_lists", bad_input)
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out", out, "--jobs", "2")
    assert code == 1
    assert err == "pedlex: error: bad list\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_first_failing_cell_in_largest_first_order_is_reported(
    capsys, tmp_path, monkeypatch, fixtures_dir, request, jobs
):
    from pedlex import similarity
    from pedlex.errors import WordListError

    if jobs != "1":  # the monkeypatches below must reach the pool's workers
        request.getfixturevalue("forked_workers")

    lists_dir = tmp_path / "lists"
    shutil.copytree(fixtures_dir / "pronouns", lists_dir)
    ar = lists_dir / "ar.tsv"
    rows = ar.read_text(encoding="utf-8").splitlines(keepends=True)
    ar.write_text("".join(rows[:12]), encoding="utf-8")  # 10 of its 20 words
    out = str(tmp_path / "r.csv")
    align_lists = similarity.align_lists

    def broken(l1, l2, *args, **kwargs):
        if "hi" in (l1.language, l2.language):
            raise ZeroDivisionError("kernel bug")
        return align_lists(l1, l2, *args, **kwargs)

    # (hi, ur) is 20 x 20, (ar, hi) 10 x 20: the larger cell runs first
    monkeypatch.setattr(similarity, "align_lists", broken)
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out", out, "--jobs", jobs)
    assert code == 2
    assert "cell (hi, ur, PRON) failed: ZeroDivisionError('kernel bug')" in err
    assert "(ar, hi, PRON)" not in err

    def bad_input(l1, l2, *args, **kwargs):
        raise WordListError(f"bad list {l1.language} {l2.language}")

    monkeypatch.setattr(similarity, "align_lists", bad_input)
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir), "--out", out, "--jobs", jobs)
    assert code == 1
    assert err == "pedlex: error: bad list hi ur\n"


def test_word_list_not_utf8_exits_one(capsys, tmp_path, fixtures_dir):
    lists_dir = tmp_path / "lists"
    lists_dir.mkdir()
    bad = lists_dir / "xx_PRON.tsv"
    bad.write_bytes(b"# lang=xx pos=PRON\r\npa\tpa\r\nba\tb\xffa\r\n")
    hi = str(fixtures_dir / "pronouns" / "hi.tsv")
    code, _, err = run(capsys, "compare", "--a", str(bad), "--b", hi)
    assert_bad_file(code, err, bad, "line 3: not valid UTF-8")
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir),
                       "--out", str(tmp_path / "r.csv"), "--jobs", "1")
    assert_bad_file(code, err, bad, "line 3: not valid UTF-8")
    code, _, err = run(capsys, "compare", "--a", str(lists_dir), "--b", hi)
    assert_bad_file(code, err, lists_dir, "cannot read word list")


def test_path_separator_in_a_list_header_exits_one_naming_its_line(capsys, tmp_path,
                                                                   fixtures_dir):
    # g2p refuses the list when it reads it, not after converting it
    bad = tmp_path / "in.tsv"
    bad.write_text("# lang=a/b pos=NOUN\nتم\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    code, _, err = run(capsys, "g2p", "--script", "perso-arabic", "--in", str(bad),
                       "--out", str(out))
    assert_bad_file(code, err, bad, "line 1: header lang=")
    assert not out.exists()
    lists_dir = tmp_path / "lists"
    lists_dir.mkdir()
    shutil.copy(fixtures_dir / "pronouns" / "hi.tsv", lists_dir)
    ur = (fixtures_dir / "pronouns" / "ur.tsv").read_text(encoding="utf-8")
    listed = lists_dir / "ur.tsv"
    listed.write_text(ur.replace("pos=PRON", "pos=PR\\ON"), encoding="utf-8")
    code, _, err = run(capsys, "matrix", "--lists", str(lists_dir),
                       "--out", str(tmp_path / "r.csv"), "--jobs", "1")
    assert_bad_file(code, err, listed, "line 1: header pos=")


def test_crlf_word_list_reads_like_lf(capsys, tmp_path, fixtures_dir):
    hi = fixtures_dir / "pronouns" / "hi.tsv"
    crlf = tmp_path / "hi.tsv"
    crlf.write_bytes(hi.read_bytes().replace(b"\n", b"\r\n"))
    ur = str(fixtures_dir / "pronouns" / "ur.tsv")
    _, lf_out, _ = run(capsys, "compare", "--a", ur, "--b", str(hi))
    code, crlf_out, err = run(capsys, "compare", "--a", ur, "--b", str(crlf))
    assert code == 0, err
    assert crlf_out == lf_out


def test_inventory_not_utf8_or_a_directory_exits_one(capsys, tmp_path):
    bad = tmp_path / "inventory.tsv"
    bad.write_bytes(b"a\tv\t1\t0\t0\n\xfe\tv\t0\t0\t0\n")
    code, _, err = run(capsys, "dist", "a", "a", "--inventory", str(bad))
    assert_bad_file(code, err, bad, "line 2: not valid UTF-8")
    code, _, err = run(capsys, "dist", "a", "a", "--inventory", str(tmp_path))
    assert_bad_file(code, err, tmp_path, "cannot read inventory file")


def test_manner_table_not_utf8_exits_one(capsys, tmp_path):
    bad = tmp_path / "manner.tsv"
    bad.write_bytes(b"# manner distances\nplosive\tnasal\t0.1\xc3\n")
    code, _, err = run(capsys, "dist", "pa", "ba", "--manner-table", str(bad))
    assert_bad_file(code, err, bad, "line 2: not valid UTF-8")


def test_g2p_table_not_utf8_exits_one(capsys, tmp_path, fixtures_dir):
    bad = tmp_path / "g2p.tsv"
    bad.write_bytes(b"# script=perso-arabic\n\xd9\tb\n")
    code, _, err = run(capsys, "g2p", "--script", "perso-arabic", "--table", str(bad),
                       "--in", str(fixtures_dir / "pronouns" / "ur.tsv"),
                       "--out", str(tmp_path / "out.tsv"))
    assert_bad_file(code, err, bad, "line 2: not valid UTF-8")


def test_conllu_not_utf8_exits_one(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_bytes(CONLLU.encode("utf-8") + b"2\t\xff\t\xff\tNOUN\t_\t_\t1\tdep\t_\t_\n")
    code, _, err = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                       "--out-dir", str(tmp_path / "lists"))
    assert_bad_file(code, err, conllu, f"line {CONLLU.count(chr(10)) + 1}: not valid UTF-8")


@pytest.mark.parametrize("lang", ["../esc", "a/b", "a,b", "a b", ""])
def test_extract_rejects_bad_lang_before_reading(capsys, tmp_path, lang):
    # the input does not exist: --lang is checked before it is read
    out_dir = tmp_path / "lists"
    code, _, err = run(capsys, "extract", "--input", str(tmp_path / "missing.conllu"),
                       "--lang", lang, "--out-dir", str(out_dir))
    assert code == 1, err
    assert "pedlex: error: --lang must be non-empty and hold no comma" in err
    assert repr(lang) in err
    assert not out_dir.exists()
    assert list(tmp_path.iterdir()) == []


def test_extract_bad_input_leaves_no_out_dir(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_bytes(b"1\t\xff\t\xff\tNOUN\t_\t_\t0\troot\t_\t_\n")
    for path in (conllu, tmp_path / "missing.conllu"):
        out_dir = tmp_path / "lists"
        code, _, err = run(capsys, "extract", "--input", str(path), "--lang", "ur",
                           "--out-dir", str(out_dir))
        assert code == 1, err
        assert not out_dir.exists()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pedlex", "dist", "pɛn", "bɛnd"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.200\n"


# ---------------------------------------------------------------- unwritable outputs


def refuse_work(monkeypatch, name):
    """Make ``pedlex.cli.<name>`` raise if a command calls it: an output that
    cannot be written must stop the command before its work starts."""

    def work(*args, **kwargs):
        raise AssertionError(f"{name} ran before its output was checked")

    monkeypatch.setattr(cli, name, work)


def test_matrix_out_that_cannot_be_written_exits_one(capsys, monkeypatch, tmp_path,
                                                      fixtures_dir):
    refuse_work(monkeypatch, "build_matrix")
    lists = str(fixtures_dir / "pronouns")
    for out in (tmp_path, tmp_path / "missing" / "r.csv"):
        code, _, err = run(capsys, "matrix", "--lists", lists, "--out", str(out), "--jobs", "1")
        assert_bad_file(code, err, out, "cannot write report")


def test_g2p_out_in_a_missing_directory_exits_one(capsys, monkeypatch, tmp_path, fixtures_dir):
    refuse_work(monkeypatch, "g2p_convert")
    for out in (tmp_path, tmp_path / "missing" / "ur.tsv"):
        code, _, err = run(capsys, "g2p", "--script", "perso-arabic",
                           "--in", str(fixtures_dir / "pronouns" / "ur.tsv"), "--out", str(out))
        assert_bad_file(code, err, out, "cannot write word list")


def test_extract_out_dir_that_is_a_file_exits_one(capsys, monkeypatch, tmp_path):
    refuse_work(monkeypatch, "extract_wordlists")
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    # the input file itself, and a directory below it: a file is in the way
    for out_dir in (conllu, conllu / "lists"):
        code, _, err = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                           "--out-dir", str(out_dir))
        assert_bad_file(code, err, out_dir, "cannot create --out-dir")
    assert sorted(tmp_path.iterdir()) == [conllu]
    assert conllu.read_text(encoding="utf-8") == CONLLU
