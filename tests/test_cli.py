import shutil
import subprocess
import sys

import pytest

from pedlex.cli import main


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
    code, out, _ = run(capsys, "dist", "pɛn", "bɛnd", "--trace")
    lines = out.splitlines()
    assert lines[0] == "1.200"
    assert lines[1].startswith("substitute\tp→b")
    assert lines[-1].startswith("insert\t-→d")


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


def test_phones_lists_tokens(capsys):
    code, out, _ = run(capsys, "phones", "tʃʰa:t")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 3
    assert lines[0].startswith("tʃʰ\tconsonant\tmanner=plosive")
    assert lines[1].startswith("a:\tvowel\topen=1")


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


def test_extract_pos_filter(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    out_dir = tmp_path / "only_nouns"
    code, _, _ = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                     "--pos", "NOUN", "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "ur_NOUN.tsv").exists()
    assert not (out_dir / "ur_PRON.tsv").exists()


def test_extract_rejects_unknown_tag(capsys, tmp_path):
    conllu = tmp_path / "ur.conllu"
    conllu.write_text(CONLLU, encoding="utf-8")
    code, _, err = run(capsys, "extract", "--input", str(conllu), "--lang", "ur",
                       "--pos", "ADJ", "--out-dir", str(tmp_path / "x"))
    assert code == 1
    assert "unsupported tag" in err


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
    assert run(capsys, "compare", "--a", ur, "--b", hi, "--order", "bogus")[0] == 1


def test_matrix_empty_dir_exits_one(capsys, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, "matrix", "--lists", str(empty), "--out", str(tmp_path / "r.csv"))
    assert code == 1


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


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pedlex", "dist", "pɛn", "bɛnd"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.200\n"
