import pytest

from pedlex.errors import ConlluError, PedlexError, WordListError, open_lines


def read_all(path):
    with open_lines(path, WordListError, "word list") as lines:
        return list(lines)


def test_lines_keep_their_newline_and_every_ending_reads_as_lf(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_bytes(b"a\nb\r\nc\rd")
    assert read_all(path) == [(1, "a\n"), (2, "b\n"), (3, "c\n"), (4, "d")]


def test_leading_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_bytes("\ufeff# lang=xx pos=PRON\n\ufeffa\n".encode("utf-8"))
    # only the mark that starts the file is one
    assert read_all(path) == [(1, "# lang=xx pos=PRON\n"), (2, "\ufeffa\n")]


def test_error_raised_inside_the_block_passes_through_unchanged(tmp_path):
    path = tmp_path / "w.conllu"
    path.write_text("1\n2\n", encoding="utf-8")
    raised = WordListError("w.conllu line 2: caller's own error")
    with pytest.raises(PedlexError) as info:
        with open_lines(path, ConlluError, "CoNLL-U file") as lines:
            for lineno, _ in lines:
                if lineno == 2:
                    raise raised
    assert info.value is raised


def test_bad_byte_names_its_line_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_bytes(b"\xef\xbb\xbfa\nb\xff\n")
    with pytest.raises(WordListError, match=r"w\.tsv line 2: not valid UTF-8$"):
        read_all(path)
