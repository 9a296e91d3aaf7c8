"""Fuzzers for the inventory, manner-table, g2p-table and word-list readers.

Any file content, valid UTF-8 or not, must either load or raise a
``PedlexError`` that names the file; any other exception is a bug.
"""

from hypothesis import given, settings, strategies as st

from pedlex import (
    FeatureInventory,
    G2PTable,
    WordList,
    load_g2p_table,
    load_inventory,
    load_manner_table,
    read_wordlist,
)
from pedlex.defaults import (
    default_g2p_table_path,
    default_inventory_path,
    default_manner_table_path,
)
from pedlex.distance import MannerDistanceTable
from pedlex.errors import PedlexError
from pedlex.features import MANNERS

INVENTORY_LINES = default_inventory_path().read_text(encoding="utf-8").splitlines()
MANNER_LINES = default_manner_table_path().read_text(encoding="utf-8").splitlines()
G2P_LINES = default_g2p_table_path("devanagari").read_text(encoding="utf-8").splitlines()

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "0.5", "-0.0", "1e309", "nan", "-inf", "0_5", "١", " 0.2 ", ""]),
)


def table_bytes(line):
    """File contents: drawn lines with mixed line ends, maybe a byte-order
    mark, maybe raw bytes spliced in that need not be UTF-8."""
    return st.builds(
        _assemble,
        st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
        st.booleans(),
        st.one_of(st.none(), st.tuples(st.integers(0, 2**16), st.binary(min_size=1, max_size=4))),
    )


def _assemble(lines, bom, splice):
    data = "".join(text + end for text, end in lines).encode("utf-8")
    if splice is not None:
        at, raw = splice
        at %= len(data) + 1
        data = data[:at] + raw + data[at:]
    return b"\xef\xbb\xbf" + data if bom else data


def loads_or_names_the_file(load, path, data, kind):
    path.write_bytes(data)
    try:
        result = load(path)
    except PedlexError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(result, kind)


manner_line = st.one_of(
    st.just("\n".join(MANNER_LINES)),  # the whole bundled table: a file that loads
    st.sampled_from(MANNER_LINES),
    st.text(max_size=20),
    st.builds(
        "\t".join,
        st.lists(st.one_of(st.sampled_from(MANNERS), NUMBERS, st.text(max_size=6)),
                 min_size=1, max_size=4),
    ),
)


@given(data=table_bytes(manner_line))
@settings(max_examples=300, deadline=None)
def test_manner_table_loads_or_names_its_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_manner.tsv"
    loads_or_names_the_file(load_manner_table, path, data, MannerDistanceTable)


g2p_line = st.one_of(
    st.just("\n".join(G2P_LINES)),
    st.sampled_from(G2P_LINES),
    st.text(max_size=20),
    st.builds("# script={}".format, st.text(max_size=8)),
    st.builds(
        "\t".join,
        st.lists(st.one_of(st.sampled_from(["क", "क़", "क़", "a", ""]), st.text(max_size=6)),
                 min_size=1, max_size=4),
    ),
)


@given(data=table_bytes(g2p_line))
@settings(max_examples=300, deadline=None)
def test_g2p_table_loads_or_names_its_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_g2p.tsv"
    loads_or_names_the_file(load_g2p_table, path, data, G2PTable)


inventory_line = st.one_of(
    st.just("\n".join(INVENTORY_LINES)),
    st.sampled_from(INVENTORY_LINES),
    st.text(max_size=20),
    st.builds(
        "\t".join,
        st.lists(
            st.one_of(st.sampled_from(["v", "c", "a", "a:", "t̪ʰ", "ː", " ", "0", "1"]),
                      st.sampled_from(MANNERS), NUMBERS, st.text(max_size=6)),
            min_size=1, max_size=9,
        ),
    ),
)


@given(data=table_bytes(inventory_line))
@settings(max_examples=300, deadline=None)
def test_inventory_loads_or_names_its_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_inventory.tsv"
    loads_or_names_the_file(load_inventory, path, data, FeatureInventory)


HEADER_VALUES = st.one_of(
    st.sampled_from(["ur", "hi", "NOUN", "PRON", "", "a,b", "a/b", "..", "x y"]),
    st.text(max_size=6),
)
wordlist_line = st.one_of(
    st.just("# lang=ur pos=NOUN"),
    st.builds("# lang={} pos={}".format, HEADER_VALUES, HEADER_VALUES),
    st.builds("#{}={}".format, st.sampled_from(["lang", "pos", " lang", "x"]), HEADER_VALUES),
    st.text(max_size=20),
    st.builds(
        "\t".join,
        st.lists(st.one_of(st.sampled_from(["kitāb", "kitab", "", "ʃəlɒm", "#"]),
                           st.text(max_size=6)),
                 min_size=1, max_size=3),
    ),
)


@given(data=table_bytes(wordlist_line))
@settings(max_examples=300, deadline=None)
def test_word_list_loads_or_names_its_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_list.tsv"
    loads_or_names_the_file(read_wordlist, path, data, WordList)
