"""Fuzzers for the manner-table and g2p-table readers.

Any file content, valid UTF-8 or not, must either load or raise a
``PedlexError`` that names the file; any other exception is a bug.
"""

from hypothesis import given, settings, strategies as st

from pedlex import G2PTable, load_g2p_table, load_manner_table
from pedlex.defaults import default_g2p_table_path, default_manner_table_path
from pedlex.distance import MannerDistanceTable
from pedlex.errors import PedlexError
from pedlex.features import MANNERS

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
