from hypothesis import given, strategies as st

from pedlex.longest_match import LongestMatch


def test_longest_key_wins_at_each_position():
    scanner = LongestMatch({"a": 1, "ab": 2, "abc": 3, "c": 4})
    assert scanner.scan("abcaba") == ([3, 2, 1], 6)


def test_stops_at_first_position_no_key_matches():
    scanner = LongestMatch({"a": 1, "b": 2})
    assert scanner.scan("abxab") == ([1, 2], 2)
    assert scanner.scan("") == ([], 0)


def test_regex_metacharacters_are_literal_keys():
    scanner = LongestMatch({".": "dot", "a|b": "bar", "*": "star", "\\": "slash"})
    assert scanner.scan("a|b.*\\") == (["bar", "dot", "star", "slash"], 6)
    assert scanner.scan("ab") == ([], 0)


def test_no_keys_and_empty_keys_match_nothing():
    assert LongestMatch({}).scan("a") == ([], 0)
    assert LongestMatch({"": "x"}).scan("a") == ([], 0)
    assert LongestMatch({"": "x"}).scan("") == ([], 0)


def test_single_characters_that_start_longer_keys_still_yield_to_them():
    # 'b' starts no longer key and goes to the one-character class; 'a' starts 'a:'
    scanner = LongestMatch({"a": 1, "a:": 2, "b": 3})
    assert scanner.scan("a:bab:a") == ([2, 3, 1, 3], 5)
    assert scanner.scan("aa:") == ([1, 2], 3)


def greedy_scan(text, table):
    """The per-position longest-match loop, kept as the scanner's reference."""
    keys = {k for k in table if k}
    out, pos = [], 0
    while pos < len(text):
        match = max((k for k in keys if text.startswith(k, pos)), key=len, default=None)
        if match is None:
            break
        out.append(table[match])
        pos += len(match)
    return out, pos


# class metacharacters among the keys, some of them also starting longer keys
ALPHABET = "ab-]^\\"
KEYS = st.dictionaries(st.text(ALPHABET, max_size=3), st.integers(), max_size=8)


@given(KEYS, st.text(ALPHABET + "x", max_size=12))
def test_scan_matches_greedy_loop(table, text):
    assert LongestMatch(table).scan(text) == greedy_scan(text, table)
