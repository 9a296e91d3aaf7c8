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
