"""Greedy longest-match segmentation against a fixed set of keys.

Both the IPA tokenizer (inventory labels) and the grapheme-to-phoneme step
(grapheme rules) walk a string left to right, always consuming the longest
key that matches at the current position. ``LongestMatch`` does that walk
in the regular-expression engine: the keys form one alternation, longest
first, and alternation tries its branches in order, so the first branch that
matches is the longest key starting there. One-character keys that start no
longer key come first, as one character class: where one of them matches,
no longer key can, so it is the longest match there too.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Generic, TypeVar

V = TypeVar("V")


class LongestMatch(Generic[V]):
    """Maps a string to the values of the keys that cover it greedily.

    Empty keys are ignored: they would match everywhere without consuming.
    """

    def __init__(self, table: Mapping[str, V]):
        self._values = dict(table)
        keys = sorted((k for k in self._values if k), key=len, reverse=True)
        singles = {k for k in keys if len(k) == 1} - {k[0] for k in keys if len(k) > 1}
        branches = [re.escape(k) for k in keys if k not in singles]
        if singles:
            branches.insert(0, "[" + "".join(map(re.escape, sorted(singles))) + "]")
        # "(?!)" never matches: with no keys every text stops at offset 0
        self._pattern = re.compile("|".join(branches) or "(?!)")

    def scan(self, text: str) -> tuple[list[V], int]:
        """Values of the keys matched from the start of ``text``, and the stop offset.

        The stop offset is ``len(text)`` when the keys cover all of ``text``;
        otherwise it is the first position at which no key matches, and the
        values cover the text before it.
        """
        keys = self._pattern.findall(text)
        if "".join(keys) == text:
            end = len(text)
        else:
            # findall skips unmatched characters; keep the run before the first gap
            keys, end = [], 0
            for match in self._pattern.finditer(text):
                if match.start() != end:
                    break
                keys.append(match.group())
                end = match.end()
        return list(map(self._values.__getitem__, keys)), end
