"""IPA string tokenization.

A word is split into phones by greedy longest match against the inventory
labels, so multi-character symbols (length marks, aspiration or
pharyngealization diacritics, affricate digraphs) come out as one token.
Input is normalized first: NFC, and the length mark 'ː' folded to ':' so
both spellings hit the same inventory entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import TokenizeError
from .features import FeatureInventory, Phone, normalize_ipa

# matches exactly the characters for which str.isspace() is true
_SPACE = re.compile(r"\s")


@dataclass(frozen=True)
class PhoneticString:
    """A tokenized word: the phone sequence plus the normalized source text.

    Concatenating the token labels reconstructs ``source_text`` exactly.
    """

    phones: tuple[Phone, ...]
    source_text: str

    def __len__(self) -> int:
        return len(self.phones)

    def __iter__(self):
        return iter(self.phones)

    def __getitem__(self, index):
        return self.phones[index]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.phones)


def tokenize(text: str, inv: FeatureInventory) -> PhoneticString:
    """Tokenize an IPA word against an inventory.

    Raises TokenizeError (carrying the codepoint offset) on the first symbol
    that no inventory label matches. Empty input yields an empty
    PhoneticString; whitespace inside a word is rejected.
    """
    normalized = normalize_ipa(text)
    if _SPACE.search(normalized):
        raise TokenizeError(f"whitespace inside word {text!r}; tokenize words one at a time")
    phones, end = inv.scanner.scan(normalized)
    if end < len(normalized):
        raise TokenizeError(
            f"unknown symbol {normalized[end]!r} at offset {end} in {text!r}",
            offset=end,
        )
    return PhoneticString(phones=tuple(phones), source_text=normalized)
