"""IPA string tokenization.

A word is split into phones by greedy longest match against the inventory
labels, so multi-character symbols (length marks, aspiration or
pharyngealization diacritics, affricate digraphs) come out as one token.
Input is normalized first: NFC, and the length mark 'ː' folded to ':' so
both spellings hit the same inventory entry.
"""

from __future__ import annotations

import re

from .errors import TokenizeError
from .features import FeatureInventory, Phone, normalize_ipa

# matches exactly the characters for which str.isspace() is true
_SPACE = re.compile(r"\s")


def tokenize(text: str, inv: FeatureInventory) -> tuple[Phone, ...]:
    """Tokenize an IPA word against an inventory into its phones.

    The phone labels concatenate to ``normalize_ipa(text)``. Raises
    TokenizeError, naming the codepoint offset, on the first symbol that no
    inventory label matches. Empty input yields (); whitespace inside a word
    is rejected.
    """
    normalized = normalize_ipa(text)
    phones, end = inv.scanner.scan(normalized)
    if end < len(normalized):
        # no label holds whitespace (load_inventory rejects one), so a word
        # with whitespace always stops short of its end
        if _SPACE.search(normalized):
            raise TokenizeError(
                f"whitespace inside word {text!r}; tokenize words one at a time"
            )
        raise TokenizeError(f"unknown symbol {normalized[end]!r} at offset {end} in {text!r}")
    return tuple(phones)
