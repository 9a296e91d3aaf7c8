#!/usr/bin/env python3
"""Best-effort similarity matrix over the bundled pronoun fixtures.

The three hand-transcribed 20-word pronoun lists (Urdu, Hindi, Arabic) are a
desk-scale stand-in for a full corpus run. Prints the report CSV to stdout;
run the real pipeline (pedlex extract / g2p / matrix) on CoNLL-U corpora for
the full picture.
"""

import sys
from pathlib import Path

from pedlex import build_matrix, default_inventory, format_report, read_wordlist

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "pronouns"


def main():
    lists = [read_wordlist(p) for p in sorted(FIXTURES.glob("*.tsv"))]
    report = build_matrix(lists, default_inventory())
    sys.stdout.write(format_report(report, "csv"))


if __name__ == "__main__":
    main()
