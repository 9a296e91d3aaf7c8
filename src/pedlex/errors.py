"""Exception hierarchy.

Everything raised for bad *input* (files, symbols, flags) derives from
PedlexError; the CLI maps these to exit code 1. Anything else escaping to
the CLI is treated as an internal invariant violation (exit code 2).
``read_lines`` is the one reader of input text files, so a file that is
missing, unreadable or not UTF-8 is bad input too.
"""

from pathlib import Path


class PedlexError(Exception):
    """Base class for input and data-file errors."""


class InventoryError(PedlexError):
    """Malformed or inconsistent feature-inventory file."""


class UnknownSymbolError(PedlexError):
    """IPA symbol not present in the inventory."""


class TokenizeError(PedlexError):
    """Input text cannot be tokenized against the inventory."""


class ConfigError(PedlexError):
    """Distance-weight configuration violates its invariants."""


class MannerTableError(PedlexError):
    """Manner-distance table is incomplete, asymmetric or out of range."""


class ConlluError(PedlexError):
    """CoNLL-U input unusable (not just a skippable bad line)."""


class G2PError(PedlexError):
    """Grapheme-to-phoneme table problem or script mismatch."""


class WordListError(PedlexError):
    """Word-list file malformed, or list unusable for alignment."""


def read_lines(path: Path, error: type[PedlexError], what: str):
    """Yield (line number, line without its newline) of a UTF-8 text file.

    Lines end at LF, CRLF or CR. A missing file raises ``error`` with
    "<what> not found: <path>"; a directory, an unreadable file or bytes
    that are not UTF-8 raise ``error`` naming the file (and the first bad
    line).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                yield lineno, raw.rstrip("\n")
    except (FileNotFoundError, NotADirectoryError):
        raise error(f"{what} not found: {path}") from None
    except UnicodeDecodeError:
        data = path.read_bytes()  # the text decoder works in chunks; find the line
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # bytes.splitlines ends lines where the text reader does
            lineno = len((data[: exc.start] + b".").splitlines())
            raise error(f"{path} line {lineno}: not valid UTF-8") from None
        raise
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
