"""Exception hierarchy.

Everything raised for bad *input* (files, symbols, flags) derives from
PedlexError; the CLI maps these to exit code 1. Anything else escaping to
the CLI is treated as an internal invariant violation (exit code 2).
``open_lines`` is the one reader of input text files, so a file that is
missing, unreadable or not UTF-8 is bad input too.
"""

from contextlib import contextmanager
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


@contextmanager
def open_lines(path: Path, error: type[PedlexError], what: str):
    """Open a UTF-8 text file for reading as ``enumerate(file, 1)``.

    The block iterates (line number, line) pairs. Lines end at LF, CRLF or
    CR and keep their "\n" (the last line may have none); a leading UTF-8
    byte-order mark is dropped. A missing file raises ``error`` with
    "<what> not found: <path>"; a directory, an unreadable file or bytes that
    are not UTF-8 raise ``error`` naming the file (and the first bad line).
    A ``PedlexError`` raised inside the block passes through unchanged.
    """
    try:
        fh = open(path, encoding="utf-8-sig")
    except (FileNotFoundError, NotADirectoryError):
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    with fh:
        try:
            yield enumerate(fh, 1)
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
