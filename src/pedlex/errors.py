"""Exception hierarchy.

Everything raised for bad *input* (files, symbols, flags) derives from
PedlexError; the CLI maps these to exit code 1. Anything else escaping to
the CLI is treated as an internal invariant violation (exit code 2).
``open_lines`` is the one reader of input text files, so a file that is
missing, unreadable or not UTF-8 is bad input too. Word lists and reports
are written through ``write_text``, so an output path that cannot be written
is bad input as well; ``check_writable`` finds most such paths before the
work whose result would go there.
"""

import os
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
    """A ``DistanceConfig`` holds ``alpha`` outside (0, 1] or
    ``cross_type_cost`` outside [0, 1]; the weights are constants."""


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


def write_text(path: str | Path, text: str, error: type[PedlexError], what: str) -> None:
    """Write ``text`` to ``path`` as UTF-8. A path that cannot be written (a
    directory, a file in a missing directory, no permission) raises
    ``error`` with "cannot write <what> <path>: <reason>"."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot write {what} {path}: {exc.strerror or exc}") from None


def check_writable(path: str | Path, error: type[PedlexError], what: str, *,
                   directory: bool = False) -> None:
    """Raise ``error`` when ``path`` surely cannot be written, before any
    work: "cannot write <what> <path>: <reason>" when the path is a
    directory, its directory is missing, or the one it would write to is
    not writable. With ``directory``, the path is a directory that
    ``mkdir(parents=True)`` makes: "cannot create <what> <path>: <reason>"
    when a file is in its way or its nearest existing directory is not
    writable. Creates nothing; ``write_text`` still maps what fails later."""
    path = Path(path)
    if directory:
        verb, target = "create", path
        while not target.exists() and target != target.parent:
            target = target.parent
        reason = None if target.is_dir() else f"{target} is not a directory"
    else:
        verb, target = "write", path if path.exists() else path.parent
        reason = ("is a directory" if path.is_dir()
                  else None if path.parent.is_dir() else f"no directory {path.parent}")
    if reason is None and not os.access(target, os.W_OK):
        reason = "permission denied"
    if reason:
        raise error(f"cannot {verb} {what} {path}: {reason}")
