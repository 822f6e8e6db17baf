"""Databases over a binary-attribute row domain, and seeded randomness.

A row with ``l`` binary attributes is encoded as an unsigned integer in
``[0, 2**l)``; attribute ``k`` of a row is bit ``k`` of the code. A database
is a length-n vector of such codes. Rows are compared as whole values, never
bitwise: two databases are neighbors when they differ in exactly one row.

All types are immutable after construction and safe to share across threads.
Every stochastic operation in this package takes an explicit
:class:`RandomSource`; there is no hidden global randomness.
JSON files, code files and edge lists are parsed here (``_read_json``,
``_read_int_rows``). A code file or edge list is read in blocks of whole
lines, and numpy scans each block's bytes (``_scan_block``). Its grammar
(runs of at most 18 ASCII digits, spaces, tabs, '\n' or '\r\n' line ends and
ASCII comments) is the only one such a file has: a block that leaves it is
halved until its first bad line is found and named. A block whose rows all
share one byte layout (every line of a release) is read column by column
from its (rows, row length) byte matrix; any other block (mixed widths,
comments, '\r\n' ends, blank rows) locates its tokens one by one.
The same scan reads a query file's long integer arrays
(``_read_json_int_arrays``): JSON integers without sign, fraction, exponent
or leading zero, separated by commas, where a run of equal-width integers
with one separator is again one byte layout; json parses the rest of the
file, and any array or file outside that grammar is left to json whole.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import os
import re
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

MAX_ATTRIBUTES = 30
# n*l cap of every exhaustive enumeration: the enumerators, and through them
# the exact distortion, the oracle's distribution and verify_dp
EXACT_BIT_CAP = 12
# cap on 2**l for every dense array over the row domain: a query's value
# tables and a Database's per-code counts. 2**24 float64 values are 128 MiB;
# a wider universe is refused before any such array exists
MAX_TABLE_CODES = 1 << 24
# rows per block of ``_count_codes``: a block's intp copy is 0.5 MiB, and
# 2**16 counted 10**6 codes fastest of the powers of two from 2**12 to 2**18
_COUNT_BLOCK = 1 << 16


class ValidationError(ValueError):
    """An input violates a documented invariant."""

    category = "validation"


class DimensionMismatchError(ValidationError):
    """Operands are defined over different universes or row counts."""

    category = "dimension-mismatch"


class EnumerationTooLargeError(ValidationError):
    """An exhaustive enumeration would exceed its configured cap."""

    category = "enumeration-too-large"


class EstimatorUndefinedError(ValidationError):
    """The requested estimator is undefined at the given privacy level."""

    category = "estimator-undefined"


class ConfigError(ValidationError):
    """An experiment or ingestion configuration is invalid."""

    category = "config"


def _check_int(value, what: str, minimum: int, error=ValidationError) -> int:
    """``value``, any integer but a bool and at least ``minimum``, as an int,
    else ``error``. A plain int skips the type tests."""
    if type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral):
        if value >= minimum:
            return int(value)
        raise error(f"{what} must be >= {minimum}, got {value}")
    raise error(f"{what} must be an integer, got {value!r}")


def _check_size(value, what: str, error=ValidationError) -> int:
    """``value`` as an array length: an integer in [1, 2**63 - 1], else ``error``."""
    if _check_int(value, what, 1, error) < 2**63:
        return int(value)
    raise error(f"{what} must be <= 2**63 - 1, got {value}")


def _check_real(value, what: str, error=ValidationError) -> float:
    """``value``, any finite real number but a bool, as a float, else
    ``error``. A plain float skips the type tests."""
    if type(value) is float or not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the largest float
            number = math.inf
        if math.isfinite(number):
            return number
    raise error(f"{what} must be a finite number, got {value!r}")


def _check_choice(value, choices: tuple, what: str, error=ValidationError) -> str:
    """``value``, a string among the names ``choices``, else ``error``."""
    if isinstance(value, str) and value in choices:
        return value
    raise error(f"{what} must be one of {choices}, got {value!r}")


def _not_utf8(path, exc: UnicodeDecodeError, error=ValidationError) -> ValidationError:
    return error(f"{path}: not UTF-8 text ({exc.reason})")


def _read_json(path, error=ValidationError):
    """Parse a JSON file; invalid JSON or non-UTF-8 bytes raise ``error``
    naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON ({exc})") from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, error) from None


def _utf8_lines(fh, path) -> Iterator[str]:
    """The lines of the text file ``fh``, opened from ``path`` as UTF-8."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _content_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of the file at ``path`` with text
    before its '#', stripped of ' ' and '\t'. Lines end in '\n' or '\r\n'
    and hold ASCII only, comments included, as in ``_LINES``: a line with a
    non-ASCII character raises the ValidationError that names it."""
    with open(path, "r", encoding="utf-8-sig", newline="\n") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            text = line[:-1].removesuffix("\r") if line.endswith("\n") else line
            if not text.isascii():
                raise ValidationError(f"{path}:{lineno}: expected ASCII text, got {text!r}")
            if text := text.split("#", 1)[0].strip(" \t"):
                yield lineno, text


# the scan reads a file or a JSON array in blocks of whole rows of about
# this size
_SCAN_BLOCK_BYTES = 1 << 15
# 10**18 - 1 < 2**63: a token of at most 18 digits fits an int64
_SCAN_MAX_DIGITS = 18
# bytes kept before a block, so that each 8-byte word of a token that
# _token_values loads starts inside the buffer
_SCAN_PAD = 24
_BOM = b"\xef\xbb\xbf"
# byte classes of the scan; an _END byte ends a row
_DIGIT, _GAP, _END, _CR, _HASH, _ASCII, _NON_ASCII = range(7)
# a run of digits among the classes of a row
_DIGIT_RUN = bytes([_DIGIT]) + b"+"


# A grammar of the scan is (classes, end, leading_zeros): ``classes`` maps
# each byte to its class, ``end`` is the byte that ends a row, and
# ``leading_zeros`` says whether a token of two or more digits may start
# with '0'.
# A code file or edge list: rows are lines, tokens are separated by ' ' and
# '\t', a '#' comment runs to the end of its line.
_LINES = (
    bytes(
        _DIGIT if 0x30 <= b <= 0x39
        else _GAP if b in b" \t"
        else _END if b == 0x0A
        else _CR if b == 0x0D
        else _HASH if b == 0x23
        else _ASCII if b < 0x80
        else _NON_ASCII
        for b in range(256)
    ),
    b"\n",
    True,
)
# The body of a JSON array of integers: one token per row, rows end in ','
# and JSON whitespace may stand around each token.
_JSON_INTS = (
    bytes(
        _DIGIT if 0x30 <= b <= 0x39
        else _GAP if b in b" \t\n\r"
        else _END if b == 0x2C
        else _ASCII if b < 0x80
        else _NON_ASCII
        for b in range(256)
    ),
    b",",
    False,
)
# the least value of a token of k + 1 digits without a leading zero
_LEAST_BY_LENGTH = np.array([0] + [10**k for k in range(1, _SCAN_MAX_DIGITS)], dtype=np.int64)


def _digit_masks(w: int, group: int) -> np.ndarray:
    """By token length k, the mask of the little-endian w-byte word that
    ends digit group ``group`` (the group-th 8 digits from a token's end) to
    the low 4 bits of that group's digits, its last min(max(k - 8 * group,
    0), w) bytes."""
    counts = np.clip(np.arange(_SCAN_MAX_DIGITS + 1) - 8 * group, 0, w).tolist()
    return np.array([int.from_bytes(bytes(w - d) + b"\x0f" * d, "little") for d in counts], dtype=f"<u{w}")


_DIGIT_MASKS = {(w, group): _digit_masks(w, group) for w in (1, 2, 4, 8) for group in range(3)}


def _token_values(buf: bytearray, stops: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """int64 values of the tokens of ``lengths`` ASCII digits that end
    before bytes ``stops`` of ``buf`` (SWAR). Each group of up to 8 digits,
    counted from a token's end, is loaded as one little-endian word of w
    bytes, w the smallest power of two that holds the group in every token,
    and masked to its digits' values. log2(w) steps then fold the word's
    lanes pairwise: two lanes of s digits become one lane of 2s digits, the
    first times 10**s plus the second."""
    longest = int(lengths.max())
    for group in range(-(-longest // 8)):
        w = 1 << (min(longest - 8 * group, 8) - 1).bit_length()
        words = np.ndarray((len(buf) - w + 1,), dtype=f"<u{w}", buffer=buf, strides=(1,))
        x = words.take(stops - 8 * group - w) & _DIGIT_MASKS[w, group].take(lengths)
        s = 1
        while s < w:
            if s > 1:  # keep the first lane of s // 2 bytes of each pair
                x &= int.from_bytes((b"\xff" * (s // 2) + bytes(s // 2)) * (w // s), "little")
            x = (x * (10**s << 8 * s | 1)) >> 8 * s
            s *= 2
        x = x.astype(np.int64)
        values = x if group == 0 else values + x * 10 ** (8 * group)
    return values


def _scan_same_layout(buf: bytearray, lo: int, layout: bytes, rows: int, width: int, minimum: int, leading_zeros: bool):
    """(values, ``rows``) of the ``rows`` rows of ``buf`` from ``lo`` on, each
    of the byte classes ``layout`` (digits, gaps, then a row end), or None
    where they are not ``width`` tokens of at most 18 digits, each >=
    ``minimum``, none of two or more digits led by '0' unless
    ``leading_zeros``: ``_scan_block`` then leaves the block to its
    per-token analysis, so every rejection and every blank row is decided
    there. The layout's digit runs are the tokens, so a token is
    a range of columns of the (rows, len(layout)) byte matrix: Horner's rule
    goes over its columns in int64 on the ASCII codes (at most 57 *
    (10**18 - 1) / 9 < 2**63), and 48 times the repunit of its length is
    taken off."""
    runs = [match.span() for match in re.finditer(_DIGIT_RUN, layout)]
    if len(runs) != width or any(stop - start > _SCAN_MAX_DIGITS for start, stop in runs):
        return None
    mat = np.frombuffer(buf, dtype=np.uint8, count=rows * len(layout), offset=lo).reshape(rows, len(layout))
    values = np.empty((rows, width), dtype=np.int64)
    for token, (start, stop) in zip(values.T, runs):
        if not leading_zeros and stop - start > 1 and (mat[:, start] == ord("0")).any():
            return None
        token[:] = mat[:, start]
        for column in mat.T[start + 1 : stop]:
            token *= 10
            token += column
        token -= ord("0") * (10 ** (stop - start) // 9)
    if minimum > 0 and values.min() < minimum:
        return None
    return values.reshape(-1), rows


def _scan_block(buf: bytearray, lo: int, hi: int, width: int, minimum: int, grammar: tuple):
    """(values, row count) of the whole rows ``buf[lo:hi]``, or None where
    they leave ``grammar``: runs of at most 18 ASCII digits separated by gap
    bytes, ``width`` of them on each row that has any, each >= ``minimum``.
    In a code file (``_LINES``) rows end in '\n' or '\r\n', gaps are ' ' and
    '\t', and a '#' comment, ASCII only, runs to the end of its line. In a
    JSON array body (``_JSON_INTS``) rows end in ',', gaps are JSON
    whitespace, and no token has a leading zero.

    A block of digits, gaps and row ends only, ending in a row end, whose
    rows all have the byte classes of its last row (its classes repeat with
    that row's length: one shifted compare), is read from its byte matrix
    (``_scan_same_layout``): the zero-padded code of every release line, or
    ' ddd,' of a JSON array of equal-width integers. Each other block, and
    each such block that the matrix read does not settle, takes the
    per-token analysis below: mixed-width rows (unpadded releases of
    earlier versions), comments, '\r\n' ends, blank rows, a JSON array's
    first element (no separator before it) and its last block (no ','
    after it). At width 1, a block in which every token's last digit is
    followed by a row end (or the block's end) is settled there by one
    count of such digits: each row then holds one token. Any other block,
    and every block of wider rows, locates its row ends token by token."""
    classes, row_end, leading_zeros = grammar
    # the class of each byte, between two sentinels that end no run
    padded = np.frombuffer(bytearray(b"\xff") + buf[lo:hi].translate(classes) + b"\xff", dtype=np.uint8)
    cls = padded[1:-1]
    top = cls.max()
    if top == _NON_ASCII:
        return None
    if top <= _END and cls[-1] == _END:
        # s, the length of the last row; the block is one row when no other
        # row end precedes it
        s = hi - 1 - max(buf.rfind(row_end, lo, hi - 1), lo - 1)
        if cls.size % s == 0 and (cls[s:] == cls[:-s]).all():
            settled = _scan_same_layout(buf, lo, cls[:s].tobytes(), cls.size // s, width, minimum, leading_zeros)
            if settled is not None:
                return settled
    if top > _END:
        cr = np.flatnonzero(cls == _CR)
        if cr.size and (cr[-1] + 1 == cls.size or (cls[cr + 1] != _END).any()):
            return None
        cls[cr] = _GAP
        hashes = np.flatnonzero(cls == _HASH)
        if hashes.size:
            newlines = np.flatnonzero(cls == _END)
            ends = np.append(newlines, cls.size)[np.searchsorted(newlines, hashes)]
            depth = np.bincount(hashes, minlength=cls.size + 1) - np.bincount(ends, minlength=cls.size + 1)
            cls[np.cumsum(depth[:-1]) > 0] = _GAP
        if cls.max() > _END:
            return None
    row_count = np.count_nonzero(cls == _END)
    # token i is cls[starts[i]:stops[i]], a run of digits; the sentinels are
    # no digits, so the edges of the runs alternate between start and stop
    digits = padded == _DIGIT
    edges = np.flatnonzero(digits[1:] != digits[:-1])
    starts, stops = edges[0::2], edges[1::2]
    if starts.size % width:
        return None
    if starts.size == 0:
        return np.zeros(0, dtype=np.int64), row_count
    # at width 1, each row holds one token when each token's last digit is
    # followed by an _END byte or the closing sentinel: one count settles it
    if width > 1 or np.count_nonzero(digits[1:-1] & (padded[2:] >= _END)) != starts.size:
        # whether a row ends between token i and token i + 1, that is
        # whether the gap, all _GAP and _END bytes, holds an _END: known
        # when one of its outer bytes is one, or when it is a single byte;
        # else counted
        gap_ends = (padded.take(stops[:-1] + 1) == _END) | (padded.take(starts[1:]) == _END)
        unknown = np.flatnonzero(~gap_ends & (starts[1:] - stops[:-1] > 1))
        if unknown.size:
            row_ends = np.flatnonzero(cls == _END)
            gap_ends[unknown] = np.searchsorted(row_ends, starts[unknown + 1]) > np.searchsorted(row_ends, stops[unknown])
        # the last token ends its row; each row holds ``width`` tokens
        gap_ends = np.append(gap_ends, True).reshape(-1, width)
        if gap_ends[:, :-1].any() or not gap_ends[:, -1].all():
            return None
        del gap_ends, unknown  # before the values' temporaries
    del digits
    lengths = stops - starts
    if lengths.max() > _SCAN_MAX_DIGITS:
        return None
    values = _token_values(buf, stops + lo, lengths)
    if minimum > 0 and values.min() < minimum:
        return None
    if not leading_zeros and (values < _LEAST_BY_LENGTH.take(lengths - 1)).any():
        return None
    return values, row_count


def _bad_line(path, buf: bytearray, lo: int, hi: int, lineno: int, width: int, minimum: int):
    """Raise the ValidationError that names the first line of ``buf[lo:hi]``
    that ``_scan_block`` rejects: whole lines of a code file or edge list,
    the first of them line ``lineno`` + 1, that leave ``_LINES``. The
    grammar holds line by line, so the range is halved at a '\n' near its
    middle and the first half scanned: the search goes on in that half if it
    is rejected, else in the second one, until one line is left."""
    first = lo
    # cut after the last '\n' before the middle, else after the first one
    # past it; 0 (no cut) once the range is one line
    while mid := buf.rfind(b"\n", lo, (lo + hi) // 2) + 1 or buf.find(b"\n", (lo + hi) // 2, hi - 1) + 1:
        if _scan_block(buf, lo, mid, width, minimum, _LINES) is None:
            hi = mid
        else:
            lo = mid
    line = bytes(buf[lo:hi])
    try:
        text = (line[:-1].removesuffix(b"\r") if line.endswith(b"\n") else line).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    number = lineno + 1 + buf.count(b"\n", first, lo)
    raise ValidationError(
        f"{path}:{number}: expected {width} integer(s) in [{minimum}, 10**{_SCAN_MAX_DIGITS}) per line, got {text!r}"
    )


def _scan_stream(fh, size: int, head: bytes, width: int, minimum: int, grammar: tuple, path):
    """(values, row count) of the bytes ``head`` and then the rest of the
    binary stream ``fh``, ``size`` bytes in all, read in blocks of whole
    rows through one reused buffer. numpy scans each block's bytes
    (``_scan_block``). A block that leaves ``grammar`` ends the scan: the
    result is None, or, for the code file or edge list at ``path``, the
    error that names its first bad line (``_bad_line``). The values go into
    one int64 array, grown geometrically (a fresh uninitialized array that
    takes the values so far, so no slot is zero-filled) and trimmed at the
    end."""
    row_end = grammar[1]
    buf = bytearray(_SCAN_PAD + _SCAN_BLOCK_BYTES)
    out = np.empty(0, dtype=np.int64)
    count = rows = 0
    consumed = held = len(head)
    buf[_SCAN_PAD : _SCAN_PAD + held] = head
    while True:
        if held == len(buf) - _SCAN_PAD:  # one row fills the buffer
            buf += bytes(held)
        with memoryview(buf) as view:
            got = fh.readinto(view[_SCAN_PAD + held :])
        consumed += got
        end = _SCAN_PAD + held + got
        cut = buf.rfind(row_end, _SCAN_PAD, end) + 1 if got else end
        if cut <= _SCAN_PAD:
            if not got:
                break
            held += got
            continue
        scanned = _scan_block(buf, _SCAN_PAD, cut, width, minimum, grammar)
        if scanned is None:
            if path is not None:
                _bad_line(path, buf, _SCAN_PAD, cut, rows, width, minimum)
            return None
        values, block_rows = scanned
        rows += block_rows
        if count + values.size > out.size:
            # room for the values that the bytes read so far predict for
            # the stream, and a block more; at least an eighth more values
            predicted = (count + values.size) * size // consumed + values.size
            grown = np.empty(max(predicted, out.size + out.size // 8, count + values.size), dtype=np.int64)
            grown[:count] = out[:count]
            out = grown
        out[count : count + values.size] = values
        count += values.size
        held = end - cut
        buf[_SCAN_PAD : _SCAN_PAD + held] = buf[cut:end]
        if not got:
            break
    out.resize(count, refcheck=False)
    return out, rows


def _read_int_rows(path, width: int, minimum: int) -> np.ndarray:
    """(m, width) int64 rows of a file of ``width`` integers >= ``minimum``
    per line that has any: runs of at most 18 ASCII digits separated by ' '
    and '\t', lines ending in '\n' or '\r\n', ASCII '#' comments.

    numpy scans the file block by block (``_scan_stream``); a block that
    leaves that grammar raises the ValidationError naming its first bad
    line."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(_BOM))
        values, _ = _scan_stream(fh, size, b"" if head == _BOM else head, width, minimum, _LINES, path)
    return values.reshape(-1, width)


# a member array of fewer bytes than this is left to json, which parses it
# faster than the scan's fixed cost per array
_LIFT_MIN_BYTES = 1 << 13
# whitespace, ':' and whitespace, then '[': after a member's name, the start
# of an array as its value (compiled on first use, through re's cache)
_ARRAY_VALUE = rb"[ \t\n\r]*:[ \t\n\r]*\["


def _member_array_spans(data: bytes, members) -> list[tuple[int, int]]:
    """(start, stop) of each '[' up to the next ']' in the JSON text
    ``data`` that opens the value of an object member named in ``members``
    (bytes) and spans at least _LIFT_MIN_BYTES; what lies between is not
    checked. Strings are told apart by quote parity, so ``data`` must hold
    no backslash."""
    spans = []
    close = -1
    while (opening := data.find(b'"', close + 1)) >= 0 and (close := data.find(b'"', opening + 1)) >= 0:
        if data[opening + 1 : close] in members and (value := re.compile(_ARRAY_VALUE).match(data, close + 1)):
            start = value.end() - 1
            stop = data.find(b"]", start) + 1
            if stop - start >= _LIFT_MIN_BYTES:
                spans.append((start, stop))
    return spans


def _scan_json_ints(body: bytes):
    """int64 values of the JSON array body ``body`` (the text between its
    brackets), or None unless it is one or more JSON integers of at most 18
    digits, without sign, fraction or exponent, one ',' between each two."""
    scanned = _scan_stream(io.BytesIO(body), len(body), b"", 1, 0, _JSON_INTS, None)
    if scanned is None:
        return None
    values, commas = scanned
    return values if values.size == commas + 1 else None


def _read_json_int_arrays(path, members):
    """``_read_json(path)``, except that a long array of non-negative
    integers that is the value of an object member named in ``members`` is
    read by the byte scan, straight into an int64 array.

    Such an array is lifted out of the text only when the file holds no
    backslash and the array's body is in the ``_JSON_INTS`` grammar (see
    ``_scan_json_ints``). json then parses the rest of the text, in which
    each lifted array stands as the constant ``NaN``; ``parse_constant``
    hands json the arrays in document order. A text in which json would
    meet another ``NaN`` or ``Infinity``, and any text json rejects, is
    parsed again by ``_read_json``, so every result and error message is
    json's own."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(_BOM):
        data = data[len(_BOM) :]
    arrays, pieces, start = [], [], 0
    if b"\\" not in data:
        for lo, hi in _member_array_spans(data, {name.encode() for name in members}):
            values = _scan_json_ints(data[lo + 1 : hi - 1])
            if values is not None:
                arrays.append(values)
                pieces.append(data[start:lo])
                start = hi
    pieces.append(data[start:])
    if not any(b"NaN" in piece or b"Infinity" in piece for piece in pieces):
        lifted = iter(arrays)
        try:
            return json.loads(b"NaN".join(pieces).decode("utf-8"), parse_constant=lambda _: next(lifted))
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
    return _read_json(path)


def _table_codes(universe: "DataUniverse", tables: int = 1) -> int:
    """2**l, the length of a dense table over ``universe``; ValidationError
    when ``tables`` such tables hold more than MAX_TABLE_CODES values, so no
    array of that size is ever made."""
    card = universe.cardinality
    if card > MAX_TABLE_CODES:
        raise ValidationError(
            f"a table over l={universe.l} attributes needs {card} codes, above the cap of "
            f"{MAX_TABLE_CODES} (l <= {MAX_TABLE_CODES.bit_length() - 1})"
        )
    if tables * card > MAX_TABLE_CODES:
        raise ValidationError(f"{tables} tables over l={universe.l} attributes need {tables * card} values, "
                              f"above the cap of {MAX_TABLE_CODES}")
    return card


def _check_codes(arr: np.ndarray, universe: "DataUniverse") -> None:
    """ValidationError unless ``arr``, of any shape, holds integer codes of
    ``universe``: an integer dtype (bool and float rows are refused), every
    entry in [0, 2**l). The codes all lie in that range exactly when their
    bitwise OR does (a negative code sets the sign bit), so the range check
    is one pass; the min and max are taken only to word the error."""
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"row codes must be integers, got dtype {arr.dtype}")
    if np.bitwise_or.reduce(arr, axis=None) >> universe.l:
        raise ValidationError(
            f"row codes must lie in [0, {universe.cardinality}), "
            f"found range [{int(arr.min())}, {int(arr.max())}]"
        )


def _check_universe(a: "DataUniverse", b: "DataUniverse", what: str) -> None:
    """DimensionMismatchError, naming both l, unless ``a`` and ``b`` are the
    same universe; ``what`` names the two operands."""
    if a != b:
        raise DimensionMismatchError(f"{what} live in different universes (l={a.l} vs l={b.l})")


def _count_codes(rows: np.ndarray, size: int, offsets: np.ndarray | None = None) -> np.ndarray:
    """int64 counts (size,) of the 1-d integer codes ``rows``, each plus its
    entry of ``offsets`` when given; every such sum must lie in [0, size).
    The package's one unweighted count of codes or table indices.

    ``np.bincount`` copies read-only input, and a Database's rows are
    read-only, so the rows are counted in blocks and the blocks' counts
    added up: the copy is one block, never the whole array. A block holds
    max(_COUNT_BLOCK, size) rows, so its counts never outgrow it; rows that
    fit in one block are one ``bincount``."""
    step = max(_COUNT_BLOCK, size)
    counts = None
    # one block at least, so no rows give zero counts
    for start in range(0, rows.size or 1, step):
        block = rows[start : start + step]
        if not np.can_cast(block.dtype, np.intp):
            # uint64: bincount takes no such codes, and adding int64 offsets
            # would promote them to float64; every code is below 2**30
            block = block.astype(np.intp)
        if offsets is not None:
            block = block + offsets[start : start + step]
        block_counts = np.bincount(block, minlength=size)
        # the first block's counts start the sum: no zeros are made to add to
        counts = block_counts if counts is None else np.add(counts, block_counts, out=counts)
    return counts


@dataclass(frozen=True)
class DataUniverse:
    """The row domain {0,1}^l, encoded as the integers 0 .. 2**l - 1."""

    l: int

    def __post_init__(self):
        # the common case, a plain int in range, needs no further check; a
        # bool is not an int here and takes the full checks below
        if type(self.l) is int and 1 <= self.l <= MAX_ATTRIBUTES:
            return
        object.__setattr__(self, "l", _check_int(self.l, "universe dimension", 1))
        if self.l > MAX_ATTRIBUTES:
            raise ValidationError(f"universe dimension must be in [1, {MAX_ATTRIBUTES}], got {self.l}")

    @property
    def cardinality(self) -> int:
        return 1 << self.l


class Database:
    """A length-n vector of universe-encoded rows.

    Rows are stored as a read-only integer array; the constructor copies
    them and validates every code against the universe cardinality.

    A Database also keeps its per-code counts (``code_counts``), counted on
    first use and read-only. They cannot go stale: the rows are read-only
    and range-checked at construction, and the Database is immutable. So
    every one-table query answered from one Database reads one count.
    """

    __slots__ = ("universe", "rows", "_code_counts")

    def __init__(self, universe: DataUniverse, rows):
        self._own(universe, np.array(rows))

    @classmethod
    def _adopt(cls, universe: DataUniverse, arr: np.ndarray) -> "Database":
        """A Database over ``arr`` itself, validated and made read-only but
        not copied. Only for an array the package has just built and keeps
        no other reference to."""
        db = cls.__new__(cls)
        db._own(universe, arr)
        return db

    def _own(self, universe: DataUniverse, arr: np.ndarray) -> None:
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("a database is a nonempty 1-d sequence of row codes")
        _check_codes(arr, universe)
        arr.setflags(write=False)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "_code_counts", None)

    def __setattr__(self, name, value):
        raise AttributeError("Database is immutable")

    @property
    def n(self) -> int:
        return int(self.rows.size)

    @property
    def code_counts(self) -> np.ndarray:
        """Read-only int64 array (2**l,): the number of rows holding each
        code. Counted on the first call and kept; two threads that race on
        it count the same values."""
        if self._code_counts is None:
            counts = _count_codes(self.rows, _table_codes(self.universe))
            counts.setflags(write=False)
            object.__setattr__(self, "_code_counts", counts)
        return self._code_counts

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return (
            self.universe == other.universe
            and self.n == other.n
            and bool(np.array_equal(self.rows, other.rows))
        )

    def __repr__(self) -> str:
        head = np.array2string(self.rows[:8], separator=",")
        tail = ", ..." if self.n > 8 else ""
        return f"Database(l={self.universe.l}, n={self.n}, rows={head}{tail})"


@dataclass(frozen=True)
class RandomSource:
    """Reproducible randomness handle.

    The same ``(seed, stream)``, two integers >= 0, always produces the
    same draw sequence; distinct streams are statistically independent.
    Every index of the derivation path is an integer >= 0 as well.
    :meth:`derive` appends indices to an internal derivation path so that
    nested consumers (runs within a sweep, trials within a run) get
    independent sub-streams without coordinating offsets.
    """

    seed: int
    stream: int = 0
    path: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _check_int(self.seed, "seed", 0)
        _check_int(self.stream, "stream", 0)
        for index in self.path:
            _check_int(index, "random stream index", 0)

    def generator(self) -> np.random.Generator:
        key = (self.stream,) + tuple(self.path)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))

    def derive(self, *indices: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream, tuple(self.path) + tuple(indices))


def _check_compatible(x: Database, y: Database) -> None:
    _check_universe(x.universe, y.universe, "databases")
    if x.n != y.n:
        raise DimensionMismatchError(f"databases have different sizes ({x.n} vs {y.n})")


def hamming_distance(x: Database, y: Database) -> int:
    """Number of rows on which x and y differ (rows compared as whole codes)."""
    _check_compatible(x, y)
    return int(np.count_nonzero(x.rows != y.rows))


def is_neighbor(x: Database, y: Database) -> bool:
    """True when x and y differ on exactly one row."""
    return hamming_distance(x, y) == 1


def enumeration_size(universe: DataUniverse, n: int, bit_cap: int = EXACT_BIT_CAP) -> int:
    """Validate n*l against the cap and return 2**(n*l)."""
    bits = _check_int(n, "database size", 1) * universe.l
    if bits > bit_cap:
        raise EnumerationTooLargeError(
            f"enumerating 2^{bits} databases exceeds the 2^{bit_cap} cap"
        )
    return 1 << bits


def all_databases_matrix(universe: DataUniverse, n: int, bit_cap: int = EXACT_BIT_CAP) -> np.ndarray:
    """Matrix of shape (2**(n*l), n) whose k-th row decodes database code k.

    Database code k packs row i into bits [l*i, l*(i+1)). The matrix is the
    workhorse of every exact-enumeration oracle in the package.
    """
    codes = np.arange(enumeration_size(universe, n, bit_cap), dtype=np.int64)
    shifts = universe.l * np.arange(n, dtype=np.int64)
    return (codes[:, None] >> shifts) & (universe.cardinality - 1)


def enumerate_databases(universe: DataUniverse, n: int) -> Iterator[Database]:
    """Yield every database in (D^n), each exactly once, in code order."""
    for row in all_databases_matrix(universe, n):
        yield Database(universe, row)
