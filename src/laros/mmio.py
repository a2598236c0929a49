"""Matrix file I/O: reads MatrixMarket array and coordinate files and
headerless CSV, each told apart by its first line, and writes MatrixMarket
array files with full double precision, so a round trip is byte-identical.
Also the JSON file format of a dual certificate (`write_certificate`,
`read_certificate`), whose fields are those of `DualCertificate`."""

import json
import math
import re
from dataclasses import MISSING, fields

import numpy as np

from .linalg import as_matrix
from .solver import DualCertificate

_MM_ARRAY_HEADER = "%%MatrixMarket matrix array real general"
# the line boundaries of str.splitlines
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


class MatrixParseError(ValueError):
    """Malformed matrix file; carries the offending path and line number."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message


def _float(token, path, line):
    try:
        value = float(token)
    except ValueError:
        raise MatrixParseError(path, line, f"non-numeric token {token!r}") from None
    if not np.isfinite(value):
        raise MatrixParseError(path, line, f"non-finite value {token!r}")
    return value


def _int(token, path, line):
    try:
        return int(token)
    except ValueError:
        raise MatrixParseError(path, line, f"expected integer, got {token!r}") from None


def _data_lines(lines, start=0):
    """(line number, stripped text) of the non-blank, non-comment lines
    from lines[start] on."""
    for index in range(start, len(lines)):
        text = lines[index].strip()
        if text and not text.startswith("%"):
            yield index + 1, text


def _text_lines(text):
    """(line number, line, offset just past its line break) of each line of
    `text` as `text.splitlines()` numbers them, split one at a time: a
    caller that stops early leaves the rest of the text unsplit."""
    start = no = 0
    for no, brk in enumerate(_LINE_BREAK.finditer(text), 1):
        yield no, text[start:brk.start()], brk.end()
        start = brk.end()
    if start < len(text):
        yield no + 1, text[start:], len(text)


def _undecodable(path):
    """Line (as `str.splitlines` numbers it) and error message of the first
    byte of file `path` that is not UTF-8."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
        line = len(_LINE_BREAK.findall(data[:start].decode("utf-8"))) + 1
        return line, f"not UTF-8 text: byte {data[start]:#04x} ({exc.reason})"
    raise AssertionError(f"{path} decodes as UTF-8 when read again")


def _floats(tokens, count):
    """float64 array of `tokens` converted by Python's `float`, or None if
    there are not `count` of them or one is not a finite number."""
    if len(tokens) != count:
        return None
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=count)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def parse_matrix(path):
    """Read a dense matrix from `path`.

    The first line picks the format: a MatrixMarket header names array or
    coordinate data, and a file without one is read as CSV. MatrixMarket
    array data is column-major per the format definition; coordinate files
    use 1-based indices and densify missing entries to zero.

    Array values are converted as one token list; only a file that fails a
    check is walked line by line, to name the offending line. The array
    body is tokenized straight from the file's text, which is split into
    lines only for a body with comments or for the error walk. CSV is
    converted row by row, so its one walk names the line of a fault.
    """
    try:
        # utf-8-sig: a leading byte-order mark, as spreadsheet exports
        # write it, is not part of the first line
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise MatrixParseError(path, *_undecodable(path)) from None
    if not text:
        raise MatrixParseError(path, 1, "empty file")

    first = next(_text_lines(text))[1].strip()
    if not first.startswith("%%MatrixMarket"):
        return _parse_csv(text.splitlines(), path)
    if _mm_layout(first, path) == "array":
        return _parse_mm_array(text, path)
    return _parse_mm_coordinate(text, path)


def _mm_layout(line, path):
    """'array' or 'coordinate', from a MatrixMarket header line."""
    tokens = line.split()
    if len(tokens) < 5 or tokens[1] != "matrix" or tokens[3] != "real" \
            or tokens[4] != "general" or tokens[2] not in ("array", "coordinate"):
        raise MatrixParseError(path, 1, f"unsupported MatrixMarket header {line!r}")
    return tokens[2]


def _size_line(text, path, fields):
    """Line number and integer fields of the size line after the header,
    and the offset in `text` just past its line break."""
    no = 1
    lines = _text_lines(text)
    next(lines)  # the header
    for no, line, end in lines:
        size_line = line.strip()
        if size_line and not size_line.startswith("%"):
            break
    else:
        raise MatrixParseError(path, no, "missing size line")
    tokens = size_line.split()
    if len(tokens) != len(fields):
        raise MatrixParseError(path, no, "size line must be "
                               f"'{' '.join(fields)}', got {size_line!r}")
    return no, [_int(t, path, no) for t in tokens], end


def _parse_mm_array(text, path):
    no, (m, n), end = _size_line(text, path, ("rows", "cols"))
    if m < 1 or n < 1:
        raise MatrixParseError(path, no, f"dimensions must be positive, got {m} {n}")
    if text.find("%", end) < 0:
        # text[end - 1] ends a line, so the body's tokens are those of the
        # whole text after the ones before it
        tokens = text.split()
        del tokens[:len(text[:end].split())]
    else:  # comment lines inside the data
        tokens = " ".join(line for _, line in
                          _data_lines(text[end:].splitlines())).split()
    values = _floats(tokens, m * n)
    if values is None:
        _raise_array_error(text.splitlines(), no, path, m * n)
    return values.reshape((n, m)).T  # file order is column-major


def _raise_array_error(lines, start, path, count):
    """Raise the error of the first bad token, or of the entry count."""
    found = 0
    for no, text in _data_lines(lines, start):
        for token in text.split():
            if found == count:
                raise MatrixParseError(path, no, "more entries than rows*cols")
            _float(token, path, no)
            found += 1
    raise MatrixParseError(path, len(lines),
                           f"expected {count} entries, found {found}")


def _parse_mm_coordinate(text, path):
    no, (m, n, nnz), _ = _size_line(text, path, ("rows", "cols", "nnz"))
    lines = text.splitlines()
    if m < 1 or n < 1 or nnz < 0:
        raise MatrixParseError(path, no, f"bad size line {lines[no - 1].strip()!r}")
    out = np.zeros((m, n))
    seen = set()
    count = 0
    for no, text in _data_lines(lines, no):
        tokens = text.split()
        if len(tokens) != 3:
            raise MatrixParseError(path, no, f"entry must be 'i j value', got {text!r}")
        i = _int(tokens[0], path, no)
        j = _int(tokens[1], path, no)
        if not (1 <= i <= m and 1 <= j <= n):
            raise MatrixParseError(path, no, f"index ({i}, {j}) out of range")
        if (i, j) in seen:
            raise MatrixParseError(path, no, f"duplicate entry ({i}, {j})")
        seen.add((i, j))
        out[i - 1, j - 1] = _float(tokens[2], path, no)
        count += 1
    if count != nnz:
        raise MatrixParseError(path, len(lines),
                               f"expected {nnz} entries, found {count}")
    return out


def _parse_csv(lines, path):
    """Rows of CSV `lines`; a ragged row or bad field raises at its line."""
    rows, width = [], None
    for no, text in _data_lines(lines):
        # str.strip, not float's own trimming: float rejects "\x1f"
        fields = list(map(str.strip, text.split(",")))
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise MatrixParseError(path, no,
                                   f"row has {len(fields)} fields, expected {width}")
        row = _floats(fields, width)
        if row is None:
            for field in fields:
                _float(field, path, no)
        rows.append(row)
    if width is None:
        raise MatrixParseError(path, len(lines) + 1, "no data rows")
    return np.stack(rows)


def write_matrix(path, a):
    """Write `a` to `path` as a MatrixMarket array file (full double
    precision)."""
    am = as_matrix(a)
    m, n = am.shape
    chunks = [_MM_ARRAY_HEADER, f"{m} {n}"]
    chunks.extend(map(repr, am.T.ravel().tolist()))  # column-major
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(chunks))
        handle.write("\n")


# json.dump's sort_keys order: the scalars, then "y" and "z"
_CERT_KEYS = sorted(fields(DualCertificate), key=lambda f: f.name)


def write_certificate(path, cert):
    """Write a `DualCertificate` as JSON.

    The bytes are those of ``json.dump(record, indent=2, sort_keys=True)``
    plus a newline, with record the certificate's fields, the matrices `y`
    and `z` as nested row lists; they are written one row at a time.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{")
        sep = "\n"
        for f in _CERT_KEYS:
            value = getattr(cert, f.name)
            handle.write(f'{sep}  "{f.name}": ')
            sep = ",\n"
            if f.type is not np.ndarray:
                handle.write(json.dumps(value))
                continue
            handle.write("[\n")
            for i, row in enumerate(value):
                items = json.dumps(row.tolist(),
                                   separators=(",\n      ", ": "))
                handle.write(f"    [\n      {items[1:-1]}\n    ]")
                handle.write(",\n" if i + 1 < len(value) else "\n")
            handle.write("  ]")
        handle.write("\n}\n")


def read_certificate(path, shape):
    """Read a `write_certificate` file as a `DualCertificate`.

    Raises ValueError naming the file and the field when the file is not a
    JSON object, a field is missing, not numeric (a JSON boolean in a
    scalar field is not) or not finite, `linf_argmax_count` is not a
    nonnegative integer, or `y` or `z` is not a matrix of `shape` (the
    shape of A). A field with a default in `DualCertificate`
    (`spectral_gap`, `linf_argmax_count`) may be missing.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            raw = json.load(handle)
        except UnicodeDecodeError:
            line, message = _undecodable(path)
            raise ValueError(f"{path}: certificate is {message} on line "
                             f"{line}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: certificate is not JSON: "
                             f"{exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: certificate must be a JSON object")

    values = {}
    for f in fields(DualCertificate):
        key = f.name
        if key not in raw:
            if f.default is MISSING:
                raise ValueError(f"{path}: certificate field {key!r} is "
                                 "missing")
            continue  # DualCertificate's default
        is_matrix = f.type is np.ndarray
        try:
            if is_matrix:
                value = np.array(raw[key], dtype=float)
                finite = np.isfinite(value).all()
            elif isinstance(raw[key], bool):
                raise TypeError  # float() and int() read JSON true as 1
            else:
                value = f.type(raw[key])
                finite = math.isfinite(value)
        except (TypeError, ValueError, OverflowError):
            what = "a numeric matrix" if is_matrix else "a number"
            raise ValueError(f"{path}: certificate field {key!r} is not "
                             f"{what}") from None
        if is_matrix and value.shape != tuple(shape):
            raise ValueError(f"{path}: certificate field {key!r} has shape "
                             f"{value.shape}, expected {tuple(shape)}")
        if not finite:
            raise ValueError(f"{path}: certificate field {key!r} is not "
                             "finite")
        if f.type is int and (value != raw[key] or value < 0):
            # a count; int() alone would read -2.5 as -2
            raise ValueError(f"{path}: certificate field {key!r} is not a "
                             "nonnegative integer")
        values[key] = value
    return DualCertificate(**values)
