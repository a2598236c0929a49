"""Tests for matrix file parsing and writing."""

import json

import numpy as np
import pytest

from laros.mmio import (MatrixParseError, parse_matrix, read_certificate,
                        write_certificate, write_matrix)
from laros.solver import DualCertificate


class TestParseArray:
    def test_column_major_order(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "2 2\n1\n2\n3\n4\n")
        np.testing.assert_array_equal(parse_matrix(path),
                                      [[1.0, 3.0], [2.0, 4.0]])

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "% a comment\n1 2\n5\n6\n")
        np.testing.assert_array_equal(parse_matrix(path), [[5.0, 6.0]])

    def test_too_few_entries(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n")
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_non_numeric_token_cites_line(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "2 1\n1\nfoo\n")
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(path)
        assert err.value.line == 4


class TestParseCoordinate:
    def test_densified(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 5\n")
        np.testing.assert_array_equal(parse_matrix(path),
                                      [[5.0, 0.0], [0.0, 0.0]])

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 5\n")
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(path)
        assert err.value.line == 3

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 5\n1 1 6\n")
        with pytest.raises(MatrixParseError):
            parse_matrix(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 5\n")
        with pytest.raises(MatrixParseError):
            parse_matrix(path)


class TestParseCsv:
    def test_demo_first_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.8,0.9,1.1,0.1,0.2,0.2\n")
        np.testing.assert_array_equal(
            parse_matrix(path), [[0.8, 0.9, 1.1, 0.1, 0.2, 0.2]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(path)
        assert err.value.line == 2

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,x\n")
        with pytest.raises(MatrixParseError):
            parse_matrix(path)


class TestRejections:
    """Each remaining rejection names its line and says what is wrong."""

    @pytest.mark.parametrize("name, text, line, message", [
        ("a.mtx", "", 1, "empty file"),
        ("a.mtx", "%%MatrixMarket matrix array complex general\n1 1\n1\n", 1,
         "unsupported MatrixMarket header "
         "'%%MatrixMarket matrix array complex general'"),
        ("c.mtx", "%%MatrixMarket matrix coordinate real general\n"
                  "% size next\n2 0 1\n1 1 5\n", 3, "bad size line '2 0 1'"),
        ("c.mtx", "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 -1\n", 2, "bad size line '2 2 -1'"),
        ("c.mtx", "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 2\n1 1 5\n\n2 2\n", 5,
         "entry must be 'i j value', got '2 2'"),
        ("m.csv", "% only a comment\n\n", 3, "no data rows")],
        ids=["empty", "mm-header", "coordinate-size", "coordinate-nnz",
             "coordinate-entry", "csv-no-rows"])
    def test_rejected(self, tmp_path, name, text, line, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(path)
        assert (err.value.path, err.value.line) == (str(path), line)
        assert err.value.message == message


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
    write it, is not part of the file's first line."""

    @pytest.mark.parametrize("name, text, want", [
        ("m.csv", b"1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("a.mtx", b"%%MatrixMarket matrix array real general\n2 2\n"
                  b"1\n2\n3\n4\n", [[1.0, 3.0], [2.0, 4.0]]),
        ("c.mtx", b"%%MatrixMarket matrix coordinate real general\n"
                  b"2 2 2\n1 1 1.5\n2 2 2.5\n", [[1.5, 0.0], [0.0, 2.5]])],
        ids=["csv", "array", "coordinate"])
    def test_matrix_read_as_without(self, tmp_path, name, text, want):
        path = tmp_path / name
        path.write_bytes(BOM + text)
        np.testing.assert_array_equal(parse_matrix(path), want)

    def test_certificate_read_as_without(self, tmp_path):
        path = tmp_path / "cert.json"
        cert = _certificate(np.random.default_rng(0), (3, 4))
        write_certificate(path, cert)
        path.write_bytes(BOM + path.read_bytes())
        assert _record(read_certificate(path, (3, 4))) == _record(cert)

    def test_not_utf8_keeps_its_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(BOM + b"1,2\n\xff3,4\n")
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(path)
        assert err.value.line == 2
        assert err.value.message == ("not UTF-8 text: byte 0xff (invalid "
                                     "start byte)")
        cert = tmp_path / "cert.json"
        cert.write_bytes(BOM + b'{\n  "dual_norm": "\xe9"\n}\n')
        with pytest.raises(ValueError) as err:
            read_certificate(cert, (2, 2))
        assert str(err.value) == (
            f"{cert}: certificate is not UTF-8 text: byte 0xe9 (invalid "
            "continuation byte) on line 2")


class TestRoundTrip:
    def test_array_bit_identical(self, tmp_path):
        p1, p2 = tmp_path / "m1.mtx", tmp_path / "m2.mtx"
        for case in range(200):
            rng = np.random.default_rng(case)
            a = (rng.random((int(rng.integers(1, 6)),
                             int(rng.integers(1, 6))))
                 - 0.5) * 10 ** int(rng.integers(-8, 8))
            write_matrix(p1, a)
            b = parse_matrix(p1)
            assert (b == a).all()  # exact, not approximate
            write_matrix(p2, b)
            assert p1.read_bytes() == p2.read_bytes()

    def test_coordinate_round_trip(self, tmp_path):
        a = np.zeros((3, 4))
        a[0, 1] = 2.5
        a[2, 3] = -1.25
        ii, jj = np.nonzero(a)
        path = tmp_path / "c.mtx"
        path.write_text("\n".join(
            ["%%MatrixMarket matrix coordinate real general", f"3 4 {ii.size}",
             *(f"{i + 1} {j + 1} {float(a[i, j])!r}" for i, j in zip(ii, jj))]))
        np.testing.assert_array_equal(parse_matrix(path), a)

    def test_csv_round_trip(self, tmp_path):
        a = np.random.default_rng(0).random((4, 3))
        path = tmp_path / "m.csv"
        path.write_text("\n".join(",".join(map(repr, row))
                                  for row in a.tolist()))
        assert (parse_matrix(path) == a).all()


def _array_file(path, tokens, m, n, newline="\n"):
    path.write_text(newline.join(["%%MatrixMarket matrix array real general",
                                  f"{m} {n}", *tokens]) + newline,
                    newline="")


class TestParseValues:
    def test_entries_equal_python_float(self, tmp_path):
        rng = np.random.default_rng(3)
        values = (rng.standard_normal(600)
                  * 10.0 ** rng.integers(-300, 300, 600))
        forms = [repr, lambda v: f"{v:.3e}", lambda v: f"{v:+.17g}",
                 lambda v: f"{v:E}", lambda v: f"  {v!r}\t"]
        tokens = [forms[k % len(forms)](v)
                  for k, v in enumerate(values.tolist())]
        tokens[:6] = ["-0", "0.", ".5", "1_000", "5e-324", "-1e308"]
        expected = np.array([float(t) for t in tokens])
        _array_file(tmp_path / "a.mtx", tokens, 20, 30)
        got = parse_matrix(tmp_path / "a.mtx")
        assert got.shape == (20, 30)
        # bit for bit, so -0.0 and subnormals count
        assert (got.T.ravel().view(np.int64) == expected.view(np.int64)).all()
        (tmp_path / "a.csv").write_text(
            "\n".join(",".join(tokens[30 * i:30 * i + 30]) for i in range(20)))
        got = parse_matrix(tmp_path / "a.csv")
        assert (got.ravel().view(np.int64) == expected.view(np.int64)).all()

    def test_comment_and_blank_lines_mid_body(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n"
                        "% size next\n\n2 2\n1\n% mid-body comment\n2\n"
                        "\n   % indented comment\n3 4\n")
        np.testing.assert_array_equal(parse_matrix(path),
                                      [[1.0, 3.0], [2.0, 4.0]])
        path = tmp_path / "a.csv"
        path.write_text("% header comment\n1,2\n\n% mid-body\n3, 4\n")
        np.testing.assert_array_equal(parse_matrix(path), [[1.0, 2.0],
                                                           [3.0, 4.0]])

    def test_csv_fields_stripped(self, tmp_path):
        # "\x1f" is whitespace to str.strip but not to float
        path = tmp_path / "a.csv"
        path.write_text("1\x1f,\xa02\t\n 3 ,4\x1f\x1f\n")
        np.testing.assert_array_equal(parse_matrix(path), [[1.0, 2.0],
                                                           [3.0, 4.0]])

    def test_crlf_input(self, tmp_path):
        a = np.random.default_rng(1).random((4, 3))
        _array_file(tmp_path / "a.mtx", map(repr, a.T.ravel().tolist()), 4, 3,
                    newline="\r\n")
        assert (parse_matrix(tmp_path / "a.mtx") == a).all()
        (tmp_path / "a.csv").write_bytes(b"".join(
            ",".join(map(repr, row)).encode() + b"\r\n" for row in a.tolist()))
        assert (parse_matrix(tmp_path / "a.csv") == a).all()


class TestErrorLines:
    """Errors deep inside large files name the line of the first fault."""

    M, N = 200, 300

    def _mtx(self, tmp_path, edit):
        tokens = [repr(float(k)) for k in range(self.M * self.N)]
        edit(tokens)
        path = tmp_path / "big.mtx"
        _array_file(path, tokens, self.M, self.N)
        return path

    def _csv(self, tmp_path, rows):
        path = tmp_path / "big.csv"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        return path

    def _raises(self, path, line, message):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix(path)
        assert (err.value.path, err.value.line) == (str(path), line)
        assert err.value.message == message

    @pytest.mark.parametrize("token, kind", [
        ("foo", "non-numeric token"), ("1.5.2", "non-numeric token"),
        ("inf", "non-finite value"), ("-inf", "non-finite value"),
        ("nan", "non-finite value"), ("1e400", "non-finite value")])
    def test_bad_token(self, tmp_path, token, kind):
        def edit(tokens):
            tokens[41234] = token
            tokens[50000] = "bar"  # a later fault is not the one reported
        self._raises(self._mtx(tmp_path, edit), 41234 + 3,
                     f"{kind} {token!r}")
        rows = [[repr(float(j)) for j in range(self.N)] for _ in range(self.M)]
        rows[137][211] = f" {token} "
        rows[150][3] = "bar"
        self._raises(self._csv(tmp_path, rows), 138, f"{kind} {token!r}")

    def test_too_many_entries(self, tmp_path):
        path = self._mtx(tmp_path, lambda tokens: tokens.extend(["7", "x"]))
        self._raises(path, self.M * self.N + 3, "more entries than rows*cols")

    def test_too_few_entries(self, tmp_path):
        path = self._mtx(tmp_path, lambda tokens: tokens.pop())
        count = self.M * self.N
        self._raises(path, count + 1,
                     f"expected {count} entries, found {count - 1}")

    def test_bad_token_before_ragged_row(self, tmp_path):
        rows = [[repr(float(j)) for j in range(self.N)] for _ in range(self.M)]
        rows[120][5] = "x"
        rows[180].pop()
        self._raises(self._csv(tmp_path, rows), 121, "non-numeric token 'x'")
        rows[120][5] = "5"
        self._raises(self._csv(tmp_path, rows), 181,
                     f"row has {self.N - 1} fields, expected {self.N}")
        rows[180].extend(["1", "2"])
        self._raises(self._csv(tmp_path, rows), 181,
                     f"row has {self.N + 1} fields, expected {self.N}")


def _certificate(rng, shape, specials=()):
    y = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    z = rng.random(shape)
    flat = y.reshape(-1)
    flat[:len(specials)] = specials[:flat.size]
    return DualCertificate(y=y, z=z, dual_norm=float(rng.random()),
                           spectral_gap=float(rng.random()),
                           linf_argmax_count=int(rng.integers(0, 9)))


def _record(cert):
    return {"y": cert.y.tolist(), "z": cert.z.tolist(),
            "dual_norm": cert.dual_norm, "spectral_gap": cert.spectral_gap,
            "linf_argmax_count": cert.linf_argmax_count}


class TestCertificateFile:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (5, 8)])
    def test_bytes_equal_json_dump(self, tmp_path, shape):
        path = tmp_path / "cert.json"
        for case in range(20):
            rng = np.random.default_rng(case)
            cert = _certificate(rng, shape, [-0.0, 5e-324, 1e308, -1e308])
            write_certificate(path, cert)
            expected = json.dumps(_record(cert), indent=2, sort_keys=True)
            assert path.read_text() == expected + "\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cert.json"
        cert = _certificate(np.random.default_rng(0), (3, 4),
                            [-0.0, 5e-324, 1e308])
        write_certificate(path, cert)
        back = read_certificate(path, (3, 4))
        assert (back.y.view(np.int64) == cert.y.view(np.int64)).all()
        assert (back.z == cert.z).all()
        assert _record(back) == _record(cert)

    def test_optional_fields_default(self, tmp_path):
        path = tmp_path / "cert.json"
        record = _record(_certificate(np.random.default_rng(0), (2, 2)))
        del record["spectral_gap"], record["linf_argmax_count"]
        path.write_text(json.dumps(record))
        back = read_certificate(path, (2, 2))
        assert (back.spectral_gap, back.linf_argmax_count) == (0.0, 0)

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.pop("dual_norm"),
         "certificate field 'dual_norm' is missing"),
        (lambda r: r.pop("z"), "certificate field 'z' is missing"),
        (lambda r: r.update(spectral_gap="x"),
         "certificate field 'spectral_gap' is not a number"),
        (lambda r: r.update(dual_norm=[1]),
         "certificate field 'dual_norm' is not a number"),
        (lambda r: r.update(y=[[1, 2], [3]]),
         "certificate field 'y' is not a numeric matrix"),
        (lambda r: r.update(z=[[1, "a"], [3, 4]]),
         "certificate field 'z' is not a numeric matrix"),
        (lambda r: r.update(y=[[1, 2, 3], [4, 5, 6]]),
         "certificate field 'y' has shape (2, 3), expected (2, 2)"),
        (lambda r: r.update(z=4.0),
         "certificate field 'z' has shape (), expected (2, 2)"),
        (lambda r: r.update(linf_argmax_count=float("inf")),
         "certificate field 'linf_argmax_count' is not a number"),
        # a JSON boolean is not a number, though float() reads true as 1.0
        pytest.param(lambda r: r.update(dual_norm=True),
                     "certificate field 'dual_norm' is not a number",
                     id="dual_norm-true"),
        pytest.param(lambda r: r.update(spectral_gap=False),
                     "certificate field 'spectral_gap' is not a number",
                     id="spectral_gap-false"),
        pytest.param(lambda r: r.update(linf_argmax_count=True),
                     "certificate field 'linf_argmax_count' is not a "
                     "number", id="linf_argmax_count-true"),
        (lambda r: r.update(dual_norm=float("nan")),
         "certificate field 'dual_norm' is not finite"),
        (lambda r: r.update(spectral_gap=float("-inf")),
         "certificate field 'spectral_gap' is not finite"),
        (lambda r: r["y"][1].__setitem__(0, float("nan")),
         "certificate field 'y' is not finite"),
        (lambda r: r["z"][0].__setitem__(1, float("inf")),
         "certificate field 'z' is not finite"),
        (lambda r: r.update(linf_argmax_count=-2.5),
         "certificate field 'linf_argmax_count' is not a nonnegative "
         "integer"),
        (lambda r: r.update(linf_argmax_count=2.5),
         "certificate field 'linf_argmax_count' is not a nonnegative "
         "integer"),
        (lambda r: r.update(linf_argmax_count=-1),
         "certificate field 'linf_argmax_count' is not a nonnegative "
         "integer")])
    def test_malformed_field_named(self, tmp_path, edit, message):
        path = tmp_path / "cert.json"
        record = _record(_certificate(np.random.default_rng(0), (2, 2)))
        edit(record)
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError) as err:
            read_certificate(path, (2, 2))
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text", ["[1, 2]", "{\"y\": ", ""])
    def test_not_a_json_object(self, tmp_path, text):
        path = tmp_path / "cert.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=str(path)):
            read_certificate(path, (2, 2))


def _walk_mm_array(path):
    """Line-by-line reference parse of a MatrixMarket array file: the
    matrix, or the (line, message) of the first fault. Every line is split
    and every token converted on its own, as the error walk does."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    data = [(i + 1, text.strip()) for i, text in enumerate(lines)
            if text.strip() and not text.strip().startswith("%")]
    data = [(no, text) for no, text in data if no > 1]
    if not data:
        return len(lines), "missing size line"
    (no, size), body = data[0], data[1:]
    if len(size.split()) != 2:
        return no, f"size line must be 'rows cols', got {size!r}"
    dims = []
    for token in size.split():
        try:
            dims.append(int(token))
        except ValueError:
            return no, f"expected integer, got {token!r}"
    m, n = dims
    if m < 1 or n < 1:
        return no, f"dimensions must be positive, got {m} {n}"
    values = []
    for no, text in body:
        for token in text.split():
            if len(values) == m * n:
                return no, "more entries than rows*cols"
            try:
                value = float(token)
            except ValueError:
                return no, f"non-numeric token {token!r}"
            if not np.isfinite(value):
                return no, f"non-finite value {token!r}"
            values.append(value)
    if len(values) != m * n:
        return len(lines), f"expected {m * n} entries, found {len(values)}"
    return np.array(values).reshape((n, m)).T


class TestArrayParseDifferential:
    """parse_matrix agrees with the line-by-line reference walk on random
    array files: the same bits, or the same error line and message."""

    # whitespace between tokens: line breaks of str.splitlines (which the
    # file read turns partly into "\n"), and whitespace that breaks no line
    SEPARATORS = [" ", "\t", "  ", "\n", "\r\n", "\r", "\v", "\f", "\x1c",
                  "\x1d", "\x1e", "\x85", " ", " ", "\x1f", "\xa0",
                  "\n\n", "\n% comment\n", "\r\n  % indented 1 2\r\n"]
    BAD = ["x", "inf", "-nan", "1e999", "1%2", "0x1p3", "1,5"]

    def _text(self, rng):
        m, n = (int(v) for v in rng.integers(1, 5, 2))
        count = m * n + int(rng.choice([0, 0, 0, -1, 1, 2]))
        tokens = []
        for _ in range(max(count, 0)):
            value = float(rng.standard_normal()
                          * 10.0 ** rng.integers(-310, 300))
            tokens.append(rng.choice([repr(value), f"{value:.3e}", "-0",
                                      "1_000", "5e-324", ".5"]))
        if tokens and rng.random() < 0.3:
            tokens[int(rng.integers(len(tokens)))] = str(rng.choice(self.BAD))
        size = rng.choice([f"{m} {n}", f"{m} {n}", f"{m} {n}", f"{m}",
                           f"{m} x", f"0 {n}", f"{m} {n} 1"])
        seps = self.SEPARATORS
        head = ["%%MatrixMarket matrix array real general",
                rng.choice(["\n", "\r\n", "\n% c\n\n", "   \n"]), size]
        if rng.random() < 0.1:
            return "".join(head[:2])  # no size line
        body = [rng.choice(["\n", "\r\n", "\n% c\n", "\x85"])]
        for token in tokens:
            body += [token, str(rng.choice(seps))]
        return "".join(head + body[:len(body) - int(rng.random() < 0.3)])

    def test_agrees_with_reference_walk(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "a.mtx"
        outcomes = set()
        for _ in range(600):
            path.write_text(self._text(rng), encoding="utf-8", newline="")
            want = _walk_mm_array(path)
            if isinstance(want, tuple):
                with pytest.raises(MatrixParseError) as err:
                    parse_matrix(path)
                assert (err.value.line, err.value.message) == want
                outcomes.add(want[1].split()[0])
            else:
                got = parse_matrix(path)
                assert got.shape == want.shape
                assert (got.view(np.int64) == want.view(np.int64)).all()
                outcomes.add("ok")
        # every kind of outcome was drawn
        assert outcomes >= {"ok", "missing", "size", "expected", "dimensions",
                            "more", "non-numeric", "non-finite"}


def _walk_csv(path):
    """Line-by-line reference parse of a CSV file: the matrix, or the
    (line, message) of the first fault. A line's field count is checked
    before its fields are converted."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    width, rows = None, []
    for no, text in enumerate(lines, 1):
        text = text.strip()
        if not text or text.startswith("%"):
            continue
        fields = [field.strip() for field in text.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            return no, f"row has {len(fields)} fields, expected {width}"
        row = []
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                return no, f"non-numeric token {field!r}"
            if not np.isfinite(value):
                return no, f"non-finite value {field!r}"
            row.append(value)
        rows.append(row)
    if width is None:
        return len(lines) + 1, "no data rows"
    return np.array(rows)


class TestCsvParseDifferential:
    """parse_matrix agrees with the line-by-line reference walk on random
    CSV files: the same bits, or the same error line and message."""

    PAD = ["", "", " ", "\t", "\x1f", "\xa0", " \t"]
    BAD = ["x", "inf", "-nan", "1e999", ""]
    EOL = ["\n", "\r\n", "\r"]
    FILLER = ["% comment, 1, x", "", "   ", "\t% indented"]

    def _row(self, rng, width):
        fields = []
        for _ in range(width):
            value = float(rng.standard_normal()
                          * 10.0 ** rng.integers(-310, 300))
            token = rng.choice([repr(value), f"{value:.3e}", "-0", "1_000",
                                "5e-324", ".5"])
            fields.append(rng.choice(self.PAD) + token + rng.choice(self.PAD))
        return fields

    def _text(self, rng):
        """A random CSV text and the order of its faults, a tuple of
        'bad' and 'ragged' by row."""
        width = int(rng.integers(1, 5))
        rows = [self._row(rng, width) for _ in range(int(rng.integers(0, 6)))]
        faults = {}
        for _ in range(int(rng.choice([0, 0, 1, 2, 2]))):
            if len(rows) < 2:
                break
            # row 0 sets the width, so a ragged row comes later
            i = int(rng.integers(1, len(rows)))
            if i in faults:
                continue
            if rng.random() < 0.5:
                rows[i][int(rng.integers(width))] = str(rng.choice(self.BAD))
                faults[i] = "bad"
            else:
                if rng.random() < 0.5 or width == 1:
                    rows[i].append(rows[i][0])
                else:
                    rows[i].pop()
                faults[i] = "ragged"
        lines = []
        for fields in rows:
            while rng.random() < 0.3:
                lines.append(str(rng.choice(self.FILLER)))
            lines.append(",".join(fields))
        if rng.random() < 0.3:
            lines.append(str(rng.choice(self.FILLER)))
        eols = [str(rng.choice(self.EOL)) for _ in lines]
        if lines and rng.random() < 0.3:
            eols[-1] = ""  # no line break at the end of the file
        text = "".join(line + eol for line, eol in zip(lines, eols))
        return text, tuple(faults[i] for i in sorted(faults))

    def test_agrees_with_reference_walk(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "a.csv"
        outcomes, orders = set(), set()
        for _ in range(600):
            text, faults = self._text(rng)
            if not text:
                continue  # "empty file", which is not CSV's to report
            path.write_text(text, encoding="utf-8", newline="")
            want = _walk_csv(path)
            if isinstance(want, tuple):
                with pytest.raises(MatrixParseError) as err:
                    parse_matrix(path)
                assert (err.value.line, err.value.message) == want
                outcomes.add(want[1].split()[0])
            else:
                got = parse_matrix(path)
                assert got.shape == want.shape
                assert (got.view(np.int64) == want.view(np.int64)).all()
                outcomes.add("ok")
            orders.add(faults[:2])
        # every kind of outcome, and both orders of two faults, were drawn
        assert outcomes >= {"ok", "row", "non-numeric", "non-finite", "no"}
        assert orders >= {("bad", "ragged"), ("ragged", "bad")}
