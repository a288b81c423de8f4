import math
import os
import stat
import threading
import warnings
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrank import embeddings
from conceptrank.embeddings import cosine, load_embeddings, phrase_vector
from conceptrank.errors import CoverageError, FormatError

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _write(tmp_path, text, name="emb.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoad:
    def test_readback(self, tmp_path):
        table = load_embeddings(_write(tmp_path, "dog 1 0 0\nshow 0 1 0\n"))
        assert table.dimension == 3
        assert len(table) == 2
        np.testing.assert_array_equal(table.get("dog"), [1.0, 0.0, 0.0])

    def test_inconsistent_arity(self, tmp_path):
        with pytest.raises(FormatError, match=":2:"):
            load_embeddings(_write(tmp_path, "dog 1 0 0\nshow 0 1\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(FormatError, match="no entries"):
            load_embeddings(_write(tmp_path, ""))

    def test_zero_vector_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="zero vector"):
            load_embeddings(_write(tmp_path, "dog 0 0 0\n"))

    def test_bad_float(self, tmp_path):
        with pytest.raises(FormatError, match="bad float"):
            load_embeddings(_write(tmp_path, "dog 1 x 0\n"))

    def test_duplicates_last_wins(self, tmp_path):
        table = load_embeddings(_write(tmp_path, "dog 1 0\ndog 0 2\n"))
        assert table.duplicate_count == 1
        np.testing.assert_array_equal(table.get("dog"), [0.0, 2.0])

    def test_tokens_lowercased(self, tmp_path):
        table = load_embeddings(_write(tmp_path, "DOG 1 0\n"))
        assert "dog" in table

    def test_scientific_notation(self, tmp_path):
        table = load_embeddings(_write(tmp_path, "dog 1e-2 2.5E3\n"))
        np.testing.assert_allclose(table.get("dog"), [0.01, 2500.0])

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_rejected(self, tmp_path, value):
        # float("1e400") overflows to inf
        with pytest.raises(FormatError, match=r":2: non-finite value$"):
            load_embeddings(_write(tmp_path, f"dog 1 0\ncat 0 {value}\n"))

    def test_vectors_read_only(self, tmp_path):
        lines = "".join(f"t{i} {i + 1} -0.5\n" for i in range(2 * embeddings._BLOCK_LINES + 3))
        table = load_embeddings(_write(tmp_path, lines + "t0 7 7\n"))
        assert len(table) == 2 * embeddings._BLOCK_LINES + 3
        for vec in table.vectors.values():
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 1.0


def _reference_load(path):
    """The per-record loader that block parsing replaced, kept verbatim as
    the specification of which files load and what they load to."""
    vectors = {}
    dimension = None
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split(" ")
            if len(parts) < 2:
                raise FormatError(f"{path}:{lineno}: expected 'token value...' record")
            token = parts[0].lower()
            if not token:
                raise FormatError(f"{path}:{lineno}: empty token")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad float: {exc}") from None
            if dimension is None:
                dimension = vec.shape[0]
            elif vec.shape[0] != dimension:
                raise FormatError(
                    f"{path}:{lineno}: expected {dimension} values, got {vec.shape[0]}"
                )
            if not np.all(np.isfinite(vec)):
                raise FormatError(f"{path}:{lineno}: non-finite value")
            if not np.any(vec):
                raise FormatError(f"{path}:{lineno}: zero vector")
            if token in vectors:
                duplicates += 1
            vec.setflags(write=False)
            vectors[token] = vec
    if dimension is None:
        raise FormatError(f"{path}: no entries")
    return embeddings.EmbeddingTable(
        dimension=dimension, vectors=vectors, duplicate_count=duplicates
    )


def _outcome(loader, path):
    """Everything a caller can observe of one load: the table's dimension,
    duplicate count, token order, vector bytes and write flags, or the
    error text."""
    try:
        table = loader(path)
    except FormatError as exc:
        return ("error", str(exc))
    return (
        "table",
        table.dimension,
        table.duplicate_count,
        list(table.vectors),
        [(v.dtype.str, v.shape, v.tobytes(), v.flags.writeable) for v in table.vectors.values()],
    )


def _check_against_reference(path, block_lines):
    with mock.patch.object(embeddings, "_BLOCK_LINES", block_lines):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(load_embeddings, path)
    assert got == _outcome(_reference_load, path)
    return got


# each case runs at a block size of 2, so its later lines sit in later blocks
_FIXED_CASES = {
    # np.loadtxt skips the empty value field and returns one row too few
    "trailing_space_record": (
        "dog 1 2\ncat \ncow 3 4\n", ":2: bad float: could not convert string to float: ''"
    ),
    "only_empty_value_fields": ("dog \ncat \n", ":1: bad float"),
    "blank_lines_and_crlf": ("dog 1 2\r\n  \r\n\t\r\nCAT 3 4\r\n\r\n\x0b\ncow 5 6", None),
    "duplicate_across_blocks": ("dog 1 0\ncat 0 1\nDOG 2 2\ncow 1 1\ndog 3 3\n", None),
    "arity_change_first_line_of_later_block": (
        "a 1 2\nb 3 4\nc 5\nd 6 7\n", ":3: expected 2 values, got 1"
    ),
    "bad_float_later_block": ("a 1 2\nb 3 4\nc 5 6\nd 7 x\n", ":4: bad float"),
    "nan_later_block": ("a 1 2\nb 3 4\nc nan 6\n", ":3: non-finite value"),
    "zero_vector_later_block": ("a 1 2\nb 3 4\n\nc 0 -0.0\n", ":4: zero vector"),
    "underscore_and_arabic_digits": ("a 1_0 \u0661\u0662\nb 3 4\nc 5 6\n", None),
    "tab_between_values": ("a 1 2\nb 3 4\nc 5\t6\n", ":3: bad float"),
    "tab_around_values": ("a 1 2\t\nb \t3 4\n", None),
    "double_space": ("a 1 2\nb 3  4\n", ":2: bad float"),
    "information_separator": ("a 1 2\nb 3 4\x1c\n", ":2: bad float"),
    "negative_zero": ("a -0.0 1\nb 2 -0.0\n", None),
    "bad_float_before_bad_record": ("a 1 x\nb\n", ":1: bad float"),
    "no_value_field": ("a 1 2\nb 3 4\nc\n", ":3: expected 'token value...' record"),
    "empty_token": ("a 1\n 2\n", ":2: empty token"),
    "empty_file": ("\n \n", "no entries"),
}


@pytest.mark.parametrize("name", sorted(_FIXED_CASES))
def test_load_matches_reference_on_fixed_cases(tmp_path, name):
    text, error = _FIXED_CASES[name]
    path = tmp_path / "emb.txt"
    path.write_bytes(text.encode("utf-8"))
    got = _check_against_reference(str(path), block_lines=2)
    if error is None:
        assert got[0] == "table"
    else:
        assert got[0] == "error" and error in got[1]


def test_load_fixed_case_values(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(_FIXED_CASES["duplicate_across_blocks"][0].encode("utf-8"))
    with mock.patch.object(embeddings, "_BLOCK_LINES", 2):
        table = load_embeddings(str(path))
    assert list(table.vectors) == ["dog", "cat", "cow"] and table.duplicate_count == 2
    np.testing.assert_array_equal(table.get("dog"), [3.0, 3.0])
    path.write_bytes(_FIXED_CASES["underscore_and_arabic_digits"][0].encode("utf-8"))
    np.testing.assert_array_equal(load_embeddings(str(path)).get("a"), [10.0, 12.0])
    path.write_bytes(_FIXED_CASES["negative_zero"][0].encode("utf-8"))
    assert load_embeddings(str(path)).get("a").tobytes() == np.array([-0.0, 1.0]).tobytes()


def test_load_matches_reference_across_default_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n = 2 * embeddings._BLOCK_LINES + 17
    distinct = embeddings._BLOCK_LINES + 5  # the later blocks repeat tokens of the first
    values = rng.standard_normal((n, 7))
    lines = [
        f"T{i % distinct} " + " ".join(repr(float(x)) for x in row)
        for i, row in enumerate(values)
    ]
    path = tmp_path / "emb.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = _check_against_reference(str(path), block_lines=embeddings._BLOCK_LINES)
    assert got[0] == "table" and got[2] == n - distinct


_ODD_VALUES = [
    "0", "-0.0", "nan", "inf", "1e400", "1_0", "\u0661", "", "x", "1\t2", "\t3", "1\x1c"
]
_ODD_LINES = ["", "  ", "\t", "cat ", "cat", " 1", "cat 1  2", "cat\t1 2"]


@st.composite
def _embedding_files(draw):
    """A table's text: mostly well-formed records over a few tokens, so
    duplicates are common; with ``odd``, also malformed values and lines."""
    dim = draw(st.integers(1, 3))
    odd = draw(st.booleans())
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-3, 3).map(str),
    )
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if odd and draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(_ODD_LINES)))
            continue
        arity = dim if not odd or draw(st.integers(0, 7)) else draw(st.integers(1, 4))
        fields = [draw(st.sampled_from(["dog", "DOG", "cat", "show", "Z"]))]
        for _ in range(arity):
            odd_value = odd and draw(st.integers(0, 9)) == 0
            fields.append(draw(st.sampled_from(_ODD_VALUES) if odd_value else value))
        lines.append(" ".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(_embedding_files(), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_load_matches_reference_on_generated_files(tmp_path_factory, text, block_lines):
    path = tmp_path_factory.mktemp("differential") / "emb.txt"
    path.write_bytes(text.encode("utf-8"))
    _check_against_reference(str(path), block_lines)


def _cached_table_file(tmp_path):
    """A table over more than two default blocks, with uppercase tokens and
    tokens that repeat across blocks, loaded once so its cache is written."""
    rng = np.random.default_rng(9)
    n = 2 * embeddings._BLOCK_LINES + 11
    distinct = embeddings._BLOCK_LINES + 3
    lines = [
        f"{'W' if i % 3 else 'w'}{i % distinct} "
        + " ".join(repr(float(x)) for x in rng.standard_normal(5))
        for i in range(n)
    ]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    load_embeddings(path)
    return path, path + embeddings._CACHE_SUFFIX


def _count_parses(monkeypatch):
    """Counts the text parses of every later load."""
    calls = []
    parse = embeddings._parse_table

    def spy(path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(embeddings, "_parse_table", spy)
    return calls


def _rewrite(cache, **changes):
    """Write the cache again with some of its arrays changed."""
    with np.load(cache) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for name, change in changes.items():
        arrays[name] = change(arrays[name])
    with open(cache, "wb") as fh:
        np.savez(fh, **arrays)


def _set_row(i, value):
    def change(rows):
        rows[i] = value
        return rows

    return change


def _names(tokens):
    return tokens.tobytes().decode("utf-8").split("\n")


def _joined(names):
    return np.frombuffer("\n".join(names).encode("utf-8"), dtype=np.uint8)


class TestCache:
    def test_hit_matches_parse(self, tmp_path, monkeypatch):
        path, cache = _cached_table_file(tmp_path)
        assert sorted(os.listdir(tmp_path)) == ["emb.txt", "emb.txt.cache.npz"]
        # whoever may read the table may read the cache
        assert stat.S_IMODE(os.stat(cache).st_mode) == stat.S_IMODE(os.stat(path).st_mode) & 0o666
        parses = _count_parses(monkeypatch)
        hit = _outcome(load_embeddings, path)
        assert parses == []
        assert hit == _outcome(_reference_load, path)
        assert hit[2] == 2 * embeddings._BLOCK_LINES + 11 - (embeddings._BLOCK_LINES + 3)
        assert all(writeable is False for *_, writeable in hit[4])
        assert [t for t in hit[3] if t != t.lower()] == []

    def test_key_is_version_checksums_and_length(self, tmp_path, monkeypatch):
        # read in chunks, the checksums are those of the whole file
        monkeypatch.setattr(embeddings, "_CHUNK_BYTES", 7)
        data = "".join(f"t{i} {i + 1} -0.5\n" for i in range(20)).encode("utf-8")
        path = tmp_path / "emb.txt"
        path.write_bytes(data)
        want = [embeddings._CACHE_VERSION, zlib.crc32(data), zlib.adler32(data), len(data)]
        assert embeddings._table_key(str(path)).tolist() == want

    def test_same_size_edit_with_restored_mtime_invalidates(self, tmp_path, monkeypatch):
        path, cache = _cached_table_file(tmp_path)
        st = os.stat(path)
        text = Path(path).read_text(encoding="utf-8")
        first = text.index(" ") + 1
        digit = "1" if text[first + 1] != "1" else "2"
        edited = text[: first + 1] + digit + text[first + 2 :]
        assert len(edited) == len(text) and edited != text
        Path(path).write_text(edited, encoding="utf-8")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert os.stat(path).st_size == st.st_size
        parses = _count_parses(monkeypatch)
        assert _outcome(load_embeddings, path) == _outcome(_reference_load, path)
        assert len(parses) == 1
        # the cache now holds the edited table
        assert _outcome(load_embeddings, path) == _outcome(_reference_load, path)
        assert len(parses) == 1

    _BROKEN = {
        "truncated": lambda c: os.truncate(c, os.path.getsize(c) // 2),
        "empty": lambda c: os.truncate(c, 0),
        "garbage": lambda c: Path(c).write_bytes(b"not a cache\n" * 100),
        "version": lambda c: _rewrite(c, key=lambda k: k + np.array([1, 0, 0, 0])),
        "nan_row": lambda c: _rewrite(c, rows=_set_row(3, np.nan)),
        "zero_row": lambda c: _rewrite(c, rows=_set_row(-1, 0.0)),
        "one_token_short": lambda c: _rewrite(c, tokens=lambda t: _joined(_names(t)[1:])),
        "repeated_token": lambda c: _rewrite(c, tokens=lambda t: _joined(["w0"] * len(_names(t)))),
        "float32_rows": lambda c: _rewrite(c, rows=lambda r: r.astype(np.float32)),
        "rows_1d": lambda c: _rewrite(c, rows=np.ravel),
        "no_rows": lambda c: _rewrite(c, rows=lambda r: r[:0]),
        "bytes_member": lambda c: _rewrite(c, tokens=lambda t: t.tobytes()),
    }

    @pytest.mark.parametrize("broken", sorted(_BROKEN))
    def test_broken_cache_is_parsed_and_rewritten(self, tmp_path, monkeypatch, broken):
        path, cache = _cached_table_file(tmp_path)
        good = Path(cache).read_bytes()
        self._BROKEN[broken](cache)
        assert Path(cache).read_bytes() != good
        parses = _count_parses(monkeypatch)
        assert _outcome(load_embeddings, path) == _outcome(_reference_load, path)
        assert len(parses) == 1
        assert Path(cache).read_bytes() == good
        assert sorted(os.listdir(tmp_path)) == ["emb.txt", "emb.txt.cache.npz"]

    @pytest.mark.parametrize("step", ["mkstemp", "replace"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, step):
        # the tests may run as root, where a read-only directory is
        # still written to; so the write is failed where it happens
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if step == "mkstemp":
            monkeypatch.setattr(embeddings.tempfile, "mkstemp", fail)
        else:
            monkeypatch.setattr(embeddings.os, "replace", fail)
        path = _write(tmp_path, "dog 1 0 0\nshow 0 1 0\n")
        assert _outcome(load_embeddings, path) == _outcome(_reference_load, path)
        assert os.listdir(tmp_path) == ["emb.txt"]

    def test_interrupted_write_leaves_no_file(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(embeddings.os, "replace", interrupt)
        path = _write(tmp_path, "dog 1 0 0\n")
        with pytest.raises(KeyboardInterrupt):
            load_embeddings(path)
        assert os.listdir(tmp_path) == ["emb.txt"]

    def test_format_error_writes_no_cache(self, tmp_path):
        path = _write(tmp_path, "dog 1 0\ncat 0 x\n")
        messages = []
        for _ in range(2):
            with pytest.raises(FormatError) as err:
                load_embeddings(path)
            messages.append(str(err.value))
        assert messages == [f"{path}:2: bad float: could not convert string to float: 'x'"] * 2
        assert os.listdir(tmp_path) == ["emb.txt"]

    def test_file_changed_during_parse_writes_no_cache(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "dog 1 0\n")
        parse = embeddings._parse_table

        def parse_then_edit(p):
            table = parse(p)
            with open(p, "a", encoding="utf-8") as fh:
                fh.write("cat 0 1\n")
            return table

        monkeypatch.setattr(embeddings, "_parse_table", parse_then_edit)
        assert list(load_embeddings(path).vectors) == ["dog"]
        assert os.listdir(tmp_path) == ["emb.txt"]

    def test_pipe_is_read_once_and_not_cached(self, tmp_path):
        # a table read from a pipe, as from a shell's process substitution
        fifo = str(tmp_path / "emb.txt")
        os.mkfifo(fifo)
        result = {}
        reader = threading.Thread(
            target=lambda: result.update(table=load_embeddings(fifo)), daemon=True
        )
        reader.start()
        Path(fifo).write_bytes(b"dog 1 0\nDOG 0 2\n")
        reader.join(timeout=10)
        if reader.is_alive():
            # a loader that opened the pipe twice waits for a second writer
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        table = result["table"]
        assert list(table.vectors) == ["dog"] and table.duplicate_count == 1
        np.testing.assert_array_equal(table.get("dog"), [0.0, 2.0])
        assert os.listdir(tmp_path) == ["emb.txt"]


class TestPhrase:
    def test_two_tokens(self, tiny_table):
        pv = phrase_vector(["dog", "show"], tiny_table)
        np.testing.assert_allclose(pv.vector, [INV_SQRT2, INV_SQRT2, 0.0], atol=1e-12)
        assert pv.covered_tokens == 2

    def test_single_token_identity(self, tiny_table):
        pv = phrase_vector(["dog"], tiny_table)
        np.testing.assert_allclose(pv.vector, [1.0, 0.0, 0.0], atol=1e-12)
        assert pv.covered_tokens == 1

    def test_fully_oov(self, tiny_table):
        with pytest.raises(CoverageError):
            phrase_vector(["qwertyuiop"], tiny_table)

    def test_oov_tokens_skipped(self, tiny_table):
        pv = phrase_vector(["dog", "zzz"], tiny_table)
        assert pv.covered_tokens == 1


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) == 0.0

    def test_derived_value(self):
        c = cosine(np.array([1.0, 0, 0]), np.array([INV_SQRT2, INV_SQRT2, 0]))
        assert abs(c - INV_SQRT2) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))


_finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=6
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


@given(_finite_vec, _finite_vec)
@settings(max_examples=200, deadline=None)
def test_cosine_symmetric(u, v):
    if len(u) != len(v):
        v = (v * len(u))[: len(u)]
        if not any(abs(x) > 1e-6 for x in v):
            return
    a = np.array(u)
    b = np.array(v)
    assert cosine(a, b) == cosine(b, a)


@given(_finite_vec, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_cosine_scale_invariant(u, alpha):
    a = np.array(u)
    b = np.array(u[::-1])
    if not np.any(np.abs(b) > 1e-6):
        return
    assert abs(cosine(alpha * a, b) - cosine(a, b)) < 1e-12


def test_phrase_order_invariant(tiny_table):
    a = phrase_vector(["dog", "show", "parade"], tiny_table).vector
    b = phrase_vector(["parade", "dog", "show"], tiny_table).vector
    np.testing.assert_allclose(a, b, atol=1e-12)
