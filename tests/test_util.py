import errno
import re
from pathlib import Path

import pytest

from chartcot.errors import ChartCotError, FormatError, InputError
from chartcot.util import atomic_write_bytes, largest_remainder, read_jsonl


class TestReadJsonl:
    @pytest.mark.parametrize("bad", [b'{"a": 1} x', b'{"a":1}{"b":2}'])
    def test_data_after_the_record_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"a": 0}\n\n' + bad + b"\n")
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: not valid JSON: Extra data"):
            read_jsonl(path)

    def test_crlf_whitespace_and_blank_lines(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"a": 1}\r\n\r\n  \t{"b": [2, 3]} \r\n\n   \n{"c": "d e"}')
        assert read_jsonl(path) == [{"a": 1}, {"b": [2, 3]}, {"c": "d e"}]

    def test_parse_none_returns_the_dicts(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"a": 1}\n\n[2]\n"x"\n')
        assert read_jsonl(path, None) == read_jsonl(path) == [{"a": 1}, [2], "x"]

    def test_parse_result_is_kept_in_order(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"n": 1}\n\n{"n": 2}\n{"n": 3}')
        assert read_jsonl(path, lambda r: r["n"] * 10) == [10, 20, 30]


def _reject_on(bad: int, exc: Exception):
    """A parse that raises ``exc`` for the record {"n": bad} and returns n for the others."""
    def parse(record):
        if record["n"] == bad:
            raise exc
        return record["n"]
    return parse


class TestReadJsonlParseFailures:
    @pytest.mark.parametrize("exc, reason", [
        (KeyError("sample_id"), "record has no 'sample_id' field"),
        (TypeError("string indices must be integers"), "record is not a JSON object"),
        (AttributeError("'list' object has no attribute 'get'"), "record is not a JSON object"),
        (FormatError("answer must be a number or short text"), "answer must be a number or short text"),
        (ChartCotError("group must be a string, not 3"), "group must be a string, not 3"),
    ])
    def test_rejected_record_names_file_and_line(self, tmp_path, exc, reason):
        path = tmp_path / "in.jsonl"
        # Line 5 is the third record: blank lines count for the line number.
        path.write_bytes(b'{"n": 1}\n\n  \n{"n": 2}\n{"n": 3}\n{"n": 4}\n')
        with pytest.raises(InputError) as info:
            read_jsonl(path, _reject_on(3, exc))
        assert str(info.value) == f"{path}:5: {reason}"
        assert info.value.__suppress_context__

    def test_first_rejected_record_is_named(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"n": 1}\n{"m": 2}\n{"m": 3}\n')
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:2: record has no 'n' field$"):
            read_jsonl(path, lambda r: r["n"])

    def test_line_that_is_not_json_is_named_before_a_rejected_record(self, tmp_path):
        # As when every line was decoded before any record was built: a line
        # that is not JSON is named even when a rejected record comes first.
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"n": 1}\n{"m": 2}\n{"n": \n')
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}:3: not valid JSON: "):
            read_jsonl(path, lambda r: r["n"])

    def test_other_exceptions_from_parse_propagate(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"n": 1}\n')

        def parse(record):
            raise ZeroDivisionError("not a record problem")

        with pytest.raises(ZeroDivisionError):
            read_jsonl(path, parse)


class TestAtomicWriteBytes:
    def test_makes_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.bin"
        atomic_write_bytes(path, b"xyz")
        assert path.read_bytes() == b"xyz"
        assert sorted(p.name for p in path.parent.iterdir()) == ["c.bin"]

    def test_no_mkdir_when_the_directory_exists(self, tmp_path, monkeypatch):
        path = tmp_path / "d" / "one.bin"
        atomic_write_bytes(path, b"1")
        calls = []
        real_mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            calls.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        atomic_write_bytes(path.with_name("two.bin"), memoryview(b"22"))
        atomic_write_bytes(path, b"333")
        assert calls == []
        assert path.read_bytes() == b"333" and path.with_name("two.bin").read_bytes() == b"22"

    @pytest.mark.parametrize("existing", [None, b"old bytes"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "renders" / "c00000.ppm"
        path.parent.mkdir()
        if existing is not None:
            path.write_bytes(existing)
        error = OSError(errno.ENOSPC, "No space left on device")

        def write_some_then_fail(self, data):
            with self.open("wb") as f:
                f.write(bytes(data)[:4])
            raise error

        monkeypatch.setattr(Path, "write_bytes", write_some_then_fail)
        with pytest.raises(OSError) as raised:
            atomic_write_bytes(path, b"P6\n2 2\n255\n" + bytes(12))
        assert raised.value is error
        assert [p.name for p in path.parent.iterdir()] == ([] if existing is None else ["c00000.ppm"])
        assert existing is None or path.read_bytes() == existing


class TestLargestRemainder:
    def test_apportions_the_total_exactly(self):
        assert largest_remainder(10, [0.571, 0.336, 0.093]) == [6, 3, 1]

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [0.0, 0.0], [float("nan"), 1.0]])
    def test_sum_not_finite_and_positive_raises(self, weights):
        # An overflowing sum used to give every weight 0 units and add back
        # at most one per weight, short of the total.
        with pytest.raises(ValueError, match="^weights must have a finite sum > 0, not "):
            largest_remainder(5, weights)
