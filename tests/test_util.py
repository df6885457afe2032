import re
from pathlib import Path

import pytest

from chartcot.errors import InputError
from chartcot.util import atomic_write_bytes, read_jsonl


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
