"""Sidecar manifests keep volatile metadata away from the data files."""

import argparse
import hashlib
import json
import os

import pytest

from dqes import manifest
from dqes._version import __version__
from dqes.cli import _fields
from dqes.manifest import write_output, write_text_atomic


def file_sha256(path) -> str:
    """sha256 of a file's bytes on disk: the oracle for the hash the writer
    computes while writing."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_file_sha256(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes(b"energy landscape\n")
    assert file_sha256(path) == hashlib.sha256(b"energy landscape\n").hexdigest()


def test_manifest_fields_skip_empty_sections():
    bare = argparse.Namespace(argv=["dqes", "mub", "export", "2"])
    assert _fields(bare, {}, {}) == {"argv": ["dqes", "mub", "export", "2"]}
    seeded = argparse.Namespace(argv=["dqes"])
    assert _fields(seeded, {"seed": 7}, {"a.json": "00"}) == {
        "argv": ["dqes"], "seeds": {"seed": 7}, "input_sha256": {"a.json": "00"}}


def test_write_sidecar_records_the_output_hash(tmp_path):
    data = write_output(tmp_path / "out.csv", "index,energy\n0,-1.0\n",
                        {"argv": ["dqes"], "seeds": {"seed": 3}})
    sidecar_path = manifest.sidecar_path(data)
    assert sidecar_path == tmp_path / "out.csv.manifest.json"
    doc = json.loads(sidecar_path.read_text())
    assert doc["output_sha256"] == file_sha256(data)
    assert doc["seeds"] == {"seed": 3}
    assert doc["tool_version"] == __version__
    assert "created_utc" in doc


def test_the_sidecar_is_sorted_json_indented_by_two(tmp_path):
    data = write_output(tmp_path / "out.csv", "index,energy\n0,-1.0\n",
                        {"argv": ["dqes", "landscape"], "seeds": {"seed": 3}})
    text = manifest.sidecar_path(data).read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_sidecar_keeps_the_data_file_untouched(tmp_path):
    data = tmp_path / "out.csv"
    payload = "index,energy\n0,-1.0\n"
    write_output(data, payload, {})
    assert data.read_text() == payload


def test_atomic_write_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old contents that are longer than the new ones\n")
    write_text_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_leaves_no_partial_or_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    # the encoder fails on the lone surrogate after a long valid prefix
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "0,1.0\n" * 100_000 + "\ud800")
    assert os.listdir(tmp_path) == []
    path.write_text("kept\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(path, "0,1.0\n" * 100_000 + "\ud800")
    assert path.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_interrupted_move_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("device gone")

    monkeypatch.setattr(manifest.os, "replace", fail)
    with pytest.raises(OSError, match="device gone"):
        write_text_atomic(tmp_path / "summary.json", "{}\n")
    assert os.listdir(tmp_path) == []


def test_failed_chunk_leaves_the_target_and_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("kept\n")

    def chunks():
        yield "index,energy\n"
        yield "0,1.0\n" * 100_000
        # the chunks so far sit in the temp file, not in the target
        assert sorted(os.listdir(tmp_path)) == [f".out.csv.{os.getpid()}.tmp", "out.csv"]
        raise RuntimeError("sweep failed")

    with pytest.raises(RuntimeError, match="sweep failed"):
        write_text_atomic(path, chunks())
    assert path.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_chunks_write_the_bytes_of_their_joined_text(tmp_path):
    text = "index,energy\n" + "".join(f"{i},{i / 7:.12g}\n" for i in range(1000))
    write_text_atomic(tmp_path / "whole.csv", text)
    write_text_atomic(tmp_path / "chunks.csv", (text[i:i + 97] for i in range(0, len(text), 97)))
    assert (tmp_path / "chunks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()



def test_atomic_write_returns_the_sha256_of_the_utf8_bytes_it_wrote(tmp_path):
    path = tmp_path / "h\u00e9.svg"
    chunks = ["<title>h\u00e9</title>\n", "\u2264 1e-12\n"]
    digest = write_text_atomic(path, iter(chunks))
    assert path.read_bytes() == "".join(chunks).encode("utf-8")
    assert digest == file_sha256(path)

def test_write_output_creates_nested_directories(tmp_path):
    path = write_output(str(tmp_path / "a" / "b" / "out.csv"), "index,energy\n", {})
    assert path == tmp_path / "a" / "b" / "out.csv"
    assert path.read_text() == "index,energy\n"
    assert sorted(os.listdir(path.parent)) == ["out.csv", "out.csv.manifest.json"]


def test_write_output_sidecar_hashes_the_data_file(tmp_path):
    chunks = ["index,energy\n", "0,-1.0\n", "1,0.5\n"]
    path = write_output(tmp_path / "out.csv", iter(chunks), {"seeds": {"seed": 3}})
    doc = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert doc["output_sha256"] == hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert doc["output_sha256"] == file_sha256(path)
    assert doc["seeds"] == {"seed": 3}


def test_write_output_failing_chunk_writes_neither_file(tmp_path):
    def chunks():
        yield "index,energy\n"
        raise RuntimeError("sweep failed")

    with pytest.raises(RuntimeError, match="sweep failed"):
        write_output(tmp_path / "out.csv", chunks(), {})
    assert os.listdir(tmp_path) == []
