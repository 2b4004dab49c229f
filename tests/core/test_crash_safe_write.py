"""``crash_safe_write``: a path only ever holds a complete document."""

import os
import sys
import threading

import pytest

from repro.durable import crash_safe_write


def test_publishes_on_clean_exit(tmp_path):
    path = str(tmp_path / "index.json")
    with crash_safe_write(path) as handle:
        handle.write("new")
    assert open(path).read() == "new"
    assert os.listdir(tmp_path) == ["index.json"]


def test_error_leaves_the_old_file_and_no_temp(tmp_path):
    path = str(tmp_path / "index.json")
    with open(path, "w") as handle:
        handle.write("old")
    with pytest.raises(KeyError):
        with crash_safe_write(path) as handle:
            handle.write("half")
            raise KeyError("boom")
    assert open(path).read() == "old"
    assert os.listdir(tmp_path) == ["index.json"]


def test_concurrent_writers_never_publish_a_torn_file(tmp_path):
    path = str(tmp_path / "manifest.json")
    documents = [str(i) * 20000 for i in range(6)]
    torn, errors = [], []
    done = threading.Event()

    def write(document):
        try:
            for _ in range(20):
                with crash_safe_write(path) as handle:
                    for start in range(0, len(document), 1000):
                        handle.write(document[start : start + 1000])
        except OSError as error:  # a temp file another writer renamed away
            errors.append(error)

    def read():
        while not done.is_set():
            if os.path.exists(path):
                text = open(path).read()
                if text not in documents:
                    torn.append(text[:40])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=read)
        reader.start()
        writers = [threading.Thread(target=write, args=(d,)) for d in documents]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        done.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(writer.is_alive() for writer in writers)
    assert not reader.is_alive()
    assert not errors
    assert not torn
    assert open(path).read() in documents
    assert os.listdir(tmp_path) == ["manifest.json"]
