import errno
import random
from pathlib import Path

import pytest


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


class FileAccess:
    """Each outermost call of the `Path` file methods, and of any function
    given to `watch`, as (name, first argument)."""

    PATH_METHODS = ("open", "read_bytes", "read_text", "write_bytes", "exists", "stat", "mkdir")

    def __init__(self, monkeypatch):
        self.calls, self._depth, self._monkeypatch = [], 0, monkeypatch
        for name in self.PATH_METHODS:
            self.watch(Path, name)

    def watch(self, owner, name):
        real = getattr(owner, name)

        def record(first, *args, **kwargs):
            if not self._depth:  # not the open() inside write_bytes()
                self.calls.append((name, str(first)))
            self._depth += 1
            try:
                return real(first, *args, **kwargs)
            finally:
                self._depth -= 1

        self._monkeypatch.setattr(owner, name, record)


@pytest.fixture
def file_access(monkeypatch):
    """A `FileAccess`, to be created once the set-up's own file access is done."""
    return lambda: FileAccess(monkeypatch)


@pytest.fixture
def tear_appends(monkeypatch):
    """`tear(path, flushed)`: from then on, each append to `path` writes half
    of its text, then raises ENOSPC. The half reaches the file before the
    error when `flushed`, else when the file is closed, as a buffered
    writer's remainder does."""
    real_open = Path.open

    def tear(path, flushed):
        def torn_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            if self == path and mode.startswith("a"):
                write = fh.write

                def torn_write(text):
                    write(text[: len(text) // 2])
                    if flushed:
                        fh.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")

                fh.write = torn_write
            return fh

        monkeypatch.setattr(Path, "open", torn_open)

    return tear
