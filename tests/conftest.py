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
