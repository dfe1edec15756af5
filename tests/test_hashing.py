"""`canonical.sha256_each`: the digests of a batch, hashed on one thread or two.

The two-thread path is forced or refused by setting the module's CPU count;
the byte rules of the split decide the rest. A helper thread whose exception
escaped would fail the test that ran it, since pytest turns the unhandled
thread exception warning into an error under `filterwarnings = error`.
"""

import hashlib
import os
import random
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from karychain import canonical
from karychain.canonical import sha256_each

KIB, MIB = 1 << 10, 1 << 20

# chunk sizes on both sides of the split rule's 64 KiB mean and 1 MiB total
SIZES = [0, 1, 2046, 2047, 64 * KIB - 1, 64 * KIB, 200 * KIB, MIB - 1, MIB]


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        CountingThread.started += 1
        super().start()


def hash_counting_threads(chunks, cpus):
    """sha256_each under `cpus` CPUs; its digests and how many threads it started."""
    CountingThread.started = 0
    before = threading.active_count()
    with mock.patch.object(canonical, "_CPUS", cpus), \
            mock.patch.object(canonical.threading, "Thread", CountingThread):
        try:
            return sha256_each(chunks), CountingThread.started
        finally:
            assert threading.active_count() == before


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.sampled_from(SIZES), max_size=6),
    cpus=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_digests_match_hashlib_on_either_path(sizes, cpus, seed):
    rng = random.Random(seed)
    chunks = [rng.randbytes(n) for n in sizes]
    digests, threads = hash_counting_threads(chunks, cpus)
    assert digests == [hashlib.sha256(c).digest() for c in chunks]
    total = sum(sizes)
    split = cpus >= 2 and total >= MIB and total >= 64 * KIB * len(sizes)
    assert threads == int(split)


@pytest.mark.parametrize("hasher", ["caller", "helper"])
def test_chunk_that_is_not_a_buffer_raises_type_error_on_the_caller(hasher):
    # the largest chunk is hashed by the calling thread, the next by the helper
    text = "not bytes" * (100 * KIB)
    data = bytes(2 * len(text)) if hasher == "helper" else bytes(len(text) // 2)
    with pytest.raises(TypeError):
        hash_counting_threads([data, text], cpus=2)
    assert CountingThread.started == 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_chunk_without_a_length_raises_type_error_before_any_thread(cpus):
    with pytest.raises(TypeError):
        hash_counting_threads([bytes(2 * MIB), None], cpus)
    assert CountingThread.started == 0


def hash_recording_threads(chunks):
    """sha256_each on two CPUs; per hashing thread, the sizes it hashed and
    the CPUs it was allowed when it hashed them."""
    seen = {}
    real_sha256 = hashlib.sha256

    def recording_sha256(data):
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        sizes, _ = seen.setdefault(threading.get_ident(), ([], cpus))
        sizes.append(len(data))
        return real_sha256(data)

    with mock.patch.object(canonical.hashlib, "sha256", recording_sha256):
        digests, threads = hash_counting_threads(chunks, cpus=2)
    assert threads == 1 and digests == [real_sha256(c).digest() for c in chunks]
    return seen


# a producer's batch: 16 slices, then the ciphertext and the plaintext
PRODUCER_BATCH = [bytes(64 * KIB)] * 16 + [bytes(MIB + 16), bytes(MIB)]


def test_split_balances_bytes_between_the_two_threads():
    seen = hash_recording_threads(PRODUCER_BATCH)
    loads = sorted(sum(sizes) for sizes, _ in seen.values())
    assert len(loads) == 2 and loads[1] - loads[0] <= 64 * KIB


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or not canonical._other_cpus(),
    reason="needs a process allowed on two CPUs that can tell which one it runs on",
)
def test_helper_asks_for_a_cpu_other_than_the_callers():
    # without the request, a kernel that does not balance load would keep the
    # helper on the caller's CPU
    allowed = os.sched_getaffinity(0)
    seen = hash_recording_threads(PRODUCER_BATCH)
    caller_cpus = seen.pop(threading.get_ident())[1]
    [(_, helper_cpus)] = seen.values()
    assert caller_cpus == allowed == os.sched_getaffinity(0)
    assert helper_cpus and len(helper_cpus) == len(allowed) - 1 and helper_cpus < allowed
