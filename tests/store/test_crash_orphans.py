"""A process killed mid-write leaves orphans that no later store reads.

Each store owns a private ``mkdtemp`` directory under the shared
``spill_dir`` root and only ever opens files it wrote itself, listed in
its own run manifest.  These tests SIGKILL a child process at the worst
moment — after a ``.tmp`` exists but before it is published — once in
the middle of a counter-store spill and once in the middle of a
tracker-store compaction, then run a fresh store under the same root and
check that it neither reads nor touches what the dead process left
behind: its answers equal a reference built from its own input alone
(the orphans carry tags the new input never uses, so a leak would show),
and the orphan directory is byte-for-byte as the kill left it.  Nothing
in-process removes a killed process's directory (its GC finalizer died
with it); that is the operator's job, as docs/ARCHITECTURE.md says.
"""

import hashlib
import os
import selectors
import signal
import subprocess
import sys
from collections import Counter

import pytest

from repro.store import SpillingCounterStore, SpillingTrackerStore

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the child finds its .tmp through /proc/self/fd",
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: The child: pauses inside write_run's fsync of the first ``.tmp`` whose
#: name starts with ``prefix`` (its bytes written, not yet renamed), says
#: where it is on stdout and waits to be killed.
CHILD = r"""
import os, sys, time
root, kind, prefix = sys.argv[1:4]
real_fsync = os.fsync

def pausing_fsync(fd):
    path = os.readlink(f"/proc/self/fd/{fd}")
    if path.endswith(".tmp") and os.path.basename(path).startswith(prefix):
        print(path, flush=True)
        time.sleep(120)
    return real_fsync(fd)

os.fsync = pausing_fsync
from repro.store import SpillingCounterStore, SpillingTrackerStore
if kind == "counter":
    store = SpillingCounterStore(spill_dir=root, spill_threshold=5)
    for i in range(100):
        store.update([("orphan%d" % i, "orphan%d" % (i + 1))])
else:
    store = SpillingTrackerStore(
        spill_dir=root, spill_threshold=3, merge_fan_in=2
    )
    for i in range(100):
        store.ingest([(frozenset({"orphan%d" % i}), 0.5, i + 1)])
print("never paused", flush=True)
"""


def kill_mid_write(root, kind, prefix):
    """Run the child until it pauses on a ``.tmp``; SIGKILL it there."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(root), kind, prefix],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        selector = selectors.DefaultSelector()
        selector.register(child.stdout, selectors.EVENT_READ)
        assert selector.select(timeout=60), "child never reached a .tmp"
        tmp_path = child.stdout.readline().strip()
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=60)
        child.stdout.close()
    assert tmp_path.endswith(".tmp"), tmp_path
    assert os.path.exists(tmp_path)
    return os.path.dirname(tmp_path)


def fingerprint(directory):
    digest = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digest[name] = hashlib.sha256(handle.read()).hexdigest()
    return digest


def test_killed_counter_spill_is_never_read(tmp_path):
    orphan_dir = kill_mid_write(tmp_path, "counter", "run-000003")
    names = os.listdir(orphan_dir)
    assert any(name.endswith(".run") for name in names)  # published before
    assert any(name.endswith(".tmp") for name in names)  # caught mid-spill
    before = fingerprint(orphan_dir)

    store = SpillingCounterStore(spill_dir=str(tmp_path), spill_threshold=5)
    reference = Counter()
    for i in range(60):
        keys = [("fresh%d" % (i % 9),), ("fresh%d" % (i % 9), "x")]
        store.update(keys)
        reference.update(keys)
    assert store.directory != orphan_dir
    lookup = store.window_lookup()
    for key, count in reference.items():
        assert lookup(key) == count
    assert lookup(("orphan1", "orphan2")) == 0
    assert dict(store.items()) == dict(reference)
    store.close()
    assert fingerprint(orphan_dir) == before
    assert os.listdir(tmp_path) == [os.path.basename(orphan_dir)]


def test_killed_tracker_compaction_is_never_read(tmp_path):
    orphan_dir = kill_mid_write(tmp_path, "tracker", "merge")
    names = os.listdir(orphan_dir)
    assert any(name.startswith("merge") and name.endswith(".tmp") for name in names)
    assert any(name.startswith("run-") for name in names)  # the inputs
    before = fingerprint(orphan_dir)

    store = SpillingTrackerStore(
        spill_dir=str(tmp_path), spill_threshold=3, merge_fan_in=2
    )
    expected = {}
    for i in range(40):
        tagset = frozenset({"fresh%d" % (i % 11)})
        store.ingest([(tagset, 0.25, i + 1)])
        old = expected.get(tagset)
        expected[tagset] = (0.25, i + 1, (old[2] if old else 0) + 1)
    assert store.directory != orphan_dir
    assert store.stats()["merges"] > 0
    assert {
        tagset: (jaccard, support, reports)
        for tagset, jaccard, support, reports in store.iter_entries()
    } == expected
    assert frozenset({"orphan1"}) not in store
    store.close()
    assert fingerprint(orphan_dir) == before
    assert os.listdir(tmp_path) == [os.path.basename(orphan_dir)]
