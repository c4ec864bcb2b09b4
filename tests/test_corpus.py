"""The committed command-line corpus replays byte for byte.

tests/corpus/expected.jsonl holds, for each argument vector, the exit code,
stderr and stdout of a braidhom run. They are regression fixtures computed
by this code (see tests/corpus/regen.py, which rewrites them and prints the
diff). The corpus is replayed in process twice: once as it is, and once with
os.fork removed, so that each two-process path gives the bytes of its
one-process fallback.
"""

import importlib.util
import os
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "corpus_regen", Path(__file__).parent / "corpus" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

EXPECTED = regen.read_expected()


def test_corpus_holds_every_vector_once():
    argvs = [r["argv"] for r in EXPECTED]
    assert argvs == regen.vectors()
    assert len({tuple(a) for a in argvs}) == len(argvs)


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_corpus_replays_byte_for_byte(monkeypatch, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    changed = regen.diff(EXPECTED, [regen.run(r["argv"]) for r in EXPECTED])
    assert not changed, "\n".join(changed[:6])
    if fork:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
