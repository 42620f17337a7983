"""The fork protocol shared by the snapshot writers and the psi' partner."""

import io
import os
import sys

import pytest

from rindlersim import _fork


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_body_that_raises_is_one_failure_with_its_traceback(monkeypatch, capfd):
    def body(message):
        raise RuntimeError(message)

    # sys.stderr holds what it is given until it is flushed
    stream = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(2), "w")), encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", stream)
    try:
        stream.write("unflushed before the fork")
        failed = _fork.reap([_fork.start(body, "the body failed")])
        stream.flush()
    finally:
        monkeypatch.undo()
        stream.close()
    err = capfd.readouterr().err
    assert failed == 1
    assert "RuntimeError: the body failed" in err
    assert err.count("unflushed before the fork") == 1
