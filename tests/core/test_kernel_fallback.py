"""A greedy-kernel build failure is reported once, not swallowed."""

import os
import sys
import warnings

import pytest

from repro.core.scheduling import _kernel


@pytest.fixture
def unbuilt_kernel(monkeypatch, tmp_path):
    """A process that has not tried the kernel yet and has no cached build."""
    monkeypatch.setattr(_kernel, "_kernel", None)
    monkeypatch.setattr(_kernel, "_kernel_tried", False)
    monkeypatch.setattr(
        _kernel, "_cache_path", lambda: str(tmp_path / "greedy.so")
    )
    monkeypatch.delenv("REPRO_DISABLE_KERNEL", raising=False)
    return tmp_path


def test_missing_compiler_warns_once(unbuilt_kernel, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    with pytest.warns(RuntimeWarning, match="'/nonexistent'") as caught:
        assert _kernel.kernel() is None
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernel.kernel() is None


@pytest.mark.skipif(sys.platform == "win32", reason="needs a shell script")
def test_compiler_error_output_is_quoted(unbuilt_kernel, monkeypatch):
    compiler = unbuilt_kernel / "failing-cc"
    compiler.write_text(
        "#!/bin/sh\necho 'greedy.c:1:1: error: no luck today' >&2\nexit 1\n"
    )
    os.chmod(compiler, 0o755)
    monkeypatch.setenv("CC", str(compiler))
    with pytest.warns(RuntimeWarning, match="status 1: .*error: no luck today"):
        assert _kernel.kernel() is None


def test_disabled_kernel_stays_silent(unbuilt_kernel, monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent")
    monkeypatch.setenv("REPRO_DISABLE_KERNEL", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernel.kernel() is None
