"""Checks run after every test: no forked child is left unreaped, and no
file descriptor the test opened is left open.  Also helpers the test
modules import."""

import os

import numpy as np
import pytest

from pas import PasConfig, core

FD_DIR = "/proc/self/fd"


def solve_inner(X_s, labels, X_t, lam, warm_state=None, config=None):
    """pas.core.inner_solve run as fit_progressive runs it: on a refit memo
    built for these inputs, which checks them and warm_state, on the memo's
    X_t, under the errstate that lets overflow raise NonFinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        refits = core._ClassRefits(X_s, labels, X_t, warm_state)
        return core.inner_solve(X_s, labels, refits.X_t, lam, warm_state,
                                config or PasConfig(), refits)


def read_text(path, mode="r"):
    """The whole file at path, as text, or as bytes with mode "rb"; the
    file is closed before this returns."""
    with open(path, mode) as fh:
        return fh.read()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    """This process's open descriptors and what each names, where
    /proc/self/fd lists them, else an empty dict."""
    if not os.path.isdir(FD_DIR):
        return {}
    fds = {}
    for fd in os.listdir(FD_DIR):
        try:
            fds[fd] = os.readlink(os.path.join(FD_DIR, fd))
        except FileNotFoundError:
            # the descriptor listing FD_DIR, closed once listed
            pass
    return fds


@pytest.fixture(autouse=True)
def no_stray_children_or_descriptors():
    before = open_fds()
    yield
    assert_no_child_left()
    after = open_fds()
    assert {fd: name for fd, name in after.items() if before.get(fd) != name} == {}
