import errno
import os
import pickle
import signal
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from pas import data
from pas.data import (
    IO_BLOCK_ROWS,
    Shift,
    SynthConfig,
    atomic_write_bytes,
    atomic_write_text,
    load_features,
    load_labeled,
    load_labels,
    save_features,
    save_labels,
    synth_shifted_pair,
)
from pas.errors import ConfigError, NonFinite, ParseError, RangeError
from conftest import assert_no_child_left
from test_baselines import traced_peak


# --- loaders ----------------------------------------------------------------

def test_csv_basic(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    X = load_features(str(p))
    assert X.shape == (2, 2)
    assert X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_inconsistent_arity(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        load_features(str(p))


def test_csv_malformed_value(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0,abc\n")
    with pytest.raises(ParseError):
        load_features(str(p))


def test_csv_empty(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_features(str(p))


# feature-CSV syntax: file bytes -> the matrix read, or None for ParseError
CSV_SYNTAX = [
    (b"1.0,2.0\n\n3.0,4.0\n", [[1.0, 2.0], [3.0, 4.0]]),      # blank line
    (b"1,2\n \t \n3,4\n  \n", [[1.0, 2.0], [3.0, 4.0]]),      # whitespace-only
    (b"1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),             # CRLF
    (b"1,\t2\n\t3 , 4\n", [[1.0, 2.0], [3.0, 4.0]]),           # tabs, spaces
    (b"1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),                   # no final newline
    (b"-1.5e-300,.5,+7\n", [[-1.5e-300, 0.5, 7.0]]),          # one row
    (b"1\n2\n3\n", [[1.0], [2.0], [3.0]]),                     # one column
    (b"1,2\n3\n", None),                                       # arity change
    (b"", None),                                                # empty file
    (b"\n \n\t\n", None),                                      # blank lines only
    (b"1_0,2\n", None),                                         # underscore
    ("\u0661,2\n".encode(), None),                              # Arabic-Indic digit
    (b"1e,2\n", None),                                          # no exponent digits
    (b"1,2,\n", None),                                          # empty field
]


@pytest.mark.parametrize("raw, expected", CSV_SYNTAX)
def test_csv_syntax(tmp_path, raw, expected):
    p = tmp_path / "f.csv"
    p.write_bytes(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            with pytest.raises(ParseError, match="f.csv"):
                load_features(str(p))
        else:
            X = load_features(str(p))
            assert X.dtype == np.float64 and X.ndim == 2
            assert X.tolist() == expected


def test_csv_rejects_nonfinite(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1.0,nan\n")
    with pytest.raises(NonFinite):
        load_features(str(p))


def test_csv_round_trip_exact(tmp_path):
    X = np.random.default_rng(0).normal(size=(7, 4))
    p = tmp_path / "f.csv"
    save_features(str(p), X)
    assert (load_features(str(p)) == X).all()


def test_csv_cells_match_per_value_repr(tmp_path):
    # the per-value repr(float(v)) save_features once wrote is the oracle
    # for its bytes, on the values whose repr is easiest to get wrong
    tiny = np.finfo(float).tiny
    X = np.array([[-0.0, 0.0, tiny / 4, -tiny, np.finfo(float).max],
                  [np.nan, np.inf, -np.inf, 1e-300, 0.1],
                  [1.0, -2.5e16, 123456789.125, 5e-324, 1 / 3]])
    p = tmp_path / "f.csv"
    save_features(str(p), X)
    lines = [",".join(repr(float(v)) for v in row) for row in X]
    assert p.read_text() == "\n".join(lines) + "\n"


def csv_oracle(X):
    """The CSV bytes of X as save_features wrote them in one process."""
    lines = [",".join(map(repr, row.tolist())) for row in X]
    return ("\n".join(lines) + "\n").encode()


def test_blocked_files_match_whole_file_oracles(tmp_path):
    # the whole file's text and PASM bytes, as save_features once built
    # them, are the oracles for its blocks, here past two block boundaries
    # and from a matrix that is not C-ordered
    X = np.asfortranarray(np.random.default_rng(2).normal(size=(2 * IO_BLOCK_ROWS + 1, 3)))
    p = tmp_path / "f"
    save_features(str(p), X)
    assert p.read_bytes() == csv_oracle(X)
    save_features(str(p), X, fmt="bin")
    assert p.read_bytes() == b"PASM" + struct.pack("<II", *X.shape) + X.astype("<f8").tobytes()
    # zero rows: one newline, and a header alone
    save_features(str(p), np.zeros((0, 3)))
    assert p.read_bytes() == b"\n"
    save_features(str(p), np.zeros((0, 3)), fmt="bin")
    assert p.read_bytes() == b"PASM" + struct.pack("<II", 0, 3)


def allow_cpus(monkeypatch, count):
    """Let this process run on `count` CPUs; the list returned collects
    the pid of each child it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_feature_io_memory_is_the_matrix_and_one_block(tmp_path, monkeypatch, fmt):
    # a save holds one block of rows' text or bytes and a load the matrix
    # and loadtxt's line, where the whole file's text is 8 blocks here; at
    # two CPUs a CSV save forks one child, which formats every other block
    # while this process holds the block it writes, and a CSV load forks
    # one child, and this process holds every range's rows (its own half
    # and the child's) plus the matrix they are joined into
    X = np.random.default_rng(3).normal(size=(8192, 64))
    # repr of a float64 takes at most 24 characters, plus its separator
    block = IO_BLOCK_ROWS * X.shape[1] * (25 if fmt == "csv" else 8)
    p = str(tmp_path / "f")
    for cpus in (1, 2):
        forks = allow_cpus(monkeypatch, cpus)
        assert traced_peak(lambda: save_features(p, X, fmt=fmt)) <= X.nbytes + 4 * block
        assert traced_peak(lambda: load_features(p)) <= X.nbytes + 4 * block
        assert load_features(p).tobytes() == X.tobytes()
        assert len(forks) == (3 * (cpus - 1) if fmt == "csv" else 0)
        assert_no_child_left()


# rows of 64 columns, and the fewest of them whose estimated CSV text
# (CSV_CELL_BYTES a cell) reaches the gate
ROWS = np.random.default_rng(8).normal(scale=3, size=(2 * IO_BLOCK_ROWS + 1, 64))
GATE_ROWS = -(-data.CSV_SPLIT_BYTES // (data.CSV_CELL_BYTES * 64))


# a matrix, and the children its save forks at two CPUs
@pytest.mark.parametrize("X, forks", [
    (ROWS[:0], 0),                                  # zero rows: one "\n"
    (ROWS[:GATE_ROWS - 1], 0),                      # just below the gate
    (ROWS[:GATE_ROWS], 1),                          # just above it
    (np.hstack([ROWS[:IO_BLOCK_ROWS]] * 2), 0),     # above it, but one block
    (np.asfortranarray(ROWS), 1)],                  # three blocks, not C-ordered
    ids=["zero_rows", "below_gate", "above_gate", "one_block", "fortran"])
def test_csv_save_is_the_one_process_save(tmp_path, monkeypatch, X, forks):
    # at one CPU nothing is forked; at two a matrix whose estimated text
    # reaches the gate and that has more than one block forks one child,
    # which formats blocks 1, 3, ...; the bytes are the one-process
    # oracle's either way
    p = tmp_path / "f.csv"
    for cpus in (1, 2):
        made = allow_cpus(monkeypatch, cpus)
        save_features(str(p), X)
        assert p.read_bytes() == csv_oracle(X)
        assert len(made) == (forks if cpus == 2 else 0)
        assert_no_child_left()


@pytest.mark.parametrize("sent", [0, 16, None])
def test_csv_save_formats_what_a_dead_child_did_not_send(tmp_path, monkeypatch, sent):
    # the child of a two-CPU save exits 1 before it sends its first block,
    # or part way through it, or after sending all of it; this process
    # formats every block the child did not send, so the bytes are the same
    X = np.random.default_rng(9).normal(size=(3 * IO_BLOCK_ROWS + 5, 64))
    forks = allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(pickle, "dump", _dump_prefix(sent))
    p = tmp_path / "f.csv"
    save_features(str(p), X)
    assert p.read_bytes() == csv_oracle(X) and len(forks) == 1
    assert_no_child_left()


def test_failed_csv_save_leaves_no_child_nor_temp_file(tmp_path, monkeypatch):
    # the disk fills after the first block is written.  While the error is
    # still held, and with it the frame of save_features and the blocks it
    # was writing, the child that formats blocks 1, 3, ... is already
    # reaped and the temp file removed
    forks = allow_cpus(monkeypatch, 2)
    real_open = open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if isinstance(file, str) and "w" in mode:
            real_write, written = fh.write, []

            def write(block):
                if written:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(len(block))
                return real_write(block)

            fh.write = write
        return fh

    monkeypatch.setattr(data, "open", full_disk_open, raising=False)
    X = np.random.default_rng(10).normal(size=(2 * IO_BLOCK_ROWS + 1, 64))
    with pytest.raises(OSError) as failed:
        save_features(str(tmp_path / "f.csv"), X)
    assert failed.value.errno == errno.ENOSPC and len(forks) == 1
    assert_no_child_left()
    assert os.listdir(tmp_path) == []


def record_parses(monkeypatch):
    """Patch the CSV parsers; the lists returned collect the byte range of
    each range this process parses, and the path of each parse (a range's,
    or the whole file's)."""
    ranges, parses = [], []
    real_range, real_parse = data._read_range, data._read_csv_lines

    def read_range(fd, start, end, path):
        ranges.append((start, end))
        return real_range(fd, start, end, path)

    monkeypatch.setattr(data, "_read_range", read_range)
    monkeypatch.setattr(data, "_read_csv_lines",
                        lambda fh, path: parses.append(path) or real_parse(fh, path))
    return ranges, parses


def split_csv(tmp_path, monkeypatch, seed, cpus):
    """A saved 300 x 5 matrix, the path of its CSV and the byte ranges a
    load at `cpus` CPUs cuts it into, the split floor set to one byte."""
    X = np.random.default_rng(seed).normal(size=(300, 5))
    p = str(tmp_path / "f.csv")
    save_features(p, X)
    monkeypatch.setattr(data, "CSV_SPLIT_BYTES", 1)
    with open(p, "rb") as fh:
        ranges = data._csv_ranges(fh, os.path.getsize(p), cpus)
    assert len(ranges) == cpus
    return X, p, ranges


def _dump_prefix(sent):
    """A pickle.dump for a child that sends only the first `sent` bytes of
    its result (all of them for None), then exits 1."""
    def dump_and_exit(obj, sink, protocol):
        sink.write(pickle.dumps(obj, protocol)[:sent])
        sink.close()
        os._exit(1)
    return dump_and_exit


@pytest.mark.parametrize("sent", [0, 16, 24, None])
def test_split_load_reads_again_when_a_child_dies(tmp_path, monkeypatch, sent):
    # at three CPUs each child exits 1 before it writes anything, or after
    # 16 or 24 bytes of its result; this process parses that child's range
    # again, so the bytes it parses sum to the file's size, and never reads
    # the whole file again.  Children that exit 1 after sending all their
    # bytes are read, and this process parses its own range only
    X, p, ranges = split_csv(tmp_path, monkeypatch, 4, 3)
    forks = allow_cpus(monkeypatch, 3)
    monkeypatch.setattr(pickle, "dump", _dump_prefix(sent))
    parsed, parses = record_parses(monkeypatch)
    assert load_features(p).tobytes() == X.tobytes()
    assert len(forks) == 2
    assert parsed == (ranges[:1] if sent is None else ranges)
    assert len(parses) == len(parsed)
    assert_no_child_left()


@pytest.mark.parametrize("failing", ["first", "every"])
def test_split_load_reads_again_when_fork_fails(tmp_path, monkeypatch, failing):
    # at three CPUs the first fork, or every fork, fails as at a process
    # limit (EAGAIN); that range's pipe has no writer, so this process
    # parses its own range and each range not sent, never the whole file,
    # and reaps any child
    X, p, ranges = split_csv(tmp_path, monkeypatch, 5, 3)
    forks = allow_cpus(monkeypatch, 3)
    counting_fork, attempts = os.fork, []

    def fork():
        attempts.append(1)
        if failing == "every" or len(attempts) == 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    parsed, parses = record_parses(monkeypatch)
    assert load_features(p).tobytes() == X.tobytes()
    assert len(attempts) == 2 and len(forks) == (1 if failing == "first" else 0)
    assert parsed == (ranges[:2] if failing == "first" else ranges)
    assert len(parses) == len(parsed)
    assert_no_child_left()


@pytest.mark.parametrize("bad", [0, 1])
def test_a_bad_value_is_parsed_once_in_its_range(tmp_path, monkeypatch, bad):
    # a bad value in this process's range (0) or in the child's (1): the
    # range's failure is its result, sent as any other, so no process
    # parses that range again.  This process parses its range and then
    # the whole file, whose error is the one-process read's
    p = tmp_path / "f.csv"
    p.write_bytes(b"1,x\n3,4\n5,6\n7,8\n" if bad == 0 else b"1,2\n3,4\n5,6\n7,x\n")
    monkeypatch.setattr(data, "CSV_SPLIT_BYTES", 1)
    allow_cpus(monkeypatch, 1)
    with pytest.raises(ParseError) as one:
        load_features(str(p))
    forks = allow_cpus(monkeypatch, 2)
    parsed, parses = record_parses(monkeypatch)
    with pytest.raises(ParseError) as split:
        load_features(str(p))
    assert type(split.value) is type(one.value) and str(split.value) == str(one.value)
    with open(p, "rb") as fh:
        ranges = data._csv_ranges(fh, 16, 2)
    assert len(forks) == 1 and parsed == ranges[:1] and parses == [str(p)] * 2
    assert_no_child_left()


def test_split_load_parses_in_process_when_no_pipe_is_left(tmp_path, monkeypatch):
    # at two CPUs the pipe cannot be made, as when every descriptor is in
    # use (EMFILE); nothing is forked, and this process parses both ranges
    X, p, ranges = split_csv(tmp_path, monkeypatch, 6, 2)
    forks = allow_cpus(monkeypatch, 2)

    def pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", pipe)
    parsed, parses = record_parses(monkeypatch)
    assert load_features(p).tobytes() == X.tobytes()
    assert forks == [] and parsed == ranges and len(parses) == 2
    assert_no_child_left()


# at two CPUs forks one child, which sends results without end, and
# prints its pid; this process computes item 0, then sleeps
ORPHAN_PROBE = """
import os
import time

from pas import data

real_fork = os.fork


def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid


os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1}
next(data.forked_map(lambda item: bytes(1 << 16), range(1 << 40)))
time.sleep(60)
"""


def _running(pid):
    """Whether process pid exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_forked_child_ends_when_its_parent_is_killed():
    # a child stopped by its full pipe holds no read end of that pipe, so
    # its write fails once the process that forked it is killed (as by
    # SIGKILL or SIGTERM, which run no cleanup) and it ends
    with subprocess.Popen([sys.executable, "-c", ORPHAN_PROBE],
                          stdout=subprocess.PIPE) as parent:
        child = int(parent.stdout.readline())
        parent.kill()
    deadline = time.monotonic() + 10
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = _running(child)
    if alive:
        os.kill(child, signal.SIGKILL)
    assert not alive


@pytest.mark.parametrize("raw", [
    b"1.5,2.5\n3.5,4.5\n5,6,7\n8,9,1\n",   # the second range is all wider
    b"1,2\n3,4\n5,6\n7,x\n",               # a bad value in the second range
    b"1,2\n3,4\n5,6\n7,\xff\n"])           # bytes that are not UTF-8 there
def test_split_load_errors_are_the_one_process_errors(tmp_path, monkeypatch, raw):
    # a range's own parse numbers rows from its start; the error raised is
    # the whole file's, row numbers and all
    p = tmp_path / "f.csv"
    p.write_bytes(raw)
    monkeypatch.setattr(data, "CSV_SPLIT_BYTES", 1)
    allow_cpus(monkeypatch, 1)
    with pytest.raises(ParseError) as one:
        load_features(str(p))
    forks = allow_cpus(monkeypatch, 2)
    with pytest.raises(ParseError) as split:
        load_features(str(p))
    assert str(split.value) == str(one.value) and len(forks) == 1
    assert_no_child_left()


def test_split_ranges_cut_after_a_newline(tmp_path):
    # a cut falls just after the first "\n" at or after an equal share,
    # never inside a "\r\n" nor after a lone "\r", however far past the
    # share that "\n" is; a file whose one newline ends it, or with none,
    # is one range.  The search leaves the file at offset 0
    p = tmp_path / "f.csv"
    for raw, parts, ranges in [
            (b"10\r\n2\r\n3\r\n", 2, [(0, 7), (7, 10)]),
            (b"11\r22\n33\n", 3, [(0, 6), (6, 9)]),
            (b"1\n\n\n\n\n\n", 4, [(0, 2), (2, 4), (4, 6), (6, 7)]),
            (b"1,2,3\n", 2, [(0, 6)]),
            (b"1,2,3", 4, [(0, 5)]),
            # the share falls 100,000 bytes before the end of a 200,001-byte line
            (b"1\n" + b"2," * 100000 + b"3\n4\n", 2,
             [(0, 200004), (200004, 200006)])]:
        p.write_bytes(raw)
        with open(p, "rb") as fh:
            assert data._csv_ranges(fh, len(raw), parts) == ranges
            assert fh.tell() == 0


def test_binary_round_trip_bitwise(tmp_path):
    X = np.random.default_rng(1).normal(size=(13, 6))
    p = tmp_path / "f.pasm"
    save_features(str(p), X, fmt="bin")
    Y = load_features(str(p))
    assert X.tobytes() == Y.tobytes()


def test_binary_magic_and_truncation(tmp_path):
    p = tmp_path / "f.pasm"
    # without the magic the file is read as CSV, which this is not
    p.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ParseError):
        load_features(str(p))
    save_features(str(p), np.ones((2, 2)), fmt="bin")
    blob = p.read_bytes()
    p.write_bytes(blob[:-4])
    with pytest.raises(ParseError):
        load_features(str(p))


def test_save_features_unknown_format(tmp_path):
    p = tmp_path / "f"
    with pytest.raises(ConfigError):
        save_features(str(p), np.ones((2, 2)), fmt="hdf5")
    assert not p.exists()


def test_labels_remapped_contiguous(tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("1,2\n3,4\n5,6\n")
    l = tmp_path / "l.txt"
    l.write_text("7\n3\n9\n")
    ds = load_labeled(str(f), str(l))
    assert ds.labels.tolist() == [1, 0, 2]
    assert ds.num_classes == 3
    assert ds.label_values.tolist() == [3, 7, 9]


def test_labels_negative_rejected(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n-1\n")
    with pytest.raises(RangeError):
        load_labels(str(p))


def test_labels_missing_rejected(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n\n1\n")
    with pytest.raises(RangeError):
        load_labels(str(p))


def test_labels_empty_file_rejected(tmp_path):
    p = tmp_path / "l.txt"
    p.write_bytes(b"")
    with pytest.raises(RangeError, match="no labels"):
        load_labels(str(p))


def test_labels_non_integer_rejected(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\nx\n")
    with pytest.raises(ParseError):
        load_labels(str(p))


@pytest.mark.parametrize("token, error", [
    ("1_0", ParseError),          # int() reads it as 10
    ("\u0661", ParseError),      # an Arabic-Indic one, which int() reads as 1
    ("+5", ParseError),
    ("1 2", ParseError),
    ("-", ParseError),
    ("\u30007", ParseError),     # an ideographic space is not ASCII whitespace
    ("-3", RangeError),
    ("-0", RangeError),
])
def test_labels_accept_only_ascii_digits(tmp_path, token, error):
    p = tmp_path / "l.txt"
    p.write_text("0\n%s\n" % token, encoding="utf-8")
    with pytest.raises(error, match="l.txt:2"):
        load_labels(str(p))


def test_labels_allow_ascii_whitespace_and_leading_zeros(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text(" 7\t\r\n007\n" + "0" * 5000 + "1\n")
    assert load_labels(str(p)).tolist() == [7, 7, 1]
    p.write_text("9" * 5000 + "\n")
    with pytest.raises(RangeError, match="above"):
        load_labels(str(p))


def test_labels_beyond_int64_rejected(tmp_path):
    p = tmp_path / "l.txt"
    for big in (2**63, 99999999999999999999999):
        p.write_text("0\n%d\n" % big)
        with pytest.raises(RangeError):
            load_labels(str(p))
    p.write_text("%d\n" % (2**63 - 1))
    assert load_labels(str(p)).tolist() == [2**63 - 1]


def test_label_count_mismatch(tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("1,2\n3,4\n")
    l = tmp_path / "l.txt"
    l.write_text("0\n")
    with pytest.raises(RangeError):
        load_labeled(str(f), str(l))
    l.write_text("0\n1\n0\n")
    with pytest.raises(RangeError, match="label count"):
        load_labeled(str(f), str(l))


def test_save_labels_round_trip(tmp_path):
    p = tmp_path / "l.txt"
    save_labels(str(p), np.array([2, 0, 1, 2]))
    assert load_labels(str(p)).tolist() == [2, 0, 1, 2]


# --- synthetic generator ----------------------------------------------------

def base_cfg(**kw):
    args = dict(num_classes=3, dim=6, per_class=30,
                shift=Shift(rotation=0.3, translation=1.0, noise=0.5), seed=0)
    args.update(kw)
    return SynthConfig(**args)


def test_generator_deterministic():
    a_src, a_tgt = synth_shifted_pair(base_cfg())
    b_src, b_tgt = synth_shifted_pair(base_cfg())
    assert a_src.features.tobytes() == b_src.features.tobytes()
    assert a_tgt.features.tobytes() == b_tgt.features.tobytes()
    assert (a_src.labels == b_src.labels).all()
    assert (a_tgt.true_labels == b_tgt.true_labels).all()


def test_zero_shift_class_means_match():
    cfg = base_cfg(shift=Shift(rotation=0.0, translation=0.0, noise=0.0))
    src, tgt = synth_shifted_pair(cfg)
    for k in range(3):
        ms = src.features[src.labels == k].mean(axis=0)
        mt = tgt.features[tgt.true_labels == k].mean(axis=0)
        assert np.abs(ms - mt).max() <= 1e-12


def test_pda_keep_filters_target_classes():
    src, tgt = synth_shifted_pair(base_cfg(pda_keep=(0,)))
    assert set(tgt.true_labels.tolist()) == {0}
    assert set(src.labels.tolist()) == {0, 1, 2}


def test_target_labels_subset_of_source():
    src, tgt = synth_shifted_pair(base_cfg(pda_keep=(0, 2)))
    assert set(tgt.true_labels.tolist()) <= set(src.labels.tolist())
    assert set(tgt.true_labels.tolist()) == {0, 2}
    # closed-set: equal label sets
    src, tgt = synth_shifted_pair(base_cfg())
    assert set(tgt.true_labels.tolist()) == set(src.labels.tolist())


def test_sample_counts():
    src, tgt = synth_shifted_pair(base_cfg(pda_keep=(1, 2)))
    assert src.features.shape == (90, 6)
    assert tgt.features.shape == (60, 6)
    assert (np.bincount(tgt.true_labels, minlength=3) == [0, 30, 30]).all()


def test_seed_changes_data():
    a_src, _ = synth_shifted_pair(base_cfg(seed=0))
    b_src, _ = synth_shifted_pair(base_cfg(seed=1))
    assert a_src.features.tobytes() != b_src.features.tobytes()


def test_numpy_integer_seed_and_classes_stored_as_int():
    cfg = base_cfg(seed=np.int64(7), pda_keep=(np.int64(2), 0, 2))
    assert type(cfg.seed) is int and cfg.pda_keep == (0, 2)
    assert all(type(k) is int for k in cfg.pda_keep)


def test_config_validation():
    with pytest.raises(ConfigError):
        base_cfg(num_classes=0)
    with pytest.raises(ConfigError):
        base_cfg(per_class=0)
    # a count is an integer: these once passed or raised a bare TypeError
    for bad in (dict(per_class=2.5), dict(dim=True), dict(num_classes="2")):
        with pytest.raises(ConfigError):
            base_cfg(**bad)
    with pytest.raises(ConfigError):
        base_cfg(shift=Shift(rotation=-0.1, translation=0, noise=0))
    # a magnitude is a real number: True once rotated by 1 radian and "1"
    # raised a bare TypeError
    for bad in (float("nan"), float("inf"), 10**400, True, np.True_, "1", None):
        for shift in (Shift(rotation=bad), Shift(translation=bad), Shift(noise=bad)):
            with pytest.raises(ConfigError, match="shift"):
                base_cfg(shift=shift)
    with pytest.raises(ConfigError):
        base_cfg(pda_keep=())
    with pytest.raises(ConfigError):
        base_cfg(pda_keep=(0, 5))
    # a seed of -1 once raised numpy's bare ValueError when data was drawn,
    # True was taken as 1 and 1.5 raised a bare TypeError
    for seed in (-1, True, 1.5, "1"):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            base_cfg(seed=seed)
    # pda_keep (0, 1.5) was once truncated to (0, 1) and True taken as 1
    for keep in ((0, 1.5), (0, True), (True,), (0, 1.0), (0, "1"), (-1, 0)):
        with pytest.raises(ConfigError, match="pda_keep"):
            base_cfg(pda_keep=keep)
    with pytest.raises(ConfigError):
        SynthConfig(num_classes=2, dim=1, per_class=5,
                    shift=Shift(rotation=0.5, translation=0.0, noise=0.0))
    with pytest.raises(ConfigError):
        synth_shifted_pair("not a config")


def test_rotation_preserves_norms():
    cfg = base_cfg(shift=Shift(rotation=0.9, translation=0.0, noise=0.0))
    src, tgt = synth_shifted_pair(cfg)
    # pure rotation: per-class mean norms are preserved
    for k in range(3):
        ns = np.linalg.norm(src.features[src.labels == k].mean(axis=0))
        nt = np.linalg.norm(tgt.features[tgt.true_labels == k].mean(axis=0))
        assert nt == pytest.approx(ns, rel=1e-9)


def test_failed_atomic_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        atomic_write_text(str(target), "text\n")
    assert target.is_dir()
    assert list(tmp_path.glob("*.tmp.*")) == []


def test_failed_streamed_write_leaves_no_output(tmp_path):
    target = tmp_path / "f"
    target.write_bytes(b"old\n")

    def blocks():
        yield b"new"
        raise RuntimeError("block source failed")

    with pytest.raises(RuntimeError, match="block source failed"):
        atomic_write_bytes(str(target), blocks())
    assert target.read_bytes() == b"old\n"
    assert list(tmp_path.glob("*.tmp.*")) == []
