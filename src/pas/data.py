"""Dataset ingestion and a seeded synthetic domain-shift generator.

File formats:
  * CSV features: comma-separated, no header, one sample per row.
  * Binary features: magic "PASM", u32 n, u32 d (little endian), then
    n*d little-endian float64 values in row-major order.
  * Labels: one integer per line.

The synthetic generator draws per-class Gaussian blobs for the source
domain and produces the target domain by transforming the *same* sample
points with a rotation in a seeded random plane, a translation along a
seeded random direction, and fresh isotropic noise.  Keeping the sample
points paired makes the zero-shift case exactly class-mean preserving.
"""

import contextlib
import io
import itertools
import os
import pickle
import signal
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, ParseError, RangeError, check_count,
                     check_labels, check_matrix, check_real)

# class blobs get one elongated principal direction so rank-1 subspaces
# capture real structure rather than noise
BLOB_AXIS_STD = 3.0
BLOB_ISO_STD = 1.0
MEAN_SCALE = 2.0
# class means are redrawn until no pair is closer than this fraction of the
# expected pairwise distance, so no seed starts with two classes merged
MEAN_SEP_FRACTION = 0.9
MEAN_DRAW_TRIES = 1000
# rows per block a feature file is written in: a save holds one block's
# text or bytes beside the matrix, not the whole file's
IO_BLOCK_ROWS = 1024
# a regular CSV file of at least this many bytes is parsed in byte ranges,
# one per usable CPU, at the same time; near 1 MiB a fork and its pipe
# cost about what the second CPU saves, and from 2 MiB the split is faster
CSV_SPLIT_BYTES = 2 << 20
# labels are held as int64
LABEL_MAX = np.iinfo(np.int64).max
# str.strip() would also drop Unicode spaces
ASCII_WHITESPACE = " \t\n\r\v\f"


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    label_values: np.ndarray | None = None   # class index k -> label value


@dataclass
class UnlabeledDataset:
    features: np.ndarray
    true_labels: np.ndarray | None = None


@dataclass
class Shift:
    rotation: float = 0.0      # radians, applied in a seeded random plane
    translation: float = 0.0   # magnitude along a seeded random direction
    noise: float = 0.0         # stddev of isotropic target noise


@dataclass
class SynthConfig:
    num_classes: int
    dim: int
    per_class: int             # samples per class per domain
    shift: Shift = field(default_factory=Shift)
    pda_keep: tuple | None = None   # target keeps only these classes
    seed: int = 0

    def __post_init__(self):
        for name in ("num_classes", "dim", "per_class"):
            setattr(self, name, check_count(getattr(self, name), name))
        self.seed = check_count(self.seed, "seed", ConfigError, low=0)
        # NaN fails both x < 0 and x > 0, so it would silently mean "no shift"
        for name in ("rotation", "translation", "noise"):
            if check_real(getattr(self.shift, name), "shift " + name) < 0:
                raise ConfigError("shift %s must be nonnegative, got %r"
                                  % (name, getattr(self.shift, name)))
        if self.shift.rotation > 0 and self.dim < 2:
            raise ConfigError("rotation requires dim >= 2")
        if self.pda_keep is not None:
            keep = tuple(sorted({check_count(k, "pda_keep class", low=0)
                                 for k in self.pda_keep}))
            if not keep:
                raise ConfigError("pda_keep must be nonempty when given")
            if keep[-1] >= self.num_classes:
                raise ConfigError("pda_keep classes outside {0..%d}"
                                  % (self.num_classes - 1))
            object.__setattr__(self, "pda_keep", keep)


def usable_cpus():
    """The number of CPUs this process may run on: its affinity set where
    the platform reports one, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def load_features(path):
    """Load a feature matrix from a binary or CSV file.

    A file whose first four bytes are the magic "PASM" is read as binary,
    any other file as CSV (no CSV starts with "PASM").  A CSV field is a
    float in numpy's syntax, with optional surrounding whitespace; blank
    and whitespace-only lines are skipped.  Raises ParseError for a
    malformed or empty file and NonFinite for NaN/Inf.

    A regular CSV file of at least CSV_SPLIT_BYTES is parsed in byte
    ranges, one per usable CPU, in this process and in forked children.
    Its matrix, or the error it raises, is that of the one-process read.
    """
    with open(path, "rb") as fh:
        if fh.peek(4)[:4] == b"PASM":
            X = _read_pasm(fh, path)
        else:
            X = _read_csv_split(fh, path)
            if X is None:
                with io.TextIOWrapper(fh) as text:
                    X = _read_csv_lines(text, path)
    return check_matrix(X, path)


def _read_csv_lines(fh, path):
    """The matrix of the CSV lines of the text file fh, its non-blank lines
    streamed into np.loadtxt."""
    lines = (line for line in fh if line.strip())
    # a file that does not decode raises a ValueError from either read
    try:
        # loadtxt warns on an input with no rows; this error says so
        first = next(lines, None)
        if first is None:
            raise ParseError("%s: no rows" % path)
        return np.loadtxt(itertools.chain([first], lines), delimiter=",",
                          ndmin=2, comments=None, dtype=float)
    except ValueError as exc:
        raise ParseError("%s: %s" % (path, exc)) from exc


class _RangeReader(io.RawIOBase):
    """Bytes [start, end) of the file open as descriptor fd, read with
    os.pread: a forked child shares the descriptor's offset, so none of
    them may move it."""

    def __init__(self, fd, start, end):
        super().__init__()
        self.fd, self.pos, self.end = fd, start, end

    def readable(self):
        return True

    def readinto(self, buf):
        got = os.pread(self.fd, min(len(buf), self.end - self.pos), self.pos)
        buf[:len(got)] = got
        self.pos += len(got)
        return len(got)


def _read_range(fd, start, end, path):
    """The matrix of the CSV lines in bytes [start, end) of fd, decoded as
    open(path) decodes the whole file.  A range starts just after a "\n",
    where every decoder of a locale encoding is at a character and a line
    start, so it holds the same lines as the whole file's read."""
    raw = _RangeReader(fd, start, end)
    with io.TextIOWrapper(io.BufferedReader(raw)) as fh:
        X = _read_csv_lines(fh, path)
    if raw.pos != end:
        raise ParseError("%s: shrank while read" % path)
    return X


def _csv_ranges(fh, size, parts):
    """Byte ranges covering [0, size), at most `parts` of them, each cut
    just after the first "\n" at or after an equal share of the file open
    in binary as fh, which is left at offset 0."""
    cuts = [0]
    for i in range(1, parts):
        fh.seek(max(i * size // parts, cuts[-1]))
        fh.readline()
        if fh.tell() >= size:
            break
        cuts.append(fh.tell())
    fh.seek(0)
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def forked_map(fn, items):
    """Yield fn(item) for each item of the sequence items, in order.

    In w processes, one per usable CPU and at most one per item, this one
    computes items 0, w, 2w, ... and forked child i items i, i + w, ....
    An item a child does not send (it raised or died, or its pipe or fork
    failed) is computed here, so the results, or the error, are map's."""
    w = min(usable_cpus(), len(items))
    with _forked(fn, [items[i::w] for i in range(1, w)]) as sources:
        for i, item in enumerate(items):
            if i % w:
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    yield pickle.load(sources[i % w - 1])
                    continue
            yield fn(item)


@contextlib.contextmanager
def _forked(fn, shares):
    """Fork one child per share, which pickles fn(item) for each item of
    the share, flushed at once, up to the first that raises, into its own
    pipe, holding no read end, then os._exit; a full pipe stops it until
    this process reads.  Yield the read ends, in share order; a share whose
    pipe or fork fails (EMFILE, EAGAIN, ENOMEM) gets one that reads as
    empty.  On exit every child is killed and reaped.  A child's next write
    fails once this process is gone, so no child outlives it for long."""
    pids, sources = [], []
    try:
        for share in shares:
            sources.append(io.BytesIO())
            with contextlib.suppress(OSError):
                read_end, write_end = os.pipe()
                sources[-1] = open(read_end, "rb")
                with open(write_end, "wb") as sink:
                    pid = os.fork()
                    if pid == 0:
                        try:
                            for source in sources:
                                source.close()
                            for item in share:
                                pickle.dump(fn(item), sink, pickle.HIGHEST_PROTOCOL)
                                sink.flush()
                        finally:
                            os._exit(0)
                    pids.append(pid)
        yield sources
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for source in sources:
            source.close()


def _read_csv_split(fh, path):
    """The matrix of the CSV open as fh, its byte ranges parsed by
    forked_map.  None when the file is not split (one usable CPU, a file
    that is not regular or below CSV_SPLIT_BYTES, or one line) or when a
    range fails or the ranges' column counts differ, so that the caller
    reads the whole file in this process, raising that read's error."""
    fd = fh.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode) or info.st_size < CSV_SPLIT_BYTES:
        return None
    ranges = _csv_ranges(fh, info.st_size, usable_cpus())
    if len(ranges) < 2:
        return None
    try:
        return np.concatenate(list(forked_map(
            lambda share: _read_range(fd, *share, path), ranges)))
    except (ParseError, OSError, MemoryError, ValueError):
        return None


def _read_pasm(fh, path):
    """The n x d matrix of the PASM file open as fh, read straight into
    the result after the size is checked against the file's."""
    size = os.fstat(fh.fileno()).st_size
    if size < 12:
        raise ParseError("%s: PASM header shorter than 12 bytes" % path)
    _, n, d = struct.unpack("<4sII", fh.read(12))
    expected = 12 + n * d * 8
    if size != expected:
        raise ParseError("%s: expected %d bytes, got %d" % (path, expected, size))
    if n * d == 0:
        raise ParseError("%s: no rows" % path)
    X = np.empty((n, d), dtype="<f8")
    got = fh.readinto(X)
    if got != X.nbytes:
        # the file shrank after fstat
        raise ParseError("%s: expected %d bytes, got %d" % (path, expected, 12 + got))
    return X


def save_features(path, X, fmt="csv"):
    """Write a feature matrix, IO_BLOCK_ROWS rows at a time; CSV floats use
    repr so values round-trip exactly."""
    X = np.asarray(X, dtype=float)
    if fmt == "csv":
        blocks = _csv_blocks(X)
    elif fmt == "bin":
        header = struct.pack("<4sII", b"PASM", X.shape[0], X.shape[1])
        blocks = itertools.chain([header], (
            np.ascontiguousarray(X[start:start + IO_BLOCK_ROWS], dtype="<f8")
            for start in range(0, X.shape[0], IO_BLOCK_ROWS)))
    else:
        raise ConfigError("unknown feature format %r" % (fmt,))
    atomic_write_bytes(path, blocks)


def _csv_blocks(X):
    """The CSV text of X, encoded one block of rows at a time, each row's
    Python floats made one row at a time; zero rows give the one "\n"."""
    for start in range(0, max(X.shape[0], 1), IO_BLOCK_ROWS):
        lines = [",".join(map(repr, row.tolist()))
                 for row in X[start:start + IO_BLOCK_ROWS]]
        yield ("\n".join(lines) + "\n").encode()


def load_labels(path):
    """Load raw integer labels, one per line.

    A label is ASCII decimal digits with optional surrounding ASCII
    whitespace.  A blank line, a leading "-" (a negative label) or a value
    above LABEL_MAX raises RangeError; any other spelling (a sign "+", an
    underscore, a non-ASCII digit) raises ParseError.
    """
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip(ASCII_WHITESPACE)
            if not token:
                raise RangeError("%s:%d: missing label" % (path, lineno))
            negative = token[0] == "-"
            digits = token[1:] if negative else token
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError("%s:%d: label %r is not ASCII decimal digits"
                                 % (path, lineno, token))
            if negative:
                raise RangeError("%s:%d: negative label %s" % (path, lineno, token))
            # LABEL_MAX has 19 digits, and int() refuses over 4,300
            digits = digits.lstrip("0") or "0"
            value = int(digits) if len(digits) <= 19 else LABEL_MAX + 1
            if value > LABEL_MAX:
                raise RangeError("%s:%d: label %s above %d"
                                 % (path, lineno, digits, LABEL_MAX))
            out.append(value)
    if not out:
        raise RangeError("%s: no labels" % path)
    return np.asarray(out, dtype=np.int64)


def save_labels(path, labels):
    atomic_write_text(path, "\n".join(str(int(v)) for v in labels) + "\n")


def load_labeled(feature_path, label_path):
    """Load features plus labels, remapping labels to contiguous 0-based indices.

    The returned dataset's label_values holds the sorted distinct label
    values, so class index k stands for label_values[k].
    """
    X = load_features(feature_path)
    raw = check_labels(load_labels(label_path), X.shape[0], label_path)
    classes = np.unique(raw)
    labels = np.searchsorted(classes, raw)
    return LabeledDataset(features=X, labels=labels, num_classes=classes.size,
                          label_values=classes)


def _draw_separated_means(rng, K, d):
    # accept the first draw whose closest pair clears the floor; if the
    # floor is unreachable (many classes in few dims), keep the most
    # separated draw seen, so generation never fails and stays seeded
    floor = MEAN_SEP_FRACTION * MEAN_SCALE * np.sqrt(2.0 * d)
    best, best_sep = None, -1.0
    for _ in range(MEAN_DRAW_TRIES):
        means = rng.normal(scale=MEAN_SCALE, size=(K, d))
        if K == 1:
            return means
        diffs = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diffs ** 2).sum(axis=2))
        sep = float(dist[np.triu_indices(K, k=1)].min())
        if sep >= floor:
            return means
        if sep > best_sep:
            best, best_sep = means, sep
    return best


def _rotation_matrix(dim, angle, rng):
    """Rotation by `angle` in the plane of two seeded random directions."""
    u1 = rng.normal(size=dim)
    u1 /= np.linalg.norm(u1)
    u2 = rng.normal(size=dim)
    u2 -= (u2 @ u1) * u1
    u2 /= np.linalg.norm(u2)
    eye = np.eye(dim)
    return (eye
            + (np.cos(angle) - 1.0) * (np.outer(u1, u1) + np.outer(u2, u2))
            + np.sin(angle) * (np.outer(u2, u1) - np.outer(u1, u2)))


# a shift that overflows the target is reported once, by the check on the
# target's features, not by a warning at each operation
@np.errstate(over="ignore", invalid="ignore")
def synth_shifted_pair(cfg):
    """Generate a (source, target) dataset pair under a controlled shift.

    Fully deterministic per seed.  With pda_keep set, the target contains
    only the kept classes while the source keeps all of them.  A shift
    large enough to overflow a target feature raises NonFinite.
    """
    if not isinstance(cfg, SynthConfig):
        raise ConfigError("expected a SynthConfig")
    rng = np.random.default_rng(cfg.seed)
    K, d, n_c = cfg.num_classes, cfg.dim, cfg.per_class

    means = _draw_separated_means(rng, K, d)
    axes = rng.normal(size=(K, d))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)

    rot = None
    if cfg.shift.rotation > 0:
        rot = _rotation_matrix(d, cfg.shift.rotation, rng)
    offset = np.zeros(d)
    if cfg.shift.translation > 0:
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        offset = cfg.shift.translation * direction

    keep = cfg.pda_keep if cfg.pda_keep is not None else tuple(range(K))

    src_blocks, src_labels = [], []
    tgt_blocks, tgt_labels = [], []
    for k in range(K):
        along = rng.normal(scale=BLOB_AXIS_STD, size=(n_c, 1))
        around = rng.normal(scale=BLOB_ISO_STD, size=(n_c, d))
        block = means[k] + along * axes[k] + around
        src_blocks.append(block)
        src_labels.append(np.full(n_c, k, dtype=np.int64))
        if k in keep:
            moved = block if rot is None else block @ rot.T
            if cfg.shift.translation > 0:
                moved = moved + offset
            if cfg.shift.noise > 0:
                moved = moved + rng.normal(scale=cfg.shift.noise, size=(n_c, d))
            tgt_blocks.append(moved)
            tgt_labels.append(np.full(n_c, k, dtype=np.int64))

    X_s = np.vstack(src_blocks)
    y_s = np.concatenate(src_labels)
    X_t = check_matrix(np.vstack(tgt_blocks), "shifted target features")
    y_t = np.concatenate(tgt_labels)
    perm = rng.permutation(X_t.shape[0])
    X_t, y_t = X_t[perm], y_t[perm]

    source = LabeledDataset(features=X_s, labels=y_s, num_classes=K)
    target = UnlabeledDataset(features=X_t, true_labels=y_t)
    return source, target


def atomic_write_text(path, text):
    atomic_write_bytes(path, [text.encode()])


def atomic_write_bytes(path, blocks):
    """Write the bytes-like blocks, in order, to a temp file, then rename it
    to path; on any failure, a block source's own included, the temp file
    is removed and path is left as it was."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
