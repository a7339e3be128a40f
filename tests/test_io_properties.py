"""Property tests for the file boundaries.

Feature (CSV and binary) and label files round-trip bit for bit, a CSV
read split across processes gives the one-process read's matrix or
error, and malformed CSV, binary, label and model files make `pas fit`,
`pas predict` and `pas diagnose` exit with 2 or 3, writing nothing.  Each
malformed file is a valid one with one defect, so every example is
malformed by construction.  The numeric flags of `pas fit`,
`pas diagnose`, `pas synth` and `pas bench`, valid or not, make them exit
with 0, 2 or 3, and a failed run writes nothing.
"""

import contextlib
import io
import json
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pas import data
from pas.cli import main
from pas.data import (
    LABEL_MAX,
    load_features,
    load_labels,
    save_features,
    save_labels,
)
from conftest import read_text

ROUND_TRIP = settings(derandomize=True, max_examples=60, deadline=None)
FUZZ = settings(derandomize=True, max_examples=40, deadline=None)

features = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False))


@ROUND_TRIP
@given(X=features, fmt=st.sampled_from(["csv", "bin"]))
def test_features_round_trip_bitwise(X, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x")
        save_features(path, X, fmt=fmt)
        Y = load_features(path)
    assert Y.shape == X.shape
    # compare bits, so that -0.0 and 0.0 differ
    assert Y.tobytes() == X.tobytes()


@ROUND_TRIP
@given(labels=st.lists(st.integers(0, LABEL_MAX), min_size=1, max_size=20))
def test_labels_round_trip(labels):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels")
        save_labels(path, np.array(labels, dtype=np.int64))
        assert load_labels(path).tolist() == labels


# lines a CSV read skips, and cells that make a row malformed, not UTF-8,
# not finite or ragged, or that parse with their whitespace
SKIPPED_LINES = [b"", b" ", b"\t \x0b"]
ODD_CELLS = [b"x", b"", b"\xff", b"\xe2\x82", b"nan", b"-inf", b" 2.5 ", b"1e3\t", b"1,2"]


@st.composite
def csv_files(draw):
    """CSV bytes: rows of one width with up to two odd cells, skipped lines
    between them, and each line ended by "\n", "\r\n" or a lone "\r",
    the last one maybe by nothing."""
    width = draw(st.integers(1, 3))
    cell = st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        lambda value: repr(value).encode())
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                         min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(ODD_CELLS))
    lines = [b",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(SKIPPED_LINES)))
    ends = draw(st.lists(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]),
                         min_size=len(lines), max_size=len(lines)))
    raw = b"".join(line + end for line, end in zip(lines, ends))
    return raw if draw(st.booleans()) else raw[:len(raw) - len(ends[-1])]


def load_outcome(path, cpus):
    """The matrix's shape and bytes, or the error's type and message, of a
    load on `cpus` CPUs; no child process is left after it."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        try:
            X = load_features(path)
            outcome = (X.shape, X.tobytes())
        except Exception as exc:
            outcome = (type(exc), str(exc))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcome


@ROUND_TRIP
@given(raw=csv_files(), cpus=st.integers(2, 4))
def test_split_csv_load_matches_one_process(raw, cpus):
    # with the floor at one byte every file of more than one line is cut
    # into up to `cpus` ranges, which start and end at skipped lines, CRLFs
    # and odd cells; the one-process read is the oracle
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(data, "CSV_SPLIT_BYTES", 1):
        path = os.path.join(tmp, "x.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        assert load_outcome(path, cpus) == load_outcome(path, 1)


# --- malformed inputs -------------------------------------------------------

@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Texts of a valid synthetic pair and of the model fitted on it."""
    tmp = tmp_path_factory.mktemp("valid")
    prefix = str(tmp / "d")
    assert main(["synth", "--classes", "3", "--dim", "4", "--per-class", "8",
                 "--rotation", "0.3", "--translation", "1.0", "--noise", "0.5",
                 "--out-prefix", prefix]) == 0
    model = str(tmp / "model.json")
    assert main(["fit", "--source", prefix + "_source.csv",
                 "--labels", prefix + "_source_labels.csv",
                 "--target", prefix + "_target.csv", "--dim", "2",
                 "--step", "0.5", "--out-model", model,
                 "--trace-csv", str(tmp / "trace.csv")]) == 0
    names = {"source": "_source.csv", "labels": "_source_labels.csv",
             "target": "_target.csv", "eval": "_target_labels.csv"}
    texts = {key: read_text(prefix + suffix) for key, suffix in names.items()}
    texts["model"] = read_text(model)
    return texts


def exit_code(argv, outs):
    """main's exit code for argv, argparse's usage errors included, after
    checking that a failed run left none of the files outs.  An exception
    escaping main, which a user would see as a traceback, fails the test."""
    with contextlib.redirect_stderr(io.StringIO()), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0 or not any(os.path.exists(out) for out in outs)
    return code


def run_cli(valid, command, bad_key=None, bad_bytes=None, flags=()):
    """Run `pas fit`, `pas predict` or `pas diagnose` with one input
    replaced by bad_bytes and flags appended; return the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, text in valid.items():
            paths[key] = os.path.join(tmp, key)
            with open(paths[key], "wb") as fh:
                fh.write(bad_bytes if key == bad_key else text.encode())
        outs = [os.path.join(tmp, name) for name in ("out1", "out2")]
        if command == "fit":
            argv = ["fit", "--source", paths["source"], "--labels", paths["labels"],
                    "--target", paths["target"], "--eval-labels", paths["eval"],
                    "--step", "0.5", "--out-model", outs[0], "--trace-csv", outs[1]]
        elif command == "predict":
            argv = ["predict", "--model", paths["model"],
                    "--features", paths["target"], "--out", outs[0]]
        else:
            argv = ["diagnose", "--model", paths["model"], "--source", paths["source"],
                    "--target", paths["target"], "--true-labels", paths["eval"],
                    "--out", outs[0], "--out-csv", outs[1]]
        return exit_code(argv + list(flags), outs)


# a field that float() rejects or that parses to a non-finite value
bad_fields = st.sampled_from(["", "nan", "inf", "-inf", "1e999", "0x10", "1..2",
                              "--1", "1,2"]) | st.text().map(lambda t: "x" + t)


@st.composite
def malformed_csv(draw, text):
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(",")
    defect = draw(st.sampled_from(["field", "drop", "extra", "empty", "bytes"]))
    if defect == "field":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(bad_fields)
    elif defect == "drop":
        fields.pop()
    elif defect == "extra":
        fields.append("1.0")
    elif defect == "empty":
        return draw(st.sampled_from([b"", b"\n", b" \n\n"]))
    else:
        # 0xff starts no UTF-8 sequence
        return b"\xff" + draw(st.binary())
    lines[i] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


@FUZZ
@given(data=st.data(), command=st.sampled_from(["fit", "predict"]),
       key=st.sampled_from(["source", "target"]))
def test_malformed_csv_exits_2_or_3(valid, data, command, key):
    if command == "predict":
        key = "target"
    bad = data.draw(malformed_csv(valid[key]))
    assert run_cli(valid, command, key, bad) in (2, 3)


def pasm_bytes(text):
    """The PASM file holding the matrix of a feature CSV text."""
    X = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    return struct.pack("<4sII", b"PASM", *X.shape) + X.astype("<f8").tobytes()


@st.composite
def malformed_binary(draw, text):
    blob = pasm_bytes(text)
    defect = draw(st.sampled_from(["header", "short", "long", "empty", "text"]))
    if defect == "header":
        return blob[:draw(st.integers(4, 11))]
    if defect == "short":
        return blob[:-8]
    if defect == "long":
        return blob + draw(st.binary(min_size=8, max_size=8))
    if defect == "empty":
        n = draw(st.integers(0, 5))
        shape = draw(st.sampled_from([(n, 0), (0, n)]))
        return struct.pack("<4sII", b"PASM", *shape)
    # the magic followed by CSV text
    return b"PASM,1\n" + text.encode()


@FUZZ
@given(data=st.data(), command=st.sampled_from(["fit", "predict"]),
       key=st.sampled_from(["source", "target"]))
def test_malformed_binary_exits_2(valid, data, command, key):
    if command == "predict":
        key = "target"
    bad = data.draw(malformed_binary(valid[key]))
    assert run_cli(valid, command, key, bad) == 2


@st.composite
def malformed_labels(draw, text):
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    defect = draw(st.sampled_from(["value", "drop", "extra", "bytes"]))
    if defect == "value":
        lines[i] = draw(st.sampled_from(["", "-1", "1.5", "1e3", str(2**63),
                                         "99999999999999999999999"])
                        | st.text().map(lambda t: "x" + t))
    elif defect == "drop":
        lines.pop(i)
    elif defect == "extra":
        lines.append("0")
    else:
        return b"\xff" + draw(st.binary())
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


@FUZZ
@given(data=st.data(), key=st.sampled_from(["labels", "eval"]))
def test_malformed_labels_exit_2(valid, data, key):
    bad = data.draw(malformed_labels(valid[key]))
    assert run_cli(valid, "fit", key, bad) == 2


# one defect per field, each invalid whatever the rest of the document holds
MODEL_DEFECTS = {
    ("feature_dim",): [None, "x", [], 0, -1, 5, True, 3.7, "3"],
    ("num_classes",): [None, "x", 0, -1, 4, True, 3.0],
    ("subspaces",): [None, "x", [], {}],
    ("subspaces", 1): [None, "x", [], {}],
    ("subspaces", 0, "mean"): [None, [], [0.0] * 3],
    ("subspaces", 0, "mean", 2): [None, "x", [], float("nan"), float("inf")],
    ("subspaces", 2, "basis"): [None, [], [1.0] * 3],
    ("subspaces", 2, "basis", 0): [None, "x", float("nan"), 5.0],
    ("subspaces", 1, "spectrum"): [None, [1.0] * 3],
    ("subspaces", 1, "spectrum", 0): [None, "x", float("nan"), -1.0],
    ("config",): [None, "x", [], 1],
    ("config", "dim"): [None, "x", 0, True, False],
    ("config", "schedule_step"): [None, "x", 0.0, 2.0, True, 5e-324, 1e-300],
    ("config", "unknown"): [1],
}


@st.composite
def malformed_model(draw, text):
    defect = draw(st.sampled_from(["value", "delete", "truncate", "root", "bytes"]))
    if defect == "truncate":
        # a proper prefix of an object is never a JSON document
        body = text.rstrip()
        return body[:draw(st.integers(0, len(body) - 1))].encode()
    if defect == "root":
        return draw(st.sampled_from([b"[]", b"null", b"1", b'"x"']))
    if defect == "bytes":
        return b"\xff" + draw(st.binary())
    doc = json.loads(text)
    if defect == "value":
        path = draw(st.sampled_from(sorted(MODEL_DEFECTS, key=repr)))
        value = draw(st.sampled_from(MODEL_DEFECTS[path]))
    else:
        path = draw(st.sampled_from([("feature_dim",), ("num_classes",),
                                     ("subspaces",), ("config",),
                                     ("subspaces", 0, "mean"),
                                     ("subspaces", 1, "basis"),
                                     ("subspaces", 2, "spectrum")]))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if defect == "value":
        parent[path[-1]] = value
    else:
        del parent[path[-1]]
    return json.dumps(doc).encode()


@FUZZ
@given(data=st.data())
def test_malformed_model_exits_2_or_3(valid, data):
    bad = data.draw(malformed_model(valid["model"]))
    assert run_cli(valid, "predict", "model", bad) in (2, 3)


@FUZZ
@given(data=st.data(), key=st.sampled_from(["model", "source", "target", "eval"]))
def test_malformed_diagnose_input_exits_2_or_3(valid, data, key):
    if key == "model":
        bad = data.draw(malformed_model(valid["model"]))
    elif key == "eval":
        bad = data.draw(malformed_labels(valid["eval"]))
    else:
        bad = data.draw(malformed_csv(valid[key]) | malformed_binary(valid[key]))
    assert run_cli(valid, "diagnose", key, bad) in (2, 3)


# flag values as typed: each is handed over as --flag=value, so that one
# starting with "-" reaches the flag's own parser.  Valid draws are small,
# since a valid size is run.
reals = (st.sampled_from(["nan", "inf", "-inf", "1e999", "-1", "0", "-0.0", "5e-324",
                          "1e-300", "1e-160", "1e160", "1e300", "1e308", "x", ""])
         | st.floats(0.01, 10.0).map(repr))
sizes = st.sampled_from(["0", "-1", "1.5", "1e1", "x", ""]) | st.integers(1, 3).map(str)
seeds = (st.sampled_from(["-1", "1.5", "x", "", str(2**64)])
         | st.integers(0, 5).map(str))


def flag_args(**flags):
    """--name=value for each flag given, underscores spelled as dashes."""
    return ["--%s=%s" % (name.replace("_", "-"), value)
            for name, value in flags.items() if value is not None]


@FUZZ
@given(fraction=st.none() | reals | st.sampled_from(["0.04", "0.05", "0.5", "0.51"]),
       centers=st.none() | sizes | st.sampled_from(["100", str(2**64)]),
       bandwidth=st.none() | reals, kliep_seed=st.none() | seeds)
def test_diagnose_flags_exit_0_2_or_3(valid, fraction, centers, bandwidth, kliep_seed):
    flags = flag_args(fraction=fraction, centers=centers, bandwidth=bandwidth,
                      kliep_seed=kliep_seed)
    assert run_cli(valid, "diagnose", flags=flags) in (0, 2, 3)


# Invalid steps, subnormals among them, or valid ones of at most 20
# stages: a valid step takes 1 / step stages, so a smaller one is slow.
# A step below 1e-6 would run over 10^6 stages, or infinitely many.
steps = (st.sampled_from(["nan", "inf", "-inf", "1e999", "-1", "0", "-0.0", "1.5",
                          "5e-324", "1e-310", "x", ""])
         | st.floats(5e-324, 1e-6, exclude_max=True).map(repr)
         | st.floats(0.05, 1.0).map(repr))


@FUZZ
@given(dim=st.none() | sizes | st.sampled_from(["4", "100", str(2**64)]),
       step=st.none() | steps)
def test_fit_flags_exit_0_2_or_3(valid, dim, step):
    assert run_cli(valid, "fit", flags=flag_args(dim=dim, step=step)) in (0, 2, 3)


@FUZZ
@given(classes=sizes, dim=sizes, per_class=sizes, rotation=st.none() | reals,
       translation=st.none() | reals, noise=st.none() | reals,
       pda_keep=st.none() | st.sampled_from(["0", "0,1", "2", "-1", "x", "", "0,,1"]),
       seed=st.none() | seeds)
def test_synth_flags_exit_0_2_or_3(classes, dim, per_class, rotation, translation,
                                   noise, pda_keep, seed):
    flags = flag_args(classes=classes, dim=dim, per_class=per_class,
                      rotation=rotation, translation=translation, noise=noise,
                      pda_keep=pda_keep, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "d")
        outs = [prefix + suffix for suffix in ("_source.csv", "_source_labels.csv",
                                               "_target.csv", "_target_labels.csv")]
        assert exit_code(["synth", "--out-prefix", prefix] + flags, outs) in (0, 2, 3)


@FUZZ
@given(suite=st.sampled_from(["pda", "closed"]),
       seeds=st.sampled_from(["0", "-1", "1", "1.5", "x", "", str(-2**64)]))
def test_bench_flags_exit_0_2_or_3(suite, seeds):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "bench.csv")
        argv = ["bench", "--suite", suite, "--out-csv", out] + flag_args(seeds=seeds)
        assert exit_code(argv, [out]) in (0, 2, 3)
