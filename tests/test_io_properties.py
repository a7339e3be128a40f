"""Property tests for the file boundaries.

Feature (CSV and binary) and label files round-trip bit for bit, and
malformed CSV, binary, label and model files make `pas fit` and
`pas predict` exit with 2 or 3, writing nothing.  Each malformed file is
a valid one with one defect, so every example is malformed by
construction.
"""

import contextlib
import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pas.cli import main
from pas.data import (
    LABEL_MAX,
    load_features,
    load_labels,
    save_features,
    save_labels,
)

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
    texts = {key: open(prefix + suffix).read() for key, suffix in names.items()}
    texts["model"] = open(model).read()
    return texts


def run_cli(valid, command, bad_key, bad_bytes):
    """Run `pas fit` or `pas predict` with one input replaced by bad_bytes;
    return the exit code after checking that no output was written."""
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
        else:
            argv = ["predict", "--model", paths["model"],
                    "--features", paths["target"], "--out", outs[0]]
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert not any(os.path.exists(out) for out in outs)
    return code


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
    ("feature_dim",): [None, "x", [], 0, -1, 5],
    ("num_classes",): [None, "x", 0, -1, 4],
    ("subspaces",): [None, "x", [], {}],
    ("subspaces", 1): [None, "x", [], {}],
    ("subspaces", 0, "mean"): [None, [], [0.0] * 3],
    ("subspaces", 0, "mean", 2): [None, "x", [], float("nan"), float("inf")],
    ("subspaces", 2, "basis"): [None, [], [1.0] * 3],
    ("subspaces", 2, "basis", 0): [None, "x", float("nan"), 5.0],
    ("subspaces", 1, "spectrum"): [None, [1.0] * 3],
    ("subspaces", 1, "spectrum", 0): [None, "x", float("nan"), -1.0],
    ("config",): [None, "x", [], 1],
    ("config", "dim"): [None, "x", 0],
    ("config", "schedule_step"): [None, "x", 0.0, 2.0],
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
