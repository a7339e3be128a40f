import warnings

import numpy as np
import pytest

from pas.data import (
    Shift,
    SynthConfig,
    atomic_write_text,
    load_features,
    load_labeled,
    load_labels,
    save_features,
    save_labels,
    synth_shifted_pair,
)
from pas.errors import ConfigError, NonFinite, ParseError, RangeError


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
