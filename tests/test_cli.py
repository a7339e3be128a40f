import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import pas
from pas import cli
from pas.cli import main
from pas.data import load_features, load_labels, save_features
from pas.errors import ParseError
from conftest import assert_no_child_left, read_text
from test_properties import suite_pair


def synth_args(prefix, classes=3, dim=5, per_class=20, rotation=0.3,
               translation=1.0, noise=0.5, seed=0, pda_keep=None):
    args = ["synth", "--classes", str(classes), "--dim", str(dim),
            "--per-class", str(per_class), "--rotation", str(rotation),
            "--translation", str(translation), "--noise", str(noise),
            "--seed", str(seed), "--out-prefix", prefix]
    if pda_keep:
        args += ["--pda-keep", pda_keep]
    return args


def make_data(tmp_path, **kw):
    os.makedirs(tmp_path, exist_ok=True)
    prefix = str(tmp_path / "data")
    assert main(synth_args(prefix, **kw)) == 0
    return prefix


def run_fit(tmp_path, prefix, step="0.25", dim="1", with_eval=True):
    model = str(tmp_path / "model.json")
    trace = str(tmp_path / "trace.csv")
    args = ["fit", "--source", prefix + "_source.csv",
            "--labels", prefix + "_source_labels.csv",
            "--target", prefix + "_target.csv",
            "--dim", dim, "--step", step,
            "--out-model", model, "--trace-csv", trace]
    if with_eval:
        args += ["--eval-labels", prefix + "_target_labels.csv"]
    assert main(args) == 0
    return model, trace


def test_synth_writes_four_files(tmp_path):
    prefix = make_data(tmp_path)
    for suffix in ("_source.csv", "_source_labels.csv",
                   "_target.csv", "_target_labels.csv"):
        assert os.path.exists(prefix + suffix)
    X = load_features(prefix + "_source.csv")
    assert X.shape == (60, 5)
    assert load_labels(prefix + "_target_labels.csv").shape == (60,)


def test_fit_zero_shift_final_pseudo_acc_is_one(tmp_path):
    prefix = make_data(tmp_path, rotation=0.0, translation=0.0, noise=0.0)
    _, trace = run_fit(tmp_path, prefix)
    lines = read_text(trace).strip().split("\n")
    assert lines[0] == "stage,fraction,lambda,anchored,objective,pseudo_acc"
    assert lines[-1].split(",")[-1] == "1.0"


def test_fit_step_one_gives_two_stages(tmp_path):
    prefix = make_data(tmp_path)
    _, trace = run_fit(tmp_path, prefix, step="1.0")
    lines = read_text(trace).strip().split("\n")
    assert len(lines) == 3  # header + 2 stages


def _closed_fit(tmp_path):
    """The exit status of pas fit at its defaults on the files of
    suite_pair("closed")."""
    prefix = make_data(tmp_path, dim=8, per_class=300, rotation=0.2,
                       translation=2.5, noise=1.5)
    return main(["fit", "--source", prefix + "_source.csv",
                 "--labels", prefix + "_source_labels.csv",
                 "--target", prefix + "_target.csv",
                 "--out-model", str(tmp_path / "model.json"),
                 "--trace-csv", str(tmp_path / "trace.csv")])


def test_default_fit_converges_silently(tmp_path, capsys):
    source, target, labels, config = suite_pair("closed")
    _, trace = pas.fit_progressive(source.features, labels, target.features, config)
    assert len(trace) == 101 and all(rec.converged for rec in trace)
    capsys.readouterr()
    assert _closed_fit(tmp_path) == 0
    assert capsys.readouterr().err == ""


def test_fit_names_each_unconverged_stage_on_stderr(tmp_path, capsys, monkeypatch):
    # with one inner iteration no stage can meet the stopping rule, which
    # compares two objectives: every record says so, and pas fit names
    # every stage on stderr and still exits 0
    monkeypatch.setattr(pas.core.PasConfig, "inner_max_iters", 1)
    source, target, labels, config = suite_pair("closed")
    _, trace = pas.fit_progressive(source.features, labels, target.features, config)
    assert [(rec.inner_iters, rec.converged) for rec in trace] == [(1, False)] * 101
    capsys.readouterr()
    assert _closed_fit(tmp_path) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: stage %d did not converge in 1 inner iterations" % s
        for s in range(101)]


def test_fit_rerun_byte_identical(tmp_path):
    prefix = make_data(tmp_path)
    model1, trace1 = run_fit(tmp_path, prefix)
    m1, t1 = read_text(model1, "rb"), read_text(trace1, "rb")
    model2, trace2 = run_fit(tmp_path, prefix)
    assert read_text(model2, "rb") == m1
    assert read_text(trace2, "rb") == t1


def test_predict_round_trips_with_library(tmp_path):
    prefix = make_data(tmp_path)
    model, _ = run_fit(tmp_path, prefix)
    out = str(tmp_path / "pred.txt")
    assert main(["predict", "--model", model,
                 "--features", prefix + "_target.csv", "--out", out]) == 0
    got = load_labels(out)
    loaded = pas.load_model(model)
    expected = pas.predict(loaded, load_features(prefix + "_target.csv"))
    assert (got == expected).all()


def test_predict_matches_final_trace_accuracy(tmp_path):
    prefix = make_data(tmp_path, seed=3)
    model, trace = run_fit(tmp_path, prefix)
    out = str(tmp_path / "pred.txt")
    main(["predict", "--model", model,
          "--features", prefix + "_target.csv", "--out", out])
    pred = load_labels(out)
    truth = load_labels(prefix + "_target_labels.csv")
    final_acc = float(read_text(trace).strip().split("\n")[-1].split(",")[-1])
    assert float(np.mean(pred == truth)) == pytest.approx(final_acc)


def test_predict_empty_features_exit_2(tmp_path):
    prefix = make_data(tmp_path)
    model, _ = run_fit(tmp_path, prefix)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = str(tmp_path / "pred.txt")
    assert main(["predict", "--model", model, "--features", str(empty),
                 "--out", out]) == 2
    assert not os.path.exists(out)


def test_fit_and_predict_reject_underscore_digits_exit_2(tmp_path):
    # float() reads "1_0" as 10; the feature CSV syntax does not
    prefix = make_data(tmp_path)
    model, _ = run_fit(tmp_path, prefix, step="1.0")
    lines = read_text(prefix + "_target.csv").split("\n")
    lines[3] = "1_0," + lines[3].split(",", 1)[1]
    bad = str(tmp_path / "bad.csv")
    with open(bad, "w") as fh:
        fh.write("\n".join(lines))
    out, new_model = str(tmp_path / "pred.txt"), str(tmp_path / "m2.json")
    assert main(["predict", "--model", model, "--features", bad,
                 "--out", out]) == 2
    assert main(["fit", "--source", prefix + "_source.csv",
                 "--labels", prefix + "_source_labels.csv", "--target", bad,
                 "--out-model", new_model,
                 "--trace-csv", str(tmp_path / "t2.csv")]) == 2
    assert not os.path.exists(out) and not os.path.exists(new_model)


@pytest.mark.parametrize("token", ["1_0", "\u0661"])
def test_fit_rejects_non_ascii_digit_labels_exit_2(tmp_path, token):
    # int() reads "1_0" as 10 and an Arabic-Indic one as 1
    prefix = make_data(tmp_path)
    lines = read_text(prefix + "_source_labels.csv").split("\n")
    lines[2] = token
    bad = str(tmp_path / "bad_labels.csv")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    new_model = str(tmp_path / "m2.json")
    assert main(["fit", "--source", prefix + "_source.csv", "--labels", bad,
                 "--target", prefix + "_target.csv", "--out-model", new_model,
                 "--trace-csv", str(tmp_path / "t2.csv")]) == 2
    assert not os.path.exists(new_model)


def test_label_count_mismatch_exit_2(tmp_path):
    # the library checks these counts; the commands rely on it
    prefix = make_data(tmp_path)
    model, _ = run_fit(tmp_path, prefix, step="1.0")
    labels = read_text(prefix + "_target_labels.csv").split("\n")
    for name, text in (("short.txt", "\n".join(labels[1:])),
                       ("long.txt", "0\n" + "\n".join(labels))):
        path = str(tmp_path / name)
        with open(path, "w") as fh:
            fh.write(text)
        out = str(tmp_path / "out")
        assert main(["fit", "--source", prefix + "_source.csv",
                     "--labels", prefix + "_source_labels.csv",
                     "--target", prefix + "_target.csv", "--eval-labels", path,
                     "--out-model", out, "--trace-csv", out + ".csv"]) == 2
        assert main(["diagnose", "--model", model,
                     "--source", prefix + "_source.csv",
                     "--target", prefix + "_target.csv",
                     "--true-labels", path, "--out", out]) == 2
        assert not os.path.exists(out)


def test_predict_dimension_mismatch_exit_3(tmp_path):
    prefix = make_data(tmp_path, dim=5)
    model, _ = run_fit(tmp_path, prefix)
    other = make_data(tmp_path / "o", dim=4)
    out = str(tmp_path / "pred.txt")
    assert main(["predict", "--model", model,
                 "--features", other + "_target.csv", "--out", out]) == 3
    assert not os.path.exists(out)


def test_predict_overflowing_distance_exit_2(tmp_path, capsys):
    # finite rows whose distances overflow once got labels from NaN
    prefix = make_data(tmp_path, classes=2, dim=2, per_class=5)
    model, _ = run_fit(tmp_path, prefix)
    rows = tmp_path / "big.csv"
    rows.write_text("1,1\n1.5e308,2\n-1.5e308,3\n")
    out = str(tmp_path / "pred.txt")
    assert main(["predict", "--model", model, "--features", str(rows),
                 "--out", out]) == 2
    assert "distance matrix contains NaN/Inf" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_missing_file_exit_2(tmp_path):
    assert main(["fit", "--source", str(tmp_path / "nope.csv"),
                 "--labels", str(tmp_path / "nope.txt"),
                 "--target", str(tmp_path / "nope2.csv"),
                 "--out-model", str(tmp_path / "m.json"),
                 "--trace-csv", str(tmp_path / "t.csv")]) == 2
    assert not os.path.exists(tmp_path / "m.json")
    assert not os.path.exists(tmp_path / "t.csv")


def test_fit_dimension_mismatch_exit_3(tmp_path):
    a = make_data(tmp_path / "a", dim=5)
    b = make_data(tmp_path / "b", dim=4)
    assert main(["fit", "--source", a + "_source.csv",
                 "--labels", a + "_source_labels.csv",
                 "--target", b + "_target.csv",
                 "--out-model", str(tmp_path / "m.json"),
                 "--trace-csv", str(tmp_path / "t.csv")]) == 3


@pytest.mark.parametrize("step", ["5e-324", "1e-310", "1e-300", "1e-7"])
def test_fit_step_without_finite_stage_count_exit_2(tmp_path, capsys, step):
    # a fit runs 1 / step stages: at 5e-324 and 1e-310 that overflowed to
    # inf and math.ceil raised OverflowError, and at 1e-300 the fit never
    # ended; a step below 1e-6 is refused before any stage runs
    prefix = make_data(tmp_path)
    model = str(tmp_path / "m.json")
    assert main(["fit", "--source", prefix + "_source.csv",
                 "--labels", prefix + "_source_labels.csv",
                 "--target", prefix + "_target.csv", "--step", step,
                 "--out-model", model, "--trace-csv", str(tmp_path / "t.csv")]) == 2
    assert "schedule_step must be at least 1e-06" in capsys.readouterr().err
    assert not os.path.exists(model)


@pytest.mark.parametrize("message, shown", [("Unable to allocate 7.28 TiB",) * 2,
                                            ("", "MemoryError")])
def test_synth_memory_error_exit_2(tmp_path, capsys, monkeypatch, message, shown):
    # an array too large to allocate once escaped main as a traceback; the
    # allocation is stubbed, since a real one could start filling memory
    def too_large(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(pas.data, "synth_shifted_pair", too_large)
    assert main(synth_args(str(tmp_path / "z"), per_class=10**12)) == 2
    assert capsys.readouterr().err == "error: %s\n" % shown
    assert not os.listdir(tmp_path)


def test_synth_determinism_and_pda(tmp_path):
    p1 = make_data(tmp_path / "x", pda_keep="0,2", seed=7)
    p2 = make_data(tmp_path / "y", pda_keep="0,2", seed=7)
    for suffix in ("_source.csv", "_target.csv", "_target_labels.csv"):
        assert read_text(p1 + suffix, "rb") == read_text(p2 + suffix, "rb")
    labels = load_labels(p1 + "_target_labels.csv")
    assert set(labels.tolist()) == {0, 2}


def test_synth_bad_config_exit_2(tmp_path):
    assert main(synth_args(str(tmp_path / "z"), pda_keep="0,9")) == 2
    assert main(synth_args(str(tmp_path / "z"), noise="nan")) == 2
    # a shift whose target overflows once wrote inf features and exited 0
    assert main(synth_args(str(tmp_path / "z"), translation=1e308, noise=1e308)) == 2
    assert not os.path.exists(str(tmp_path / "z") + "_source.csv")


def test_synth_negative_seed_exit_2(tmp_path, capsys):
    prefix = str(tmp_path / "z")
    assert main(synth_args(prefix, seed=-1)) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(prefix + "_source.csv")


def test_fit_label_beyond_int64_exit_2(tmp_path):
    prefix = make_data(tmp_path)
    labels = tmp_path / "big.txt"
    labels.write_text("99999999999999999999999\n")
    assert main(["fit", "--source", prefix + "_source.csv",
                 "--labels", str(labels), "--target", prefix + "_target.csv",
                 "--out-model", str(tmp_path / "m.json"),
                 "--trace-csv", str(tmp_path / "t.csv")]) == 2
    assert not os.path.exists(tmp_path / "m.json")


def test_fit_pseudo_acc_uses_source_label_mapping(tmp_path):
    prefix = make_data(tmp_path)
    _, trace0 = run_fit(tmp_path, prefix)
    expected = read_text(trace0)
    for name in ("_source_labels.csv", "_target_labels.csv"):
        raw = load_labels(prefix + name)
        pas.save_labels(prefix + "_shifted" + name, raw + 5)
    model = str(tmp_path / "m.json")
    trace = str(tmp_path / "t.csv")
    fit = ["fit", "--source", prefix + "_source.csv",
           "--labels", prefix + "_shifted_source_labels.csv",
           "--target", prefix + "_target.csv", "--step", "0.25",
           "--out-model", model, "--trace-csv", trace]
    assert main(fit + ["--eval-labels", prefix + "_shifted_target_labels.csv"]) == 0
    assert read_text(trace) == expected
    # a label the source does not have is a miss
    absent = tmp_path / "absent.txt"
    absent.write_text("9\n" * load_labels(prefix + "_target_labels.csv").size)
    assert main(fit + ["--eval-labels", str(absent)]) == 0
    rows = read_text(trace).strip().split("\n")[1:]
    assert [row.split(",")[-1] for row in rows] == ["0.0"] * len(rows)


def test_predict_and_diagnose_use_source_label_values(tmp_path):
    # zero shift: every target row is predicted right, so with the labels
    # moved to {5, 6, 7} predict must write 5/6/7 and diagnose score 1.0
    prefix = make_data(tmp_path, per_class=40, rotation=0.0, translation=0.0,
                       noise=0.0)
    for name in ("_source_labels.csv", "_target_labels.csv"):
        pas.save_labels(prefix + "_moved" + name, load_labels(prefix + name) + 5)
    model = str(tmp_path / "model.json")
    assert main(["fit", "--source", prefix + "_source.csv",
                 "--labels", prefix + "_moved_source_labels.csv",
                 "--target", prefix + "_target.csv", "--step", "0.25",
                 "--out-model", model,
                 "--trace-csv", str(tmp_path / "trace.csv")]) == 0
    assert json.loads(read_text(model))["label_values"] == [5, 6, 7]
    pred = str(tmp_path / "pred.txt")
    assert main(["predict", "--model", model,
                 "--features", prefix + "_target.csv", "--out", pred]) == 0
    truth = load_labels(prefix + "_moved_target_labels.csv")
    assert np.array_equal(load_labels(pred), truth)
    report = str(tmp_path / "report.json")
    assert main(["diagnose", "--model", model,
                 "--source", prefix + "_source.csv",
                 "--target", prefix + "_target.csv",
                 "--true-labels", prefix + "_moved_target_labels.csv",
                 "--fraction", "0.1", "--out", report]) == 0
    doc = json.loads(read_text(report))
    assert doc["top"]["acc"] == 1.0 and doc["bottom"]["acc"] == 1.0


def test_bench_writes_sorted_rows(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--suite", "pda", "--seeds", "2",
                 "--out-csv", out]) == 0
    lines = read_text(out).strip().split("\n")
    assert lines[0] == "method,seed,accuracy"
    rows = [l.split(",") for l in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        ("1nn", "0"), ("1nn", "1"), ("pas", "0"), ("pas", "1"),
        ("pas_c", "0"), ("pas_c", "1")]
    printed = capsys.readouterr().out
    assert "pas mean accuracy" in printed


# correct target rows per seed 0..7 of pas bench (900 closed-suite rows,
# 120 pda-suite rows), recorded before the solver carried class indices
BENCH_CORRECT = {
    "closed": {"1nn": [878, 862, 880, 889, 870, 789, 878, 863],
               "pas": [883, 878, 884, 890, 863, 830, 882, 864],
               "pas_c": [882, 866, 881, 887, 864, 795, 879, 856]},
    "pda": {"1nn": [120, 120, 114, 103, 118, 117, 114, 120],
            "pas": [120] * 8,
            "pas_c": [117, 120, 114, 100, 116, 119, 114, 117]},
}


@pytest.mark.parametrize("suite, rows", [("closed", 900), ("pda", 120)])
def test_bench_accuracies_are_pinned(tmp_path, suite, rows):
    out = str(tmp_path / "bench.csv")
    assert main(["bench", "--suite", suite, "--seeds", "8",
                 "--out-csv", out]) == 0
    got = [l.split(",") for l in read_text(out).strip().split("\n")[1:]]
    assert got == [[method, str(seed), repr(correct / rows)]
                   for method, counts in sorted(BENCH_CORRECT[suite].items())
                   for seed, correct in enumerate(counts)]


def _bench_csv(tmp_path, monkeypatch, suite, cpus, capsys, seeds=8):
    """pas bench's CSV bytes and printed means when the process may run on
    the CPUs `cpus` (None: os.sched_getaffinity does not exist), and how
    many processes it forked."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    out = tmp_path / ("bench_%s_%s.csv" % (suite, cpus and len(cpus)))
    assert main(["bench", "--suite", suite, "--seeds", str(seeds),
                 "--out-csv", str(out)]) == 0
    monkeypatch.undo()
    return out.read_bytes(), capsys.readouterr().out, len(forks)


@pytest.mark.parametrize("suite", ["closed", "pda"])
def test_bench_is_byte_identical_at_any_worker_count(tmp_path, monkeypatch, capsys,
                                                     suite):
    # one CPU runs the seeds in this process; two and four CPUs fork one
    # and three children, and this process runs its own share of the seeds
    csv, means, forks = _bench_csv(tmp_path, monkeypatch, suite, {3}, capsys)
    assert forks == 0
    for cpus in (2, 4):
        got = _bench_csv(tmp_path, monkeypatch, suite, range(cpus), capsys)
        assert got == (csv, means, cpus - 1)
    oracle = [(method, seed, accuracy) for seed in range(8)
              for method, accuracy in cli._bench_one(suite, seed).items()]
    lines = csv.decode().splitlines()
    assert lines[0] == "method,seed,accuracy"
    assert lines[1:] == ["%s,%d,%r" % row for row in sorted(oracle)]
    assert_no_child_left()


def test_bench_without_affinity_runs_in_process(tmp_path, monkeypatch, capsys):
    # a platform without os.sched_getaffinity maps the seeds in-process
    got = _bench_csv(tmp_path, monkeypatch, "pda", None, capsys, seeds=2)
    assert got == _bench_csv(tmp_path, monkeypatch, "pda", {0}, capsys, seeds=2)
    assert got[2] == 0


# bench seeds that fail on seed 3, in the child's share at two CPUs, or on
# seed 2, in this process's share.  A seed from 10^5 on fails with a
# message of its own, so a bench that runs that far ahead of the failing
# seed fails the message check
def _below_run_ahead(seed):
    if seed >= 10**5:
        raise ParseError("pas bench ran ahead to seed %d" % seed)
    return {"pas": 1.0}


def _parse_error_on_seed_3(suite, seed):
    if seed == 3:
        raise ParseError("bench input for seed 3 is malformed")
    return _below_run_ahead(seed)


def _memory_error_on_seed_3(suite, seed):
    if seed == 3:
        raise MemoryError("Unable to allocate 7.28 TiB")
    return _below_run_ahead(seed)


def _parse_error_on_seed_2(suite, seed):
    if seed == 2:
        raise ParseError("bench input for seed 2 is malformed")
    return _below_run_ahead(seed)


@pytest.mark.parametrize("fail, message", [
    (_parse_error_on_seed_3, "error: bench input for seed 3 is malformed\n"),
    (_memory_error_on_seed_3, "error: Unable to allocate 7.28 TiB\n"),
    (_parse_error_on_seed_2, "error: bench input for seed 2 is malformed\n"),
])
def test_bench_worker_failure_exit_2(tmp_path, monkeypatch, capfd, fail, message):
    # a seed that raises in a child is not sent, and this process runs it
    # again, raising its error; the bench writes nothing, prints no traceback
    # (capfd sees the children's output too) and leaves no child running.
    # A bench of 10^12 seeds ends as soon as its failing seed is reached
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "_bench_one", fail)
    statuses = []
    real_waitpid = os.waitpid

    def waitpid(pid, options):
        got = real_waitpid(pid, options)
        statuses.append(got[1])
        return got

    monkeypatch.setattr(os, "waitpid", waitpid)
    start = time.perf_counter()
    assert main(["bench", "--suite", "pda", "--seeds", str(10**12),
                 "--out-csv", str(tmp_path / "b.csv")]) == 2
    assert time.perf_counter() - start < 30
    monkeypatch.undo()
    assert_no_child_left()
    assert len(statuses) == 1
    if fail is _parse_error_on_seed_2:
        # the child, stopped by its full pipe long before seed 10^5, is killed
        assert os.WIFSIGNALED(statuses[0])
        assert os.WTERMSIG(statuses[0]) == signal.SIGKILL
    assert os.listdir(tmp_path) == []
    captured = capfd.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""


def _dump_half_of_seed_3(dump=pickle.dump):
    """A pickle.dump for a child at two CPUs: it dies while it writes its
    second result, seed 3's."""
    dumped = []

    def dump_or_die(obj, sink, protocol):
        dumped.append(obj)
        if len(dumped) == 2:
            sink.write(pickle.dumps(obj, protocol)[:20])
            sink.flush()
            os._exit(1)
        dump(obj, sink, protocol)
    return dump_or_die


def _fork_fails():
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _pipe_fails():
    raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))


@pytest.mark.parametrize("death", ["exit_on_seed_3", "dying_mid_write", "fork_fails",
                                   "pipe_fails"])
def test_bench_runs_unsent_seeds_in_process(tmp_path, monkeypatch, capsys, death):
    # at two CPUs the child's share is seeds 1, 3, 5 and 7.  A child that
    # exits as it reaches seed 3, or dies while it writes seed 3's result,
    # sends no seed from 3 on, and a fork that fails at a process limit, or
    # a pipe that fails with no descriptor free, leaves no child to send
    # any; this process runs each seed not sent, so the bench writes the
    # CSV and prints the means of a one-CPU run
    one_cpu = _bench_csv(tmp_path, monkeypatch, "pda", {0}, capsys)
    parent, bench_one, ran = os.getpid(), cli._bench_one, []

    def fake(suite, seed):
        if os.getpid() == parent:
            ran.append(seed)
        elif seed == 3 and death == "exit_on_seed_3":
            os._exit(1)
        return bench_one(suite, seed)

    monkeypatch.setattr(cli, "_bench_one", fake)
    if death == "dying_mid_write":
        monkeypatch.setattr(pickle, "dump", _dump_half_of_seed_3())
    if death == "fork_fails":
        monkeypatch.setattr(os, "fork", _fork_fails)
    if death == "pipe_fails":
        monkeypatch.setattr(os, "pipe", _pipe_fails)
    forks = 0 if death in ("fork_fails", "pipe_fails") else 1
    assert _bench_csv(tmp_path, monkeypatch, "pda", {0, 1}, capsys) == (
        one_cpu[0], one_cpu[1], forks)
    assert ran == (list(range(8)) if forks == 0 else [0, 2, 3, 4, 5, 6, 7])
    assert_no_child_left()


def test_bench_bad_seeds_exit_2(tmp_path):
    assert main(["bench", "--suite", "pda", "--seeds", "0",
                 "--out-csv", str(tmp_path / "b.csv")]) == 2


def test_bench_unknown_suite_exit_2(tmp_path, capsys):
    # argparse rejects the suite before any command runs
    out = str(tmp_path / "b.csv")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", "nope", "--seeds", "1", "--out-csv", out])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_diagnose_end_to_end(tmp_path):
    prefix = make_data(tmp_path, per_class=40, translation=2.0, noise=1.0)
    model, _ = run_fit(tmp_path, prefix)
    out = str(tmp_path / "report.json")
    csv_out = str(tmp_path / "report.csv")
    assert main(["diagnose", "--model", model,
                 "--source", prefix + "_source.csv",
                 "--target", prefix + "_target.csv",
                 "--true-labels", prefix + "_target_labels.csv",
                 "--fraction", "0.1",
                 "--out", out, "--out-csv", csv_out]) == 0
    report = json.loads(read_text(out))
    assert set(report) >= {"top", "bottom", "fraction", "group_size"}
    assert 0.0 <= report["top"]["acc"] <= 1.0
    assert report["top"]["adr"] >= 0.0
    lines = read_text(csv_out).strip().split("\n")
    assert lines[0] == "method,seed,accuracy"
    assert lines[1].startswith("bottom,0,") and lines[2].startswith("top,0,")


def _outputs_argv(command, data_prefix, model, out, last):
    """argv of a command with several outputs, each in the directory out,
    the last of them at path `last`."""
    inputs = ["--source", data_prefix + "_source.csv",
              "--target", data_prefix + "_target.csv"]
    if command == "fit":
        return ["fit", *inputs, "--labels", data_prefix + "_source_labels.csv",
                "--out-model", str(out / "m.json"), "--trace-csv", last]
    if command == "synth":
        return synth_args(str(out / "d"))
    if command == "predict":
        return ["predict", "--model", model, "--features", inputs[3], "--out", last]
    if command == "bench":
        return ["bench", "--suite", "closed", "--seeds", "2", "--out-csv", last]
    return ["diagnose", *inputs, "--model", model,
            "--true-labels", data_prefix + "_target_labels.csv",
            "--out", str(out / "r.json"), "--out-csv", last]


@pytest.mark.parametrize("command", ["fit", "synth", "diagnose", "predict", "bench"])
def test_an_output_that_is_a_directory_leaves_no_output(tmp_path, capsys, monkeypatch,
                                                        command):
    # the last output (the trace CSV, the target features, the CSV rows,
    # the labels, the bench CSV) is an existing directory: the command
    # exits 2 before it reads or writes anything; bench runs no seed
    prefix = make_data(tmp_path / "in", per_class=40)
    model, _ = run_fit(tmp_path / "in", prefix)
    out = tmp_path / "out"
    busy = out / ("d_target.csv" if command == "synth" else "busy")
    busy.mkdir(parents=True)
    capsys.readouterr()

    def no_seed(suite, seed):
        raise AssertionError("bench ran seed %d" % seed)

    monkeypatch.setattr(cli, "_bench_one", no_seed)
    assert main(_outputs_argv(command, prefix, model, out, str(busy))) == 2
    assert os.listdir(out) == [busy.name]
    assert capsys.readouterr().err == (
        "error: output is a directory: %s\n" % busy)


@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize("first, last", [
    ("x", "x"), ("x", "./x"), ("x", "link/x")], ids=["same", "dot", "symlink"])
def test_two_outputs_naming_one_file_exit_2(tmp_path, capsys, monkeypatch, command,
                                            first, last):
    # the model (report) and the trace (CSV rows) name one file, spelled
    # alike, through "." or through a link to the directory: the command
    # exits 2 before it writes anything, and the file keeps its bytes
    prefix = make_data(tmp_path / "in", per_class=40)
    model, _ = run_fit(tmp_path / "in", prefix)
    out = tmp_path / "out"
    out.mkdir()
    (out / "link").symlink_to(".")
    (out / "x").write_bytes(b"old\n")
    monkeypatch.chdir(out)
    argv = _outputs_argv(command, prefix, model, out, last)
    argv[argv.index(str(out / ("m.json" if command == "fit" else "r.json")))] = first
    capsys.readouterr()
    assert main(argv) == 2
    assert sorted(os.listdir(out)) == ["link", "x"]
    assert (out / "x").read_bytes() == b"old\n"
    assert capsys.readouterr().err == (
        "error: outputs %s and %s name one file\n" % (first, last))


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_a_failed_last_output_leaves_no_output(tmp_path, command):
    # the last output's directory does not exist, so its temp file cannot
    # be made; the output written before it is never renamed over the file
    # already at its path, and its temp file is removed
    prefix = make_data(tmp_path / "in", per_class=40)
    model, _ = run_fit(tmp_path / "in", prefix)
    out = tmp_path / "out"
    first = out / ("m.json" if command == "fit" else "r.json")
    out.mkdir()
    first.write_bytes(b"old\n")
    assert main(_outputs_argv(command, prefix, model, out,
                              str(out / "missing" / "last.csv"))) == 2
    assert os.listdir(out) == [first.name]
    assert first.read_bytes() == b"old\n"


def test_diagnose_rerun_byte_identical(tmp_path):
    prefix = make_data(tmp_path, per_class=40)
    model, _ = run_fit(tmp_path, prefix)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        assert main(["diagnose", "--model", model,
                     "--source", prefix + "_source.csv",
                     "--target", prefix + "_target.csv",
                     "--true-labels", prefix + "_target_labels.csv",
                     "--out", out]) == 0
        outs.append(read_text(out, "rb"))
    assert outs[0] == outs[1]


def test_diagnose_nonfinite_bandwidth_exit_2(tmp_path):
    prefix = make_data(tmp_path)
    model, _ = run_fit(tmp_path, prefix, step="1.0")
    out = str(tmp_path / "report.json")
    for bandwidth in ("nan", "inf"):
        assert main(["diagnose", "--model", model,
                     "--source", prefix + "_source.csv",
                     "--target", prefix + "_target.csv",
                     "--true-labels", prefix + "_target_labels.csv",
                     "--bandwidth", bandwidth, "--out", out]) == 2
    assert not os.path.exists(out)


def test_diagnose_negative_kliep_seed_exit_2(tmp_path, capsys):
    prefix = make_data(tmp_path)
    model, _ = run_fit(tmp_path, prefix, step="1.0")
    out = str(tmp_path / "report.json")
    assert main(["diagnose", "--model", model,
                 "--source", prefix + "_source.csv",
                 "--target", prefix + "_target.csv",
                 "--true-labels", prefix + "_target_labels.csv",
                 "--kliep-seed", "-1", "--out", out]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_binary_features_give_byte_identical_outputs(tmp_path):
    # every command that reads features recognises PASM by its magic bytes
    prefix = make_data(tmp_path, per_class=40)
    for name in ("_source", "_target"):
        save_features(prefix + name + ".pasm",
                      load_features(prefix + name + ".csv"), fmt="bin")
    outputs = {}
    for ext in ("csv", "pasm"):
        out = {key: str(tmp_path / ("%s.%s" % (key, ext)))
               for key in ("model", "trace", "pred", "report", "report_csv")}
        source, target = prefix + "_source." + ext, prefix + "_target." + ext
        assert main(["fit", "--source", source,
                     "--labels", prefix + "_source_labels.csv",
                     "--target", target, "--step", "0.25",
                     "--eval-labels", prefix + "_target_labels.csv",
                     "--out-model", out["model"],
                     "--trace-csv", out["trace"]]) == 0
        assert main(["predict", "--model", out["model"], "--features", target,
                     "--out", out["pred"]]) == 0
        assert main(["diagnose", "--model", out["model"], "--source", source,
                     "--target", target,
                     "--true-labels", prefix + "_target_labels.csv",
                     "--out", out["report"], "--out-csv", out["report_csv"]]) == 0
        outputs[ext] = {key: read_text(path, "rb") for key, path in out.items()}
    assert outputs["pasm"] == outputs["csv"]


def test_console_entry_point(tmp_path):
    # the installed script must behave like main()
    prefix = str(tmp_path / "d")
    result = subprocess.run(
        [sys.executable, "-m", "pas.cli"] + synth_args(prefix, per_class=5),
        capture_output=True)
    assert result.returncode == 0
    assert os.path.exists(prefix + "_source.csv")


PIPE_PROBE = """
import sys

from pas.data import load_features

sys.stdout.buffer.write(load_features("/dev/stdin").tobytes())
"""


def test_piped_features_load_as_the_file(tmp_path):
    # a pipe's bytes can be read once: a piped CSV of many 8 KB buffers
    # loads, and predicts, as the file does
    prefix = make_data(tmp_path, per_class=300)
    model, _ = run_fit(tmp_path, prefix)
    target = prefix + "_target.csv"
    with open(target, "rb") as fh:
        raw = fh.read()
    assert len(raw) > 8 << 10
    result = subprocess.run([sys.executable, "-W", "error", "-c", PIPE_PROBE],
                            input=raw, capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == load_features(target).tobytes()
    out = str(tmp_path / "pred.txt")
    assert main(["predict", "--model", model, "--features", target,
                 "--out", out]) == 0
    piped = str(tmp_path / "piped.txt")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pas.cli", "predict", "--model",
         model, "--features", "/dev/stdin", "--out", piped],
        input=raw, capture_output=True)
    assert result.returncode == 0, result.stderr
    with open(piped, "rb") as got, open(out, "rb") as want:
        assert got.read() == want.read()


# run in one fresh interpreter: which scipy modules each command loads,
# and that none loads multiprocessing, also where it forks children
IMPORT_PROBE = """
import os
import sys

import numpy as np

from pas import core
from pas.cli import main
from pas.data import CSV_SPLIT_BYTES, save_features
from pas.subspace import Subspace


def loaded(package):
    return any(name == package or name.startswith(package + ".")
               for name in sys.modules)


prefix = sys.argv[1]
assert not loaded("scipy") and not loaded("multiprocessing"), "import pas"
assert main(["synth", "--classes", "2", "--dim", "3", "--per-class", "10",
             "--translation", "1", "--noise", "0.5", "--out-prefix", prefix]) == 0
assert not loaded("scipy") and not loaded("multiprocessing"), "pas synth"
point = Subspace(mean=np.zeros(3), basis=np.zeros((3, 0)), spectrum=np.zeros(0))
core.save_model(core.PasModel([point, point], core.PasConfig()), prefix + ".json")
assert main(["predict", "--model", prefix + ".json", "--features",
             prefix + "_target.csv", "--out", prefix + "_pred.csv"]) == 0
assert not loaded("scipy") and not loaded("multiprocessing"), "pas predict"
# a CSV above the split floor (each row of three floats takes over 40
# bytes) is parsed in forked children, one per CPU past the first
save_features(prefix + "_big.csv",
              np.random.default_rng(0).normal(size=(CSV_SPLIT_BYTES // 40, 3)))
forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
assert main(["predict", "--model", prefix + ".json", "--features",
             prefix + "_big.csv", "--out", prefix + "_pred.csv"]) == 0
assert len(forks) == len(os.sched_getaffinity(0)) - 1, "split pas predict"
assert not loaded("scipy") and not loaded("multiprocessing"), "split pas predict"
assert main(["fit", "--source", prefix + "_source.csv", "--labels",
             prefix + "_source_labels.csv", "--target", prefix + "_target.csv",
             "--step", "0.25", "--out-model", prefix + ".json",
             "--trace-csv", prefix + "_trace.csv"]) == 0
assert loaded("scipy.linalg") and not loaded("scipy.spatial"), "pas fit"
assert not loaded("multiprocessing"), "pas fit"
# a bench allowed four CPUs forks three children; scipy.linalg imports
# the concurrent.futures package, not its process pool
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
forks.clear()
assert main(["bench", "--suite", "pda", "--seeds", "4",
             "--out-csv", prefix + "_bench.csv"]) == 0
assert len(forks) == 3, "pas bench"
assert not loaded("multiprocessing"), "pas bench"
assert not loaded("concurrent.futures.process"), "pas bench"
"""


def test_commands_load_only_the_scipy_they_use(tmp_path):
    # importing pas, pas synth and pas predict load no scipy, also when
    # predict parses its CSV in forked children; pas fit loads scipy.linalg
    # for its eigensolver and no scipy.spatial; none of them, nor a pas
    # bench that forks, loads multiprocessing
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_PROBE, str(tmp_path / "d")],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_error_messages_on_stderr(tmp_path, capsys):
    assert main(["predict", "--model", str(tmp_path / "no.json"),
                 "--features", str(tmp_path / "no.csv"),
                 "--out", str(tmp_path / "o.txt")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


def _drop_num_classes(doc):
    del doc["num_classes"]


def _no_classes(doc):
    doc["num_classes"] = 0
    doc["subspaces"] = []


def _short_mean(doc):
    doc["subspaces"][0]["mean"].pop()


def _basis_wrong_size(doc):
    doc["subspaces"][1]["basis"].append(0.5)


def _spectrum_wrong_length(doc):
    doc["subspaces"][0]["spectrum"].append(0.1)


def _spectrum_nested(doc):
    entry = doc["subspaces"][0]
    entry["spectrum"] = [[value] for value in entry["spectrum"]]


def _subspace_missing(doc):
    doc["subspaces"].pop()


def _nonfinite_basis(doc):
    doc["subspaces"][2]["basis"][0] = float("nan")


def _basis_not_orthonormal(doc):
    entry = doc["subspaces"][0]
    entry["basis"] = [5.0] + [0.0] * (len(entry["basis"]) - 1)


def _negative_spectrum(doc):
    doc["subspaces"][0]["spectrum"] = [-3.0]


def _increasing_spectrum(doc):
    entry = doc["subspaces"][1]
    d = len(entry["mean"])
    entry["basis"] = [float(i == j) for j in range(2) for i in range(d)]
    entry["spectrum"] = [1.0, 2.0]


def _unknown_config_key(doc):
    doc["config"]["inner_tolerance"] = 1e-6


def _config_dim_bool(doc):
    doc["config"]["dim"] = True


def _feature_dim_fractional(doc):
    doc["feature_dim"] += 0.7


def _feature_dim_string(doc):
    doc["feature_dim"] = str(doc["feature_dim"])


def _num_classes_integral_float(doc):
    doc["num_classes"] = float(doc["num_classes"])


def _label_values_short(doc):
    doc["label_values"].pop()


def _label_values_repeated(doc):
    doc["label_values"][2] = doc["label_values"][0]


def _label_values_fractional(doc):
    doc["label_values"][1] = 1.5


def _label_values_integral_float(doc):
    doc["label_values"][1] = 1.0


def _label_values_bool(doc):
    doc["label_values"][1] = True


def _label_values_string(doc):
    doc["label_values"] = "012"


def _label_values_negative(doc):
    doc["label_values"][0] = -1


def _label_values_beyond_int64(doc):
    doc["label_values"][0] = 2 ** 63


def _label_values_null_entry(doc):
    doc["label_values"][2] = None


@pytest.mark.parametrize("corrupt", [
    _drop_num_classes, _no_classes, _short_mean, _basis_wrong_size,
    _spectrum_wrong_length, _spectrum_nested, _subspace_missing,
    _nonfinite_basis, _basis_not_orthonormal,
    _negative_spectrum, _increasing_spectrum, _unknown_config_key,
    _config_dim_bool, _feature_dim_fractional, _feature_dim_string,
    _num_classes_integral_float,
    _label_values_short, _label_values_repeated,
    _label_values_fractional, _label_values_integral_float,
    _label_values_bool, _label_values_string, _label_values_negative,
    _label_values_beyond_int64, _label_values_null_entry])
def test_predict_malformed_model_exit_2(tmp_path, capsys, corrupt):
    prefix = make_data(tmp_path)
    model, _ = run_fit(tmp_path, prefix, step="1.0")
    doc = json.loads(read_text(model))
    corrupt(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = str(tmp_path / "pred.txt")
    capsys.readouterr()
    assert main(["predict", "--model", str(bad),
                 "--features", prefix + "_target.csv", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["predict", "diagnose"])
def test_deeply_nested_model_exit_2(tmp_path, capsys, command):
    # json.load recurses once per nested list, so 200,000 of them exceed
    # Python's recursion limit; that is one error line, not a traceback
    prefix = make_data(tmp_path)
    model = tmp_path / "deep.json"
    model.write_text("[" * 200000 + "]" * 200000)
    out = str(tmp_path / "out.txt")
    if command == "predict":
        args = ["--features", prefix + "_target.csv"]
    else:
        args = ["--source", prefix + "_source.csv",
                "--target", prefix + "_target.csv",
                "--true-labels", prefix + "_target_labels.csv"]
    capsys.readouterr()
    assert main([command, "--model", str(model), "--out", out] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model file is not readable JSON: ")
    assert err.count("\n") == 1
    assert not os.path.exists(out)
