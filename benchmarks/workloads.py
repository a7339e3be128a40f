"""The benchmark's four workloads.

Each workload has three parts:

* ``setup()`` generates its inputs from the seed and writes the input
  files (and, for ``serve``, fits the model it reads);
* ``run_pass()`` is the timed part: one pass of the commands a user runs,
  through ``pas.cli.main`` and the public library API;
* ``check()`` verifies the last pass's outputs, counting each check in
  the run's ``Ops``, and returns the workload's quality metrics.

Why each workload exists is recorded in NOTES.md beside this file.
"""

import contextlib
import json
import os
import sys

import numpy as np

from pas import baselines, cli, core, data


class Ops:
    """Operations and checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("check failed: %s" % what, file=sys.stderr)


def accuracy(pred, truth):
    return float(np.mean(np.asarray(pred) == np.asarray(truth)))


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def present_share(pred, keep):
    """Share of predictions on classes that are present in the target."""
    return float(np.isin(pred, keep).mean())


class Workload:
    name = None
    # shape of the generated data, set by each subclass
    classes = dim = per_class = None
    shift = (0.2, 2.5, 1.5)          # rotation, translation, noise
    pda_keep = None

    def __init__(self, ops, work_dir, seed):
        self.ops = ops
        self.dir = work_dir
        self.seed = seed

    def path(self, name):
        return os.path.join(self.dir, name)

    def cli(self, *argv):
        """Run ``pas.cli.main`` in-process; its stdout goes to our stderr."""
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(sys.stderr):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:    # argparse rejects a command line
                rc = exc.code
        self.ops.expect(rc == 0, "pas %s exited %r" % (argv[0], rc))

    def generate(self):
        """Draw the seeded shifted pair and write it as pas synth does."""
        rot, trans, noise = self.shift
        cfg = data.SynthConfig(
            num_classes=self.classes, dim=self.dim, per_class=self.per_class,
            shift=data.Shift(rotation=rot, translation=trans, noise=noise),
            pda_keep=self.pda_keep, seed=self.seed)
        self.source, target = data.synth_shifted_pair(cfg)
        self.X_t, self.truth = target.features, target.true_labels
        data.save_features(self.path("source.csv"), self.source.features)
        data.save_labels(self.path("source_labels.csv"), self.source.labels)
        data.save_features(self.path("target.csv"), self.X_t)
        data.save_labels(self.path("target_labels.csv"), self.truth)

    def warm_up(self):
        """Pay first-call costs (lazy imports, allocator growth) untimed."""
        self.cli("synth", "--classes", 2, "--dim", 4, "--per-class", 20,
                 "--rotation", 0.1, "--translation", 1.0, "--noise", 0.5,
                 "--out-prefix", self.path("warm"))
        self.cli("fit", "--source", self.path("warm_source.csv"),
                 "--labels", self.path("warm_source_labels.csv"),
                 "--target", self.path("warm_target.csv"),
                 "--step", 0.5, "--out-model", self.path("warm_model.json"),
                 "--trace-csv", self.path("warm_trace.csv"))

    def setup(self):
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self):
        raise NotImplementedError


class Suites(Workload):
    """``pas bench`` on the built-in closed and partial-DA suites."""

    name = "suites"
    SEEDS = 8

    def setup(self):
        # pas bench draws its own data from seeds 0..SEEDS-1; the run's seed
        # does not reach it, so every run measures the same inputs
        self.warm_up()
        self.cli("bench", "--suite", "pda", "--seeds", 1,
                 "--out-csv", self.path("warm_bench.csv"))

    def run_pass(self):
        for suite in ("closed", "pda"):
            self.cli("bench", "--suite", suite, "--seeds", self.SEEDS,
                     "--out-csv", self.path("bench_%s.csv" % suite))

    def check(self):
        ops = self.ops
        acc = {"pas": [], "pas_c": []}
        for suite in ("closed", "pda"):
            rows = read_csv(self.path("bench_%s.csv" % suite))
            keys = [(r["method"], int(r["seed"])) for r in rows]
            want = {(m, s) for m in ("1nn", "pas", "pas_c")
                    for s in range(self.SEEDS)}
            ops.expect(len(keys) == len(want) and set(keys) == want,
                       "bench %s CSV has one row per method x seed" % suite)
            for r in rows:
                if r["method"] in acc:
                    acc[r["method"]].append(float(r["accuracy"]))
        # the bench CSV holds accuracies only; refit the partial-DA suite
        # through the library to see which classes the fit assigns, and
        # check that it reproduces the CSV's accuracies
        spec = cli.SUITES["pda"]
        pda_rows = {int(r["seed"]): float(r["accuracy"])
                    for r in read_csv(self.path("bench_pda.csv"))
                    if r["method"] == "pas"}
        shares = []
        for seed in range(self.SEEDS):
            cfg = data.SynthConfig(
                num_classes=spec["num_classes"], dim=spec["dim"],
                per_class=spec["per_class"],
                shift=data.Shift(rotation=spec["rotation"],
                                 translation=spec["translation"],
                                 noise=spec["noise"]),
                pda_keep=spec["pda_keep"], seed=seed)
            source, target = data.synth_shifted_pair(cfg)
            labels = core.SourceLabels(labels=source.labels,
                                       num_classes=source.num_classes)
            model, _ = core.fit_progressive(
                source.features, labels, target.features,
                core.PasConfig(dim=spec["subspace_dim"]))
            pred = core.predict(model, target.features)
            ops.expect(accuracy(pred, target.true_labels) == pda_rows.get(seed),
                       "bench pda seed %d accuracy matches the library" % seed)
            shares.append(present_share(pred, spec["pda_keep"]))
        pas_acc = float(np.mean(acc["pas"]))
        return {"pas_accuracy": pas_acc,
                "pas_gain_over_source": pas_acc / float(np.mean(acc["pas_c"])),
                "present_class_share": float(np.mean(shares))}


class Fit(Workload):
    """``pas fit`` with evaluation labels on one generated shifted pair."""

    subspace_dim = step = None

    def setup(self):
        self.generate()
        self.warm_up()

    def run_pass(self):
        self.cli("fit", "--source", self.path("source.csv"),
                 "--labels", self.path("source_labels.csv"),
                 "--target", self.path("target.csv"),
                 "--dim", self.subspace_dim, "--step", self.step,
                 "--eval-labels", self.path("target_labels.csv"),
                 "--out-model", self.path("model.json"),
                 "--trace-csv", self.path("trace.csv"))

    def check(self):
        ops, X_t, truth = self.ops, self.X_t, self.truth
        model = core.load_model(self.path("model.json"))
        pred = core.predict(model, X_t)
        core.save_model(model, self.path("model_again.json"))
        again = core.predict(core.load_model(self.path("model_again.json")), X_t)
        ops.expect(np.array_equal(pred, again),
                   "saved model JSON reloads to identical predictions")
        pas_acc = accuracy(pred, truth)
        last = read_csv(self.path("trace.csv"))[-1]
        ops.expect(pas_acc == float(last["pseudo_acc"]),
                   "pas_accuracy equals the last pseudo_acc of the trace")
        model_c = baselines.pas_c(self.source, dim=self.subspace_dim)
        keep = self.pda_keep or tuple(range(self.classes))
        return {"pas_accuracy": pas_acc,
                "pas_gain_over_source":
                    pas_acc / accuracy(core.predict(model_c, X_t), truth),
                "present_class_share": present_share(pred, keep)}


class Wide(Fit):
    name = "wide"
    classes, dim, per_class = 31, 256, 50
    subspace_dim, step = 2, 0.1


class PdaLarge(Fit):
    name = "pda-large"
    # 2000 rows per class; the target keeps 3 of the 10 classes
    classes, dim, per_class = 10, 64, 2000
    shift = (0.8, 7.0, 1.0)          # the pda suite's shift
    pda_keep = (0, 1, 2)
    subspace_dim, step = 2, 0.05


class Serve(Workload):
    """Read path on a model fitted in setup: predict, diagnose, 1NN."""

    name = "serve"
    classes, dim, per_class = 10, 64, 1000
    # the served model is fitted on every FIT_STRIDE-th source row and the
    # first rows of the target, so that set-up stays short
    FIT_STRIDE, FIT_TARGET_ROWS = 20, 500

    def setup(self):
        self.generate()
        rows = slice(None, None, self.FIT_STRIDE)
        labels = core.SourceLabels(labels=self.source.labels[rows],
                                   num_classes=self.source.num_classes)
        self.model, _ = core.fit_progressive(
            self.source.features[rows], labels,
            self.X_t[:self.FIT_TARGET_ROWS],
            core.PasConfig(dim=2, schedule_step=0.1))
        core.save_model(self.model, self.path("model.json"))
        self.warm_up()

    def run_pass(self):
        self.cli("predict", "--model", self.path("model.json"),
                 "--features", self.path("target.csv"),
                 "--out", self.path("pred.csv"))
        self.cli("diagnose", "--model", self.path("model.json"),
                 "--source", self.path("source.csv"),
                 "--target", self.path("target.csv"),
                 "--true-labels", self.path("target_labels.csv"),
                 "--out", self.path("report.json"))
        self.nn1 = baselines.nn1_classify(self.source, self.X_t)

    def check(self):
        ops = self.ops
        served = data.load_labels(self.path("pred.csv"))
        reloaded = core.predict(core.load_model(self.path("model.json")), self.X_t)
        ops.expect(np.array_equal(served, reloaded),
                   "pas predict labels equal pas.predict on the reloaded model")
        ops.expect(np.array_equal(reloaded, core.predict(self.model, self.X_t)),
                   "saved model JSON reloads to identical predictions")
        with open(self.path("report.json")) as fh:
            report = json.load(fh)
        ops.expect(all(0.0 <= report[g]["acc"] <= 1.0 and report[g]["adr"] > 0
                       for g in ("top", "bottom")),
                   "diagnose report holds top/bottom accuracy and ratio")
        # brute-force 1NN on a prefix of the target, ties to the lowest index
        ref = [self.source.labels[np.argmin(((self.source.features - x) ** 2).sum(1))]
               for x in self.X_t[:200]]
        ops.expect(np.array_equal(self.nn1[:200], ref),
                   "nn1_classify matches brute force on 200 target rows")
        rows = slice(None, None, self.FIT_STRIDE)
        subset = data.LabeledDataset(features=self.source.features[rows],
                                     labels=self.source.labels[rows],
                                     num_classes=self.source.num_classes)
        model_c = baselines.pas_c(subset, dim=2)
        pas_acc = accuracy(served, self.truth)
        return {"pas_accuracy": pas_acc,
                "pas_gain_over_source":
                    pas_acc / accuracy(core.predict(model_c, self.X_t), self.truth),
                "present_class_share":
                    present_share(served, tuple(range(self.classes)))}


WORKLOADS = {w.name: w for w in (Suites, Wide, PdaLarge, Serve)}
