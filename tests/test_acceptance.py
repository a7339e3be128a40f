"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and runtime bound is asserted, not just reported.
"""

import time

import numpy as np

import pas
from pas import PasConfig, SourceLabels
from pas.cli import SUITES, main
from pas.core import anchor, assign_memberships, lambda_for_fraction
from pas.data import Shift, SynthConfig, synth_shifted_pair
from conftest import solve_inner


def report(num, ok, text, elapsed, bound):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %s: %s [%.1fs / limit %.0fs]"
          % (num, status, text, elapsed, bound))
    assert ok, "criterion %d failed: %s" % (num, text)
    assert elapsed < bound, "criterion %d exceeded runtime bound" % num


def suite_config(name, seed):
    spec = SUITES[name]
    return SynthConfig(num_classes=spec["num_classes"], dim=spec["dim"],
                       per_class=spec["per_class"],
                       shift=Shift(rotation=spec["rotation"],
                                   translation=spec["translation"],
                                   noise=spec["noise"]),
                       pda_keep=spec["pda_keep"], seed=seed)


def test_criterion_1_membership_assignment_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(500):
        m = int(rng.integers(1, 31))
        K = int(rng.integers(1, 7))
        dists = rng.uniform(size=(m, K))
        if rng.uniform() < 0.3:   # force ties sometimes
            dists = np.round(dists, 1)
        W = assign_memberships(dists)
        picked = (W * dists).sum(axis=1)
        exhaustive = dists.min(axis=1)
        if not (picked == exhaustive).all() or not (W.sum(axis=1) == 1).all():
            ok = False
            break
        ties = dists == exhaustive[:, None]
        first_min = ties.argmax(axis=1)
        if not (W.argmax(axis=1) == first_min).all():
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(1, ok, "membership assignment attains the exhaustive per-row "
                  "minimum on 500 instances (exact)", elapsed, 5.0)


def test_criterion_2_anchoring_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(500):
        m = int(rng.integers(1, 26))
        c = rng.uniform(0.0, 2.0, size=m)
        lam = float(rng.choice([0.0, rng.uniform(0.0, 2.5)]))
        v = anchor(c, lam)
        if m <= 15:
            # exhaustive: score every v through the same pipeline so the
            # zero-tolerance comparison is summation-order honest
            masks = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
            scores = masks @ (c - lam)
            mine = int((v * (1 << np.arange(m))).sum())
            if scores[mine] != scores.min():
                ok = False
                break
        else:
            # per-coordinate: v_j must be 1 exactly when c_j - lam < 0
            if not ((c - lam < 0) == (v == 1)).all():
                ok = False
                break
    elapsed = time.perf_counter() - start
    report(2, ok, "anchoring attains the exact minimum of sum v_j(c_j - lam) "
                  "on 500 instances (exhaustive for m <= 15)", elapsed, 5.0)


def test_criterion_3_objective_descent():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    worst = -np.inf
    for run in range(100):
        K = int(rng.integers(2, 6))
        d = int(rng.integers(2, 21))
        n_per = int(rng.integers(5, 200 // K + 1))
        cfg = SynthConfig(num_classes=K, dim=d, per_class=n_per,
                          shift=Shift(rotation=float(rng.uniform(0, 0.8)) if d > 1 else 0.0,
                                      translation=float(rng.uniform(0, 3)),
                                      noise=float(rng.uniform(0, 1.5))),
                          seed=run)
        src, tgt = synth_shifted_pair(cfg)
        labels = SourceLabels(labels=src.labels, num_classes=K)
        config = PasConfig(dim=int(rng.integers(1, 4)))
        model0 = pas.fit_class_subspaces(src.features, labels, config=config)
        c0 = pas.compute_distances(model0, tgt.features).min(axis=1)
        lam = lambda_for_fraction(c0, float(rng.uniform(0.1, 1.0)))
        _, _, history = solve_inner(src.features, labels, tgt.features,
                                    lam, config=config)
        if len(history) > 1:
            worst = max(worst, float(np.max(np.diff(history))))
    ok = worst <= 1e-9
    elapsed = time.perf_counter() - start
    report(3, ok, "objective history nonincreasing within 1e-9 over 100 "
                  "solver runs (worst increase %.2e)" % worst, elapsed, 60.0)


def test_criterion_4_pca_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 3))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 3.0))
        S = pas.fit_pca(X, dim=dim)
        if np.abs(S.basis.T @ S.basis - np.eye(S.effective_dim)).max() > 1e-8:
            ok = False
            break
        total = float(pas.residuals_sq(S, X).sum())
        expected = float(((X - S.mean) ** 2).sum()) - n * float(S.spectrum.sum())
        scale = max(abs(expected), 1e-12)
        if abs(total - expected) / scale > 1e-6 and abs(total - expected) > 1e-9:
            ok = False
            break
        Y = X - S.mean
        k = min(dim, d)
        for _ in range(200):
            Q, _ = np.linalg.qr(rng.normal(size=(d, k)))
            competitor = float((Y ** 2).sum() - ((Y @ Q) ** 2).sum())
            if total > competitor + 1e-9:
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(4, ok, "orthonormality/trace identity/optimality vs 200 random "
                  "bases on 100 seeded fits", elapsed, 30.0)


def test_criterion_5_ablation_ordering():
    start = time.perf_counter()
    spec = SUITES["closed"]
    accs_pas, accs_c, improved = [], [], 0
    for seed in range(20):
        src, tgt = synth_shifted_pair(suite_config("closed", seed))
        labels = SourceLabels(labels=src.labels, num_classes=src.num_classes)
        config = PasConfig(dim=spec["subspace_dim"])
        model, trace = pas.fit_progressive(src.features, labels, tgt.features,
                                           config, eval_labels=tgt.true_labels)
        accs_pas.append(float(np.mean(pas.predict(model, tgt.features)
                                      == tgt.true_labels)))
        model_c = pas.pas_c(src, dim=spec["subspace_dim"])
        accs_c.append(float(np.mean(pas.predict(model_c, tgt.features)
                                    == tgt.true_labels)))
        if trace[-1].pseudo_accuracy >= trace[0].pseudo_accuracy:
            improved += 1
    mean_pas, mean_c = float(np.mean(accs_pas)), float(np.mean(accs_c))
    ok = mean_pas >= mean_c and improved >= 16
    elapsed = time.perf_counter() - start
    report(5, ok, "shifted 3-class suite: mean progressive %.4f >= "
                  "source-only %.4f; trajectory improved in %d/20 seeds"
                  % (mean_pas, mean_c, improved), elapsed, 120.0)


def test_criterion_6_pda_robustness():
    start = time.perf_counter()
    spec = SUITES["pda"]
    accs = {"pas": [], "pas_c": [], "1nn": []}
    for seed in range(20):
        src, tgt = synth_shifted_pair(suite_config("pda", seed))
        labels = SourceLabels(labels=src.labels, num_classes=src.num_classes)
        config = PasConfig(dim=spec["subspace_dim"])
        model, _ = pas.fit_progressive(src.features, labels, tgt.features, config)
        truth = tgt.true_labels
        accs["pas"].append(float(np.mean(pas.predict(model, tgt.features) == truth)))
        model_c = pas.pas_c(src, dim=spec["subspace_dim"])
        accs["pas_c"].append(float(np.mean(pas.predict(model_c, tgt.features) == truth)))
        accs["1nn"].append(float(np.mean(pas.nn1_classify(src, tgt.features) == truth)))
    means = {k: float(np.mean(v)) for k, v in accs.items()}
    ok = means["pas"] >= means["pas_c"] and means["pas"] >= means["1nn"]
    elapsed = time.perf_counter() - start
    report(6, ok, "partial-DA suite: progressive %.4f vs source-only %.4f "
                  "vs 1NN %.4f" % (means["pas"], means["pas_c"], means["1nn"]),
           elapsed, 120.0)


def test_criterion_7_anchoring_analysis_pattern():
    start = time.perf_counter()
    spec = SUITES["closed"]
    hits = 0
    for seed in range(20):
        src, tgt = synth_shifted_pair(suite_config("closed", seed))
        labels = SourceLabels(labels=src.labels, num_classes=src.num_classes)
        config = PasConfig(dim=spec["subspace_dim"])
        model, _ = pas.fit_progressive(src.features, labels, tgt.features, config)
        ratio = pas.kliep_fit(src.features, tgt.features)
        rep = pas.anchoring_report(model, tgt.features, tgt.true_labels, ratio,
                                   fraction=0.05)
        if (rep["top"]["acc"] > rep["bottom"]["acc"]
                and rep["top"]["adr"] > rep["bottom"]["adr"]):
            hits += 1
    ok = hits >= 18
    elapsed = time.perf_counter() - start
    report(7, ok, "top-5%% beats bottom-5%% on accuracy and density ratio in "
                  "%d/20 seeds" % hits, elapsed, 120.0)


def test_criterion_8_density_ratio_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    X_src = rng.normal(0.0, 1.0, size=(500, 1))
    X_tgt = rng.normal(1.0, 1.0, size=(500, 1))
    model = pas.kliep_fit(X_src, X_tgt)
    w = model.ratio(X_tgt)
    corr = float(np.corrcoef(w, np.exp(0.5 - X_tgt[:, 0]))[0, 1])
    constraint_ok = abs(float(w.mean()) - 1.0) <= 1e-3
    for extra_seed in range(5):
        r2 = np.random.default_rng(900 + extra_seed)
        S2 = r2.normal(size=(120, 2)) + 0.5
        T2 = r2.normal(size=(150, 2))
        m2 = pas.kliep_fit(S2, T2, seed=extra_seed)
        constraint_ok = constraint_ok and (
            abs(float(m2.ratio(T2).mean()) - 1.0) <= 1e-3)
        constraint_ok = constraint_ok and (m2.alphas >= 0).all()
    ok = corr > 0.9 and constraint_ok
    elapsed = time.perf_counter() - start
    report(8, ok, "1-D Gaussian analytic ratio correlation %.3f > 0.9; "
                  "normalization within 1e-3 on every fit" % corr, elapsed, 30.0)


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    ok = True

    def synth(prefix):
        return main(["synth", "--classes", "3", "--dim", "5", "--per-class",
                     "25", "--rotation", "0.3", "--translation", "1.5",
                     "--noise", "0.8", "--seed", "11",
                     "--out-prefix", prefix]) == 0

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert synth(a) and synth(b)
    for suffix in ("_source.csv", "_source_labels.csv", "_target.csv",
                   "_target_labels.csv"):
        ok = ok and read(a + suffix) == read(b + suffix)

    outs = {}
    for tag in ("1", "2"):
        model = str(tmp_path / ("m%s.json" % tag))
        trace = str(tmp_path / ("t%s.csv" % tag))
        pred = str(tmp_path / ("p%s.txt" % tag))
        bench = str(tmp_path / ("b%s.csv" % tag))
        diag = str(tmp_path / ("d%s.json" % tag))
        assert main(["fit", "--source", a + "_source.csv", "--labels",
                     a + "_source_labels.csv", "--target", a + "_target.csv",
                     "--step", "0.2", "--out-model", model,
                     "--trace-csv", trace,
                     "--eval-labels", a + "_target_labels.csv"]) == 0
        assert main(["predict", "--model", model, "--features",
                     a + "_target.csv", "--out", pred]) == 0
        assert main(["bench", "--suite", "pda", "--seeds", "2",
                     "--out-csv", bench]) == 0
        assert main(["diagnose", "--model", model, "--source",
                     a + "_source.csv", "--target", a + "_target.csv",
                     "--true-labels", a + "_target_labels.csv",
                     "--out", diag]) == 0
        outs[tag] = [read(p) for p in (model, trace, pred, bench, diag)]
    ok = ok and outs["1"] == outs["2"]
    elapsed = time.perf_counter() - start
    report(9, ok, "synth/fit/predict/bench/diagnose reruns are byte-identical",
           elapsed, 120.0)


def test_criterion_10_scale_invariance():
    start = time.perf_counter()
    ok = True
    for seed in range(20):
        cfg = SynthConfig(num_classes=3, dim=6, per_class=40,
                          shift=Shift(rotation=0.3, translation=1.0, noise=0.6),
                          seed=seed)
        src, tgt = synth_shifted_pair(cfg)
        labels = SourceLabels(labels=src.labels, num_classes=3)
        config = PasConfig(dim=1)
        m1, _ = pas.fit_progressive(src.features, labels, tgt.features, config)
        m2, _ = pas.fit_progressive(7.3 * src.features, labels,
                                    7.3 * tgt.features, config)
        if not (pas.predict(m1, tgt.features)
                == pas.predict(m2, 7.3 * tgt.features)).all():
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(10, ok, "scaling all features by 7.3 leaves predictions identical "
                   "on 20 seeded instances", elapsed, 60.0)
