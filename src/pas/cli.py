"""Command-line surface: fit, predict, synth, bench, diagnose.

Every command is deterministic given its flags; reruns at the same BLAS
thread count produce byte-identical outputs.  A command stages all its
outputs through data.atomic_outputs before it reads any input, so outputs
that are not distinct files exit 2 and no error path leaves partial
output.  Exit codes: 0 success, 2 I/O/parse/config errors and inputs too
large for memory, 3 dimension mismatch.
"""

import argparse
import json
import sys

import numpy as np

from . import baselines, core, data, diagnostics
from .data import Shift, SynthConfig, atomic_outputs
from .errors import DimensionMismatch, PasError, check_count

EXIT_IO = 2
EXIT_DIM = 3

# synthetic benchmark suites, calibrated over 40 seeds so the ordinal
# patterns (progressive >= source-only, progressive >= 1NN under partial
# labels, top/bottom anchoring contrast) hold with margin
SUITES = {
    "closed": dict(num_classes=3, dim=8, per_class=300,
                   rotation=0.2, translation=2.5, noise=1.5,
                   pda_keep=None, subspace_dim=1),
    "pda": dict(num_classes=6, dim=16, per_class=40,
                rotation=0.8, translation=7.0, noise=1.0,
                pda_keep=(0, 1, 2), subspace_dim=2),
}


def _write_csv(path, header, rows):
    # str of a float is its repr, which round-trips
    data.atomic_write_text(path, "".join(",".join(map(str, row)) + "\n"
                                         for row in [header, *rows]))


def cmd_fit(args):
    with atomic_outputs(args.out_model, args.trace_csv) as (model_out, trace_out):
        source = data.load_labeled(args.source, args.labels)
        X_t = data.load_features(args.target)
        eval_labels = None
        if args.eval_labels:
            raw = data.load_labels(args.eval_labels)
            # the fit assigns class indices; a label the source lacks (-1) is a miss
            values = source.label_values
            index = np.searchsorted(values, raw)
            found = values[np.minimum(index, values.size - 1)] == raw
            eval_labels = np.where(found, index, -1)
        config = core.PasConfig(dim=args.dim, schedule_step=args.step)
        labels = core.SourceLabels(labels=source.labels,
                                   num_classes=source.num_classes)
        model, trace = core.fit_progressive(source.features, labels, X_t,
                                            config, eval_labels)
        model.label_values = source.label_values
        core.save_model(model, model_out)
        header = ["stage", "fraction", "lambda", "anchored", "objective"]
        rows = [[rec.stage, float(rec.fraction), float(rec.threshold),
                 rec.anchored, float(rec.objective)] for rec in trace]
        if eval_labels is not None:
            header.append("pseudo_acc")
            for row, rec in zip(rows, trace):
                row.append(float(rec.pseudo_accuracy))
        _write_csv(trace_out, header, rows)
    for rec in trace:
        if not rec.converged:
            print("warning: stage %d did not converge in %d inner iterations"
                  % (rec.stage, rec.inner_iters), file=sys.stderr)
    return 0


def cmd_predict(args):
    with atomic_outputs(args.out) as (out,):
        model = core.load_model(args.model)
        X = data.load_features(args.features)
        data.save_labels(out, model.label_values[core.predict(model, X)])
    return 0


def cmd_synth(args):
    keep = tuple(map(int, args.pda_keep.split(","))) if args.pda_keep else None
    cfg = SynthConfig(num_classes=args.classes, dim=args.dim,
                      per_class=args.per_class,
                      shift=Shift(rotation=args.rotation,
                                  translation=args.translation,
                                  noise=args.noise),
                      pda_keep=keep, seed=args.seed)
    names = ("source", "source_labels", "target", "target_labels")
    with atomic_outputs(*("%s_%s.csv" % (args.out_prefix, n) for n in names)) as paths:
        source, target = data.synth_shifted_pair(cfg)
        data.save_features(paths[0], source.features)
        data.save_labels(paths[1], source.labels)
        data.save_features(paths[2], target.features)
        data.save_labels(paths[3], target.true_labels)
    return 0


def _bench_one(suite, seed):
    spec = SUITES[suite]
    cfg = SynthConfig(num_classes=spec["num_classes"], dim=spec["dim"],
                      per_class=spec["per_class"],
                      shift=Shift(rotation=spec["rotation"],
                                  translation=spec["translation"],
                                  noise=spec["noise"]),
                      pda_keep=spec["pda_keep"], seed=seed)
    source, target = data.synth_shifted_pair(cfg)
    dim = spec["subspace_dim"]
    truth = target.true_labels

    def acc(pred):
        return float(np.mean(pred == truth))

    out = {"1nn": acc(baselines.nn1_classify(source, target.features))}
    model_c = baselines.pas_c(source, dim=dim)
    out["pas_c"] = acc(core.predict(model_c, target.features))
    labels = core.SourceLabels(labels=source.labels,
                               num_classes=source.num_classes)
    config = core.PasConfig(dim=dim)
    model, _ = core.fit_progressive(source.features, labels,
                                    target.features, config)
    out["pas"] = acc(core.predict(model, target.features))
    return out


def cmd_bench(args):
    check_count(args.seeds, "--seeds")
    with atomic_outputs(args.out_csv) as (out,):
        # a seed's fit is the same computation in any process, so its
        # results are bitwise the same at any worker count
        results = data.forked_map(lambda seed: _bench_one(args.suite, seed),
                                  range(args.seeds))
        # by method, then seed
        rows = sorted((method, seed, float(accuracy))
                      for seed, result in enumerate(results)
                      for method, accuracy in result.items())
        _write_csv(out, ["method", "seed", "accuracy"], rows)
    for method in sorted({r[0] for r in rows}):
        vals = [r[2] for r in rows if r[0] == method]
        print("%s mean accuracy: %.4f" % (method, float(np.mean(vals))))
    return 0


def cmd_diagnose(args):
    with atomic_outputs(*filter(None, [args.out, args.out_csv])) as outs:
        model = core.load_model(args.model)
        X_s = data.load_features(args.source)
        X_t = data.load_features(args.target)
        truth = data.load_labels(args.true_labels)
        ratio_model = diagnostics.kliep_fit(X_s, X_t, num_centers=args.centers,
                                            bandwidth=args.bandwidth,
                                            seed=args.kliep_seed)
        report = diagnostics.anchoring_report(model, X_t, truth, ratio_model,
                                              fraction=args.fraction)
        report["bandwidth"] = ratio_model.bandwidth
        report["num_centers"] = int(ratio_model.centers.shape[0])
        data.atomic_write_text(outs[0], json.dumps(report, indent=2) + "\n")
        if args.out_csv:
            rows = [("bottom", args.kliep_seed, float(report["bottom"]["acc"])),
                    ("top", args.kliep_seed, float(report["top"]["acc"]))]
            _write_csv(outs[1], ["method", "seed", "accuracy"], rows)
        return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pas",
        description="Per-class subspace domain adaptation with progressive "
                    "anchoring of reliable target samples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model on source + target features")
    p.add_argument("--source", required=True, help="source features (CSV or PASM)")
    p.add_argument("--labels", required=True, help="source label file")
    p.add_argument("--target", required=True, help="target features (CSV or PASM)")
    p.add_argument("--dim", type=int, default=1, help="subspace dimension")
    p.add_argument("--step", type=float, default=0.01,
                   help="anchored-fraction increment per stage")
    p.add_argument("--out-model", required=True, help="output model JSON")
    p.add_argument("--trace-csv", required=True, help="per-stage trace CSV")
    p.add_argument("--eval-labels", help="true target labels (adds pseudo_acc)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict labels with a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="output label file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic shifted pair")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--rotation", type=float, default=0.0)
    p.add_argument("--translation", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--pda-keep", help="comma-separated target classes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="run 1NN / source-only / progressive "
                                     "comparison on a synthetic suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("diagnose", help="density-ratio anchoring report")
    p.add_argument("--model", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--true-labels", required=True)
    p.add_argument("--fraction", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--out-csv", help="also write method,seed,accuracy rows")
    p.add_argument("--centers", type=int, default=100)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--kliep-seed", type=int, default=0)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionMismatch as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DIM
    except (PasError, OSError, ValueError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
