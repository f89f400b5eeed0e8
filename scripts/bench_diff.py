#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json baselines.

Compares freshly regenerated bench output (typically
`scripts/bench_regen.sh --quick`, which writes into
<build>/bench_quick/) against a baseline directory — the committed
BENCH_*.json at the repo root, or (as the tier-2 CI job does) a baseline
regenerated at the merge-base on the same runner, so the thresholds
compare same-hardware runs instead of absorbing runner variance.

Four metrics are gated at every matching key:

  * interactions/sec — fails on a relative drop beyond --threshold
      - BENCH_batched.json  — key (simulator, n, threads)
      - BENCH_compiled.json — key (config, n, threads)
    keys where either side's wall-clock measurement ran under
    --min-measure-seconds are skipped as timer noise (the smallest-n
    sweep points finish in milliseconds)
  * compile seconds (BENCH_compiled.json "compile" records, key
    (config, threads)) — fails on a relative *rise* beyond --threshold;
    baselines under --min-compile-seconds are skipped as noise
  * eager interned-pair counts (BENCH_compiled.json "compile.pairs",
    key (config)) — the size of the deterministic pair closure, so ANY
    growth fails
  * lazy compiled-pair counts (BENCH_compiled.json "lazy.pairs_compiled",
    key (config)) — fails on a relative *rise* beyond --threshold.  A
    lazy spec compiles only the pairs its sampled trajectories touch, so
    the count moves whenever an exact sampler consumes randomness
    differently (one such change took c8_lazy from 38487 to 36000 pairs);
    only a large rise points at a compile-path fault

`threads` is the executor width recorded in each file's header
("executor_threads", falling back to "hardware_concurrency" for
pre-executor baselines), so runs with different thread budgets are never
compared against each other — pin the width with POPS_THREADS=1 (as the
tier-2 CI job does) to compare against single-threaded baselines.  Keys
present on only one side are skipped and reported; improvements always
pass.  Exit codes: 0 ok / nothing comparable, 1 regression, 2 usage or
missing file.

Usage:
  scripts/bench_diff.py [--baseline-dir DIR] [--new-dir DIR]
                        [--threshold 0.25] [--min-compile-seconds 0.05]
                        [--min-measure-seconds 0.02]
"""

import argparse
import json
import os
import sys

FILES = ("BENCH_batched.json", "BENCH_compiled.json")

# Gate policies: how `delta = (new - old) / old` is judged per metric.
HIGHER_IS_BETTER = "higher"   # fail when delta < -threshold
LOWER_IS_BETTER = "lower"     # fail when delta > +threshold
NO_GROWTH = "exact"           # fail when new > old at all


def header_threads(doc):
    return doc.get("executor_threads", doc.get("hardware_concurrency", 1))


def extract(doc):
    """Flatten one BENCH document into {metric: {key: value}}."""
    threads = header_threads(doc)
    points = {"interactions_per_sec": {}, "compile_seconds": {}, "interned_pairs": {},
              "lazy_pairs": {}, "measure_seconds": {}}
    if doc.get("bench") == "bench_batched":
        for rec in doc.get("results", []):
            key = (rec["simulator"], rec["n"], threads)
            points["interactions_per_sec"][key] = rec["interactions_per_sec"]
            points["measure_seconds"][key] = rec.get("seconds", float("inf"))
    elif doc.get("bench") == "bench_compiled_scaling":
        for config in doc.get("configs", []):
            for rec in config.get("scaling", []):
                key = (config["config"], rec["n"], threads)
                points["interactions_per_sec"][key] = rec["interactions_per_sec"]
                points["measure_seconds"][key] = rec.get("seconds", float("inf"))
            compile_rec = config.get("compile")
            if compile_rec is not None:
                points["compile_seconds"][(config["config"], threads)] = \
                    compile_rec["seconds"]
                points["interned_pairs"][(config["config"], "eager")] = \
                    compile_rec["pairs"]
            lazy_rec = config.get("lazy")
            if lazy_rec is not None:
                points["lazy_pairs"][(config["config"], "lazy")] = \
                    lazy_rec["pairs_compiled"]
    return points


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        print(f"bench_diff: {path}: malformed JSON ({e})", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding the baseline BENCH_*.json (default: .)")
    parser.add_argument("--new-dir", default="build/bench_quick",
                        help="directory holding the regenerated BENCH_*.json "
                             "(default: build/bench_quick)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that fails the gate (default: 0.25)")
    parser.add_argument("--min-compile-seconds", type=float, default=0.05,
                        help="skip compile-seconds keys whose baseline is below this "
                             "(timer noise; default: 0.05)")
    parser.add_argument("--min-measure-seconds", type=float, default=0.02,
                        help="skip interactions/sec keys where either side's "
                             "wall-clock measurement is below this (timer noise; "
                             "default: 0.02)")
    args = parser.parse_args()

    gates = (
        ("interactions_per_sec", HIGHER_IS_BETTER),
        ("compile_seconds", LOWER_IS_BETTER),
        ("interned_pairs", NO_GROWTH),
        ("lazy_pairs", LOWER_IS_BETTER),
    )
    compared = 0
    skipped = 0
    regressions = []
    for name in FILES:
        base_doc = load(os.path.join(args.baseline_dir, name))
        new_doc = load(os.path.join(args.new_dir, name))
        if base_doc is None:
            print(f"bench_diff: no baseline {name} in {args.baseline_dir}; skipping")
            continue
        if new_doc is None:
            print(f"bench_diff: no regenerated {name} in {args.new_dir}; skipping "
                  f"(run scripts/bench_regen.sh --quick first)")
            continue
        base_all = extract(base_doc)
        new_all = extract(new_doc)
        for metric, policy in gates:
            base = base_all[metric]
            new = new_all[metric]
            for key in sorted(set(base) | set(new), key=str):
                if key not in base or key not in new:
                    skipped += 1
                    continue
                old_val, new_val = base[key], new[key]
                if metric == "compile_seconds" and old_val < args.min_compile_seconds:
                    skipped += 1
                    continue
                if metric == "interactions_per_sec" and \
                        min(base_all["measure_seconds"].get(key, float("inf")),
                            new_all["measure_seconds"].get(key, float("inf"))) \
                        < args.min_measure_seconds:
                    skipped += 1
                    continue
                compared += 1
                delta = (new_val - old_val) / old_val if old_val > 0 else 0.0
                label = f"{name}: {metric} {' '.join(str(k) for k in key)}"
                status = "ok"
                if policy == HIGHER_IS_BETTER and delta < -args.threshold:
                    status = "REGRESSION"
                elif policy == LOWER_IS_BETTER and delta > args.threshold:
                    status = "REGRESSION"
                elif policy == NO_GROWTH and new_val > old_val:
                    status = "REGRESSION"
                if status == "REGRESSION":
                    regressions.append(label)
                print(f"  {status:>10}  {label}: {old_val:.6g} -> {new_val:.6g} "
                      f"({delta:+.1%})")

    print(f"bench_diff: {compared} keys compared, {skipped} present on one side only "
          f"or below the noise floor, {len(regressions)} regression(s)")
    if compared == 0:
        # Different machine/threads than the baselines: nothing to gate on.
        print("bench_diff: no matching keys — gate is vacuous")
        return 0
    if regressions:
        for r in regressions:
            print(f"bench_diff: FAILED {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
