#!/usr/bin/env python3
"""Benchmark the two separation routes against the distance oracle.

Generates (or reads) a corpus, runs the direction search and the polar
reduction on every instance, cross-checks both against Frank-Wolfe distances,
and prints per-mode oracle-call statistics.  The interesting comparison is
the mean number of support queries on points outside the body, where the
direction search's query-dependent cuts tend to pay off.

Example:
    python scripts/run_comparison.py --dims 2,3,4,5 --per-dim 20 --out report.json
"""

import argparse
import tempfile
from pathlib import Path

from sepopt import Instance, dump_instance, random_instance
from sepopt.cli import _checked, _positive, compare_corpus

_at_least_one = _checked(int, lambda k: k >= 1, "an integer >= 1")


def generate(corpus: Path, dims, per_dim, delta, seed_base):
    corpus.mkdir(parents=True, exist_ok=True)
    for n in dims:
        for i in range(per_dim):
            place = "outside" if i % 2 == 0 else "inside"
            margin = (0.25 if i % 4 == 0 else 0.05) if place == "outside" else 0.1
            seed = seed_base + 1000 * n + i
            body, p = random_instance(n, n + 4, seed, place=place, margin=margin)
            dump_instance(Instance(body, p, delta), corpus / f"n{n}_{place}_s{seed}.json")


def cell(value, width, digits):
    """``value`` with ``digits`` decimals right-aligned in ``width``; n/a when missing."""
    return f"{'n/a' if value is None else f'{value:.{digits}f}':>{width}}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=None,
                        help="existing corpus directory (otherwise generated)")
    parser.add_argument("--dims", default="2,3,4,5",
                        type=_checked(lambda t: [int(d) for d in t.split(",")],
                                      lambda dims: min(dims) >= 2,
                                      "comma-separated integers >= 2"),
                        help="dimensions to generate (generation only)")
    parser.add_argument("--per-dim", type=_at_least_one, default=20,
                        help="instances per dimension (generation only)")
    parser.add_argument("--delta", type=_positive, default=None,
                        help="accuracy of every row (default: 1e-3 for a generated "
                             "corpus, each instance's own delta with --corpus)")
    parser.add_argument("--seed-base", default=0,
                        type=_checked(int, lambda s: s >= 0, "an integer >= 0"),
                        help="first instance seed (generation only)")
    parser.add_argument("--jobs", type=_at_least_one, default=2)
    parser.add_argument("--out", default="comparison_report.json")
    args = parser.parse_args()

    out = Path(args.out)
    # opened first, so an unwritable path is refused before any corpus is made
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write {out}: {exc.strerror}")
    with fh:
        if args.corpus:
            corpus = Path(args.corpus)
        else:
            corpus = Path(tempfile.mkdtemp(prefix="sepopt_corpus_"))
            generate(corpus, args.dims, args.per_dim, args.delta or 1e-3, args.seed_base)
            print(f"generated corpus in {corpus}")
        paths = sorted(corpus.glob("*.json"))
        report = compare_corpus(paths, delta=args.delta, jobs=args.jobs)
        report.write(fh)

    agg = report.aggregates
    print(f"instances: {agg['instances']}  failed: {agg['failed']}  "
          f"disagreements: {agg['disagreements']}")
    header = f"{'mode':24s} {'mean':>8s} {'median':>8s} {'mean(out)':>10s} {'median(out)':>12s}"
    print(header)
    for mode in ("heuristic_reduction", "standard_reduction"):
        stats = agg[mode]
        print(f"{mode:24s} {cell(stats['mean_calls'], 8, 2)} {cell(stats['median_calls'], 8, 1)} "
              f"{cell(stats['mean_calls_outside'], 10, 2)} "
              f"{cell(stats['median_calls_outside'], 12, 1)}")
    print(f"report written to {out} (+ {out.with_suffix('.csv').name})")


if __name__ == "__main__":
    main()
