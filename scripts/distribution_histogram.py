"""Compare empirical decryption outcomes against the exact oracle.

Usage: python scripts/distribution_histogram.py [--runs 2000] [--seed 3]
       [--pivs 010 101]

Runs the full gate-level protocol many times with no decoys and no
adversary, counts the joint register outcomes, and prints the most frequent
ones next to their exact probabilities, plus a chi-square p-value over the
whole support. Runs are simulated one at a time, so time grows with --runs,
but a run simulates only its distinct tuple states: the GHZ row and its
phase-flipped twin, not every tuple.
"""

import argparse
from collections import Counter

import numpy as np
from scipy import stats as scipy_stats

from ghzcast import BitVector, Scenario, concat_secrets, joint_oracle, run_protocol

BAR_WIDTH = 40


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--pivs", nargs="+", default=["010", "101"])
    args = ap.parse_args()

    secrets = tuple(BitVector.from_text(t) for t in args.pivs)
    n = len(secrets) + 1
    payload, _ = concat_secrets(secrets)
    dist = joint_oracle(payload, n)

    master = np.random.default_rng(args.seed)
    seeds = master.integers(0, 2**63, size=args.runs)
    counts: Counter[int] = Counter()
    for s in seeds:
        registers = run_protocol(Scenario(n=n, secrets=secrets, d=0, seed=int(s))).registers
        counts[dist.key_from_registers(registers)] += 1

    seen = np.fromiter(counts, dtype=np.int64, count=len(counts))
    tallies = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    off_support = int(tallies[~np.isin(seen, dist.keys)].sum())
    print(f"payload {payload}, {dist.keys.size} outcomes in the exact support")
    print(f"{args.runs} runs, {off_support} outcomes off support\n")

    top = counts.most_common(15)
    peak = top[0][1]
    texts = dist.render_keys([key for key, _ in top])
    for text, (key, c) in zip(texts, top):
        bar = "#" * max(1, round(BAR_WIDTH * c / peak))
        print(f"{text}  {c:6d}  exact {dist.probability(key):.6f}  {bar}")

    # joint_oracle's keys are ascending
    observed = np.array([counts.get(key, 0) for key in dist.keys.tolist()])
    expected = dist.probs * args.runs
    p = scipy_stats.chisquare(observed, expected).pvalue
    print(f"\nchi-square over the full support: p = {p:.4f}")


if __name__ == "__main__":
    main()
