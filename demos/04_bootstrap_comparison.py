"""Bootstrap confidence intervals and paired model comparison.

Run with: python3 demos/04_bootstrap_comparison.py
"""

import numpy as np

from fedvra.stats import (
    ScoredSet,
    bootstrap_ci,
    bootstrap_diff,
    common_agreement,
    contingency,
)

rng = np.random.default_rng(19)
n = 400
labels = (rng.uniform(size=n) < 0.2).astype(np.int64)


def noisy_scores(strength):
    """Higher strength separates the classes more cleanly."""
    return 1 / (1 + np.exp(-(strength * (2 * labels - 1) + rng.standard_normal(n))))


good = ScoredSet(labels=labels, scores=noisy_scores(2.0))
weak = ScoredSet(labels=labels, scores=noisy_scores(0.7))

print("== percentile bootstrap CIs (2000 resamples) ==")
for name, scored in (("good", good), ("weak", weak)):
    for measure in ("f1", "roc_auc"):
        result, _ = bootstrap_ci(scored, measure, n_resamples=2000, seed=1)
        print(
            f"  {name:<5} {measure:<8} mean={result.mean:.3f} "
            f"95% CI [{result.ci_low:.3f}, {result.ci_high:.3f}]"
        )

print("\n== paired difference (same resample indices for both models) ==")
for measure in ("f1", "roc_auc"):
    diff, _ = bootstrap_diff(weak, good, measure, n_resamples=2000, seed=2)
    verdict = "significant" if diff.significant else "not significant"
    print(
        f"  weak - good {measure:<8} {diff.mean_diff:+.3f} "
        f"[{diff.ci_low:+.3f}, {diff.ci_high:+.3f}]  {verdict}"
    )

self_diff, _ = bootstrap_diff(good, good, "f1", n_resamples=2000, seed=3)
print(f"  good - good f1       {self_diff.mean_diff:+.3f} "
      f"[{self_diff.ci_low:+.3f}, {self_diff.ci_high:+.3f}]  (exactly zero by construction)")

print("\n== where the two models disagree ==")
counts = contingency(good, weak)  # two scored sets of the same records
print(f"  both correct {counts.both_correct}, good only {counts.first_only}, "
      f"weak only {counts.second_only}, neither {counts.neither}")

agreement = common_agreement([good, weak])
print(
    f"  unanimous on {agreement.neg_correct + agreement.neg_wrong + agreement.pos_correct + agreement.pos_wrong}"
    f" of {n} records (rate {agreement.agreement_rate:.3f})"
)
