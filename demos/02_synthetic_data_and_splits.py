"""Synthetic admission records and leakage-safe splitting.

Run with: python3 demos/02_synthetic_data_and_splits.py
"""

from collections import Counter
from dataclasses import replace

from fedvra.data import (
    INSTITUTIONS,
    SynthConfig,
    assign_institutions,
    generate_synthetic,
    make_split_plan,
    split_index,
    ward_counts,
)
from fedvra.errors import SplitInvariantError

records = generate_synthetic(
    SynthConfig(n_patients=300, seed=5, positive_rate=0.12, class_separation=1.5)
)
print(f"generated {len(records)} admissions for 300 patients")

counts = ward_counts(records)
print("\n== ward census ==")
for ward in sorted(counts):
    print(f"  {ward:<4} {counts[ward]:>4} records")

# two simulated institutions: the ward partition that balances record
# counts as evenly as possible
institution_of = assign_institutions(counts)
print("\n== institution assignment ==")
for inst in INSTITUTIONS:
    wards = sorted(w for w, i in institution_of.items() if i == inst)
    total = sum(counts[w] for w in wards)
    print(f"  institution {inst}: wards {', '.join(wards)} ({total} records)")

plan = make_split_plan(records, test_fraction=0.2, n_folds=5, seed=0)
print("\n== split plan ==")
print(f"  test records:    {len(plan.test_ids)} (latest slice per institution)")
print(f"  folded records:  {len(plan.fold_of_record)} in {plan.n_folds} patient-disjoint folds")
print(f"  dropped records: {len(plan.dropped_ids)} (train-era admissions of test-set patients)")

fold_sizes = Counter(plan.fold_of_record.values())
print("  fold sizes:     ", dict(sorted(fold_sizes.items())))

split_index(records, plan)  # raises SplitInvariantError, naming every violation, on a broken plan
print("\nthe plan check found 0 violations")

# sabotage the plan to show the check working. First leak one folded
# record into the test set as well: that record then has no single
# fold, so only the partition is reported
broken = replace(plan, test_ids=plan.test_ids + (next(iter(plan.fold_of_record)),))
print("after leaking one record into the test set:")
try:
    split_index(records, broken)
except SplitInvariantError as exc:
    for message in str(exc).split("; ")[:3]:
        print(f"  {message}")

# then move one dropped record (a train-era admission of a test-set
# patient) into fold 1: the partition holds, and the check of the
# split index finds the patient on both sides
leaked = plan.dropped_ids[0]
broken = replace(plan, fold_of_record={**plan.fold_of_record, leaked: 1}, dropped_ids=plan.dropped_ids[1:])
print(f"after moving dropped record {leaked} into fold 1:")
try:
    split_index(records, broken)
except SplitInvariantError as exc:
    print(f"  split_index refused it: {exc}")
