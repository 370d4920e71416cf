"""The benchmark's workloads: which CLI invocations one pipeline makes.

Every workload runs the four stages synth -> split -> run -> report as
a single closed-loop client: the next stage starts only when the
previous one has exited, so there is one CLI invocation at a time.

The benchmark's `--seed` picks one of SEED_POOL input seeds. The pool is
finite so that every output of every run can be checked against a
digest pinned in `pinned.json` (see `pin.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_POOL = 8
STAGES = ("synth", "split", "run", "report")

# Relative to the pipeline's working directory. comparison.json and
# run_config.json record these paths, so they must not vary between
# runs or checkouts for the pinned digests to hold.
DATA = "data.jsonl"
PLAN = "plan.json"
RUN_DIR = "run"


@dataclass(frozen=True)
class Workload:
    name: str
    n_patients: int
    positive_rate: float
    hidden_sizes: str
    max_epochs: int
    threads: int
    bootstrap_n: int

    def stage_args(self, input_seed: int) -> dict[str, list[str]]:
        """CLI arguments (after the subcommand) for each stage."""
        seed = str(input_seed)
        return {
            "synth": [
                "--out", DATA, "--seed", seed,
                "--n-patients", str(self.n_patients),
                "--positive-rate", repr(self.positive_rate),
                "--class-separation", "1.5", "--ward-shift", "1.0",
                # Two admissions per patient fix the record count. The input
                # seed still moves the work by a few percent: it decides which
                # patients straddle the test cut (and are dropped) and how many
                # test-set positives there are (and so the bootstrap redraws).
                # pinned.json has the exact counts of every input seed.
                "--admissions-min", "2", "--admissions-max", "2",
            ],
            "split": ["--data", DATA, "--out", PLAN, "--seed", seed, "--folds", "5"],
            "run": [
                "--data", DATA, "--split", PLAN, "--out", RUN_DIR, "--seed", seed,
                "--hidden-sizes", self.hidden_sizes,
                "--learning-rates", "0.005", "--weight-decays", "0.0001",
                "--batch-size", "32",
                # patience == max_epochs: no fit stops early, so every
                # input seed trains the same number of CV epochs.
                "--max-epochs", str(self.max_epochs), "--patience", str(self.max_epochs),
                "--threads", str(self.threads),
            ],
            "report": ["--run", RUN_DIR, "--seed", seed, "--bootstrap-n", str(self.bootstrap_n)],
        }


def input_seed(seed: int) -> int:
    """Map the benchmark's --seed to the input seed the CLI stages receive."""
    return seed % SEED_POOL


_CV = dict(n_patients=400, positive_rate=0.1, hidden_sizes="16,128", max_epochs=3, bootstrap_n=20)

# Why each gated workload was chosen is written in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="cv-serial", threads=1, **_CV),
        # The only workload where the experiment pool runs. It is not in
        # BENCHMARK.json: two threads trading the GIL on a 2-vCPU shared
        # host stall whenever the host takes either vCPU, so its wall times
        # spread past any bound between runs of the same code. Judge a pool
        # change by running it by hand, before and after, on the same seeds.
        Workload(name="cv-threads2", threads=2, **_CV),
        # At 600 patients and a 5% positive rate every institution's test
        # set holds 2 to 9 positives on every pinned input seed: each
        # bootstrap entry is defined, most seeds redraw some single-class
        # resamples, and redraws add at most 2.2% to the resamples drawn.
        Workload(
            name="report-bootstrap",
            n_patients=600,
            positive_rate=0.05,
            hidden_sizes="8",
            max_epochs=2,
            threads=1,
            bootstrap_n=50,
        ),
    )
}
