"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

from layers import METRICS as LAYER_METRICS, stage_accounting
from outputs import check_digests, collect_digests, work_counts
from run import E2E_METRICS
from tracing import Tracer, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _in_thread(fn) -> None:
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_self_time_of_nested_spans_from_two_threads():
    # root [0,10] > parent [1,9] > {a [2,6] > inner [3,4]} on one worker
    # thread and {b [5,8]} on another; a and b overlap on [5,6].
    tracer = Tracer(clock=iter([0, 1, 2, 3, 4, 6, 5, 8, 9, 10]).__next__)
    spans = {}

    def worker_a():
        with tracer.span("federated.federated_train") as spans["a"]:
            with tracer.span("network.backward") as spans["inner"]:
                pass

    def worker_b():
        with tracer.span("federated.federated_train") as spans["b"]:
            pass

    with tracer.span("stage.run") as spans["root"]:
        with tracer.span("experiment.grid_search_cv") as spans["parent"]:
            _in_thread(worker_a)
            _in_thread(worker_b)

    assert spans["a"].parent is spans["parent"] and spans["b"].parent is spans["parent"]
    assert spans["inner"].parent is spans["a"]
    own = self_times(tracer.spans)
    assert {k: own[s] for k, s in spans.items()} == {"root": 2, "parent": 2, "a": 3, "inner": 1, "b": 3}
    acc = stage_accounting(tracer.spans)["run"]
    assert acc == {
        "wall": 10, "unattributed": 2, "overlap": 1, "experiment": 2, "federated": 6, "network": 1,
    }
    layers = acc["experiment"] + acc["federated"] + acc["network"]
    assert layers + acc["unattributed"] - acc["overlap"] == acc["wall"]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import fedvra.cli  # noqa: F401  (loads every module of the package)

    modules = {n: m for n, m in sys.modules.items() if n == "fedvra" or n.startswith("fedvra.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    original_backward = fedvra.network.backward

    tracer = Tracer()
    assert tracer.install() > 0
    try:
        assert fedvra.network.backward is not original_backward
        assert fedvra.federated.backward is fedvra.network.backward
        assert fedvra.backward is fedvra.network.backward
        assert fedvra.experiment.federated_train is fedvra.federated.federated_train
        assert fedvra.cli.bootstrap_ci is fedvra.stats.bootstrap_ci
        assert fedvra.cli.bootstrap_ci.__wrapped__ is before["fedvra.stats"]["bootstrap_ci"]
        fedvra.cli.derive_report_seed(3, "ci")
    finally:
        tracer.uninstall()

    names = [s.name for s in tracer.spans]
    assert names[:3] == ["cli.derive_report_seed", "seeds.derive_seed", "seeds.seed_entropy"]
    assert tracer.spans[2].parent is tracer.spans[1] and tracer.spans[1].parent is tracer.spans[0]
    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys(), name
        changed = [k for k, v in before[name].items() if after[k] is not v]
        assert changed == [], name


def test_digest_check_flags_one_flipped_byte(tmp_path):
    (tmp_path / "data.jsonl").write_text('{"ward": "A1"}\n')
    (tmp_path / "run" / "a").mkdir(parents=True)
    scores = tmp_path / "run" / "a" / "scores_A.csv"
    scores.write_bytes(b"record_id,label,score,prediction\n0,1,0.75,1\n")
    pinned = collect_digests(tmp_path)
    assert sorted(pinned) == ["data.jsonl", "run/a/scores_A.csv"]
    assert check_digests(collect_digests(tmp_path), pinned) == []

    raw = bytearray(scores.read_bytes())
    raw[-3] ^= 0x01
    scores.write_bytes(bytes(raw))
    assert check_digests(collect_digests(tmp_path), pinned) == ["digest mismatch run/a/scores_A.csv"]
    (tmp_path / "data.jsonl").unlink()
    assert check_digests(collect_digests(tmp_path), pinned) == [
        "missing data.jsonl",
        "digest mismatch run/a/scores_A.csv",
    ]


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def test_work_counts_of_a_hand_checked_plan(tmp_path):
    # Records 0-2 in ward W1 (institution A), 3-6 in W2 (B); record 6 is
    # a test record. Folds: A {0} | {1, 2}, B {3, 4} | {5}.
    wards = ["W1", "W1", "W1", "W2", "W2", "W2", "W2"]
    (tmp_path / "data.jsonl").write_text("".join(json.dumps({"ward": w}) + "\n" for w in wards))
    _write_json(
        tmp_path / "plan.json",
        {
            "institution_of_ward": {"W1": "A", "W2": "B"},
            "fold_of_record": {"0": 1, "1": 2, "2": 2, "3": 1, "4": 1, "5": 2},
            "test_ids": [6],
            "dropped_ids": [],
        },
    )
    run = tmp_path / "run"
    _write_json(run / "run_config.json", {"batch_size": 2, "treatments": ["a", "federated"]})
    for treatment, epochs_by_fold, budget in (("a", {1: 3, 2: 2}, 2), ("federated", {1: 1, 2: 4}, 3)):
        (run / treatment).mkdir(parents=True)
        (run / treatment / "cv_fits.jsonl").write_text(
            "".join(json.dumps({"fold": f, "epochs_run": e}) + "\n" for f, e in epochs_by_fold.items())
        )
        _write_json(run / treatment / "cv_results.json", {"epoch_budget": budget})
    _write_json(
        run / "report" / "comparison.json",
        {
            "bootstrap": {"A": {"f1": {"a": {"n_resamples": 10, "n_redrawn": 2}, "federated": None}}},
            "differences_vs_federated": {"A": {"f1": {"a": {"n_resamples": 10, "n_redrawn": 0}}}},
        },
    )

    # a:         fold 1 out: 2 samples x 3 epochs, fold 2 out: 1 x 2, final: 3 x 2
    # federated: fold 1 out: (2 + 1) x 1, fold 2 out: (1 + 2) x 4, final: (3 + 3) x 3
    # steps use ceil(silo / 2) per silo: a 1x3 + 1x2 + 2x2, federated 2x1 + 2x4 + 4x3
    assert work_counts(tmp_path) == {
        "train_samples": 6 + 2 + 6 + 3 + 12 + 18,
        "steps": 3 + 2 + 4 + 2 + 8 + 12,
        "fits": 6,
        "rounds": 3 + 2 + 2 + 1 + 4 + 3,
        "resamples": 22,
        "redrawn": 2,
        "records": 7,
    }


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n != "cv-threads2"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
