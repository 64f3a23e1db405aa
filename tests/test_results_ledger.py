"""The results ledger reruns: the same tables on any host, the same checkpoints on its own.

See ``tests/results_ledger.py`` for the run and how to re-record it.
"""

import json

import pytest

import results_ledger as ledger
from driftfed.timeline import TASKS


@pytest.fixture(scope="module", params=TASKS)
def rerun(request, tmp_path_factory):
    task = request.param
    return task, ledger.run(task, tmp_path_factory.mktemp(f"ledger-{task}") / "run")


def _changed_lines(recorded: str, now: str) -> list[str]:
    old, new = recorded.splitlines(), now.splitlines()
    diffs = [f"line {i + 1}: {a!r} -> {b!r}" for i, (a, b) in enumerate(zip(old, new)) if a != b]
    if len(old) != len(new):
        diffs.append(f"{len(old)} lines recorded, {len(new)} now")
    return diffs


def test_results_ledger_tables_match(rerun):
    task, run_dir = rerun
    for table in ledger.TABLES:
        name = f"{table}_{task}.csv"
        recorded = (ledger.ledger_dir(task) / name).read_text()
        now = (run_dir / name).read_text()
        assert now == recorded, f"{name} moved:\n" + "\n".join(_changed_lines(recorded, now)[:10])


def test_results_ledger_checkpoints_match(rerun):
    task, run_dir = rerun
    recorded = (ledger.ledger_dir(task) / ledger.CHECKPOINTS).read_text()
    now = ledger.checkpoint_hashes(run_dir)
    names = [line.split("  ", 1)[1] for line in recorded.splitlines()]
    assert [line.split("  ", 1)[1] for line in now.splitlines()] == names
    recorded_on = json.loads((ledger.ledger_dir(task) / ledger.HOST).read_text())["fingerprint"]
    here = ledger.host()["fingerprint"]
    if here != recorded_on:
        pytest.skip(f"checkpoint bytes depend on BLAS and CPU: this host's fingerprint {here} "
                    f"is not {recorded_on}, the host the ledger was recorded on")
    assert now == recorded, "checkpoints moved:\n" + "\n".join(_changed_lines(recorded, now)[:10])


def test_a_forced_openblas_kernel_gets_its_own_fingerprint(monkeypatch):
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    unset = ledger.host()
    assert "openblas_coretype" not in unset
    fingerprints = {unset["fingerprint"]}
    for coretype in ("Haswell", "SkylakeX"):
        monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        forced = ledger.host()
        assert forced["openblas_coretype"] == coretype
        rest = {k: v for k, v in forced.items() if k not in ("fingerprint", "openblas_coretype")}
        assert rest == {k: v for k, v in unset.items() if k != "fingerprint"}
        fingerprints.add(forced["fingerprint"])
    assert len(fingerprints) == 3
    monkeypatch.setenv("OPENBLAS_CORETYPE", "")  # empty is unset
    assert ledger.host() == unset
