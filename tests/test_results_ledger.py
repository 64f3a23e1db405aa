"""The results ledger reruns: the same tables and checkpoint sums on any host,
the same checkpoints on its own.

See ``tests/results_ledger.py`` for the run and how to re-record it.
"""

import json

import pytest

import results_ledger as ledger
from driftfed import nn
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


def test_results_ledger_checkpoint_sums_match_on_any_host(rerun):
    task, run_dir = rerun
    recorded = (ledger.ledger_dir(task) / ledger.SUMS).read_text()
    changes = ledger.sum_changes(recorded, ledger.checkpoint_sums(run_dir))
    assert not changes, "checkpoint sums moved:\n" + "\n".join(changes[:10])


def test_checkpoint_sums_tolerate_rounding_and_nothing_more():
    recorded = (ledger.ledger_dir("binary") / ledger.SUMS).read_text()
    key, total, squares = recorded.splitlines()[0].rsplit(" ", 2)

    def moved(by):
        line = f"{key} {float(total) * (1 + by)!r} {squares}"
        return ledger.sum_changes(recorded, "\n".join([line, *recorded.splitlines()[1:]]))

    assert moved(0.0) == [] and moved(1e-13) == []
    assert moved(1e-7) == [f"{key}: {float(total)!r} -> {float(total) * (1 + 1e-7)!r}"]
    assert ledger.sum_changes(recorded, "".join(recorded.splitlines(True)[1:])) != []


def test_an_adam_eps_change_moves_every_checkpoints_sums(monkeypatch, tmp_path):
    # a change that moves no table byte, so a host whose fingerprint differs
    # from the ledger's would miss it in the tables
    monkeypatch.setattr(nn, "ADAM_EPS", 1.1e-8)
    run_dir = ledger.run("binary", tmp_path / "run")
    recorded = (ledger.ledger_dir("binary") / ledger.SUMS).read_text()
    changes = ledger.sum_changes(recorded, ledger.checkpoint_sums(run_dir))
    checkpoints = {line.split()[0] for line in recorded.splitlines()}
    assert {change.split()[0] for change in changes} == checkpoints


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
