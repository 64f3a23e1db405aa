import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfed import atomic, cli, federation, runner
from driftfed.errors import ConfigError, DivergenceError, ReportError
from driftfed.nn import OPTIMIZERS, ModelArch, TrainConfig
from driftfed.pipeline import ColumnSpec
from driftfed.runner import (ALL_STRATEGIES, DataSource, RunConfig, _config_dict,
                             config_from_dict, desk_scale, load_config, render_reports,
                             rerender_reports, run_experiment, validate_config)
from driftfed.synth import generate
from driftfed.timeline import STRATEGY_KINDS, TASKS, StrategyConfig

from conftest import full_disk, tiny_scenario


def _tiny_cfg(tmp_path, task="binary", strategies=None, seed=3):
    return desk_scale(RunConfig(
        task=task,
        strategies=strategies or (StrategyConfig("static"), StrategyConfig("simple"),
                                  StrategyConfig("retain", retain_r=20),
                                  StrategyConfig("avg_ema")),
        arch=ModelArch(input_dim=8, output_dim=2 if task == "binary" else 6),
        data=DataSource(synthetic_seed=seed),
        output_dir=str(tmp_path / "run"),
        seed=seed,
    ))


def _tiny_records(seed=3):
    return generate(tiny_scenario(seed=seed, rows=120))


# --- config ------------------------------------------------------------------

def test_validate_config_defaults_clean(tmp_path):
    cfg = RunConfig(output_dir=str(tmp_path))
    assert validate_config(cfg) == []


def test_validate_config_flags_bad_values(tmp_path):
    cfg = RunConfig(
        strategies=(StrategyConfig("retain", retain_r=0),
                    StrategyConfig("avg_ema", ema_alpha=1.5)),
        output_dir=str(tmp_path),
    )
    problems = validate_config(cfg)
    assert any("retain_r" in p for p in problems)
    assert any("ema_alpha" in p for p in problems)

    empty = replace(cfg, strategies=())
    assert any("strategies" in p for p in validate_config(empty))

    bad_caps = replace(RunConfig(output_dir=str(tmp_path)), train_cap=0)
    assert any("caps.train" in p for p in validate_config(bad_caps))
    # settings of the wrong type are named, as config_from_dict names them
    wrong = replace(RunConfig(output_dir=str(tmp_path)), train_cap="10", test_cap=2.5,
                    seed="abc", train_fraction="0.8")
    assert validate_config(wrong) == [
        "caps.train: must be an integer, got '10'",
        "caps.test: must be an integer, got 2.5",
        "seed: must be an integer, got 'abc'",
        "train_fraction: must be a number, got '0.8'",
    ]

    missing = replace(RunConfig(output_dir=str(tmp_path)),
                      data=DataSource(path="/does/not/exist.csv"))
    assert any("data.path" in p for p in validate_config(missing))

    # output_dim follows the task, so a mismatched one cannot be built
    six = RunConfig(task="sixclass", output_dir=str(tmp_path))
    assert six.arch.output_dim == 6
    assert replace(six, task="binary").arch.output_dim == 2
    assert replace(six, arch=ModelArch(output_dim=2)).arch.output_dim == 6
    # an unknown task is left for validate_config to report
    assert any(p.startswith("task:")
               for p in validate_config(replace(six, task="ternary")))


def test_validate_config_checks_arch_against_feature_count(tmp_path, monkeypatch):
    # the synthetic scenario has 45 features per row
    cfg = RunConfig(output_dir=str(tmp_path / "run"))
    assert validate_config(cfg) == []
    assert validate_config(replace(cfg, arch=replace(cfg.arch, input_dim=15, seq_len=3))) == []
    doubled = replace(cfg, arch=replace(cfg.arch, seq_len=2))
    assert any("input_dim * seq_len = 90" in p for p in validate_config(doubled))

    # supplied records set the count; a CSV reads it from its column spec,
    # or has input_dim columns under the default spec
    assert validate_config(_tiny_cfg(tmp_path), records=_tiny_records()) == []
    assert validate_config(_tiny_cfg(tmp_path)) != []
    csv_path = tmp_path / "flows.csv"
    csv_path.write_text("")
    spec = tmp_path / "flows.columns.json"
    ColumnSpec(tuple(f"f{i}" for i in range(6)), "Attack").to_json(spec)
    with_spec = replace(cfg, data=DataSource(path=str(csv_path), column_spec_path=str(spec)))
    assert validate_config(replace(with_spec, arch=replace(cfg.arch, input_dim=3,
                                                           seq_len=2))) == []
    assert validate_config(with_spec) != []
    default_spec = replace(cfg, data=DataSource(path=str(csv_path)))
    assert validate_config(default_spec) == []
    assert validate_config(replace(default_spec, arch=replace(cfg.arch, seq_len=2))) != []
    spec.write_text("{not json")
    assert any("column_spec" in p for p in validate_config(with_spec))

    # run_experiment refuses before it trains anything
    def no_training(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(runner, "run_timeline", no_training)
    with pytest.raises(ConfigError, match="seq_len"):
        run_experiment(doubled)
    with pytest.raises(ConfigError, match="seq_len"):
        tiny = _tiny_cfg(tmp_path)
        run_experiment(replace(tiny, arch=replace(tiny.arch, seq_len=2)),
                       records=_tiny_records())


def test_config_from_dict_round_trip():
    raw = {
        "task": "sixclass",
        "strategies": [{"kind": "cumulative"}, {"kind": "retain", "retain_r": 500}],
        "data": {"synthetic": {"seed": 4, "rows_per_subattack": 300}},
        "arch": {"hidden_layers": 2, "hidden_units": 8},
        "federation": {"num_clients": 3, "rounds": 2,
                       "train": {"local_epochs": 4, "learning_rate": 0.01}},
        "caps": {"train": 500, "test": 100},
        "seed": 42,
        "output_dir": "out",
    }
    cfg = config_from_dict(raw)
    assert cfg.task == "sixclass"
    assert cfg.arch.output_dim == 6
    assert [s.label for s in cfg.strategies] == ["cumulative", "retain_500"]
    assert cfg.fed.num_clients == 3
    assert cfg.fed.train.local_epochs == 4
    assert cfg.train_cap == 500
    assert cfg.seed == 42


def test_strategy_problems_come_from_check(tmp_path):
    bad = StrategyConfig("avg_ema", ema_alpha=0.0)
    with pytest.raises(ConfigError) as exc:
        bad.check()
    problems = validate_config(RunConfig(strategies=(bad,), output_dir=str(tmp_path)))
    assert problems == [f"strategies[avg_ema]: {exc.value}"]


_positive = st.integers(1, 64)

_raw_configs = st.fixed_dictionaries({}, optional={
    "task": st.sampled_from(TASKS),
    "strategies": st.lists(st.fixed_dictionaries(
        {"kind": st.sampled_from(STRATEGY_KINDS)},
        optional={"retain_r": st.integers(-5, 2000),
                  "ema_alpha": st.floats(-1, 2, allow_nan=False)}), max_size=4),
    "data": st.one_of(
        st.fixed_dictionaries({}, optional={"synthetic": st.fixed_dictionaries({}, optional={
            "seed": st.none() | st.integers(0, 2**31), "rows_per_subattack": _positive})}),
        st.fixed_dictionaries({"path": st.text(min_size=1)}, optional={
            "column_spec": st.none() | st.text(min_size=1),
            "delimiter": st.sampled_from([",", ";", "\t"])})),
    "arch": st.fixed_dictionaries({}, optional={
        "input_dim": _positive, "hidden_layers": _positive, "hidden_units": _positive,
        "seq_len": _positive, "output_dim": _positive}),
    "federation": st.fixed_dictionaries({}, optional={
        "num_clients": _positive, "rounds": _positive,
        "train": st.fixed_dictionaries({}, optional={
            "learning_rate": st.floats(1e-6, 1.0), "batch_size": _positive,
            "local_epochs": _positive, "optimizer": st.sampled_from(OPTIMIZERS)})}),
    "caps": st.fixed_dictionaries({}, optional={"train": _positive, "test": _positive}),
    "train_fraction": st.floats(0.01, 0.99),
    "output_dir": st.text(min_size=1),
    "seed": st.integers(0, 2**31),
    "desk_scale": st.booleans(),
})


@settings(max_examples=200, deadline=None)
@given(_raw_configs)
def test_manifest_config_loads_back_as_the_same_config(raw):
    cfg = config_from_dict(raw)
    written = json.loads(json.dumps(_config_dict(cfg)))
    assert config_from_dict(written) == cfg


def test_output_dir_env_applies_only_when_config_leaves_it_unset(tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTFED_OUTPUT", str(tmp_path / "from_env"))
    args = cli._build_parser().parse_args(["run", "--config", "unused.json"])
    unset = tmp_path / "unset.json"
    unset.write_text("{}")
    assert cli._apply_overrides(load_config(unset), args).output_dir == str(tmp_path / "from_env")
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"output_dir": "runs"}))
    assert cli._apply_overrides(load_config(explicit), args).output_dir == "runs"


@pytest.mark.parametrize("start,task,out", [("binary", "sixclass", 6),
                                            ("sixclass", "binary", 2)])
def test_cli_task_override_derives_output_dim(start, task, out):
    args = cli._build_parser().parse_args(["run", "--config", "unused.json", "--task", task])
    cfg = cli._apply_overrides(RunConfig(task=start), args)
    assert (cfg.task, cfg.arch.output_dim) == (task, out)


def test_config_from_dict_defaults_to_all_strategies():
    cfg = config_from_dict({})
    assert len(cfg.strategies) == len(ALL_STRATEGIES) == 10


def test_desk_scale_preset():
    cfg = desk_scale(RunConfig())
    assert cfg.arch.hidden_layers == 1
    assert cfg.arch.hidden_units == 16
    assert cfg.fed.rounds == 3
    assert cfg.fed.train.local_epochs == 5


# --- experiment --------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = _tiny_cfg(tmp)
    result = run_experiment(cfg, records=_tiny_records())
    return cfg, result


def test_run_experiment_artifacts_exist(tiny_run):
    cfg, result = tiny_run
    assert result.ok
    expected = {"accuracy_binary.csv", "latency_binary.csv", "cells_binary.csv",
                "composition_binary.csv", "metrics_binary.json", "manifest.json"}
    present = {p.name for p in result.output_dir.iterdir()}
    assert expected <= present
    assert (result.output_dir / "checkpoints" / "static" / "t1.ckpt").exists()
    # static: one checkpoint; the others train at t1..t5
    assert len(list((result.output_dir / "checkpoints" / "static").iterdir())) == 1
    assert len(list((result.output_dir / "checkpoints" / "simple").iterdir())) == 5


def test_accuracy_table_columns_binary(tiny_run):
    _, result = tiny_run
    lines = (result.output_dir / "accuracy_binary.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["strategy", "t1", "t2", "t3", "t4", "t5", "t6", "avg"]
    assert [line.split(",")[0] for line in lines[2:]] == \
           ["static", "simple", "retain_20", "avg_ema"]


def test_latency_table_positive_training_cells(tiny_run):
    _, result = tiny_run
    lines = (result.output_dir / "latency_binary.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[-2:] == ["train_total", "inference_total"]
    for line in lines[2:]:
        cells = line.split(",")
        filled = [float(v) for v in cells[1:] if v != ""]
        assert all(v > 0 for v in filled)


def test_manifest_records_config_and_status(tiny_run):
    cfg, result = tiny_run
    manifest = json.loads((result.output_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == cfg.seed
    assert manifest["partial"] is False
    assert set(manifest["statuses"]) == {"static", "simple", "retain_20", "avg_ema"}
    assert all(v == "ok" for v in manifest["statuses"].values())
    assert config_from_dict(manifest["config"]) == cfg


def test_cells_table_is_full_matrix(tiny_run):
    _, result = tiny_run
    lines = (result.output_dir / "cells_binary.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    static_rows = [r for r in rows if r[0] == "static"]
    simple_rows = [r for r in rows if r[0] == "simple"]
    assert len(static_rows) == 1 * 6
    assert len(simple_rows) == 5 * 6


def test_rerun_with_same_config_byte_identical(tmp_path):
    cfg_a = _tiny_cfg(tmp_path / "a")
    cfg_b = _tiny_cfg(tmp_path / "b")
    res_a = run_experiment(cfg_a, records=_tiny_records())
    res_b = run_experiment(cfg_b, records=_tiny_records())
    for name in ("accuracy_binary.csv", "cells_binary.csv", "composition_binary.csv"):
        assert (res_a.output_dir / name).read_bytes() == \
               (res_b.output_dir / name).read_bytes()
    ckpts_a = sorted((res_a.output_dir / "checkpoints").rglob("*.ckpt"))
    ckpts_b = sorted((res_b.output_dir / "checkpoints").rglob("*.ckpt"))
    assert [p.relative_to(res_a.output_dir) for p in ckpts_a] == \
           [p.relative_to(res_b.output_dir) for p in ckpts_b]
    for pa, pb in zip(ckpts_a, ckpts_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_sixclass_accuracy_table_columns(tmp_path):
    cfg = _tiny_cfg(tmp_path, task="sixclass",
                    strategies=(StrategyConfig("cumulative"),))
    result = run_experiment(cfg, records=_tiny_records())
    lines = (result.output_dir / "accuracy_sixclass.csv").read_text().splitlines()
    assert lines[1].split(",") == \
        ["strategy", "t0", "t1", "t2", "t3", "t4", "t5", "t6", "avg"]
    assert len(list((result.output_dir / "checkpoints" / "cumulative").iterdir())) == 6


def test_run_experiment_rejects_invalid_config(tmp_path):
    cfg = replace(_tiny_cfg(tmp_path),
                  strategies=(StrategyConfig("retain", retain_r=0),))
    with pytest.raises(ConfigError):
        run_experiment(cfg, records=_tiny_records())


def test_partial_failure_flagged_in_manifest(tmp_path, monkeypatch):
    import driftfed.runner as runner_mod
    real = runner_mod.run_strategy

    def boom(cfg, prep, strategy):
        if strategy.label == "simple":
            raise ConfigError("induced failure")
        return real(cfg, prep, strategy)

    monkeypatch.setattr(runner_mod, "run_strategy", boom)
    cfg = _tiny_cfg(tmp_path)
    result = run_experiment(cfg, records=_tiny_records())
    assert not result.ok
    assert "simple" in result.failures
    manifest = json.loads((result.output_dir / "manifest.json").read_text())
    assert manifest["partial"] is True
    assert manifest["statuses"]["simple"].startswith("failed:")
    assert manifest["statuses"]["static"] == "ok"


def test_diverged_strategy_is_failed_by_name_not_scored(tmp_path, monkeypatch):
    real = runner.run_timeline

    def overflowing(strategy, inputs, fed, arch, seed):
        if strategy.label == "simple":  # a step near the float64 limit overflows the weights
            fed = replace(fed, train=replace(fed.train, learning_rate=1e308))
        return real(strategy, inputs, fed, arch, seed)

    monkeypatch.setattr(runner, "run_timeline", overflowing)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"), StrategyConfig("simple")))
    result = run_experiment(cfg, records=_tiny_records())
    assert list(result.failures) == ["simple"]
    assert result.failures["simple"].startswith("DivergenceError: period 1 round 0")
    manifest = json.loads((result.output_dir / "manifest.json").read_text())
    assert manifest["statuses"]["simple"].startswith("failed: DivergenceError: ")
    assert manifest["statuses"]["static"] == "ok"
    rows = (result.output_dir / "accuracy_binary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[2:]] == ["static"]
    assert not (result.output_dir / "checkpoints" / "simple").exists()


def test_overflow_with_finite_parameters_is_divergence_not_a_score(tmp_path):
    # one step per client at this step size leaves finite parameters near 1e308
    # and no validation rows; predicting with them overflows, which marks the
    # model diverged instead of scoring it
    train = TrainConfig(learning_rate=1e308, local_epochs=1)
    cfg = desk_scale(RunConfig(strategies=(StrategyConfig("static"),),
                               data=DataSource(synthetic_seed=3, rows_per_subattack=40),
                               output_dir=str(tmp_path / "run"), seed=3))
    cfg = replace(cfg, fed=replace(cfg.fed, rounds=1, train=train))
    result = run_experiment(cfg)
    assert list(result.failures) == ["static"]
    assert result.failures["static"].startswith("DivergenceError: checkpoint t1: ")
    assert "overflow" in result.failures["static"]
    assert result.metrics["strategies"] == {}


def _memory_owner(array):
    while array.base is not None:
        array = array.base
    return array


def test_strategy_checkpoints_are_freed_before_the_next_strategy_trains(tmp_path,
                                                                         monkeypatch):
    saved = []  # weak references to the memory of every saved checkpoint
    alive_at_rounds = []
    real_save, real_round = runner.save_checkpoint, federation.run_round

    def recording_save(path, ckpt):
        real_save(path, ckpt)
        saved.append(weakref.ref(_memory_owner(ckpt.params.vec)))

    def recording_round(*args, **kwargs):
        alive_at_rounds.append(sum(ref() is not None for ref in saved))
        return real_round(*args, **kwargs)

    monkeypatch.setattr(runner, "save_checkpoint", recording_save)
    monkeypatch.setattr(federation, "run_round", recording_round)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("cumulative"),
                                          StrategyConfig("avg_equal"), StrategyConfig("static")))
    assert run_experiment(cfg, records=_tiny_records()).ok
    assert len(saved) == 11 and alive_at_rounds == [0] * 33  # 5 + 5 + 1 periods, 3 rounds


def test_run_leaves_no_temp_files(tiny_run):
    _, result = tiny_run
    names = [p.name for p in result.output_dir.rglob("*")]
    assert names and not [n for n in names if n.startswith(".") or n.endswith(".tmp")]


@pytest.mark.parametrize("room", [0, 100])
def test_report_and_manifest_writes_failing_partway_keep_the_previous_files(tmp_path,
                                                                            monkeypatch, room):
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"),))
    result = run_experiment(cfg, records=_tiny_records())

    def files():
        return {p: p.read_bytes() for p in result.output_dir.rglob("*") if p.is_file()}

    before = files()
    monkeypatch.setattr(atomic, "open", full_disk(room), raising=False)
    with pytest.raises(OSError, match="No space left"):
        rerender_reports(result.output_dir)
    with pytest.raises(OSError, match="No space left"):
        runner._write_manifest(result.output_dir, cfg, result.metrics, {}, result.artifacts)
    assert files() == before


def test_report_rerender_matches_original(tmp_path, monkeypatch):
    real = runner.run_strategy

    def failing(cfg, prep, strategy):
        if strategy.label == "simple":
            raise DivergenceError("induced failure")
        return real(cfg, prep, strategy)

    monkeypatch.setattr(runner, "run_strategy", failing)
    cfg = _tiny_cfg(tmp_path)  # static trains in one period, so its latency row is sparse
    result = run_experiment(cfg, records=_tiny_records())
    assert list(result.failures) == ["simple"]
    names = [f"{table}_binary.csv" for table in ("accuracy", "latency", "cells", "composition")]
    original = {name: (result.output_dir / name).read_bytes() for name in names}
    for name in names:
        (result.output_dir / name).unlink()
    assert rerender_reports(result.output_dir) == names
    assert {name: (result.output_dir / name).read_bytes() for name in names} == original


@pytest.mark.parametrize("task", TASKS)
def test_render_reports_survives_a_json_round_trip(tmp_path, task):
    cfg = _tiny_cfg(tmp_path, task=task,
                    strategies=(StrategyConfig("static"), StrategyConfig("retain", retain_r=20)))
    result = run_experiment(cfg, records=_tiny_records())
    stored = json.loads((result.output_dir / f"metrics_{task}.json").read_text())
    assert stored == result.metrics
    assert render_reports(stored) == render_reports(result.metrics)
    for name, text in render_reports(result.metrics).items():
        assert (result.output_dir / name).read_bytes() == text.encode("utf-8")


def _without(doc, *path):
    """``doc`` as JSON bytes without the key at ``path``."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    inner = doc
    for name in parents:
        inner = inner[name]
    del inner[key]
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("damage", [
    lambda doc: b"{not json",
    lambda doc: json.dumps(doc).encode("utf-8").replace(b'"static"', b'"st\xffatic"'),
    lambda doc: b"[1, 2]",
    lambda doc: _without(doc, "strategies"),
    lambda doc: _without(doc, "strategies", "simple", "cells"),
], ids=["garbage", "not-utf8", "list", "no-strategies", "no-cells"])
def test_report_rejects_corrupt_metrics_documents_by_name(tiny_run, tmp_path, capsys, damage):
    _, result = tiny_run
    (tmp_path / "metrics_binary.json").write_bytes(damage(result.metrics))
    with pytest.raises(ReportError, match="metrics_binary.json"):
        rerender_reports(tmp_path)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 2
    assert "ReportError" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["metrics_binary.json"]


@pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
def test_report_without_a_metrics_document_fails_by_name(tmp_path, capsys, make):
    run_dir = tmp_path / "no-run"
    if make:
        run_dir.mkdir()
    with pytest.raises(ReportError, match="no-run"):
        rerender_reports(run_dir)
    assert cli.main(["report", "--run-dir", str(run_dir)]) == 2
    assert "ReportError" in capsys.readouterr().err


# --- CLI ---------------------------------------------------------------------

def test_cli_gen_data_validate_run_report(tmp_path, capsys):
    data_path = tmp_path / "flows.csv"
    assert cli.main(["gen-data", "--out", str(data_path), "--seed", "2",
                     "--rows", "40"]) == 0
    assert data_path.exists()
    colspec = data_path.with_suffix(".columns.json")
    assert colspec.exists()

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "task": "binary",
        "strategies": [{"kind": "static"}, {"kind": "cumulative"}],
        "data": {"path": str(data_path), "column_spec": str(colspec)},
        "arch": {"input_dim": 45},
        "federation": {"num_clients": 2, "rounds": 1, "train": {"local_epochs": 1}},
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
        "desk_scale": True,
    }))
    assert cli.main(["validate", "--config", str(cfg_path)]) == 0
    assert "config ok" in capsys.readouterr().out

    assert cli.main(["run", "--config", str(cfg_path),
                     "--strategies", "cumulative"]) == 0
    out = capsys.readouterr().out
    assert "ok: cumulative" in out
    assert (tmp_path / "out" / "accuracy_binary.csv").exists()

    assert cli.main(["report", "--run-dir", str(tmp_path / "out")]) == 0


def test_cli_validate_reports_problems(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "strategies": [{"kind": "retain", "retain_r": 0}],
        "output_dir": str(tmp_path),
    }))
    assert cli.main(["validate", "--config", str(cfg_path)]) == 1
    assert "retain_r" in capsys.readouterr().out


def test_cli_unknown_strategy_filter_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output_dir": str(tmp_path / "o"), "seed": 1}))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--strategies", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_fed_seed_never_reached_the_run(tmp_path, monkeypatch):
    # every strategy's timeline runs with its own strategy seed, passed as an argument
    seen = []
    real = runner.run_timeline

    def recording(strategy, inputs, fed, arch, seed):
        seen.append((strategy.label, seed))
        return real(strategy, inputs, fed, arch, seed)

    monkeypatch.setattr(runner, "run_timeline", recording)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"),))
    run_experiment(cfg, _tiny_records())
    assert seen == [("static", runner.rng_seed_for_period(cfg.seed, StrategyConfig("static"), -1))]


def _json(raw):
    return json.dumps(raw).encode("utf-8")


_FILE_DATA = {"path": "flows.csv", "column_spec": "flows.columns.json", "delimiter": ";"}


@pytest.mark.parametrize("data,match", [
    (b'{"seed": 1, "output_dir": "\xff"}', "not UTF-8"),
    (b"{not json", "not valid JSON"),
    (b"[1, 2]", "JSON object"),
    # malformed values
    (_json({"caps": {"train": "10"}}), "caps.train: must be an integer, got '10'"),
    (_json({"caps": {"test": 2.5}}), "caps.test: must be an integer, got 2.5"),
    (_json({"train_fraction": "0.8"}), "train_fraction: must be a number, got '0.8'"),
    (_json({"seed": "abc"}), "seed: must be an integer, got 'abc'"),
    (_json({"strategies": [{"retain_r": 5}]}),
     "strategies[0]: StrategyConfig.__init__() missing 1 required positional argument: 'kind'"),
    (_json({"strategies": "cumulative"}), "strategies: must be a JSON list"),
    (_json({"strategies": ["cumulative"]}), "strategies[0]: must be a JSON object"),
    (_json({"arch": [1, 2]}), "arch: must be a JSON object"),
    (_json({"data": "flows.csv"}), "data: must be a JSON object"),
    (_json({"federation": {"train": {"learning_rate": "0.1"}}}), "federation.train: "),
    (_json({"federation": {"rounds": "3"}}), "federation: "),
    # an unknown key at each level
    (_json({"taks": "sixclass"}), "config: unknown key(s) ['taks']"),
    (_json({"arch": {"hidden_unit": 16}}), "arch: unknown key(s) ['hidden_unit']"),
    (_json({"federation": {"seed": 11}}), "federation: unknown key(s) ['seed']"),
    (_json({"federation": {"train": {"seed": 5}}}),
     "federation.train: unknown key(s) ['seed']"),
    (_json({"strategies": [{"kind": "static"}, {"kind": "retain", "retain": 5}]}),
     "strategies[1]: unknown key(s) ['retain']"),
    (_json({"data": {"synthetic": {"seed": 1}, "rows": 5}}), "data: unknown key(s) ['rows']"),
    (_json({"data": {"synthetic": {"rows": 5}}}), "data.synthetic: unknown key(s) ['rows']"),
    (_json({"data": {**_FILE_DATA, "synthetic": {}}}), "data: unknown key(s) ['synthetic']"),
    (_json({"caps": {"train": 10, "val": 3}}), "caps: unknown key(s) ['val']"),
])
def test_load_config_rejects_corrupt_files_by_name(tmp_path, capsys, data, match):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert match in str(info.value) and "cfg.json" in str(info.value)
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "ConfigError" in capsys.readouterr().err


def test_readme_run_config_loads_and_validates_clean():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Run config", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(json.loads(example))
    assert validate_config(cfg) == []
    assert config_from_dict(json.loads(json.dumps(_config_dict(cfg)))) == cfg


@pytest.mark.parametrize("data", [
    b'{"features": ["a"], "label": "\xff"}',
    b"{not json",
    b'["a", "b"]',
    b'{"label": "Attack"}',
    b'{"features": 3, "label": "Attack"}',
    b'{"features": ["a", 1], "label": "Attack"}',
    b'{"features": ["a"], "label": "Attack", "delimiter": ";;"}',
])
def test_column_spec_rejects_corrupt_files_by_name(tmp_path, data):
    path = tmp_path / "flows.columns.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="flows.columns.json"):
        ColumnSpec.from_json(path)
    cfg = replace(_tiny_cfg(tmp_path),
                  data=DataSource(path=str(path), column_spec_path=str(path)))
    assert any(p.startswith("data.column_spec: ") for p in validate_config(cfg))
