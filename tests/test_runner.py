import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfed import cli, runner
from driftfed.errors import ConfigError
from driftfed.nn import OPTIMIZERS, ModelArch
from driftfed.pipeline import ColumnSpec
from driftfed.runner import (ALL_STRATEGIES, DataSource, RunConfig, _config_dict,
                             config_from_dict, desk_scale, load_config, rerender_reports,
                             run_experiment, validate_config)
from driftfed.synth import generate
from driftfed.timeline import STRATEGY_KINDS, TASKS, StrategyConfig

from conftest import tiny_scenario


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


def test_report_rerender_matches_original(tiny_run):
    _, result = tiny_run
    original = (result.output_dir / "accuracy_binary.csv").read_bytes()
    latency = (result.output_dir / "latency_binary.csv").read_bytes()
    written = rerender_reports(result.output_dir)
    assert "accuracy_binary.csv" in written
    assert (result.output_dir / "accuracy_binary.csv").read_bytes() == original
    assert (result.output_dir / "latency_binary.csv").read_bytes() == latency


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


def test_validate_config_reports_an_inert_fed_seed(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path)
    inert = replace(cfg, fed=replace(cfg.fed, seed=11))
    assert validate_config(inert, _tiny_records()) == [
        "federation.seed: has no effect in a run; client seeds derive from `seed`"]
    monkeypatch.setattr(runner, "run_timeline", lambda *a, **k: pytest.fail("trained"))
    with pytest.raises(ConfigError, match="federation.seed"):
        run_experiment(inert, _tiny_records())


def test_fed_seed_never_reached_the_run(tmp_path, monkeypatch):
    # every strategy's timeline runs with its own strategy seed, whatever fed.seed says
    seen = []
    real = runner.run_timeline

    def recording(strategy, inputs, fed, arch):
        seen.append((strategy.label, fed.seed))
        return real(strategy, inputs, fed, arch)

    monkeypatch.setattr(runner, "run_timeline", recording)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"),))
    run_experiment(cfg, _tiny_records())
    assert seen == [("static", runner.rng_seed_for_period(cfg.seed, StrategyConfig("static"), -1))]


@pytest.mark.parametrize("data,match", [
    (b'{"seed": 1, "output_dir": "\xff"}', "not UTF-8"),
    (b"{not json", "not valid JSON"),
    (b"[1, 2]", "JSON object"),
])
def test_load_config_rejects_corrupt_files_by_name(tmp_path, data, match):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=match) as info:
        load_config(path)
    assert "cfg.json" in str(info.value)


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
