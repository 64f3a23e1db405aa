import hashlib
import json
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfed import atomic, cli, federation, runner, timeline
from driftfed.errors import ConfigError, DivergenceError, EvaluationError, ReportError
from driftfed.federation import FedConfig
from driftfed.metrics import (false_alarm_rate, fold_categories, macro_prf, micro_accuracy,
                              protocol_cells)
from driftfed.nn import OPTIMIZERS, ModelArch, TrainConfig, param_count
from driftfed.pipeline import (CODECS, ColumnSpec, FlowTable, apply_scaler, clean, encode_labels,
                               fit_scaler, records_by_class, stratified_split)
from driftfed.runner import (ALL_STRATEGIES, DataSource, RunConfig, _config_dict,
                             config_from_dict, desk_scale, load_config, prepare_experiment,
                             render_reports, rerender_reports, run_experiment,
                             validate_config)
from driftfed.synth import (default_column_spec, default_drift_scenario, generate,
                            write_delimited)
from driftfed.timeline import (FAMILY_INTRODUCED_AT, STRATEGY_KINDS, TASKS, StrategyConfig,
                               build_schedule, build_test_sets, segment_and_cap,
                               training_periods)

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
    # a malformed value cannot be built: the dataclass that owns it names it,
    # in the words config_from_dict passes on
    cfg = RunConfig(output_dir=str(tmp_path))
    for build, message in [
        (lambda: StrategyConfig("retain", retain_r=0),
         "retain_r: must be an integer in [1, inf], got 0"),
        (lambda: StrategyConfig("avg_ema", ema_alpha=1.5),
         "ema_alpha: must be a number in (0, 1), got 1.5"),
        (lambda: replace(cfg, strategies=()), "strategies: at least one strategy is required"),
        (lambda: replace(cfg, train_cap=0), "caps.train: must be an integer in [1, inf], got 0"),
        (lambda: replace(cfg, train_cap="10"), "caps.train: must be an integer, got '10'"),
        (lambda: replace(cfg, test_cap=2.5), "caps.test: must be an integer, got 2.5"),
        (lambda: replace(cfg, seed="abc"), "seed: must be an integer, got 'abc'"),
        (lambda: replace(cfg, train_fraction="0.8"),
         "train_fraction: must be a number, got '0.8'"),
        (lambda: replace(cfg, train_fraction=1.0),
         "train_fraction: must be a number in (0, 1), got 1.0"),
        (lambda: replace(cfg, output_dir=5), "output_dir: must be a string, got 5"),
        # the working directory: a run would write its tables and checkpoints there
        (lambda: replace(cfg, output_dir=""), "output_dir: must name a directory, got ''"),
        (lambda: replace(cfg, task="ternary"),
         "task: must be one of ('binary', 'sixclass'), got 'ternary'"),
    ]:
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == message

    # what needs the filesystem is left to validate_config
    for path in ("/does/not/exist.csv", str(tmp_path), ""):
        missing = replace(cfg, data=DataSource(path=path))
        assert any(p.startswith("data.path: ") for p in validate_config(missing))

    # output_dim follows the task, so a mismatched one cannot be built
    six = RunConfig(task="sixclass", output_dir=str(tmp_path))
    assert six.arch.output_dim == 6
    assert replace(six, task="binary").arch.output_dim == 2
    assert replace(six, arch=ModelArch(output_dim=2)).arch.output_dim == 6


def test_validate_config_checks_arch_against_feature_count(tmp_path, monkeypatch):
    # the synthetic scenario has 45 features per row
    cfg = RunConfig(output_dir=str(tmp_path / "run"))
    assert validate_config(cfg) == []
    assert validate_config(replace(cfg, arch=replace(cfg.arch, input_dim=15, seq_len=3))) == []
    doubled = replace(cfg, arch=replace(cfg.arch, seq_len=2))
    assert any("input_dim * seq_len = 90" in p for p in validate_config(doubled))

    # supplied records set the count; a CSV reads it from its column spec,
    # and one without a spec has gen-data's 45 columns, whatever the arch
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
    gen_data = tmp_path / "gen.csv"
    write_delimited(generate(default_drift_scenario(seed=1, rows_per_subattack=2)), gen_data)
    spec_less = replace(cfg, data=DataSource(path=str(gen_data)))
    assert validate_config(spec_less) == []
    assert validate_config(replace(spec_less, arch=replace(cfg.arch, input_dim=15,
                                                           seq_len=3))) == []
    assert validate_config(replace(spec_less, arch=replace(cfg.arch, input_dim=8))) == [
        "arch: input_dim * seq_len = 8 must equal the 45 features per row of the data"]
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


def test_strategy_problems_come_from_the_strategy_config():
    with pytest.raises(ConfigError) as exc:
        StrategyConfig("avg_ema", ema_alpha=0.0)
    with pytest.raises(ConfigError) as loaded:
        config_from_dict({"strategies": [{"kind": "avg_ema", "ema_alpha": 0.0}]})
    assert str(loaded.value) == f"strategies[0].{exc.value}"


_positive = st.integers(1, 64)

# retain_r only on retain, ema_alpha only on avg_ema
_strategy_entries = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(
        [k for k in STRATEGY_KINDS if k not in ("retain", "avg_ema")])}),
    st.fixed_dictionaries({"kind": st.just("retain"), "retain_r": st.integers(1, 2000)}),
    st.fixed_dictionaries({"kind": st.just("avg_ema")}, optional={
        "ema_alpha": st.floats(0, 1, exclude_min=True, exclude_max=True)}))

_raw_configs = st.fixed_dictionaries({}, optional={
    "task": st.sampled_from(TASKS),
    "strategies": st.lists(_strategy_entries, min_size=1, max_size=4,
                           unique_by=lambda s: StrategyConfig(**s).label),
    "data": st.one_of(
        st.fixed_dictionaries({}, optional={"synthetic": st.fixed_dictionaries({}, optional={
            "seed": st.none() | st.integers(0, 2**31), "rows_per_subattack": _positive})}),
        st.fixed_dictionaries({"path": st.text(min_size=1)}, optional={
            "column_spec": st.none() | st.text(min_size=1)})),
    "arch": st.fixed_dictionaries({}, optional={
        "input_dim": _positive, "hidden_layers": _positive, "hidden_units": _positive,
        "seq_len": _positive}),
    "federation": st.fixed_dictionaries({}, optional={
        "num_clients": _positive, "rounds": _positive,
        "train": st.fixed_dictionaries({}, optional={
            "learning_rate": st.floats(1e-6, 1.0), "batch_size": _positive,
            "local_epochs": _positive, "optimizer": st.sampled_from(OPTIMIZERS)})}),
    "caps": st.fixed_dictionaries({}, optional={"train": _positive, "test": _positive}),
    "train_fraction": st.floats(0.01, 0.99),
    "output_dir": st.text(min_size=1),
    "seed": st.integers(0, 2**31),
})


@settings(max_examples=200, deadline=None)
@given(_raw_configs)
def test_manifest_config_loads_back_as_the_same_config(raw):
    cfg = config_from_dict(raw)
    written = json.loads(json.dumps(_config_dict(cfg)))
    assert config_from_dict(written) == cfg


def test_load_config_reads_no_environment(tmp_path, monkeypatch):
    # one file is one run whatever the shell sets; --output-dir is the override
    monkeypatch.setenv("DRIFTFED_OUTPUT", str(tmp_path / "from_env"))
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert load_config(path).output_dir == "runs"
    args = cli._build_parser().parse_args(["run", "--config", str(path),
                                           "--output-dir", "elsewhere"])
    assert cli._apply_overrides(load_config(path), args).output_dir == "elsewhere"


def test_cli_empty_strategy_filter_is_refused(tmp_path, capsys, monkeypatch):
    # leaving out the flag, or the config key, is the one way to run every strategy
    def no_run(cfg):
        raise AssertionError(f"ran {[s.label for s in cfg.strategies]}")
    monkeypatch.setattr(cli, "run_experiment", no_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(path), "--strategies", ""]) == 2
    assert "error [ConfigError]: strategies: at least one strategy is required" in \
        capsys.readouterr().err


def test_cli_empty_output_dir_is_refused(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError(f"ran into {cfg.output_dir!r}")
    monkeypatch.setattr(cli, "run_experiment", no_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(path), "--output-dir", ""]) == 2
    assert "error [ConfigError]: output_dir: must name a directory" in capsys.readouterr().err


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


def test_delimiter_comes_from_the_column_spec(tmp_path):
    records = _tiny_records()
    path = tmp_path / "flows.csv"
    spec = write_delimited(records, path, replace(default_column_spec(records.width),
                                                  delimiter=";"))
    spec.to_json(tmp_path / "flows.columns.json")
    cfg = replace(_tiny_cfg(tmp_path), data=DataSource(
        path=str(path), column_spec_path=str(tmp_path / "flows.columns.json")))
    assert validate_config(cfg) == []
    assert np.array_equal(prepare_experiment(cfg)["table"].X,
                          prepare_experiment(cfg, records)["table"].X)


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("caps,bind", [((10_000, 2_000), False), ((2, 1), True)])
def test_one_scaled_table_prepares_what_two_tables_did(tmp_path, task, caps, bind):
    cfg = replace(_tiny_cfg(tmp_path, task), train_cap=caps[0], test_cap=caps[1])
    records = _tiny_records()
    prep = prepare_experiment(cfg, records)

    # the preparation that copied the split into a train and a test table and
    # scaled each, so that segments indexed the train table
    table = clean(records)
    train_rows, test_rows = stratified_split(table, cfg.train_fraction, cfg.seed)
    assert np.array_equal(np.sort(np.concatenate([train_rows, test_rows])),
                          np.arange(len(table)))  # disjoint, and together the table
    stats = fit_scaler(table[train_rows])
    train = apply_scaler(stats, table[train_rows])
    test = apply_scaler(stats, table[test_rows])
    assert prep["table"][train_rows] == train and prep["table"][test_rows] == test
    schedule = build_schedule(task)
    train_segments = segment_and_cap(records_by_class(train),
                                     sum(p.has_training for p in schedule),
                                     cfg.train_cap, cfg.seed, "cap-train")
    test_segments = segment_and_cap(records_by_class(test), len(schedule),
                                    cfg.test_cap, cfg.seed, "cap-test")

    assert list(prep["train_segments"]) == list(train_segments)
    for cls, segments in train_segments.items():
        assert [s.tolist() for s in prep["train_segments"][cls]] == \
               [train_rows[s].tolist() for s in segments]
        assert all(len(s) == cfg.train_cap for s in segments) == bind
    assert all(len(s) == cfg.test_cap for segments in test_segments.values()
               for s in segments) == bind
    old_tests = build_test_sets(schedule, test_segments)
    assert list(prep["encoded_tests"]) == list(old_tests)
    for period, rows in old_tests.items():
        # a test set is labeled by category in either task; the task's classes fold from it
        old, new = encode_labels(CODECS["sixclass"], test, rows), prep["encoded_tests"][period]
        assert new.X is prep["table"].X  # a test set holds no features of its own
        old_X, new_X = old.X[old.rows], new.X[new.rows]
        assert (new_X.shape, new.y.dtype) == (old_X.shape, old.y.dtype)
        assert new_X.tobytes() == old_X.tobytes() and new.y.tobytes() == old.y.tobytes()


@pytest.mark.parametrize("drop", [False, True], ids=["clean-keeps", "clean-drops"])
def test_run_experiment_leaves_the_callers_records_unchanged(tmp_path, drop):
    # a run scales in place only a table it owns; the caller's records are not
    records = _tiny_records()
    if drop:  # a row with a non-finite feature, which clean drops
        X = records.X.copy()
        X[7, 2] = np.nan
        records = FlowTable(X, records.sub)
    assert (clean(records) is records) != drop
    before = records.X.tobytes()
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"),))
    assert run_experiment(cfg, records).ok
    assert records.X.tobytes() == before


def test_preparing_a_file_holds_its_features_about_once(tmp_path):
    # A loaded table is the run's own, so it is scaled in place, the scaler is
    # fitted a chunk of rows at a time, and training shards are row indices:
    # the peak is the matrix, the test sets' copies and a few chunks, 1.31
    # times the matrix at this size (numpy 2.4). The preparation that gathered
    # the training rows to fit the scaler and then scaled into a second matrix
    # peaked at 2.07 times the matrix.
    records = generate(default_drift_scenario(seed=1, rows_per_subattack=600))
    path = tmp_path / "flows.csv"
    write_delimited(records, path)
    matrix = records.X.nbytes
    del records
    cfg = RunConfig(data=DataSource(path=str(path)), output_dir=str(tmp_path / "run"), seed=1)
    tracemalloc.start()
    try:
        prep = prepare_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prep["table"].X.nbytes == matrix
    assert peak < 1.5 * matrix


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
                "composition_binary.csv", "transfer_binary.csv", "metrics_binary.json"}
    present = {p.name for p in result.output_dir.iterdir()}
    assert present == expected | {"checkpoints"}
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
    # the metrics document is the run's one record: its config, seeds and statuses
    cfg, result = tiny_run
    doc = json.loads((result.output_dir / "metrics_binary.json").read_text())
    assert doc == result.metrics
    # the run read in-memory records, so its data names those, not cfg.data, and the
    # loader refuses that record by name rather than build a run of other data
    records = _tiny_records()
    assert doc["config"] == {**_config_dict(cfg), "data": {"records": {
        "rows": len(records), "features": records.width,
        "sha256": hashlib.sha256(records.X.tobytes() + records.sub.tobytes()).hexdigest()}}}
    with pytest.raises(ConfigError, match=r"^data: unknown key\(s\) \['records'\]$"):
        config_from_dict(doc["config"])
    assert doc["failures"] == result.failures == {}
    assert doc["strategy_order"] == ["static", "simple", "retain_20", "avg_ema"]
    assert doc["strategy_seeds"] == {s.label: runner.rng_seed_for_period(cfg.seed, s, -1)
                                     for s in cfg.strategies}


@pytest.mark.parametrize("task", TASKS)
def test_every_cell_scores_its_own_counts(tmp_path, task):
    # one count per cell, rows by true category: folded by the task's codec, it gives
    # the cell's five floats bit for bit; the cells are stored once, with no protocol copy
    cfg = _tiny_cfg(tmp_path, task=task,
                    strategies=(StrategyConfig("static"), StrategyConfig("cumulative")))
    result = run_experiment(cfg, records=_tiny_records())
    codec = CODECS[task]
    for entry in result.metrics["strategies"].values():
        assert "protocol" not in entry
        for cell in entry["cells"]:
            counts = np.array(cell["counts"])
            assert counts.shape == (6, codec.num_classes)
            assert counts.sum() == cell["n_samples"]
            matrix = fold_categories(counts, codec)
            p, r, f1 = macro_prf(matrix)
            assert [cell["accuracy"], cell["precision_macro"], cell["recall_macro"],
                    cell["f1_macro"], cell["far"]] == \
                   [micro_accuracy(matrix), p, r, f1, false_alarm_rate(matrix)]


def _transfer_doc(task: str) -> dict:
    """A hand-built metrics document: ``static`` holds checkpoint t1 and ``simple``
    t1..t5, each scored on t1..t6. In the cell (c, t) a family's recall is
    (10c + t) / 100, so a field names the cell it was read from; Spoofing has no
    rows."""
    codec = CODECS[task]
    periods = list(range(1, 7))

    def counts(ckpt, test):
        rows = np.zeros((6, codec.num_classes), dtype=int)
        rows[0, 0] = 50
        for category in range(1, 5):
            hit = 10 * ckpt + test
            rows[category, 0] = 100 - hit
            rows[category, codec.category_classes[category]] = hit
        return rows.tolist()

    strategies = {}
    for label, ckpts in (("static", [1]), ("simple", [1, 2, 3, 4, 5])):
        cells = [{"checkpoint_period": c, "test_period": t, "n_samples": 450,
                  "accuracy": 0.5, "precision_macro": 0.5, "recall_macro": 0.5,
                  "f1_macro": 0.5, "far": 0.0, "inference_seconds": 0.0,
                  "counts": counts(c, t)} for c in ckpts for t in periods]
        strategies[label] = {"cells": cells, "train_latency_seconds": {}, "train_samples": {},
                             "composition": {}, "checkpoints": []}
    return {"task": task, "test_periods": periods, "far_definition": "FAR",
            "strategy_order": ["static", "simple"], "strategies": strategies}


@pytest.mark.parametrize("task", TASKS)
def test_transfer_table_reads_each_family_before_at_and_after_its_period(task):
    table = render_reports(_transfer_doc(task))[f"transfer_{task}.csv"]
    assert table.splitlines() == [
        "strategy,family,introduced,before,at,last",
        # one checkpoint: before equals at from t2 on, and last reads t6
        "static,MQTT,t1,,0.110000,0.160000",
        "static,DoS,t2,0.120000,0.120000,0.160000",
        "static,DDoS,t3,0.130000,0.130000,0.160000",
        "static,Recon,t4,0.140000,0.140000,0.160000",
        "static,Spoofing,t5,,,",
        # nothing is older than t1; the newest checkpoint, t5, reads the last test set
        "simple,MQTT,t1,,0.110000,0.560000",
        "simple,DoS,t2,0.120000,0.220000,0.560000",
        "simple,DDoS,t3,0.230000,0.330000,0.560000",
        "simple,Recon,t4,0.340000,0.440000,0.560000",
        "simple,Spoofing,t5,,,",
    ]


def _scan_back(checkpoints, period):
    """The newest of ``checkpoints`` at or before ``period``, one period at a time."""
    for candidate in range(period, -1, -1):
        if candidate in checkpoints:
            return candidate
    return None


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TASKS).flatmap(lambda task: st.tuples(
    st.just(task), st.sets(st.sampled_from(training_periods(task)), min_size=1))))
def test_protocol_and_transfer_read_the_cell_of_the_newest_qualifying_checkpoint(drawn):
    # any checkpoint set: one checkpoint as static has, six-class t0, gaps, and sets
    # without the first training period, which leave the first test period unscored
    task, checkpoints = drawn
    codec = CODECS[task]
    periods = list(timeline.test_periods(task))

    def counts(ckpt, test):  # every family's recall in cell (c, t) is (10c + t) / 100
        rows = np.zeros((6, codec.num_classes), dtype=int)
        rows[0, 0] = 50
        for category in range(1, 6):
            rows[category, 0] = 100 - (10 * ckpt + test)
            rows[category, codec.category_classes[category]] = 10 * ckpt + test
        return rows.tolist()

    cells = [{"checkpoint_period": c, "test_period": t, "counts": counts(c, t)}
             for c in sorted(checkpoints) for t in periods]
    by_cell = {(c["checkpoint_period"], c["test_period"]): c for c in cells}
    first, last = periods[0], periods[-1]
    if _scan_back(checkpoints, first) is None:
        with pytest.raises(EvaluationError, match=f"no checkpoint available for test "
                                                  f"period t{first}$"):
            protocol_cells(cells, periods)
    else:
        protocol = protocol_cells(cells, periods)
        assert list(protocol) == periods
        for t in periods:
            assert protocol[t] is by_cell[_scan_back(checkpoints, t if t == first else t - 1), t]

    def recall(by, test):
        ckpt = _scan_back(checkpoints, by)
        return "" if ckpt is None else f"{(10 * ckpt + test) / 100:.6f}"

    assert list(runner._transfer_rows("s", cells, codec, last)) == [
        f"s,{family},t{k},{recall(k - 1, k)},{recall(k, k)},{recall(last, last)}"
        for k, family in FAMILY_INTRODUCED_AT.items()]


def test_report_ignores_the_protocol_copies_a_document_holds(tiny_run):
    # an older version stored each strategy's protocol cells a second time; copies
    # that disagree with the rule change nothing the report renders
    _, result = tiny_run
    doc = json.loads(json.dumps(result.metrics))
    for entry in doc["strategies"].values():
        wrong = {**entry["cells"][-1], "accuracy": 0.0, "inference_seconds": 99.0}
        entry["protocol"] = {f"t{t}": wrong for t in doc["test_periods"]}
    for name, text in render_reports(doc).items():
        assert text.encode("utf-8") == (result.output_dir / name).read_bytes()


def test_a_document_with_protocol_copies_renders_the_tables_written_beside_it(tmp_path):
    # tests/golden/protocol_copies: a tiny run's metrics document as written when each
    # strategy entry also stored its protocol cells, and the five tables of that run
    golden = Path(__file__).parent / "golden" / "protocol_copies"
    names = sorted(path.name for path in golden.glob("*.csv"))
    (tmp_path / "metrics_binary.json").write_bytes((golden / "metrics_binary.json").read_bytes())
    doc = json.loads((tmp_path / "metrics_binary.json").read_text())
    assert all("protocol" in entry for entry in doc["strategies"].values())
    written, skipped = rerender_reports(tmp_path)
    assert (sorted(written), skipped) == (names, [])
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()


def test_report_renders_an_older_document_without_its_transfer_table(tiny_run, tmp_path,
                                                                     capsys):
    # a document written before cells carried counts still gives the other four tables
    _, result = tiny_run
    doc = json.loads(json.dumps(result.metrics))
    for entry in doc["strategies"].values():
        for cell in entry["cells"]:
            del cell["counts"]
    (tmp_path / "metrics_binary.json").write_text(json.dumps(doc))
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    names = [f"{t}_binary.csv" for t in ("accuracy", "latency", "cells", "composition")]
    assert out.split() == [word for name in names for word in ("rendered", name)]
    assert "skipped transfer_binary.csv" in err
    assert not (tmp_path / "transfer_binary.csv").exists()
    for name in names:
        assert (tmp_path / name).read_bytes() == (result.output_dir / name).read_bytes()


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
    for name in ("accuracy_binary.csv", "cells_binary.csv", "composition_binary.csv",
                 "transfer_binary.csv"):
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
    with pytest.raises(ConfigError, match="retain_r"):
        replace(_tiny_cfg(tmp_path), strategies=(StrategyConfig("retain", retain_r=0),))
    missing = replace(_tiny_cfg(tmp_path), data=DataSource(path=str(tmp_path / "absent.csv")))
    with pytest.raises(ConfigError, match="data.path"):
        run_experiment(missing)


def test_partial_failure_flagged_in_manifest(tmp_path, monkeypatch):
    import driftfed.runner as runner_mod
    real = runner_mod.run_strategy

    def boom(cfg, prep, strategy, ckpt_dir):
        if strategy.label == "simple":
            raise ConfigError("induced failure")
        return real(cfg, prep, strategy, ckpt_dir)

    monkeypatch.setattr(runner_mod, "run_strategy", boom)
    cfg = _tiny_cfg(tmp_path)
    result = run_experiment(cfg, records=_tiny_records())
    assert not result.ok
    assert "simple" in result.failures
    doc = json.loads((result.output_dir / "metrics_binary.json").read_text())
    assert doc["failures"] == result.failures == {"simple": "ConfigError: induced failure"}
    assert doc["strategy_order"] == ["static", "retain_20", "avg_ema"]


def test_diverged_strategy_is_failed_by_name_not_scored(tmp_path, monkeypatch):
    real = runner.run_timeline

    def overflowing(strategy, inputs, fed, arch, seed, **kwargs):
        if strategy.label == "simple":  # a step near the float64 limit overflows the weights
            fed = replace(fed, train=replace(fed.train, learning_rate=1e308))
        return real(strategy, inputs, fed, arch, seed, **kwargs)

    monkeypatch.setattr(runner, "run_timeline", overflowing)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"), StrategyConfig("simple")))
    result = run_experiment(cfg, records=_tiny_records())
    assert list(result.failures) == ["simple"]
    assert result.failures["simple"].startswith("DivergenceError: period 1 round 0")
    doc = json.loads((result.output_dir / "metrics_binary.json").read_text())
    assert doc["failures"] == result.failures
    assert doc["strategy_order"] == list(doc["strategies"]) == ["static"]
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


def test_strategy_failing_after_saving_a_checkpoint_leaves_none(tmp_path, monkeypatch):
    saved = []
    real_save, real_round = runner.save_checkpoint, federation.run_round

    def recording_save(path, ckpt):
        real_save(path, ckpt)
        saved.append(path)

    def diverging(*args, round_index=0):
        if round_index == 3000:  # period 3, after t1 and t2 were saved
            raise DivergenceError("period 3 round 0: induced")
        return real_round(*args, round_index=round_index)

    monkeypatch.setattr(runner, "save_checkpoint", recording_save)
    monkeypatch.setattr(federation, "run_round", diverging)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"), StrategyConfig("cumulative")))
    result = run_experiment(cfg, records=_tiny_records())
    assert list(result.failures) == ["cumulative"]
    assert [p.name for p in saved] == ["t1.ckpt", "t1.ckpt", "t2.ckpt"]
    assert not any(p.exists() for p in saved[1:])
    assert [p.name for p in (result.output_dir / "checkpoints").iterdir()] == ["static"]
    doc = json.loads((result.output_dir / "metrics_binary.json").read_text())
    assert list(doc["strategies"]) == ["static"]
    assert doc["strategies"]["static"]["checkpoints"] == ["checkpoints/static/t1.ckpt"]
    assert "checkpoints/static/t1.ckpt" in result.artifacts
    assert not [a for a in result.artifacts if "cumulative" in a]


def test_a_failed_rerun_leaves_no_checkpoints_of_the_run_before(tmp_path):
    # the metrics document of the rerun lists no checkpoints of a failed strategy, so
    # its directory must not hold the first run's
    records = _tiny_records()
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"), StrategyConfig("simple")))
    simple = run_experiment(cfg, records).output_dir / "checkpoints" / "simple"
    first = {p.name: p.read_bytes() for p in simple.iterdir()}
    assert sorted(first) == [f"t{i}.ckpt" for i in range(1, 6)]
    train = replace(cfg.fed.train, learning_rate=1e308)
    result = run_experiment(replace(cfg, fed=replace(cfg.fed, train=train)), records)
    assert "simple" in result.failures
    assert not simple.exists()
    assert run_experiment(cfg, records).ok
    assert {p.name: p.read_bytes() for p in simple.iterdir()} == first


def _checkpoint_files(out_dir):
    return sorted(str(p.relative_to(out_dir)) for p in out_dir.glob("checkpoints/*/*.ckpt"))


def test_a_rerun_with_fewer_strategies_keeps_only_their_checkpoints(tmp_path):
    records = _tiny_records()
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"), StrategyConfig("simple")))
    out = run_experiment(cfg, records).output_dir
    assert (out / "checkpoints" / "simple").is_dir()
    result = run_experiment(replace(cfg, strategies=(StrategyConfig("static"),)), records)
    entries = json.loads((out / "metrics_binary.json").read_text())["strategies"].values()
    listed = sorted(name for entry in entries for name in entry["checkpoints"])
    assert _checkpoint_files(out) == listed == ["checkpoints/static/t1.ckpt"]
    assert [p.name for p in (out / "checkpoints").iterdir()] == ["static"]
    assert result.ok


def test_a_stopped_rerun_leaves_the_previous_checkpoints_and_manifest(tmp_path, monkeypatch):
    records = _tiny_records()
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"), StrategyConfig("simple")))
    out = run_experiment(cfg, records).output_dir
    kept = [out / "metrics_binary.json", *(out / name for name in _checkpoint_files(out))]
    before = {p: p.read_bytes() for p in kept}
    real = runner.run_timeline

    def stopped(strategy, *args, **kwargs):
        if strategy.label == "simple":
            raise KeyboardInterrupt
        return real(strategy, *args, **kwargs)

    monkeypatch.setattr(runner, "run_timeline", stopped)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(replace(cfg, seed=cfg.seed + 1), records)
    assert [out / name for name in _checkpoint_files(out)] == kept[1:]
    assert {p: p.read_bytes() for p in kept} == before
    assert not (out / ".checkpoints.tmp").exists()


def test_a_rerun_stopped_after_the_checkpoint_swap_leaves_no_metrics_document(
        tmp_path, monkeypatch, capsys):
    # the checkpoints are the new run's and the tables the old run's, so no
    # document may claim either; report then refuses the directory by name
    records = _tiny_records()
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"),))
    out = run_experiment(cfg, records).output_dir
    assert (out / "metrics_binary.json").is_file()

    def stopped(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "write_reports", stopped)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(replace(cfg, seed=cfg.seed + 1), records)
    assert not (out / "metrics_binary.json").exists()
    assert not (out / ".checkpoints.tmp").exists()
    assert _checkpoint_files(out) == ["checkpoints/static/t1.ckpt"]
    assert cli.main(["report", "--run-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error [ReportError]: ")


def test_output_dir_holds_one_task(tmp_path, capsys):
    # checkpoints/<strategy>/ are not keyed by task, so a six-class run into a
    # binary run's directory is refused, by the name of its metrics document and
    # before it writes
    records = _tiny_records()
    binary = _tiny_cfg(tmp_path, strategies=(StrategyConfig("simple"),))
    out = run_experiment(binary, records).output_dir
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert out / "checkpoints" / "simple" / "t1.ckpt" in before
    six = _tiny_cfg(tmp_path, task="sixclass", strategies=(StrategyConfig("simple"),))
    problem = (f"output_dir: {out / 'metrics_binary.json'} records another task's run, "
               f"not 'sixclass'; use another output directory")
    assert validate_config(six, records) == [problem]
    with pytest.raises(ConfigError, match="metrics_binary.json records another task's run"):
        run_experiment(six, records)
    cfg_path = tmp_path / "six.json"
    cfg_path.write_text(json.dumps({"output_dir": str(out), "strategies": [{"kind": "simple"}]}))
    assert cli.main(["validate", "--config", str(cfg_path)]) == 0
    cfg_path.write_text(json.dumps({"output_dir": str(out), "task": "sixclass"}))
    assert cli.main(["validate", "--config", str(cfg_path)]) == 1
    assert problem in capsys.readouterr().out
    assert cli.main(["run", "--config", str(cfg_path), "--task", "sixclass"]) == 2
    assert problem in capsys.readouterr().err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert validate_config(binary, records) == []  # the same task may run there again
    # the document is refused by its name, unread: here it is not even a file
    other = tmp_path / "other"
    (other / "metrics_binary.json").mkdir(parents=True)
    assert validate_config(replace(six, output_dir=str(other)), records) == [
        f"output_dir: {other / 'metrics_binary.json'} records another task's run, "
        f"not 'sixclass'; use another output directory"]


@pytest.mark.parametrize("task", TASKS)
def test_run_strategy_validates_on_the_period_clients_rows_as_one_set(tmp_path, monkeypatch,
                                                                       task):
    # one encoding of the concatenated rows has the rows and labels of the concatenated
    # encodings
    cfg = _tiny_cfg(tmp_path, task=task, strategies=(StrategyConfig("cumulative"),))
    prep = prepare_experiment(cfg, _tiny_records())
    partitions, inputs = [], []
    real_partition, real_timeline = runner.partition_iid, runner.run_timeline

    def partition(*args):
        partitions.append(real_partition(*args))
        return partitions[-1]

    def timeline(strategy, period_inputs, *args, **kwargs):
        inputs.extend(period_inputs)
        return real_timeline(strategy, period_inputs, *args, **kwargs)

    monkeypatch.setattr(runner, "partition_iid", partition)
    monkeypatch.setattr(runner, "run_timeline", timeline)
    runner.run_strategy(cfg, prep, cfg.strategies[0], tmp_path / "checkpoints")
    assert len(inputs) == len(partitions) > 1
    for item, clients in zip(inputs, partitions):
        # the validation set and the training shards hold no features of their own
        assert item.val.X is prep["table"].X
        assert all(shard.X is prep["table"].X for shard in item.client_train)
        parts = [encode_labels(prep["codec"], prep["table"], c.validation) for c in clients]
        assert item.val.rows.tolist() == np.concatenate([part.rows for part in parts]).tolist()
        expected_y = np.concatenate([part.y for part in parts])
        assert (item.val.y.dtype, item.val.y.tobytes()) == (expected_y.dtype, expected_y.tobytes())


def test_run_holds_a_bounded_number_of_parameter_vectors(tmp_path):
    # At 2x64 a parameter vector (415 kB) outweighs the data and each client is
    # its own cohort. A round holds the global model, the running average and
    # the period's start, FedAvg's sum, one client's result and the workspace
    # (gradient, moments, scratch): about 8.5 vectors. Holding every period's
    # checkpoint or every client's result at once passes 13.
    cfg = RunConfig(strategies=(StrategyConfig("cumulative"), StrategyConfig("avg_sample")),
                    arch=ModelArch(input_dim=8, hidden_layers=2, hidden_units=64),
                    fed=FedConfig(num_clients=5, rounds=2, train=TrainConfig(local_epochs=1)),
                    output_dir=str(tmp_path / "run"), seed=3)
    records = generate(tiny_scenario(seed=3, rows=60))
    tracemalloc.start()
    try:
        assert run_experiment(cfg, records).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * param_count(cfg.arch)


def _memory_owner(array):
    while array.base is not None:
        array = array.base
    return array


def test_strategy_checkpoints_are_freed_before_the_next_strategy_trains(tmp_path,
                                                                         monkeypatch):
    # weak references to the memory of every checkpoint made, trained or read
    # back, keyed by the strategy whose timeline made it
    made: dict[str, list] = {}
    alive_at_rounds = []  # per round: (alive of this strategy, alive of earlier ones)
    real_timeline, real_round = runner.run_timeline, federation.run_round
    real_checkpoint = federation.Checkpoint

    def recording_timeline(strategy, *args, **kwargs):
        made[strategy.label] = []
        return real_timeline(strategy, *args, **kwargs)

    def recording_checkpoint(params, *args):
        made[list(made)[-1]].append(weakref.ref(_memory_owner(params.vec)))
        return real_checkpoint(params, *args)

    def recording_round(*args, **kwargs):
        alive = [sum(ref() is not None for ref in refs) for refs in made.values()]
        alive_at_rounds.append((alive[-1], sum(alive[:-1])))
        return real_round(*args, **kwargs)

    monkeypatch.setattr(runner, "run_timeline", recording_timeline)
    monkeypatch.setattr(federation, "Checkpoint", recording_checkpoint)
    monkeypatch.setattr(federation, "run_round", recording_round)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("cumulative"),
                                          StrategyConfig("avg_equal"), StrategyConfig("static")))
    assert run_experiment(cfg, records=_tiny_records()).ok
    assert [len(refs) for refs in made.values()] == [10, 10, 2]  # trained, then read back
    assert len(alive_at_rounds) == 33  # 5 + 5 + 1 periods, 3 rounds
    # at most the checkpoint its period started from, and none of an earlier strategy
    assert all(mine <= 1 and earlier == 0 for mine, earlier in alive_at_rounds)


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

    spec_path = result.output_dir / "flows.columns.json"
    default_column_spec(4).to_json(spec_path)
    before = files()
    monkeypatch.setattr(atomic, "open", full_disk(room), raising=False)
    with pytest.raises(OSError, match="No space left"):
        rerender_reports(result.output_dir)
    with pytest.raises(OSError, match="No space left"):
        runner.write_reports(result.output_dir, result.metrics)
    with pytest.raises(OSError, match="No space left"):
        default_column_spec(6).to_json(spec_path)
    assert files() == before


def test_report_rerender_matches_original(tmp_path, monkeypatch):
    real = runner.run_strategy

    def failing(cfg, prep, strategy, ckpt_dir):
        if strategy.label == "simple":
            raise DivergenceError("induced failure")
        return real(cfg, prep, strategy, ckpt_dir)

    monkeypatch.setattr(runner, "run_strategy", failing)
    cfg = _tiny_cfg(tmp_path)  # static trains in one period, so its latency row is sparse
    result = run_experiment(cfg, records=_tiny_records())
    assert list(result.failures) == ["simple"]
    names = [f"{table}_binary.csv"
             for table in ("accuracy", "latency", "cells", "composition", "transfer")]
    original = {name: (result.output_dir / name).read_bytes() for name in names}
    for name in names:
        (result.output_dir / name).unlink()
    assert rerender_reports(result.output_dir) == (names, [])
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


def _with_counts(doc, counts):
    """``doc`` as JSON bytes with one cell's counts replaced by ``counts``."""
    doc = json.loads(json.dumps(doc))
    doc["strategies"]["simple"]["cells"][3]["counts"] = counts
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("damage", [
    lambda doc: b"{not json",
    lambda doc: json.dumps(doc).encode("utf-8").replace(b'"static"', b'"st\xffatic"'),
    lambda doc: b"[1, 2]",
    lambda doc: _without(doc, "strategies"),
    lambda doc: _without(doc, "strategies", "simple", "cells"),
    lambda doc: _with_counts(doc, [[1, 2]] * 5),
    lambda doc: _with_counts(doc, [[1, 2, 3]] * 6),
    lambda doc: _with_counts(doc, [[1, 2]] * 5 + [[1]]),
    lambda doc: _with_counts(doc, [[1, -2]] * 6),
    lambda doc: _with_counts(doc, [[1.5, 2]] * 6),
], ids=["garbage", "not-utf8", "list", "no-strategies", "no-cells", "counts-5x2",
        "counts-6x3", "counts-ragged", "counts-negative", "counts-float"])
def test_report_rejects_corrupt_metrics_documents_by_name(tiny_run, tmp_path, capsys, damage):
    _, result = tiny_run
    (tmp_path / "metrics_binary.json").write_bytes(damage(result.metrics))
    with pytest.raises(ReportError, match="metrics_binary.json"):
        rerender_reports(tmp_path)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 2
    assert "ReportError" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["metrics_binary.json"]


def test_report_rejects_an_unreadable_metrics_document_by_name(tmp_path, capsys):
    (tmp_path / "metrics_binary.json").mkdir()
    with pytest.raises(ReportError, match="metrics_binary.json: cannot read"):
        rerender_reports(tmp_path)
    assert cli.main(["report", "--run-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error [ReportError]: ")


@pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
def test_report_without_a_metrics_document_fails_by_name(tmp_path, capsys, make):
    run_dir = tmp_path / "no-run"
    if make:
        run_dir.mkdir()
    with pytest.raises(ReportError, match="no-run"):
        rerender_reports(run_dir)
    assert cli.main(["report", "--run-dir", str(run_dir)]) == 2
    assert capsys.readouterr().err.startswith("error [ReportError]: ")


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
        "arch": {"input_dim": 45, "hidden_layers": 1, "hidden_units": 16},
        "federation": {"num_clients": 2, "rounds": 1, "train": {"local_epochs": 1}},
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
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
    # a malformed config exits 2 ...
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "strategies": [{"kind": "retain", "retain_r": 0}],
        "output_dir": str(tmp_path),
    }))
    assert cli.main(["validate", "--config", str(cfg_path)]) == 2
    assert "strategies[0].retain_r" in capsys.readouterr().err
    # ... and a well-formed one whose data is missing exits 1
    cfg_path.write_text(json.dumps({"data": {"path": str(tmp_path / "absent.csv")},
                                    "output_dir": str(tmp_path)}))
    assert cli.main(["validate", "--config", str(cfg_path)]) == 1
    assert "data.path" in capsys.readouterr().out


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
def test_output_dir_that_is_a_file_is_refused_before_anything_is_written(tmp_path, capsys,
                                                                         under):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a run directory\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output_dir": str(taken / under),
                                    "strategies": [{"kind": "static"}]}))
    problem = f"output_dir: {taken} is not a directory"
    assert validate_config(load_config(cfg_path)) == [problem]
    assert cli.main(["validate", "--config", str(cfg_path)]) == 1
    assert problem in capsys.readouterr().out
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert problem in capsys.readouterr().err
    assert taken.read_bytes() == b"not a run directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]


def test_train_cap_below_the_client_count_runs_with_the_idle_clients_sitting_out(
        tmp_path, capsys, monkeypatch):
    # every class of a pool then holds 2 rows, dealt from client 0, so clients 2-4
    # hold none and sit out every round while clients 0 and 1 train
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "output_dir": str(tmp_path / "run"), "caps": {"train": 2},
        "data": {"synthetic": {"seed": 1, "rows_per_subattack": 20}},
        "strategies": [{"kind": "static"}, {"kind": "simple"}]}))
    assert load_config(cfg_path).fed.num_clients == 5
    assert cli.main(["validate", "--config", str(cfg_path)]) == 0
    shard_rows = []
    real_train = federation.train_local

    def recording_train(params, cohort, *args, **kwargs):
        shard_rows.append([len(shard) for shard in cohort])
        return real_train(params, cohort, *args, **kwargs)

    monkeypatch.setattr(federation, "train_local", recording_train)
    assert cli.main(["run", "--config", str(cfg_path), "--desk-scale"]) == 0
    doc = json.loads((tmp_path / "run" / "metrics_binary.json").read_text())
    assert doc["failures"] == {}
    assert doc["strategy_order"] == ["static", "simple"]
    # one cohort per round: static's 3 rounds, then simple's 3 in each of 5 periods
    assert len(shard_rows) == 3 * (1 + 5)
    assert all(len(rows) == 2 and min(rows) > 0 for rows in shard_rows)


def test_cli_gen_data_into_a_directory_fails_by_name(tmp_path, capsys):
    assert cli.main(["gen-data", "--out", str(tmp_path), "--rows", "2"]) == 2
    assert capsys.readouterr().err.startswith("error [IsADirectoryError]: ")
    assert list(tmp_path.iterdir()) == []


def test_cli_gen_data_names_the_rows_it_was_given(tmp_path, capsys):
    out = tmp_path / "flows.csv"
    assert cli.main(["gen-data", "--out", str(out), "--rows", "-3"]) == 2
    assert capsys.readouterr().err == ("error [ConfigError]: rows_per_subattack: must be an "
                                       "integer in [1, inf], got -3\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_unknown_strategy_filter_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"output_dir": str(tmp_path / "o"), "seed": 1}))
    assert cli.main(["run", "--config", str(cfg_path),
                     "--strategies", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "error [ConfigError]" in err


def test_fed_seed_never_reached_the_run(tmp_path, monkeypatch):
    # every strategy's timeline runs with its own strategy seed, passed as an argument
    seen = []
    real = runner.run_timeline

    def recording(strategy, inputs, fed, arch, seed, **kwargs):
        seen.append((strategy.label, seed))
        return real(strategy, inputs, fed, arch, seed, **kwargs)

    monkeypatch.setattr(runner, "run_timeline", recording)
    cfg = _tiny_cfg(tmp_path, strategies=(StrategyConfig("static"),))
    run_experiment(cfg, _tiny_records())
    assert seen == [("static", runner.rng_seed_for_period(cfg.seed, StrategyConfig("static"), -1))]


def _json(raw):
    return json.dumps(raw).encode("utf-8")


_FILE_DATA = {"path": "flows.csv", "column_spec": "flows.columns.json"}


# valid JSON that nests deeper than the decoder's recursion limit
_DEEP = b"[" * 200_000 + b"]" * 200_000


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
    (_json({"federation": {"train": {"learning_rate": "0.1"}}}),
     "federation.train.learning_rate: must be a number, got '0.1'"),
    (_json({"federation": {"rounds": "3"}}), "federation.rounds: must be an integer, got '3'"),
    (_json({"federation": {"train": {"local_epochs": 2.5}}}),
     "federation.train.local_epochs: must be an integer, got 2.5"),
    (_json({"federation": {"rounds": 1.5}}), "federation.rounds: must be an integer, got 1.5"),
    (_json({"federation": {"rounds": 1001}}),
     "federation.rounds: must be an integer in [1, 1000], got 1001"),
    (_json({"data": {"synthetic": {"rows_per_subattack": "10"}}}),
     "data.synthetic.rows_per_subattack: must be an integer, got '10'"),
    (_json({"data": {"synthetic": {"seed": "1"}}}),
     "data.synthetic.seed: must be an integer, got '1'"),
    (_json({"output_dir": 5}), "output_dir: must be a string, got 5"),
    (_json({"strategies": [{"kind": "static", "retain_r": 7}]}),
     "strategies[0].retain_r: only retain takes one, not 'static'"),
    (_json({"strategies": [{"kind": "avg_equal", "ema_alpha": 0.5}]}),
     "strategies[0].ema_alpha: only avg_ema takes one, not 'avg_equal'"),
    (_json({"strategies": []}), "strategies: at least one strategy is required"),
    (_json({"strategies": [{"kind": "retain", "retain_r": 0}]}),
     "strategies[0].retain_r: must be an integer in [1, inf], got 0"),
    (_json({"strategies": [{"kind": "avg_ema", "ema_alpha": 1.5}]}),
     "strategies[0].ema_alpha: must be a number in (0, 1), got 1.5"),
    (_json({"task": "ternary"}), "task: must be one of ('binary', 'sixclass'), got 'ternary'"),
    (_json({"arch": {"hidden_layers": True}}), "arch.hidden_layers: must be an integer, got True"),
    (_json({"federation": {"train": {"learning_rate": float("nan")}}}),
     "federation.train.learning_rate: must be a number in (0, inf), got nan"),
    # an unknown key at each level
    (_json({"taks": "sixclass"}), "config: unknown key(s) ['taks']"),
    (_json({"arch": {"hidden_unit": 16}}), "arch: unknown key(s) ['hidden_unit']"),
    # keys that named no field of their own: a derived one and a preset
    (_json({"arch": {"output_dim": 3}}), "arch: unknown key(s) ['output_dim']"),
    (_json({"desk_scale": "no"}), "config: unknown key(s) ['desk_scale']"),
    (_json({"desk_scale": True}), "config: unknown key(s) ['desk_scale']"),
    (_json({"federation": {"seed": 11}}), "federation: unknown key(s) ['seed']"),
    (_json({"federation": {"train": {"seed": 5}}}),
     "federation.train: unknown key(s) ['seed']"),
    (_json({"strategies": [{"kind": "static"}, {"kind": "retain", "retain": 5}]}),
     "strategies[1]: unknown key(s) ['retain']"),
    (_json({"data": {"synthetic": {"seed": 1}, "rows": 5}}), "data: unknown key(s) ['rows']"),
    (_json({"data": {"synthetic": {"rows": 5}}}), "data.synthetic: unknown key(s) ['rows']"),
    (_json({"data": {**_FILE_DATA, "synthetic": {}}}), "data: unknown key(s) ['synthetic']"),
    (_json({"data": {**_FILE_DATA, "delimiter": ";"}}), "data: unknown key(s) ['delimiter']"),
    (_json({"data": {"path": None, "column_spec": "flows.columns.json"}}),
     "data.column_spec: only a data file has one; set path"),
    (_json({"caps": {"train": 10, "val": 3}}), "caps: unknown key(s) ['val']"),
    pytest.param(_DEEP, "nests its JSON too deeply", id="deeply-nested"),
    pytest.param(_json({"strategies": [{"kind": "avg_ema", "ema_alpha": 0.3},
                                       {"kind": "avg_ema", "ema_alpha": 0.9}]}),
                 "strategies: label 'avg_ema' appears more than once", id="repeated-label"),
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
    pytest.param(_DEEP, id="deeply-nested"),
])
def test_column_spec_rejects_corrupt_files_by_name(tmp_path, data):
    path = tmp_path / "flows.columns.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="flows.columns.json"):
        ColumnSpec.from_json(path)
    cfg = replace(_tiny_cfg(tmp_path),
                  data=DataSource(path=str(path), column_spec_path=str(path)))
    assert any(p.startswith("data.column_spec: ") for p in validate_config(cfg))
