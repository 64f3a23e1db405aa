import hashlib
from pathlib import Path

import numpy as np
import pytest

from driftfed.errors import ConfigError, ScheduleError
from driftfed.pipeline import concat_rows, records_by_class, stratified_split
from driftfed.runner import ALL_STRATEGIES
from driftfed.seeds import rng_for
from driftfed.synth import generate
from driftfed import timeline as tl
from driftfed.timeline import (FAMILY_MEMBERS, TASKS, StrategyComposer, StrategyConfig,
                               build_schedule, build_test_sets, cap_records,
                               partition_iid, segment_and_cap, temporal_segment)

from conftest import tiny_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

T0_BASELINE = {"Benign", "MQTT-DDoS-Connect_Flood", "TCP_IP-DoS-UDP",
               "TCP_IP-DDoS-UDP", "Recon-Port_Scan", "ARP_Spoofing"}


# --- schedule ----------------------------------------------------------------

def test_sixclass_schedule_baseline_and_bounds():
    schedule = build_schedule("sixclass")
    assert [p.period_id for p in schedule] == list(range(7))
    t0 = schedule[0]
    assert t0.included == frozenset(T0_BASELINE)
    assert t0.full_marks == frozenset(T0_BASELINE)
    assert schedule[6].has_training is False
    assert schedule[6].included == schedule[5].included


def test_binary_schedule_starts_with_mqtt():
    schedule = build_schedule("binary")
    assert [p.period_id for p in schedule] == list(range(1, 7))
    t1 = schedule[0]
    assert t1.full_marks == frozenset({"Benign", *FAMILY_MEMBERS["MQTT"]})
    assert t1.included == t1.full_marks
    assert schedule[-1].included == schedule[-2].included


def test_included_sets_accumulate():
    for task in ("binary", "sixclass"):
        schedule = build_schedule(task)
        for prev, curr in zip(schedule, schedule[1:]):
            assert prev.included <= curr.included
        assert len(schedule[-1].included) == 18


def test_dos_introductions_respect_baseline():
    schedule = {p.period_id: p for p in build_schedule("sixclass")}
    # the baseline member rejoins its family as a plain inclusion
    assert "TCP_IP-DoS-UDP" in schedule[2].full_marks


def test_retention_marks_start_at_t2():
    for task in ("binary", "sixclass"):
        schedule = {p.period_id: p for p in build_schedule(task)}
        assert schedule[1].retained_marks == frozenset()
        assert schedule[2].retained_marks == frozenset({"Benign", *FAMILY_MEMBERS["MQTT"]})
        assert schedule[5].retained_marks == frozenset(
            {"Benign", *FAMILY_MEMBERS["MQTT"], *FAMILY_MEMBERS["DoS"],
             *FAMILY_MEMBERS["DDoS"], *FAMILY_MEMBERS["Recon"]})


def test_bad_task_rejected():
    with pytest.raises(ConfigError):
        build_schedule("multiclass")


# --- segmentation ------------------------------------------------------------

def test_temporal_segment_unit_sizes():
    rows = np.arange(6)
    segments = temporal_segment(rows, 6)
    assert [len(s) for s in segments] == [1] * 6
    assert [s[0] for s in segments] == list(range(6))


def test_temporal_segment_remainder_goes_first():
    segments = temporal_segment(np.arange(7), 3)
    assert [len(s) for s in segments] == [3, 2, 2]


def test_temporal_segment_disjoint_exhaustive_ordered():
    rows = np.arange(103)
    segments = temporal_segment(rows, 6)
    flat = [r for seg in segments for r in seg.tolist()]
    assert flat == list(range(103))
    sizes = [len(s) for s in segments]
    assert max(sizes) - min(sizes) <= 1


def test_temporal_segment_empty_class():
    assert [len(s) for s in temporal_segment([], 4)] == [0, 0, 0, 0]


# --- capping -----------------------------------------------------------------

def test_cap_records_below_cap_untouched():
    rows = np.arange(50)
    assert cap_records(rows, 100, rng_for(0, "x")) is rows


def test_cap_records_subsamples_in_order_deterministically():
    rows = np.arange(1000, 1500)
    a = cap_records(rows, 120, rng_for(7, "cap"))
    b = cap_records(rows, 120, rng_for(7, "cap"))
    assert len(a) == 120
    assert a.tolist() == b.tolist()
    assert a.tolist() == sorted(set(a.tolist()))
    assert set(a.tolist()) <= set(rows.tolist())


def test_segment_and_cap_caps_each_period():
    grouped = {"Benign": np.arange(1000)}
    segments = segment_and_cap(grouped, 4, cap=200, seed=0, tag="t")
    assert [len(s) for s in segments["Benign"]] == [200, 200, 200, 200]


# --- client partitioning -----------------------------------------------------

def test_partition_iid_exact_division():
    pool = {"Benign": np.arange(10_000)}
    clients = partition_iid(pool, 5, seed=1)
    sizes = [len(c.train) + len(c.client_test) + len(c.validation) for c in clients]
    assert sizes == [2000] * 5


def test_partition_iid_remainder_pattern():
    pool = {"Benign": np.arange(10_003)}
    clients = partition_iid(pool, 5, seed=1)
    sizes = sorted((len(c.train) + len(c.client_test) + len(c.validation)
                    for c in clients), reverse=True)
    assert sizes == [2001, 2001, 2001, 2000, 2000]


def test_partition_iid_per_class_balance():
    pool = {"Benign": np.arange(401), "ARP_Spoofing": np.arange(401, 478)}
    clients = partition_iid(pool, 5, seed=3)
    for cls in pool:
        counts = []
        for c in clients:
            rows = concat_rows([c.train, c.client_test, c.validation])
            counts.append(int(np.isin(rows, pool[cls]).sum()))
        assert max(counts) - min(counts) <= 1


def test_partition_iid_local_split_fractions():
    pool = {"Benign": np.arange(800)}
    clients = partition_iid(pool, 5, seed=3)
    for c in clients:
        # 160 rows per client: 120 train / 20 client-test / 20 validation
        assert (len(c.train), len(c.client_test), len(c.validation)) == (120, 20, 20)


# --- composition -------------------------------------------------------------

def _split_for(seed=0):
    """The train and test sides of the tiny scenario, each as its own table."""
    table = generate(tiny_scenario(seed=seed))
    train_rows, test_rows = stratified_split(table, 0.8, seed)
    return table[train_rows], table[test_rows]


def _segments_for(task, seed=0):
    train, test = _split_for(seed)
    n_train = len(tl.training_periods(task))
    n_test = len(tl.test_periods(task))
    return (segment_and_cap(records_by_class(train), n_train, 10_000, seed, "a"),
            segment_and_cap(records_by_class(test), n_test, 2_000, seed, "b"))


def _compose_all(task, strategy, seed=0):
    schedule = build_schedule(task)
    train_segments, _ = _segments_for(task, seed)
    composer = StrategyComposer(strategy, schedule, train_segments, seed=seed)
    return {p: composer.compose(p) for p in composer.training_periods()}, composer


def test_simple_binary_t2_is_benign_plus_dos():
    pools, _ = _compose_all("binary", StrategyConfig("simple"))
    assert set(pools[2]) == {"Benign", *FAMILY_MEMBERS["DoS"]}


def test_cumulative_sixclass_t3_label_set():
    pools, _ = _compose_all("sixclass", StrategyConfig("cumulative"))
    expected = {"Benign", *FAMILY_MEMBERS["MQTT"], *FAMILY_MEMBERS["DoS"],
                *FAMILY_MEMBERS["DDoS"]}
    assert set(pools[3]) == expected


def test_cumulative_label_sets_monotone():
    pools, _ = _compose_all("binary", StrategyConfig("cumulative"))
    periods = sorted(pools)
    for a, b in zip(periods, periods[1:]):
        assert set(pools[a]) <= set(pools[b])


def test_representative_covers_all_categories():
    pools, _ = _compose_all("sixclass", StrategyConfig("representative"))
    for period in range(1, 6):
        cats = {next(cat for cat, members in FAMILY_MEMBERS.items() if cls in members)
                for cls in pools[period] if cls != "Benign"}
        assert cats == {"MQTT", "DoS", "DDoS", "Recon", "Spoofing"}
        assert "Benign" in pools[period]


def test_simple_never_carries_old_families():
    pools, _ = _compose_all("binary", StrategyConfig("simple"))
    for period, family in [(2, "DoS"), (3, "DDoS"), (4, "Recon"), (5, "Spoofing")]:
        assert set(pools[period]) == {"Benign", *FAMILY_MEMBERS[family]}


def test_averaging_variants_match_simple_composition():
    simple_pools, _ = _compose_all("binary", StrategyConfig("simple"))
    for kind in ("avg_equal", "avg_sample", "avg_ema"):
        pools, _ = _compose_all("binary", StrategyConfig(kind))
        assert {p: {c: len(rows) for c, rows in pool.items()}
                for p, pool in pools.items()} == \
               {p: {c: len(rows) for c, rows in pool.items()}
                for p, pool in simple_pools.items()}


def test_static_trains_only_at_start():
    pools, composer = _compose_all("binary", StrategyConfig("static"))
    assert list(pools) == [1]
    assert composer.training_periods() == [1]


def test_retention_buffers_bounded_and_from_used_rows():
    strategy = StrategyConfig("retain", retain_r=25)
    schedule = build_schedule("binary")
    train_segments, _ = _segments_for("binary")
    composer = StrategyComposer(strategy, schedule, train_segments, seed=1)
    # rows used before: every class of an earlier pool that was not retained there
    used_before: dict[str, set] = {}
    for period in composer.training_periods():
        sched = next(s for s in schedule if s.period_id == period)
        pool = composer.compose(period)
        for cls in sched.retained_marks & set(pool):
            keys = set(pool[cls].tolist())
            assert len(pool[cls]) <= 25
            assert keys <= used_before[cls]
        for cls in set(pool) - sched.retained_marks:
            used_before.setdefault(cls, set()).update(pool[cls].tolist())


def test_retain_draws_lie_in_the_earlier_fresh_segments():
    schedule = build_schedule("binary")
    train_segments, _ = _segments_for("binary")
    for r in (5, 100):
        pools, _ = _compose_all("binary", StrategyConfig("retain", retain_r=r))
        for sched in schedule:
            for cls in sched.retained_marks & set(pools.get(sched.period_id, {})):
                earlier = concat_rows(train_segments[cls][p.period_id - 1] for p in schedule
                                      if p.period_id < sched.period_id and cls in p.full_marks)
                assert set(pools[sched.period_id][cls].tolist()) <= set(earlier.tolist())
    # Benign is fresh at t1 only, so every later Benign draw comes from its first segment
    pools, _ = _compose_all("binary", StrategyConfig("retain", retain_r=5))
    for period in (2, 3, 4, 5):
        assert set(pools[period]["Benign"].tolist()) <= set(train_segments["Benign"][0].tolist())


def test_retention_label_sets_match_cumulative():
    cumulative, _ = _compose_all("sixclass", StrategyConfig("cumulative"))
    retained, _ = _compose_all("sixclass", StrategyConfig("retain", retain_r=100))
    assert {p: set(pool) for p, pool in cumulative.items()} == \
           {p: set(pool) for p, pool in retained.items()}


def test_retain_t3_full_ddos_plus_buffers():
    strategy = StrategyConfig("retain", retain_r=10)
    schedule = build_schedule("binary")
    train_segments, _ = _segments_for("binary")
    composer = StrategyComposer(strategy, schedule, train_segments, seed=0)
    pools = {p: composer.compose(p) for p in composer.training_periods()}
    t3 = pools[3]
    sched = {p.period_id: p for p in schedule}[3]
    for cls in FAMILY_MEMBERS["DDoS"]:
        # the newly introduced family uses its entire fresh segment
        assert np.array_equal(t3[cls], train_segments[cls][2])
    for cls in sched.retained_marks:
        assert len(t3[cls]) <= 10


def test_segments_disjoint_across_periods():
    train_segments, _ = _segments_for("binary")
    for cls, segments in train_segments.items():
        seen = set()
        for seg in segments:
            keys = set(seg.tolist())
            assert not (keys & seen)
            seen |= keys


def test_compose_of_a_period_without_training_rejected():
    schedule = build_schedule("binary")
    train_segments, _ = _segments_for("binary")
    composer = StrategyComposer(StrategyConfig("cumulative"), schedule, train_segments, seed=0)
    with pytest.raises(ScheduleError, match=r"strategy cumulative trains at t1, t2, t3, t4, "
                                            r"t5; cannot compose t6"):
        composer.compose(6)          # test-only period
    static = StrategyComposer(StrategyConfig("static"), schedule, train_segments, seed=0)
    with pytest.raises(ScheduleError, match=r"strategy static trains at t1; cannot compose t2"):
        static.compose(2)            # static never retrains


@pytest.mark.parametrize("task", TASKS)
def test_pools_do_not_depend_on_the_call_order(task):
    schedule = build_schedule(task)
    train_segments, _ = _segments_for(task)
    for strategy in ALL_STRATEGIES:
        ascending, _ = _compose_all(task, strategy)
        composer = StrategyComposer(strategy, schedule, train_segments, seed=0)
        for period in reversed(composer.training_periods()):
            for _ in range(2):
                pool = composer.compose(period)
                assert list(pool) == list(ascending[period])
                for cls, rows in pool.items():
                    expected = ascending[period][cls]
                    assert (rows.dtype, rows.tobytes()) == (expected.dtype, expected.tobytes())


def test_invalid_retain_r_rejected_at_use():
    schedule = build_schedule("binary")
    train_segments, _ = _segments_for("binary")
    with pytest.raises(ConfigError):
        StrategyComposer(StrategyConfig("retain", retain_r=0), schedule,
                         train_segments, seed=0)


def test_build_test_sets_follow_included():
    schedule = build_schedule("binary")
    _, test = _split_for()
    _, test_segments = _segments_for("binary")
    sets = build_test_sets(schedule, test_segments)
    assert set(test[sets[1]].labels) == {"Benign", *FAMILY_MEMBERS["MQTT"]}
    assert len(set(test[sets[6]].labels)) == 18
    assert set(test[sets[5]].labels) == set(test[sets[6]].labels)


def test_build_test_sets_concatenate_classes_in_name_order():
    schedule = build_schedule("sixclass")
    _, test_segments = _segments_for("sixclass")
    sets = build_test_sets(schedule, test_segments)
    for sched in schedule:
        k = sched.period_id
        expected = [test_segments[cls][k] for cls in sorted(sched.included)]
        assert sets[k].tolist() == concat_rows(expected).tolist()


# --- golden label sets --------------------------------------------------------

def _render_label_sets(task: str) -> str:
    strategies = [StrategyConfig("static"), StrategyConfig("cumulative"),
                  StrategyConfig("simple"), StrategyConfig("representative"),
                  StrategyConfig("retain", retain_r=100),
                  StrategyConfig("retain", retain_r=500),
                  StrategyConfig("retain", retain_r=1000),
                  StrategyConfig("avg_equal"), StrategyConfig("avg_sample"),
                  StrategyConfig("avg_ema")]
    schedule = build_schedule(task)
    train_segments, _ = _segments_for(task)
    lines = ["strategy,period,classes"]
    for strategy in strategies:
        composer = StrategyComposer(strategy, schedule, train_segments, seed=0)
        for period in composer.training_periods():
            pool = composer.compose(period)
            lines.append(f"{strategy.label},t{period},{'|'.join(sorted(pool))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("task", ["binary", "sixclass"])
def test_composition_matches_golden_files(task):
    rendered = _render_label_sets(task)
    golden = (GOLDEN_DIR / f"composition_{task}.csv").read_text()
    assert rendered == golden


def _render_pools(task: str) -> str:
    schedule = build_schedule(task)
    train_segments, _ = _segments_for(task)
    lines = ["strategy,period,class,rows,sha256"]
    for strategy in ALL_STRATEGIES:
        composer = StrategyComposer(strategy, schedule, train_segments, seed=0)
        for period in composer.training_periods():
            for cls, rows in composer.compose(period).items():
                digest = hashlib.sha256(rows.astype(np.int64).tobytes()).hexdigest()
                lines.append(f"{strategy.label},t{period},{cls},{len(rows)},{digest}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("task", ["binary", "sixclass"])
def test_pools_match_golden_files(task):
    """Every pool row for row, in pool order: a row count and a digest per class."""
    golden = (GOLDEN_DIR / f"pools_{task}.csv").read_text()
    assert _render_pools(task) == golden
