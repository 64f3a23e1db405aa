"""Drift timeline: schedule, temporal segmentation, capping, composition.

The bundled schedule introduces one attack family per period: MQTT at t1,
DoS at t2, DDoS at t3, Recon at t4 and Spoofing at t5; t6 carries test data
only. The six-class task prepends a t0 baseline holding one representative
sub-attack per category so the label space is complete from the start; the
binary task starts at t1.

Each class's training rows are cut into one chronological segment per
training period and each test side into one segment per test period, so no
strategy ever re-reads the same rows across periods. A row's time is its
position in its table, so chronological means in increasing row index.
Segments, pools, client shards and test sets are arrays of row indices into
the run's one scaled :class:`~driftfed.pipeline.FlowTable`.

A period's pool is its *full marks* (the t0 baseline, then the new family,
with Benign at t1) on fresh segments, plus per strategy: ``cumulative`` the
fresh segments of its *retained marks* (classes trained since t1, less the
new family), ``retain`` draws from their fresh segments at the strategy's
earlier periods, and the rest Benign, with ``representative`` adding every
other category's representative. So in six-class the t0 representatives
of DoS, DDoS, Recon and Spoofing return only with their family, and in
binary ``representative`` trains at t1 on families introduced later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScheduleError, check_field
from .pipeline import CODECS, NO_ROWS, ROSTER, concat_rows
from .seeds import derive_seed, rng_for

TASKS = tuple(CODECS)

STRATEGY_KINDS = ("static", "cumulative", "simple", "representative",
                  "retain", "avg_equal", "avg_sample", "avg_ema")

# The attack families of the class roster, without Benign.
FAMILY_MEMBERS = {cat: subs for cat, subs in ROSTER.items() if cat != "Benign"}

# Fixed representative sub-attack per category (the t0 baseline classes).
REPRESENTATIVES = {
    "MQTT": "MQTT-DDoS-Connect_Flood",
    "DoS": "TCP_IP-DoS-UDP",
    "DDoS": "TCP_IP-DDoS-UDP",
    "Recon": "Recon-Port_Scan",
    "Spoofing": "ARP_Spoofing",
}

FAMILY_INTRODUCED_AT = {1: "MQTT", 2: "DoS", 3: "DDoS", 4: "Recon", 5: "Spoofing"}

# Fractions of each client's allocation (the 80% training side of the data):
# 75/12.5/12.5 here corresponds to 60/10/10 of the original dataset.
CLIENT_VAL_FRACTION = 0.125
CLIENT_TEST_FRACTION = 0.125


@dataclass(frozen=True)
class StrategyConfig:
    """One training strategy row of the benchmark.

    Only ``retain`` takes ``retain_r``, a positive integer it needs; only
    ``avg_ema`` takes ``ema_alpha``, a number in (0, 1) that defaults to 0.6.
    """

    kind: str
    retain_r: int | None = None
    ema_alpha: float | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"kind: must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        for key, owner in (("retain_r", "retain"), ("ema_alpha", "avg_ema")):
            if getattr(self, key) is not None and self.kind != owner:
                raise ConfigError(f"{key}: only {owner} takes one, not {self.kind!r}")
        if self.kind == "avg_ema" and self.ema_alpha is None:
            object.__setattr__(self, "ema_alpha", 0.6)
        if self.kind == "retain" and self.retain_r is None:
            raise ConfigError("retain_r: the retain strategy needs one")
        check_field("retain_r", self.retain_r, "integer", 1, optional=True)
        check_field("ema_alpha", self.ema_alpha, "number", 0, 1, optional=True)

    @property
    def averages(self) -> bool:
        """Whether a period starts from an average of the earlier checkpoints."""
        return self.kind.startswith("avg_")

    @property
    def label(self) -> str:
        if self.kind == "retain":
            return f"retain_{self.retain_r}"
        return self.kind


@dataclass(frozen=True)
class PeriodSchedule:
    """What one period contains, on the train and test sides."""

    period_id: int
    included: frozenset[str]        # classes present in this period's test data
    full_marks: frozenset[str]      # classes trained on their full segment
    retained_marks: frozenset[str]  # classes carried as retention samples
    new_family: str | None          # family introduced this period

    @property
    def has_training(self) -> bool:
        return bool(self.full_marks)


def build_schedule(task: str) -> list[PeriodSchedule]:
    """Period schedules t0..t6 (sixclass) or t1..t6 (binary)."""
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}")

    schedules: list[PeriodSchedule] = []
    included: frozenset[str] = frozenset()
    if task == "sixclass":
        included = frozenset({"Benign", *REPRESENTATIVES.values()})
        schedules.append(PeriodSchedule(0, included, included, frozenset(), None))

    # classes trained from t1 on; the t0 baseline is not carried
    carried: set[str] = set()
    for period, family in FAMILY_INTRODUCED_AT.items():
        members = frozenset(FAMILY_MEMBERS[family])
        full = members if carried else members | {"Benign"}
        included |= full
        schedules.append(PeriodSchedule(period, included, full,
                                        frozenset(carried - members), family))
        carried |= full

    schedules.append(PeriodSchedule(period + 1, included, frozenset(), frozenset(), None))
    return schedules


def training_periods(task: str) -> tuple[int, ...]:
    return tuple(p.period_id for p in build_schedule(task) if p.has_training)


def test_periods(task: str) -> tuple[int, ...]:
    return tuple(p.period_id for p in build_schedule(task))


def temporal_segment(class_rows, num_periods: int) -> list:
    """Chronological, disjoint, near-equal segments.

    The first ``n % num_periods`` segments take one extra row, so sizes
    differ by at most one and earlier segments hold earlier rows. Rows must
    already be in time order, as :func:`~driftfed.pipeline.records_by_class`
    gives them.
    """
    if num_periods < 1:
        raise ScheduleError("num_periods must be at least 1")
    n = len(class_rows)
    base, extra = divmod(n, num_periods)
    segments = []
    start = 0
    for k in range(num_periods):
        size = base + (1 if k < extra else 0)
        segments.append(class_rows[start:start + size])
        start += size
    return segments


def cap_records(rows: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform subsample without replacement, preserving chronological order."""
    if len(rows) <= cap:
        return rows
    keep = np.sort(rng.permutation(len(rows))[:cap])
    return rows[keep]


def segment_and_cap(rows_by_cls: dict[str, np.ndarray], num_periods: int,
                    cap: int, seed: int, tag: str) -> dict[str, list[np.ndarray]]:
    """Per class: segment chronologically, then cap each period independently.

    ``rows_by_cls`` is :func:`~driftfed.pipeline.records_by_class` of a
    table or of one side of its split: row indices in increasing (time) order.
    """
    if cap < 1:
        raise ConfigError("cap must be at least 1")
    out: dict[str, list[np.ndarray]] = {}
    for cls in sorted(rows_by_cls):
        segments = temporal_segment(rows_by_cls[cls], num_periods)
        out[cls] = [
            cap_records(seg, cap, rng_for(seed, tag, cls, k))
            for k, seg in enumerate(segments)
        ]
    return out


@dataclass(frozen=True)
class ClientSplit:
    """One client's share of a period pool, sub-split for local use (row indices)."""

    train: np.ndarray
    client_test: np.ndarray
    validation: np.ndarray


def partition_iid(pool_by_class: dict[str, np.ndarray], num_clients: int,
                  seed: int) -> list[ClientSplit]:
    """Deal each class round-robin after a seeded shuffle.

    Shard sizes per class differ by at most one (earlier clients take the
    remainder). Within each client's per-class allocation the tail is held
    out for client-side testing and validation. Each part lists its classes
    in name order.
    """
    if num_clients < 1:
        raise ConfigError("num_clients must be at least 1")
    parts = [([], [], []) for _ in range(num_clients)]
    for cls in sorted(pool_by_class):
        rows = pool_by_class[cls]
        perm = rng_for(seed, "deal", cls).permutation(len(rows))
        for k, (train, client_test, validation) in enumerate(parts):
            dealt = rows[perm[k::num_clients]]
            m = len(dealt)
            n_val = int(np.floor(m * CLIENT_VAL_FRACTION))
            n_ctest = int(np.floor(m * CLIENT_TEST_FRACTION))
            n_train = m - n_val - n_ctest
            train.append(dealt[:n_train])
            client_test.append(dealt[n_train:n_train + n_ctest])
            validation.append(dealt[n_train + n_ctest:])
    return [ClientSplit(*map(concat_rows, part)) for part in parts]


class StrategyComposer:
    """Builds each training period's class pool for one strategy run.

    :meth:`compose` keeps no state: a pool depends on the strategy,
    schedule, segments, seed and period only, so periods may be composed in
    any order and as often as needed. Pools are row indices into the table
    the segments index.
    """

    def __init__(self, strategy: StrategyConfig, schedule: list[PeriodSchedule],
                 train_segments: dict[str, list[np.ndarray]], seed: int):
        self.strategy = strategy
        self.schedule = {p.period_id: p for p in schedule}
        self.segments = train_segments
        self.seed = seed
        self.start_period = min(p.period_id for p in schedule if p.has_training)

    def training_periods(self) -> list[int]:
        if self.strategy.kind == "static":
            return [self.start_period]
        return sorted(p for p, s in self.schedule.items() if s.has_training)

    def _segment(self, cls: str, period_id: int) -> np.ndarray:
        # segment index counts training periods from the start of the task
        segments = self.segments.get(cls)
        k = period_id - self.start_period
        if segments is None or k >= len(segments):
            return NO_ROWS
        return segments[k]

    def compose(self, period_id: int) -> dict[str, np.ndarray]:
        """The pool of ``period_id``, by the rule in the module docstring.

        ``retain`` draws a class from the rows the strategy used for it
        before: its segments at the earlier training periods whose full
        marks hold it, in period order.
        """
        periods = self.training_periods()
        if period_id not in periods:
            trains = ", ".join(f"t{p}" for p in periods)
            raise ScheduleError(f"strategy {self.strategy.label} trains at {trains}; "
                                f"cannot compose t{period_id}")

        sched = self.schedule[period_id]
        kind = self.strategy.kind
        fresh = set(sched.full_marks)
        if kind == "cumulative":
            fresh |= sched.retained_marks
        elif kind != "retain":
            fresh.add("Benign")
        if kind == "representative":
            fresh |= {rep for cat, rep in REPRESENTATIVES.items() if cat != sched.new_family}

        pool = {cls: self._segment(cls, period_id) for cls in sorted(fresh)}
        if kind == "retain":
            earlier = [self.schedule[p] for p in periods if p < period_id]
            for cls in sorted(sched.retained_marks):
                used = concat_rows(self._segment(cls, p.period_id)
                                   for p in earlier if cls in p.full_marks)
                rng = rng_for(self.seed, "retain", period_id, cls)
                pool[cls] = cap_records(used, self.strategy.retain_r, rng)
        return {cls: rows for cls, rows in pool.items() if len(rows)}


def rng_seed_for_period(seed: int, strategy: StrategyConfig, period_id: int) -> int:
    return derive_seed(seed, "partition", strategy.label, period_id)


def build_test_sets(schedule: list[PeriodSchedule],
                    test_segments: dict[str, list[np.ndarray]]) -> dict[int, np.ndarray]:
    """Global test rows per period: the period's segment of every included
    class, classes in name order."""
    first = schedule[0].period_id
    out: dict[int, np.ndarray] = {}
    for sched in schedule:
        k = sched.period_id - first
        out[sched.period_id] = concat_rows(
            test_segments[cls][k] for cls in sorted(sched.included)
            if k < len(test_segments.get(cls, ())))
    return out
