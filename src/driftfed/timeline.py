"""Drift timeline: schedule, temporal segmentation, capping, composition.

The bundled schedule introduces one attack family per period: MQTT at t1,
DoS at t2, DDoS at t3, Recon at t4 and Spoofing at t5; t6 carries test data
only. The six-class task prepends a t0 baseline holding one representative
sub-attack per category so the label space is complete from the start; the
binary task starts at t1.

Each class's training rows are cut into one chronological segment per
training period and each test side into one segment per test period, so no
strategy ever re-reads the same rows across periods. Training strategies
then differ only in which classes (and how many retained rows) they pull
into each period's pool. Segments, pools and client shards are arrays of
row indices into the scaled train or test :class:`~driftfed.pipeline.FlowTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScheduleError, check_field
from .pipeline import NO_ROWS, ROSTER, concat_rows
from .seeds import derive_seed, rng_for

TASKS = ("binary", "sixclass")

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

    ``retain`` needs ``retain_r``; ``avg_ema`` defaults ``ema_alpha`` to 0.6.
    A value that is given must be valid whatever the kind: retain_r a
    positive integer, ema_alpha a number in (0, 1).
    """

    kind: str
    retain_r: int | None = None
    ema_alpha: float | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"kind: must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if self.kind == "avg_ema" and self.ema_alpha is None:
            object.__setattr__(self, "ema_alpha", 0.6)
        if self.kind == "retain" and self.retain_r is None:
            raise ConfigError("retain_r: the retain strategy needs one")
        check_field("retain_r", self.retain_r, "integer", 1, optional=True)
        check_field("ema_alpha", self.ema_alpha, "number", 0, 1, optional=True)

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
    introduced: frozenset[str]      # classes appearing for the first time
    full_marks: frozenset[str]      # classes trained on their full segment
    retained_marks: frozenset[str]  # classes carried as retention samples
    new_family: str | None          # family introduced this period
    new_family_members: frozenset[str]
    has_training: bool

    @property
    def name(self) -> str:
        return f"t{self.period_id}"


def build_schedule(task: str) -> list[PeriodSchedule]:
    """Period schedules t0..t6 (sixclass) or t1..t6 (binary)."""
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}")

    reps = frozenset({"Benign", *REPRESENTATIVES.values()})
    schedules: list[PeriodSchedule] = []
    included: set[str] = set()
    seen: set[str] = set()
    retain_eligible: set[str] = set()  # classes with retained marks next period onward

    if task == "sixclass":
        included = set(reps)
        seen = set(reps)
        schedules.append(PeriodSchedule(
            period_id=0, included=frozenset(included), introduced=reps,
            full_marks=reps, retained_marks=frozenset(), new_family=None,
            new_family_members=frozenset(), has_training=True,
        ))

    for period in range(1, 6):
        family = FAMILY_INTRODUCED_AT[period]
        members = frozenset(FAMILY_MEMBERS[family])
        introduced = frozenset(m for m in members if m not in seen)
        if period == 1 and task == "binary":
            # the binary timeline starts here, Benign included
            introduced = introduced | {"Benign"}
        seen |= members | {"Benign"}
        included |= members | {"Benign"}
        if period == 1:
            full = members | {"Benign"}
            retained: frozenset[str] = frozenset()
            retain_eligible = set(full)
        else:
            full = members
            retained = frozenset(retain_eligible - members)
            retain_eligible |= members
        schedules.append(PeriodSchedule(
            period_id=period, included=frozenset(included), introduced=introduced,
            full_marks=frozenset(full), retained_marks=retained, new_family=family,
            new_family_members=members, has_training=True,
        ))

    schedules.append(PeriodSchedule(
        period_id=6, included=frozenset(included), introduced=frozenset(),
        full_marks=frozenset(), retained_marks=frozenset(), new_family=None,
        new_family_members=frozenset(), has_training=False,
    ))
    return schedules


def training_periods(task: str) -> tuple[int, ...]:
    return tuple(p.period_id for p in build_schedule(task) if p.has_training)


def test_periods(task: str) -> tuple[int, ...]:
    return tuple(p.period_id for p in build_schedule(task))


def temporal_segment(class_rows, num_periods: int) -> list:
    """Chronological, disjoint, near-equal segments.

    The first ``n % num_periods`` segments take one extra row, so sizes
    differ by at most one and earlier segments hold earlier order_index
    values. Rows must already be in order_index order.
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
    table: row indices in order_index order.
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

    Call :meth:`compose` for the strategy's training periods in ascending
    order; the composer tracks which rows each class has already used so
    retention buffers draw only from genuinely seen data. Pools are row
    indices into the table the segments index.
    """

    def __init__(self, strategy: StrategyConfig, schedule: list[PeriodSchedule],
                 train_segments: dict[str, list[np.ndarray]], seed: int):
        self.strategy = strategy
        self.schedule = {p.period_id: p for p in schedule}
        self.segments = train_segments
        self.seed = seed
        self.start_period = min(p.period_id for p in schedule if p.has_training)
        # rows used in earlier periods: one mask over the table's rows, and per
        # class the same rows in first-use order
        every_row = concat_rows(seg for segs in train_segments.values() for seg in segs)
        self._seen = np.zeros(every_row.max() + 1 if len(every_row) else 0, dtype=bool)
        self._used: dict[str, np.ndarray] = {}
        self._composed: list[int] = []

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
        sched = self.schedule.get(period_id)
        if sched is None or not sched.has_training:
            raise ScheduleError(f"period t{period_id} has no training data")
        if period_id not in self.training_periods():
            raise ScheduleError(
                f"strategy {self.strategy.label} does not train at t{period_id}"
            )
        expected = [p for p in self.training_periods() if p not in self._composed]
        if not expected or expected[0] != period_id:
            raise ScheduleError(
                f"periods must be composed in order; next is t{expected[0] if expected else '?'}"
            )

        kind = self.strategy.kind
        pool: dict[str, np.ndarray] = {}

        if kind == "representative":
            classes = set(sched.new_family_members) | {"Benign"}
            classes |= {rep for cat, rep in REPRESENTATIVES.items() if cat != sched.new_family}
            for cls in sorted(classes):
                pool[cls] = self._segment(cls, period_id)
        elif kind == "cumulative":
            for cls in sorted(sched.full_marks | sched.retained_marks):
                pool[cls] = self._segment(cls, period_id)
        elif kind == "retain":
            for cls in sorted(sched.full_marks):
                pool[cls] = self._segment(cls, period_id)
            for cls in sorted(sched.retained_marks):
                pool[cls] = self._draw_retention(cls, period_id)
        elif kind == "static" or period_id == self.start_period:
            for cls in sorted(sched.full_marks):
                pool[cls] = self._segment(cls, period_id)
        else:  # simple and the averaging variants
            for cls in sorted(sched.new_family_members | {"Benign"}):
                pool[cls] = self._segment(cls, period_id)

        pool = {cls: rows for cls, rows in pool.items() if len(rows)}
        self._remember(pool)
        self._composed.append(period_id)
        return pool

    def _draw_retention(self, cls: str, period_id: int) -> np.ndarray:
        available = self._used.get(cls, NO_ROWS)
        r = self.strategy.retain_r
        if len(available) <= r:
            return available
        rng = rng_for(self.seed, "retain", period_id, cls)
        keep = np.sort(rng.permutation(len(available))[:r])
        return available[keep]

    def _remember(self, pool: dict[str, np.ndarray]) -> None:
        for cls, rows in pool.items():
            fresh = rows[~self._seen[rows]]
            self._seen[fresh] = True
            self._used[cls] = concat_rows([self._used.get(cls, NO_ROWS), fresh])


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
