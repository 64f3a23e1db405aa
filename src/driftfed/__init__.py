"""driftfed: federated-learning drift simulator for intrusion detection.

A numpy library that trains a minimal stacked-LSTM classifier under FedAvg
across a drift timeline (t0..t6) in which attack families arrive one period
at a time, and benchmarks incremental-learning strategies (static,
cumulative, simple, representative, retention buffers, parameter-averaging
variants) for accuracy under drift and wall-clock cost.
"""

from .dataset import RowShard
from .errors import (AggregationError, CheckpointError, CodecError, ConfigError, DataError,
                     DivergenceError, DriftFedError, EvaluationError, FederationError,
                     LabelError, LoadError, MetricError, ReportError, ScheduleError,
                     ShapeError)
from .federation import (Checkpoint, FedConfig, fedavg_aggregate, init_from_history,
                         load_checkpoint, run_round, run_timeline, save_checkpoint)
from .metrics import (FAR_DEFINITION, MetricsReport, confusion, cross_period_eval,
                      false_alarm_rate, fold_categories, macro_prf, measure_inference,
                      micro_accuracy, protocol_cells)
from .nn import (ModelArch, ModelParams, TrainConfig, backward, cross_entropy,
                 forward, init_params, param_count, predict, softmax, train_local)
from .pipeline import (CATEGORIES, CODECS, ROSTER, SUB_ATTACKS, ColumnSpec, FlowTable,
                       LabelCodec, ScalerStats, apply_scaler, category_of, clean, encode_labels,
                       fit_scaler, load_records, records_by_class, stratified_split)
from .runner import (ALL_STRATEGIES, DataSource, RunConfig, RunResult, desk_scale, load_config,
                     prepare_experiment, run_experiment, validate_config)
from .synth import (FamilySpec, ScenarioSpec, default_column_spec, default_drift_scenario,
                    generate, write_delimited)
from .timeline import (FAMILY_MEMBERS, REPRESENTATIVES, PeriodSchedule, StrategyConfig,
                       StrategyComposer, build_schedule, build_test_sets, cap_records,
                       partition_iid, segment_and_cap, temporal_segment, test_periods,
                       training_periods)

__version__ = "0.1.0"
