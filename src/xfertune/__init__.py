"""Energy-aware bulk data transfer tuning.

Offline: ingest historical transfer logs, stratify them by network and
dataset characteristics, fit spline surfaces of throughput and energy per
stratum, and pick SLA-satisfying parameters ahead of time. Online: monitor a
running transfer and react to load shifts by switching surfaces or nudging
single parameters.
"""
from .clustering import (ClusterError, Dendrogram, FeatureSpec, Merge,
                         StratifyConfig, Stratum, UnknownRouteError,
                         assign_stratum, cut_dendrogram, stratify,
                         upgma_cluster)
from .logs import (DatasetMeta, LogError, LogParseError, LogTable,
                   LogValidationError, NetworkMeta, ParamConfig, ParamLattice,
                   TransferLogEntry, ingest_logs, serialize_logs,
                   validate_entry)
from .optimizer import (SLA, CriticalPoint, InfeasibleSLAError,
                        OptimizationResult, ParamTable, SLAError,
                        build_param_table, find_critical_points,
                        optimize_stratum)
from .pipeline import (compare_policies, fit_all_strata, load_models,
                       load_strata, load_table, models_doc, optimize_all,
                       read_json_artifact, run_tuned_transfer, strata_doc,
                       table_doc, write_json_artifact)
from .simulator import (DATASET_CLASSES, ENDPOINTS, EndpointSpec,
                        LoadScenario, SimEndpoint, SimulationError,
                        baseline_config, default_lattice,
                        generate_training_logs, power_above_base_watts,
                        synth_file_sizes, throughput_mbps)
from .spline import (Spline, SplineError, fit_bicubic_surface,
                     fit_natural_spline)
from .surfaces import (GroupModel, StratumModels, SurfaceFitError,
                       fit_stratum_models, rmse_holdout)
from .tuner import (EndpointFailure, FixedController, MonitorSample,
                    OnlineTuner, TickResult, TransferReport, TunerError,
                    cluster_files, run_transfer)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
