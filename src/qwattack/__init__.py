"""Szegedy spatial-search simulator and exceptional-configuration attack toolkit."""

from .attack import (
    AttackReport,
    EfficiencyStats,
    OptimizeResult,
    SearchInstance,
    apply_attack,
    default_t_pen,
    efficiency,
    efficiency_statistics,
    evaluate_attack,
    expected_runtime,
    optimize_measurement_time,
)
from .exceptional import (
    ECKind,
    ExceptionalConfiguration,
    find_2ec,
    find_3ec,
    find_ec_within_distance,
    is_exceptional,
)
from .experiments import (
    ExperimentConfig,
    Fig1Row,
    FormationEstimate,
    RegressionResult,
    ec_formation_probability,
    expand_grid,
    fit_loglog,
    run_fig1,
    run_fig2,
    run_fig3,
    wilson_interval,
)
from .graphs import (
    EdgeListParseError,
    Graph,
    ModelParams,
    default_er_p,
    default_ws_k,
    derive_seed,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_watts_strogatz,
    generate_graph,
    is_connected,
    read_edge_list,
    write_edge_list,
)
from .szegedy import (
    NumericalStabilityError,
    PairSpace,
    WalkOperator,
    WalkState,
    initial_state,
    probability_trace,
    success_probability,
    uniform_stochastic,
)

__version__ = "0.1.0"
