"""Szegedy spatial-search simulator and exceptional-configuration attack toolkit."""

from .attack import (
    AttackReport,
    EfficiencyStats,
    OptimizeResult,
    SearchInstance,
    apply_attack,
    attack_efficiency,
    default_t_pen,
    efficiency,
    efficiency_statistics,
    evaluate_attack,
    expected_runtime,
    optimize_measurement_time,
    strong_attack_efficiency,
)
from .exceptional import (
    ECKind,
    ExceptionalConfiguration,
    FormationEstimate,
    ec_formation_probability,
    find_2ec,
    find_3ec,
    find_ec_within_distance,
    is_exceptional,
    wilson_interval,
)
from .experiments import (
    ExperimentConfig,
    Fig1Row,
    RegressionResult,
    expand_grid,
    fit_loglog,
    run_fig1,
    run_fig2,
    run_fig3,
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
    sample_connected_graph,
    write_edge_list,
)
from .szegedy import (
    NumericalStabilityError,
    PairSpace,
    StochasticMatrix,
    WalkOperator,
    WalkState,
    initial_state,
    probability_trace,
    success_probability,
    uniform_stochastic,
)

__version__ = "0.1.0"
