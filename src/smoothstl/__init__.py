"""Exact and smooth robustness for discrete-time temporal logic specs.

The package evaluates how strongly a sampled signal satisfies or violates
a temporal-logic formula, replaces the min/max semantics with smooth
everywhere-underapproximating surrogates whose sharpness is tunable,
differentiates them analytically, and uses the gradients to synthesize
control trajectories for simple plant models.

Start with parse() and evaluate() for monitoring, eval_with_gradient()
for the analytic gradient, and builtin_scenario() + synthesize() for
trajectory synthesis. The command line (python -m smoothstl) fronts the
same operations.
"""

import types

from .formula import (
    Always,
    And,
    CallablePredicate,
    Eventually,
    FormulaError,
    Interval,
    LinearPredicate,
    Not,
    Or,
    Pred,
    RegionTable,
    Release,
    Until,
    conj,
    disj,
    format_formula,
    horizon,
    is_nnf,
    node_count,
    to_nnf,
)
from .parser import ParseError, parse
from .robustness import (
    EXACT,
    OperatorCounter,
    SemanticsConfig,
    SemanticsError,
    Signal,
    as_signal,
    count_operator_evals,
    evaluate,
    load_signal_csv,
    lse_max,
    max_error_bound,
    min_error_bound,
    save_signal_csv,
    smooth_max,
    smooth_min,
)
from .gradient import (
    RobustnessGradient,
    eval_with_gradient,
    finite_difference_gradient,
    grad_smooth_max,
    grad_smooth_min,
    load_gradient_csv,
    save_gradient_csv,
)
from .dynamics import (
    RolloutDivergence,
    SystemModel,
    builtin_model,
    differential_drive,
    load_controls_csv,
    rollout,
    rollout_with_sensitivities,
    save_controls_csv,
    single_integrator_2d,
)
from .optimizer import (
    SynthesisFailure,
    SynthesisProblem,
    SynthesisResult,
    k_continuation,
    objective,
    synthesize,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioConfig,
    ScenarioError,
    build_problem,
    builtin_scenario,
    load_scenario,
    run_bench,
    run_scaling,
    sample_x0,
    save_scenario,
)
from .svgplot import scene_svg

__version__ = "0.1.0"

# every name imported above except the submodules, and the version
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
) + ["__version__"]
