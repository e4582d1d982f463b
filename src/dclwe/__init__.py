"""Divide-and-conquer LWE: classical simulation and analysis toolkit.

The package splits an n-dimensional learning-with-errors instance into
single-coordinate subproblems by modular elimination, simulates the
transform kernel that reads a coordinate off a batch of reduced pairs,
verifies candidates with repeated residual tests, and checks every
probability claim against closed-form oracles.

The names exported here are the library's API. Everything else, such as
the array passes and the one-row forms, imports from its own module.
"""

from .errors import (
    BoundTooLarge,
    ConfigError,
    DclweError,
    DegenerateTest,
    DuplicateInput,
    EmptyResult,
    InfeasibleParameters,
    InvalidLength,
    InvalidModulus,
    InvariantViolation,
    SingularMatrix,
    ZeroInverse,
)
from .fq import (
    DENSE_BYTES_LIMIT,
    MODULUS_CEILING,
    PrimeField,
)
from .instance import (
    GAUSSIAN,
    UNIFORM,
    ErrorDistribution,
    LweInstance,
    make_instance,
)
from .oracle import (
    FORM_DIVIDED,
    FORM_FULL,
    SCHEME_BUCKET,
    SCHEME_PRIMITIVE,
    BoundReport,
    bound_report,
    classical_baseline_solve,
    exact_success_probability,
    lower_bound_p,
    prob_iii_bound,
    qram_cost,
)
from .qsim import (
    TwoQuditState,
    bv_kernel,
    kernel_distribution,
    prepare_sample_state,
    sample_bv_outcomes,
    sample_bv_stack,
)
from .reduce import (
    ReducedBatch,
    synth_reduced_batch,
)
from .rng import derive_rng
from .solver import (
    MODE_CONTROLLED,
    MODE_ELIMINATION,
    OUTCOME_FAILURE,
    OUTCOME_SUCCESS,
    OUTCOME_WRONG_ACCEPT,
    CoordinateStats,
    SolveOutcome,
    SolveParameters,
    choose_parameters,
    solve,
)
from .verify import (
    FalseAcceptBound,
    false_accept_probability,
    single_trial_pass_rate,
)

__version__ = "0.1.0"
