"""Divide-and-conquer LWE: classical simulation and analysis toolkit.

The package splits an n-dimensional learning-with-errors instance into
single-coordinate subproblems by modular elimination, simulates the
transform kernel that reads a coordinate off a batch of reduced pairs,
verifies candidates with repeated residual tests, and checks every
probability claim against closed-form oracles.
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
    is_prime,
    mat_inverse,
    mat_inverse_stack,
    mat_vec,
)
from .instance import (
    GAUSSIAN,
    UNIFORM,
    ErrorDistribution,
    LweInstance,
    Sample,
    draw_samples,
    gen_samples,
    gen_secret,
    make_instance,
    sample_error,
    sample_errors,
    samples_to_arrays,
)
from .oracle import (
    FORM_DIVIDED,
    FORM_FULL,
    SCHEME_BUCKET,
    SCHEME_PRIMITIVE,
    BoundReport,
    WrongAcceptBound,
    baseline_coordinate_rate,
    bound_report,
    classical_baseline_solve,
    exact_success_probability,
    lower_bound_p,
    prob_i_bound,
    prob_iii_bound,
    qram_cost,
    restricted_ridge_sum,
)
from .qsim import (
    NORM_TOL,
    MeasurementOutcome,
    TwoQuditState,
    bv_kernel,
    extract_candidate,
    extract_candidates,
    kernel_distribution,
    prepare_sample_state,
    qft_matrix,
    root_table,
    sample_bv_outcome,
    sample_bv_outcomes,
    sample_bv_stack,
)
from .reduce import (
    EliminationStack,
    ReducedBatch,
    ReducedPair,
    check_rows,
    eliminate_rows,
    elimination_batch,
    invertible_draws,
    kappa_observed,
    make_test_sample,
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
    classify,
    controlled_pass,
    controlled_refills,
    elimination_pass,
    elimination_refills,
    solve,
)
from .verify import (
    FalseAcceptBound,
    TestVerdict,
    delta,
    false_accept_probability,
    m_trial_test,
    single_trial_pass_rate,
)

__version__ = "0.1.0"
