"""The package namespace is the library's API, and the README's example runs.

Exporting another name from `dclwe` means adding it to PUBLIC on purpose.
Internals stay importable from their own modules.
"""

import contextlib
import importlib
import io
import re
import types
from pathlib import Path

import dclwe

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    # errors
    "BoundTooLarge", "ConfigError", "DclweError", "DegenerateTest", "DuplicateInput",
    "EmptyResult", "InfeasibleParameters", "InvalidLength", "InvalidModulus",
    "InvariantViolation", "SingularMatrix", "ZeroInverse",
    # fq, instance, rng
    "DENSE_BYTES_LIMIT", "MODULUS_CEILING", "PrimeField",
    "GAUSSIAN", "UNIFORM", "ErrorDistribution", "LweInstance", "make_instance",
    "derive_rng",
    # oracle
    "FORM_DIVIDED", "FORM_FULL", "SCHEME_BUCKET", "SCHEME_PRIMITIVE", "BoundReport",
    "bound_report", "classical_baseline_solve", "exact_success_probability",
    "lower_bound_p", "prob_iii_bound", "qram_cost",
    # qsim: dense statevector, closed-form grid, factored sampler
    "TwoQuditState", "bv_kernel", "prepare_sample_state", "kernel_distribution",
    "sample_bv_outcomes", "sample_bv_stack",
    # reduce
    "ReducedBatch", "synth_reduced_batch",
    # solver
    "MODE_CONTROLLED", "MODE_ELIMINATION", "OUTCOME_FAILURE", "OUTCOME_SUCCESS",
    "OUTCOME_WRONG_ACCEPT", "CoordinateStats", "SolveOutcome", "SolveParameters",
    "choose_parameters", "solve",
    # verify
    "FalseAcceptBound", "false_accept_probability", "single_trial_pass_rate",
}

INTERNAL = {
    "fq": ("is_prime", "mat_inverse", "mat_inverse_stack", "mat_vec"),
    "instance": (
        "Sample", "draw_samples", "gen_samples", "gen_secret", "sample_error",
        "sample_errors", "samples_to_arrays",
    ),
    "oracle": ("coordinate_law",),
    "qsim": (
        "BLOCK_TABLES", "NORM_TOL", "PAIR_BYTES", "MeasurementOutcome", "atom_mass",
        "check_block_size", "extract_candidate", "qft_matrix", "root_table", "sample_bv_outcome",
        "transform_rows",
    ),
    "reduce": (
        "ReducedPair", "check_rows", "eliminate_row",
        "elimination_batch", "inverse_row_draws", "kappa_observed", "make_test_sample",
        "offset_law",
    ),
    "solver": (
        "MODE_BASELINE", "amplified_law", "classify", "controlled_pass", "gated_pass",
        "row_law",
    ),
    "verify": ("TestVerdict", "delta", "m_trial_test", "trial_pass_rates"),
}


def test_the_namespace_is_exactly_the_public_api():
    exported = {
        name for name, value in vars(dclwe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_internals_import_from_their_modules_only():
    for module_name, names in INTERNAL.items():
        module = importlib.import_module(f"dclwe.{module_name}")
        for name in names:
            assert hasattr(module, name), f"dclwe.{module_name}.{name}"
            assert not hasattr(dclwe, name), name


def test_the_readme_library_example_runs_as_written():
    library = README.read_text().split("## Library", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", library.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    outcome, quantum_samples = out.getvalue().split()
    assert outcome in (dclwe.OUTCOME_SUCCESS, dclwe.OUTCOME_FAILURE, dclwe.OUTCOME_WRONG_ACCEPT)
    assert int(quantum_samples) > 0
