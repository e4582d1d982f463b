"""Outside-in tracing of dclwe's layers for the benchmark's traced run.

The tracer wraps, from outside the package, the names through which one
layer calls another. A module-level function is replaced in every dclwe
namespace that holds it, so `from .fq import mat_inverse` call sites see
the wrapper; a method is replaced on its class. Each wrapper records a
span: its call count, its inclusive time and its self time, which is the
inclusive time minus the time of wrapped calls beneath it. A layer's self
time is the sum over its spans. `restore` puts every original back.
"""

from __future__ import annotations

import statistics
import sys
import time

LAYERS = ("fq", "instance", "reduce", "qsim", "verify", "solver", "oracle")

# (attribute path under dclwe, span name): the names on the solve paths
# through which one layer calls another. The layer is the span name's
# first part. ReducedBatch.__init__ runs the generated field assignment and
# __post_init__'s validation, so its span is the batch validation.
TARGETS = (
    ("fq.PrimeField.__init__", "fq.PrimeField"),
    ("fq.PrimeField.inv", "fq.PrimeField.inv"),
    ("fq.PrimeField.centered", "fq.PrimeField.centered"),
    ("fq.PrimeField.centered_array", "fq.PrimeField.centered_array"),
    ("fq.mat_inverse", "fq.mat_inverse"),
    ("fq.mat_vec", "fq.mat_vec"),
    ("instance.make_instance", "instance.make_instance"),
    ("instance.sample_error", "instance.sample_error"),
    ("instance.sample_errors", "instance.sample_errors"),
    ("instance.gen_samples", "instance.gen_samples"),
    ("instance.samples_to_arrays", "instance.samples_to_arrays"),
    ("reduce.ReducedBatch.__init__", "reduce.batch_validate"),
    ("reduce.synth_reduced_batch", "reduce.synth_reduced_batch"),
    ("reduce.elimination_batch", "reduce.elimination_batch"),
    ("reduce.make_test_sample", "reduce.make_test_sample"),
    ("qsim.sample_bv_outcome", "qsim.sample_bv_outcome"),
    ("qsim.extract_candidate", "qsim.extract_candidate"),
    ("verify.m_trial_test", "verify.m_trial_test"),
    ("solver.solve", "solver.solve"),
    ("oracle.classical_baseline_solve", "oracle.classical_baseline_solve"),
)

# m_trial_test calls back into a test-pair source its caller built; that
# time belongs to the caller's layer, not to verify.
CALLBACK_ARGS = {"verify.m_trial_test": (3, "test_source")}

BATCH_BUILDERS = ("reduce.synth_reduced_batch", "reduce.elimination_batch")

US_PER_CALL = (
    "qsim.sample_bv_outcome",
    "qsim.extract_candidate",
    "reduce.synth_reduced_batch",
    "reduce.batch_validate",
    "reduce.elimination_batch",
    "reduce.make_test_sample",
    "fq.mat_inverse",
    "fq.PrimeField",
    "instance.sample_errors",
    "instance.sample_error",
    "instance.make_instance",
    "verify.m_trial_test",
)
CALLS_PER_SOLVE = ("fq.mat_inverse", "fq.PrimeField", "instance.sample_error")


def ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span recorder over the loaded dclwe modules; install, run, restore."""

    def __init__(self, dclwe):
        self._modules = [m for k, m in sys.modules.items() if k == "dclwe" or k.startswith("dclwe.")]
        self._kappa_observed = dclwe.reduce.kappa_observed
        self._patches = []  # (owner, attribute, original)
        self._stack = []  # one [layer, seconds in wrapped children] per open span
        self.spans = {}  # name -> [calls, inclusive s, self s]
        self.samples_generated = 0
        self.kappas = []
        self.trials = 0
        self.accepted = 0

    def install(self) -> None:
        for path, name in TARGETS:
            module_name, attr_path = path.split(".", 1)
            module = sys.modules["dclwe." + module_name]
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._span(name, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._span(name, original)
            for mod in self._modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Names in dclwe's modules or classes still bound to a span wrapper."""
        found = []
        for mod in self._modules:
            for key, value in vars(mod).items():
                if hasattr(value, "_bench_span"):
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if hasattr(member, "_bench_span"):
                            found.append(f"{mod.__name__}.{key}.{attr}")
        return found

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn):
        layer = name.split(".", 1)[0]
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        callback = CALLBACK_ARGS.get(name)
        observe = self._observer(name)

        def span(*args, **kwargs):
            if callback is not None:
                args, kwargs = self._wrap_callback(args, kwargs, *callback)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if observe is not None:
                observe(result)
            return result

        span._bench_span = name
        span.__wrapped__ = fn
        return span

    def _wrap_callback(self, args, kwargs, index, key):
        caller = self._stack[-1][0] if self._stack else "bench"
        name = f"{caller}.{key}"
        if key in kwargs:
            kwargs = dict(kwargs, **{key: self._span(name, kwargs[key])})
        elif len(args) > index:
            args = args[:index] + (self._span(name, args[index]),) + args[index + 1 :]
        return args, kwargs

    def _observer(self, name):
        if name == "instance.gen_samples":

            def observe(result):
                self.samples_generated += len(result)

        elif name in BATCH_BUILDERS:

            def observe(result):
                self.kappas.append(self._kappa_observed(result))

        elif name == "verify.m_trial_test":

            def observe(result):
                self.trials += result.trials_used
                self.accepted += result.accepted

        else:
            return None
        return observe

    def metrics(self, solves: int) -> dict[str, float]:
        """Per-layer figures over `solves` traced solves."""

        def spans(name):
            return self.spans.get(name, (0, 0.0, 0.0))

        self_s = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, own) in self.spans.items():
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
        total = sum(self_s.values())
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_solve"] = ratio(self_s[layer] * 1e3, solves)
            out[f"{layer}.self_share"] = ratio(self_s[layer], total)
        for name in US_PER_CALL:
            calls, incl, _ = spans(name)
            out[f"{name}.us_per_call"] = ratio(incl * 1e6, calls)
        for name in CALLS_PER_SOLVE:
            out[f"{name}.calls_per_solve"] = ratio(spans(name)[0], solves)
        out["instance.gen_samples.samples_per_solve"] = ratio(self.samples_generated, solves)
        out["instance.gen_samples.us_per_sample"] = ratio(
            spans("instance.gen_samples")[1] * 1e6, self.samples_generated
        )
        out["reduce.kappa_observed.p50"] = float(statistics.median(self.kappas)) if self.kappas else 0.0
        tests = spans("verify.m_trial_test")[0]
        out["verify.trials_per_candidate"] = ratio(self.trials, tests)
        out["verify.accept_frac"] = ratio(self.accepted, tests)
        out["oracle.classical_baseline_solve.self_ms_per_solve"] = ratio(
            spans("oracle.classical_baseline_solve")[2] * 1e3, solves
        )
        return out
