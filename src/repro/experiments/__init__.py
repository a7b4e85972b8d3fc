"""Declarative experiment orchestration: the repo's measurement pipeline.

Every number the repo reports — an upper-bound certificate-size series, a
lower-bound Ω(·) series, a radius-ablation check — is produced by running a
declarative *spec* and lands in the same JSON artifact shape:

* :class:`~repro.experiments.spec.ExperimentSpec` is the shared backbone
  (size grid, per-point derived seeds, ``shard=(i, k)`` execution, JSON
  round-trip with kind dispatch);
* :class:`~repro.experiments.spec.SweepSpec` + :func:`~repro.experiments.
  runner.run_sweep` measure a certificate-size series of one registered
  scheme over one graph family on the compile-once engine, fanning out
  across ``multiprocessing`` workers;
* :class:`~repro.experiments.formula.FormulaSpec` +
  :func:`~repro.experiments.formula.run_formula` measure the same series
  for an ad-hoc MSO formula compiled on the fly instead of a registered
  scheme;
* :class:`~repro.experiments.lower_bound.LowerBoundSpec` +
  :func:`~repro.experiments.lower_bound.run_lower_bound` run a Section 7.1
  reduction-framework search (bound series, gadget dichotomy, Alice/Bob
  protocol simulation);
* :class:`~repro.experiments.radius.RadiusSpec` +
  :func:`~repro.experiments.radius.run_radius` run the Appendix A.1
  radius-r verification series;
* :class:`~repro.experiments.kernel.KernelSpec` +
  :func:`~repro.experiments.kernel.run_kernel` run a Section 6 kernel-size
  series (Proposition 6.2 saturation, optional EF-game equivalence);
* :func:`run_experiment` runs a sweep, formula, lower-bound or radius spec
  through the runner of its kind (the service's one experiment path);
* :mod:`~repro.experiments.artifacts` serialises results (with both the
  closed-form :class:`BoundCheck` verdict and the fitted regression
  exponent of :mod:`~repro.experiments.bounds`) and merges sharded partial
  artifacts (:func:`merge_artifacts`);
* :mod:`~repro.experiments.results` aggregates artifacts into
  ``EXPERIMENTS.md`` tables and gates them against a committed baseline.

Example::

    from repro.experiments import SweepSpec, run_sweep, write_artifact

    spec = SweepSpec(scheme="treedepth", params={"t": 3},
                     family="bounded-treedepth", sizes=(3, 3, 3), trials=10)
    result = run_sweep(spec)
    print(result.series, result.bound.ok, result.fit)
    write_artifact(result, "sweep_treedepth.json")

Sharded execution (e.g. across two machines)::

    part0 = run_sweep(spec, shard=(0, 2))
    part1 = run_sweep(spec, shard=(1, 2))
    assert merge_artifacts([part0, part1]).series == result.series
"""

from typing import Any, Callable, Optional

from repro.experiments.artifacts import (
    BoundCheck,
    ExperimentResult,
    SweepPoint,
    SweepResult,
    canonical_payload,
    check_series_bound,
    load_artifact,
    merge_artifacts,
    result_from_payload,
    write_artifact,
)
from repro.experiments.bounds import FittedBound, fit_series
from repro.experiments.formula import (
    FormulaPoint,
    FormulaResult,
    FormulaSpec,
    run_formula,
    run_formula_point,
)
from repro.experiments.kernel import (
    KernelPoint,
    KernelResult,
    KernelSpec,
    run_kernel,
    run_kernel_point,
)
from repro.experiments.lower_bound import (
    LowerBoundPoint,
    LowerBoundResult,
    LowerBoundSpec,
    run_lower_bound,
    run_lower_bound_point,
)
from repro.experiments.radius import RadiusPoint, RadiusResult, RadiusSpec, run_radius
from repro.experiments.results import (
    BaselineReport,
    Regression,
    collect_artifacts,
    compare_to_baseline,
    render_experiments_md,
    write_baseline,
)
from repro.experiments.runner import run_point, run_sweep
from repro.experiments.spec import (
    ExperimentCancelled,
    ExperimentSpec,
    SweepSpec,
    raise_if_stopped,
)


def run_experiment(
    spec: ExperimentSpec,
    should_stop: Optional[Callable[[], Any]] = None,
    on_point: Optional[Callable[[Any], None]] = None,
) -> ExperimentResult:
    """Run a sweep, formula, lower-bound or radius spec through its kind's runner.

    ``should_stop``/``on_point`` are the runners' cooperative stop-check and
    per-point progress callback.  The runners are looked up by their module
    names on every call, never captured in a table at import time, so a
    runner rebound on this module (a tracing wrapper, say) is the one that
    runs.  Kernel specs take no stop-check and are not dispatched here.
    """
    runner = {
        "sweep": run_sweep,
        "formula": run_formula,
        "lower-bound": run_lower_bound,
        "radius": run_radius,
    }[spec.kind]
    return runner(spec, should_stop=should_stop, on_point=on_point)


__all__ = [
    "BaselineReport",
    "BoundCheck",
    "ExperimentCancelled",
    "ExperimentResult",
    "ExperimentSpec",
    "FittedBound",
    "FormulaPoint",
    "FormulaResult",
    "FormulaSpec",
    "KernelPoint",
    "KernelResult",
    "KernelSpec",
    "LowerBoundPoint",
    "LowerBoundResult",
    "LowerBoundSpec",
    "RadiusPoint",
    "RadiusResult",
    "RadiusSpec",
    "Regression",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "canonical_payload",
    "check_series_bound",
    "collect_artifacts",
    "compare_to_baseline",
    "fit_series",
    "load_artifact",
    "merge_artifacts",
    "raise_if_stopped",
    "render_experiments_md",
    "result_from_payload",
    "run_experiment",
    "run_formula",
    "run_formula_point",
    "run_kernel",
    "run_kernel_point",
    "run_lower_bound",
    "run_lower_bound_point",
    "run_point",
    "run_radius",
    "run_sweep",
    "write_artifact",
    "write_baseline",
]
