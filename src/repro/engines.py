"""The shared engine vocabulary of the verification stack.

Every layer that lets a caller pick a verification engine — the harness
functions in :mod:`repro.core.scheme`, the experiment specs, the service's
wire messages and the CLI ``--engine`` flags — validates against the single
tuple defined here, so adding an engine (or reading an error message) never
requires hunting down per-module copies of the list.

The four concrete engines, in the order they were built:

* ``"legacy"``   — the reference :class:`~repro.network.simulator.NetworkSimulator`
  path: rebuild every view per assignment.  Slow, obviously correct; the
  semantics the other engines are pinned to.
* ``"compiled"`` — :class:`~repro.network.compiled.CompiledNetwork`: CSR
  topology compiled once, certificate bytes swapped per assignment, early
  exit within and across assignments.
* ``"delta"``    — :class:`~repro.network.compiled.DeltaSession`: persistent
  verdicts, one closed-neighbourhood re-verification per single-vertex
  change, for enumeration-shaped sweeps.
* ``"vector"``   — :class:`~repro.network.vector.VectorNetwork`: bit-parallel
  blocks, one lane per candidate assignment packed into machine words, whole
  blocks accepted/rejected columnwise per pass.

``"auto"`` (the default everywhere an engine is not pinned) is not a fifth
implementation: it defers the pick to the fixed cost model in
:mod:`repro.planner` at the point where the workload's shape is known.
:func:`resolve_engine` is that seam — every entry point that accepts
``engine=`` calls it with a :class:`~repro.planner.Workload` descriptor and
runs whichever concrete engine comes back.  Routing is a pure function of
the workload, so the ``engine=`` argument is the only way to change it.

This module and the planner are stdlib-only, so the service's message layer
can import the vocabulary without pulling in the engines themselves.
"""

from __future__ import annotations

from typing import Sequence

from repro.planner import PLANNER_PREFERENCE, Workload, choose_engine

#: The concrete engines, in build order.
CONCRETE_ENGINES = ("legacy", "compiled", "delta", "vector")

#: The planner-routed pseudo-engine (resolved per workload).
AUTO_ENGINE = "auto"

#: Every engine name accepted at the API surface.
VALID_ENGINES = CONCRETE_ENGINES + (AUTO_ENGINE,)

#: The engines the Alice/Bob protocol simulation implements (every engine
#: the planner can route to, plus ``"auto"``; not ``legacy``): the subset
#: lower-bound specs, requests and the ``lower-bound --engine`` flag accept.
PROTOCOL_ENGINES = PLANNER_PREFERENCE + (AUTO_ENGINE,)


def validate_engine(
    engine: str,
    allowed: Sequence[str] = VALID_ENGINES,
    context: str = "",
) -> str:
    """Validate an engine name against an allowed subset.

    Returns ``engine`` unchanged when it is allowed; raises ``ValueError``
    with a message enumerating the valid choices otherwise.  ``allowed``
    restricts entry points that only implement a subset (it must itself be a
    subset of :data:`VALID_ENGINES`), and ``context`` names the entry point
    in the error message.
    """
    if engine in allowed:
        return engine
    where = f" for {context}" if context else ""
    choices = ", ".join(repr(name) for name in VALID_ENGINES if name in allowed)
    raise ValueError(f"unknown engine {engine!r}{where}; use one of: {choices}")


def resolve_engine(engine: str, workload: Workload) -> str:
    """Resolve ``engine`` to a concrete engine name.

    A pinned concrete engine passes through (after validation); ``"auto"``
    asks the planner for the cheapest engine on ``workload``.
    """
    return choose_engine(workload) if engine == AUTO_ENGINE else validate_engine(engine)
