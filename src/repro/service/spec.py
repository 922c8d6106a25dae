"""Request-body parsing: JSON in, validated :class:`Scenario` out.

``POST /scenario`` accepts two shapes:

* the full declarative form — ``{"scenario": Scenario.to_dict()}``
  (or that payload directly at the top level, recognized by its
  ``schema`` tag), which is what :class:`repro.service.client.ServiceClient`
  sends;
* a CLI-style shorthand mirroring ``repro run`` flags::

      {"workload": "fft", "state": "PC4-MB8", "dram_ns": 63,
       "scale": 0.3, "seed": 2016}

Both funnel into one :class:`~repro.scenario.Scenario`, eagerly
validated against the registries, so a bad spec fails here with a
:class:`~repro.errors.ConfigurationError` (the server's 400) instead
of inside the queue consumer's batch, where it would abort innocent
co-batched requests.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigurationError, ReproError
from repro.scenario import (
    WORKLOADS,
    Scenario,
    interconnect_key,
    resolve_dram,
)


def _build(builder, what: str) -> Scenario:
    """Run a scenario constructor, normalizing failures to 400s.

    ``Scenario.from_dict``/``__post_init__`` raise plain
    ``TypeError``/``ValueError``/... for wrong-typed fields (e.g.
    ``max_cycles: "lots"``); from a request body those are malformed
    specs, not server faults.
    """
    try:
        return builder()
    except ReproError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ConfigurationError(f"bad {what}: {exc}") from exc

#: Shorthand keys, mirroring the ``repro run`` flags.
_SHORTHAND_KEYS = frozenset(
    {
        "workload",
        "interconnect",
        "state",
        "power_state",
        "dram",
        "dram_ns",
        "scale",
        "seed",
        "engine_mode",
        "max_cycles",
    }
)


def validate_scenario(scenario: Scenario) -> Scenario:
    """Resolve every registry reference of ``scenario`` eagerly.

    :class:`Scenario` defers registry lookups to build time; a service
    must reject unknown workloads/interconnects/states at request time.
    """
    if scenario.workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown workload {scenario.workload!r}; choose from "
            f"{sorted(WORKLOADS)}"
        )
    interconnect_key(scenario.interconnect)
    scenario.resolved_power_state()
    scenario.resolved_dram()
    if scenario.engine_mode not in ("auto", "fast", "legacy"):
        # The engine would reject this at run time — deep inside the
        # batch, as a 500 that also aborts co-batched cells.
        raise ConfigurationError(
            f"engine_mode must be 'auto', 'fast' or 'legacy', "
            f"got {scenario.engine_mode!r}"
        )
    return scenario


def scenario_from_request(body: object) -> Scenario:
    """Parse one ``POST /scenario`` body into a validated scenario.

    Raises :class:`~repro.errors.ConfigurationError` (or
    :class:`~repro.errors.PowerStateError`) for anything malformed —
    the server maps those to HTTP 400.
    """
    if not isinstance(body, Mapping):
        raise ConfigurationError(
            "request body must be a JSON object (a scenario spec)"
        )
    if "scenario" in body:
        extras = set(body) - {"scenario"}
        if extras:
            # Mixing shorthand keys into the full-spec form would be
            # silently ignored — the caller would get an answer for a
            # different scenario than they thought they asked for.
            raise ConfigurationError(
                f"unexpected keys {sorted(extras)} next to 'scenario'; "
                f"put every field inside the spec"
            )
        spec = body["scenario"]
        if not isinstance(spec, Mapping):
            raise ConfigurationError(
                "'scenario' must be a Scenario.to_dict() object"
            )
        return _build(
            lambda: validate_scenario(Scenario.from_dict(spec)),
            "scenario spec",
        )
    if "schema" in body:  # a bare Scenario.to_dict() at the top level
        return _build(
            lambda: validate_scenario(Scenario.from_dict(body)),
            "scenario spec",
        )

    unknown = set(body) - _SHORTHAND_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown scenario keys {sorted(unknown)}; accepted: "
            f"{sorted(_SHORTHAND_KEYS)} or a full 'scenario' spec"
        )
    if "workload" not in body:
        raise ConfigurationError("scenario spec needs a 'workload'")
    if "state" in body and "power_state" in body:
        raise ConfigurationError("give 'state' or 'power_state', not both")
    if "dram" in body and "dram_ns" in body:
        raise ConfigurationError("give 'dram' or 'dram_ns', not both")

    kwargs: dict = {"workload": str(body["workload"])}
    if "interconnect" in body:
        kwargs["interconnect"] = str(body["interconnect"])
    state = body.get("state", body.get("power_state"))
    if state is not None:
        if not isinstance(state, str):
            raise ConfigurationError(
                f"power state must be a name string, got {state!r}"
            )
        kwargs["power_state"] = state
    dram = body.get("dram", body.get("dram_ns"))
    if dram is not None:
        if not isinstance(dram, (str, int, float)) or isinstance(dram, bool):
            raise ConfigurationError(
                f"DRAM spec must be a preset name or latency in ns, "
                f"got {dram!r}"
            )
        kwargs["dram"] = resolve_dram(dram)
    for key, coerce in (("scale", float), ("seed", int), ("max_cycles", int)):
        if key not in body:
            continue
        value = body[key]
        if isinstance(value, bool):  # bool passes float()/int() silently
            raise ConfigurationError(f"{key!r} needs a number, got {value!r}")
        try:
            kwargs[key] = coerce(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad {key!r}: {exc}") from exc
    if "engine_mode" in body:
        kwargs["engine_mode"] = body["engine_mode"]  # validated below
    return _build(
        lambda: validate_scenario(Scenario(**kwargs)), "scenario spec"
    )
