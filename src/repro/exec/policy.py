"""Retry/timeout/backoff policy for the supervised executor.

The policy is plain data: how many attempts a task gets, how long one
attempt may run (scaled from the simulated duration — a 40 s point is
allowed more wall clock than a 2 s one), and how retries back off.
Backoff *jitter* — the classic thundering-herd breaker — comes from a
``derive_key``-keyed stream addressed by (task key, attempt), so the
entire retry schedule of a sweep is a deterministic function of its
configs: two runs of the same sweep retry at the same offsets, and a
chaos test can reason about its own timing.

Knobs are overridable at the process boundary through the
``REPRO_EXEC`` environment variable, a comma-separated ``name=value``
spec mirroring ``REPRO_FAULTS``::

    REPRO_EXEC="max_attempts=2,timeout_base_s=30,backoff_base_s=0.01"
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.utils.rng import derive_key, rng_from_key

#: environment variable holding the policy override spec
ENV_VAR = "REPRO_EXEC"

#: each retry waits this many times longer than the one before
BACKOFF_MULTIPLIER = 2.0
#: relative jitter span: a delay is scaled by 1 + BACKOFF_JITTER * u
BACKOFF_JITTER = 0.5
#: consecutive worker-spawn failures before degrading to serial
MAX_SPAWN_FAILURES = 3


def parse_spec(spec: str, *, what: str, fields: set[str]) -> dict[str, float]:
    """Parse a ``name=value,name=value`` spec into floats, strictly.

    Shared by :class:`ExecPolicy` and :class:`~repro.exec.faults.
    FaultPlan`; unknown names and malformed values raise so a typo in
    CI configuration fails loudly instead of silently running with
    defaults.
    """
    out: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"malformed {what} entry {part!r}")
        if name not in fields:
            raise ValueError(
                f"unknown {what} field {name!r}; valid: {sorted(fields)}"
            )
        if name in out:
            raise ValueError(f"duplicate {what} field {name!r}")
        try:
            out[name] = float(raw.strip())
        except ValueError:
            raise ValueError(
                f"{what} field {name!r} has non-numeric value {raw!r}"
            ) from None
    return out


def _key_seed(key: bytes) -> int:
    """The integer seed a task key contributes to its derived streams.

    Empty keys (ad-hoc supervisor callers) degrade to seed 0; the run
    cache always passes the config's 32-byte content digest.
    """
    return int.from_bytes(key[:8], "big")


@dataclass(frozen=True)
class ExecPolicy:
    """How the supervisor retries, times out, and backs off."""

    #: supervised attempts per task (>= 1) before the in-process rescue
    max_attempts: int = 4
    #: per-attempt wall-clock budget: base + scale * config duration
    timeout_base_s: float = 60.0
    timeout_scale: float = 10.0
    #: first delay of the exponential backoff between a task's attempts
    backoff_base_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def timeout_for(self, duration_s: float) -> float:
        """One attempt's wall-clock budget for a point of this length."""
        return self.timeout_base_s + self.timeout_scale * duration_s

    def backoff_s(self, key: bytes, attempt: int) -> float:
        """Delay before retrying ``key`` after failed attempt ``attempt``.

        Exponential in the attempt number, jittered by a keyed uniform
        draw so concurrent retries spread out — deterministically,
        because the stream is addressed by (task key, attempt) alone.
        """
        base = self.backoff_base_s * BACKOFF_MULTIPLIER ** (attempt - 1)
        stream = rng_from_key(
            derive_key(_key_seed(key), "exec/backoff", attempt)
        )
        return base * (1.0 + BACKOFF_JITTER * float(stream.random()))

    @classmethod
    def from_spec(cls, spec: str) -> "ExecPolicy":
        """A policy from a ``name=value,...`` spec over the defaults."""
        fields = {f.name for f in dataclasses.fields(cls)}
        values = parse_spec(spec, what="REPRO_EXEC", fields=fields)
        if "max_attempts" in values:
            if not values["max_attempts"].is_integer():
                raise ValueError(
                    "REPRO_EXEC field 'max_attempts' must be an integer, "
                    f"got {values['max_attempts']!r}"
                )
            values["max_attempts"] = int(values["max_attempts"])  # type: ignore[assignment]
        return cls(**values)  # type: ignore[arg-type]

    @classmethod
    def from_env(cls) -> "ExecPolicy":
        """The policy selected by ``REPRO_EXEC`` (defaults when unset)."""
        spec = os.environ.get(ENV_VAR, "")
        return cls.from_spec(spec) if spec else cls()
