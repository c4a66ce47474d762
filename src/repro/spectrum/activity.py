"""Per-subframe activity processes for interfering (hidden) terminals.

The blueprint model of the paper treats each hidden terminal ``k`` as an
independent stochastic source that occupies the medium with stationary
probability ``q(k)`` in any given subframe.  Three concrete processes are
provided:

* :class:`BernoulliActivity` — i.i.d. occupancy, the paper's analytic model.
* :class:`MarkovOnOffActivity` — bursty on/off occupancy with geometric
  sojourn times; same stationary marginal, realistic temporal correlation
  (WiFi frame bursts span multiple LTE subframes).
* :class:`TraceActivity` — replay of a recorded busy/idle trace, used by the
  trace-combination emulation layer.

All processes are independent across terminals, matching the paper's
assumption that distinct hidden terminals are independent sources.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ActivityProcess",
    "BernoulliActivity",
    "ChannelizedActivitySet",
    "DynamicIndependentActivity",
    "ExclusiveGroupActivity",
    "IndependentActivity",
    "JointActivityModel",
    "MarkovOnOffActivity",
    "TraceActivity",
]


class ActivityProcess:
    """Interface: one busy/idle sample per subframe."""

    def step(self) -> bool:
        """Advance one subframe; return True if the terminal is busy."""
        raise NotImplementedError

    def sample_block(self, n: int) -> np.ndarray:
        """Advance ``n`` subframes at once; return the busy samples.

        Produces exactly the sequence ``n`` successive :meth:`step` calls
        would, consuming the process RNG identically, so batched and
        per-subframe stepping are interchangeable under a fixed seed.
        Subclasses override this with a vectorized draw where possible.
        """
        return np.fromiter(
            (self.step() for _ in range(n)), dtype=bool, count=n
        )

    @property
    def stationary_probability(self) -> float:
        """Long-run fraction of busy subframes, ``q(k)``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return the process to its initial state (traces rewind)."""


class BernoulliActivity(ActivityProcess):
    """Independent busy/idle coin flips with probability ``q`` per subframe."""

    def __init__(self, q: float, rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"activity probability out of [0,1]: {q}")
        self.q = float(q)
        self._rng = rng if rng is not None else np.random.default_rng()

    def step(self) -> bool:
        return bool(self._rng.random() < self.q)

    def sample_block(self, n: int) -> np.ndarray:
        # Generator.random(n) consumes the stream exactly like n scalar
        # draws, so this matches n step() calls bit for bit.
        return self._rng.random(n) < self.q

    def retune(self, q: float) -> None:
        """Change the busy probability in place (duty-cycle drift).

        The RNG stream is untouched: the same uniform draws are simply
        compared against the new threshold from the next subframe on.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"activity probability out of [0,1]: {q}")
        self.q = float(q)

    @property
    def stationary_probability(self) -> float:
        return self.q

    def __repr__(self) -> str:  # pragma: no cover
        return f"BernoulliActivity(q={self.q:.3f})"


class MarkovOnOffActivity(ActivityProcess):
    """Two-state Markov busy/idle process.

    Parameterized by the stationary busy probability ``q`` and the mean busy
    burst length in subframes.  Sojourn times are geometric; the stationary
    marginal equals ``q`` exactly, so pair-wise access estimation converges
    to the same values as with :class:`BernoulliActivity`, just more slowly.
    """

    def __init__(
        self,
        q: float,
        mean_busy_subframes: float = 3.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(
                f"Markov activity needs q strictly inside (0,1): {q}"
            )
        if mean_busy_subframes < 1.0:
            raise ConfigurationError(
                f"mean busy burst must be >= 1 subframe: {mean_busy_subframes}"
            )
        self.q = float(q)
        self.mean_busy = float(mean_busy_subframes)
        # Leave-busy probability from the mean sojourn; leave-idle from the
        # stationarity balance  q * p_leave_busy = (1-q) * p_leave_idle.
        self._p_busy_to_idle = 1.0 / self.mean_busy
        self._p_idle_to_busy = self.q * self._p_busy_to_idle / (1.0 - self.q)
        if self._p_idle_to_busy > 1.0:
            raise ConfigurationError(
                f"q={q} with mean busy burst {mean_busy_subframes} is "
                "unreachable (idle->busy probability would exceed 1)"
            )
        self._rng = rng if rng is not None else np.random.default_rng()
        self._busy = bool(self._rng.random() < self.q)

    def step(self) -> bool:
        if self._busy:
            if self._rng.random() < self._p_busy_to_idle:
                self._busy = False
        else:
            if self._rng.random() < self._p_idle_to_busy:
                self._busy = True
        return self._busy

    def sample_block(self, n: int) -> np.ndarray:
        # The chain draws exactly one uniform per subframe in either state,
        # so pre-drawing the block keeps the stream identical to stepping.
        draws = self._rng.random(n)
        out = np.empty(n, dtype=bool)
        busy = self._busy
        p_bi = self._p_busy_to_idle
        p_ib = self._p_idle_to_busy
        for t, u in enumerate(draws):
            if busy:
                if u < p_bi:
                    busy = False
            elif u < p_ib:
                busy = True
            out[t] = busy
        self._busy = busy
        return out

    def retune(self, q: float) -> None:
        """Change the stationary busy probability in place (duty-cycle
        drift).  The mean busy burst length is kept; the chain's current
        state and RNG stream are untouched, so the new marginal phases in
        over the following sojourns."""
        if not 0.0 < q < 1.0:
            raise ConfigurationError(
                f"Markov activity needs q strictly inside (0,1): {q}"
            )
        p_idle_to_busy = q * self._p_busy_to_idle / (1.0 - q)
        if p_idle_to_busy > 1.0:
            raise ConfigurationError(
                f"q={q} with mean busy burst {self.mean_busy} is "
                "unreachable (idle->busy probability would exceed 1)"
            )
        self.q = float(q)
        self._p_idle_to_busy = p_idle_to_busy

    @property
    def stationary_probability(self) -> float:
        return self.q

    def reset(self) -> None:
        self._busy = bool(self._rng.random() < self.q)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MarkovOnOffActivity(q={self.q:.3f}, "
            f"mean_busy={self.mean_busy:.1f} sf)"
        )


class TraceActivity(ActivityProcess):
    """Replay a recorded busy/idle sequence, wrapping around at the end."""

    def __init__(self, samples: Sequence[bool]) -> None:
        if len(samples) == 0:
            raise ConfigurationError("activity trace is empty")
        self._samples = np.asarray(samples, dtype=bool)
        self._cursor = 0

    def step(self) -> bool:
        sample = bool(self._samples[self._cursor])
        self._cursor = (self._cursor + 1) % len(self._samples)
        return sample

    def sample_block(self, n: int) -> np.ndarray:
        indices = (self._cursor + np.arange(n)) % len(self._samples)
        self._cursor = int((self._cursor + n) % len(self._samples))
        return self._samples[indices]

    @property
    def stationary_probability(self) -> float:
        return float(self._samples.mean())

    def reset(self) -> None:
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TraceActivity(len={len(self._samples)}, "
            f"q={self.stationary_probability:.3f})"
        )


class JointActivityModel:
    """Joint busy/idle sampling across a whole set of hidden terminals.

    The per-terminal :class:`ActivityProcess` abstraction assumes
    independence.  Real hidden terminals are WiFi nodes that often
    carrier-sense *each other*: mutually audible terminals share airtime and
    are busy at complementary times.  That anti-correlation is the
    "interference diversity" BLU exploits — clients silenced by contending
    terminals are almost never silenced together.  A joint model samples the
    full active set per subframe so such coupling can be expressed.
    """

    num_terminals: int = 0

    def step(self) -> FrozenSet[int]:
        """Advance one subframe; return the indices of busy terminals."""
        raise NotImplementedError

    def step_vector(self) -> np.ndarray:
        """Advance one subframe; return the busy mask as a boolean vector.

        The default adapts :meth:`step`; models with a native vectorized
        sampler (see :class:`IndependentActivity`) override it.  A model
        instance must be driven through one interface or the other, not a
        mix — both consume the same randomness, but implementations may
        pre-draw blocks.
        """
        mask = np.zeros(self.num_terminals, dtype=bool)
        active = self.step()
        if active:
            mask[list(active)] = True
        return mask

    def marginal(self, index: int) -> float:
        """Stationary busy probability of one terminal."""
        raise NotImplementedError


class IndependentActivity(JointActivityModel):
    """Adapter: a list of independent per-terminal processes.

    :meth:`step_vector` batches the per-terminal draws: each process
    pre-samples a block of subframes from its own RNG (stream-identical to
    per-subframe stepping), and one row of the block is served per call.
    """

    _BLOCK_SUBFRAMES = 512

    def __init__(self, processes: Sequence[ActivityProcess]) -> None:
        self._processes = list(processes)
        self.num_terminals = len(self._processes)
        self._block: Optional[np.ndarray] = None
        self._cursor = 0

    def step(self) -> FrozenSet[int]:
        return frozenset(
            k for k, process in enumerate(self._processes) if process.step()
        )

    def step_vector(self) -> np.ndarray:
        if self.num_terminals == 0:
            return np.zeros(0, dtype=bool)
        if self._block is None or self._cursor >= len(self._block):
            n = self._BLOCK_SUBFRAMES
            self._block = np.column_stack(
                [process.sample_block(n) for process in self._processes]
            )
            self._cursor = 0
        row = self._block[self._cursor]
        self._cursor += 1
        return row

    def marginal(self, index: int) -> float:
        return self._processes[index].stationary_probability


class DynamicIndependentActivity(JointActivityModel):
    """Independent per-terminal processes whose population can change.

    The churn timeline needs to add and remove hidden terminals and re-tune
    duty cycles *mid-run*.  :class:`IndependentActivity` pre-draws blocks of
    samples for speed, which would bake pre-churn parameters into already
    materialized booleans; this variant steps every process one subframe at
    a time instead, so a mutation takes effect on the very next subframe and
    the vector (:meth:`step_vector`) and per-process (:meth:`step`) views
    consume identical per-process RNG streams (the dynamics bit-exactness
    smoke relies on this).
    """

    def __init__(self, processes: Sequence[ActivityProcess]) -> None:
        self._processes = list(processes)
        self.num_terminals = len(self._processes)

    def step(self) -> FrozenSet[int]:
        return frozenset(
            k for k, process in enumerate(self._processes) if process.step()
        )

    def step_vector(self) -> np.ndarray:
        mask = np.zeros(self.num_terminals, dtype=bool)
        for k, process in enumerate(self._processes):
            if process.step():
                mask[k] = True
        return mask

    def marginal(self, index: int) -> float:
        return self._processes[index].stationary_probability

    # -- churn mutations ---------------------------------------------------

    def add_process(self, process: ActivityProcess) -> int:
        """Append a terminal's process (hidden-node arrival); returns index."""
        self._processes.append(process)
        self.num_terminals = len(self._processes)
        return self.num_terminals - 1

    def remove_process(self, index: int) -> None:
        """Remove a terminal's process (hidden-node departure)."""
        if not 0 <= index < self.num_terminals:
            raise ConfigurationError(f"unknown terminal index {index}")
        del self._processes[index]
        self.num_terminals = len(self._processes)

    def retune(self, index: int, q: float) -> None:
        """Change one terminal's busy probability (duty-cycle drift)."""
        if not 0 <= index < self.num_terminals:
            raise ConfigurationError(f"unknown terminal index {index}")
        process = self._processes[index]
        retune = getattr(process, "retune", None)
        if retune is None:
            raise ConfigurationError(
                f"{type(process).__name__} does not support duty-cycle drift"
            )
        retune(q)


class ExclusiveGroupActivity(JointActivityModel):
    """Contending hidden terminals: groups share airtime exclusively.

    ``groups`` partitions (a subset of) the terminal indices into CSMA
    neighbourhoods.  Each subframe, at most one member of a group is busy:
    member ``k`` with probability ``q_k`` (its exact stationary marginal),
    nobody with probability ``1 - sum(q_k)``.  Terminals not named in any
    group are independent Bernoulli sources.  Within-group busy indicators
    are therefore mutually exclusive — the saturated-CSMA limit of WiFi
    neighbours time-sharing a channel.
    """

    def __init__(
        self,
        marginals: Sequence[float],
        groups: Sequence[Sequence[int]],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._q = [float(q) for q in marginals]
        self.num_terminals = len(self._q)
        for q in self._q:
            if not 0.0 <= q < 1.0:
                raise ConfigurationError(f"marginal outside [0,1): {q}")
        seen: set = set()
        self._groups = []
        for group in groups:
            members = [int(k) for k in group]
            for k in members:
                if not 0 <= k < self.num_terminals:
                    raise ConfigurationError(f"unknown terminal index {k}")
                if k in seen:
                    raise ConfigurationError(
                        f"terminal {k} appears in more than one group"
                    )
                seen.add(k)
            total = sum(self._q[k] for k in members)
            if total >= 1.0 + 1e-9:
                raise ConfigurationError(
                    f"group {members} wants {total:.2f} > 1 total airtime; "
                    "exclusive sharing is infeasible"
                )
            self._groups.append(members)
        self._independent = [
            k for k in range(self.num_terminals) if k not in seen
        ]
        self._rng = rng if rng is not None else np.random.default_rng()

    @property
    def groups(self) -> List[List[int]]:
        return [list(g) for g in self._groups]

    def step(self) -> FrozenSet[int]:
        active = set()
        for members in self._groups:
            draw = self._rng.random()
            cumulative = 0.0
            for k in members:
                cumulative += self._q[k]
                if draw < cumulative:
                    active.add(k)
                    break
        for k in self._independent:
            if self._rng.random() < self._q[k]:
                active.add(k)
        return frozenset(active)

    def marginal(self, index: int) -> float:
        return self._q[index]


class ChannelizedActivitySet:
    """Per-channel view over one global population of activity processes.

    The processes belong to the whole band — a terminal transmitting on
    its home channel leaks into neighbours per the plan's ACLR mask — so
    per-channel "activity" is a *projection*, not a partition: terminal
    ``k`` counts as active on channel ``c`` when it is busy and its
    received margin survives ``aclr(c, home_k)``.  Stationary busy
    probabilities fold the same leakage, giving the effective per-channel
    busy probability a CCA sensor on that channel experiences.
    """

    def __init__(
        self,
        processes: Sequence[ActivityProcess],
        channels: Sequence[int],
        plan,
        margins_db: Optional[Sequence[float]] = None,
    ) -> None:
        if len(channels) != len(processes):
            raise ConfigurationError(
                f"{len(channels)} home channels for {len(processes)} "
                f"activity processes"
            )
        margins = (
            tuple(float(m) for m in margins_db)
            if margins_db is not None
            else (0.0,) * len(processes)
        )
        if len(margins) != len(processes):
            raise ConfigurationError(
                f"{len(margins)} margins for {len(processes)} processes"
            )
        self._processes = list(processes)
        self._channels = tuple(int(c) for c in channels)
        self._margins = margins
        self._plan = plan
        for channel in self._channels:
            plan._check_channel(channel)

    @property
    def num_terminals(self) -> int:
        return len(self._processes)

    def couples(self, index: int, channel: int) -> bool:
        """Whether terminal ``index`` is audible on ``channel`` at all."""
        return (
            self._plan.aclr_db(channel, self._channels[index])
            <= self._margins[index]
        )

    def step(self) -> Tuple[FrozenSet[int], ...]:
        """Advance every process once; return the active set per channel.

        One draw per terminal per subframe regardless of the channel
        count — the busy indicator is shared, only audibility differs.
        """
        busy = [k for k, p in enumerate(self._processes) if p.step()]
        return tuple(
            frozenset(k for k in busy if self.couples(k, channel))
            for channel in range(self._plan.num_channels)
        )

    def stationary_probability_on(self, channel: int) -> float:
        """Effective busy probability of ``channel`` with leakage folded."""
        idle = 1.0
        for k, process in enumerate(self._processes):
            if self.couples(k, channel):
                idle *= 1.0 - process.stationary_probability
        return 1.0 - idle

    def reset(self) -> None:
        for process in self._processes:
            process.reset()
