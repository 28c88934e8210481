"""Exhaustive state-space checking of the ALLCACHE coherence protocol.

The simulator's protocol is exercised by litmus tests and fuzzing, but
those only sample interleavings.  This module *enumerates*: it
BFS-explores every state the real
:class:`~repro.coherence.protocol.CoherenceProtocol` reaches on one
subpage of a tiny machine (2–4 cells), and verifies the paper's
correctness-critical invariants in each one.

The relation
------------
There is one protocol, so there is no second copy of its transitions
here.  :meth:`CoherenceModel.apply` replays the state's witness path
plus the action on a fresh KSR-1 (timer off, one subpage), each step
run to completion by :func:`repro.coherence.litmus.run_step` — the
stepping path the scenario oracle uses — with ``evict`` calling
:meth:`CoherenceProtocol.evict`, the method page replacement calls.
The machine is then abstracted back into a :data:`ModelState`.

The abstraction
---------------
A state is ``(created, ((copy_state, fresh), ...))`` — one entry per
cell.  ``created`` is the directory entry's flag, ``copy_state`` the
cell's local-cache :class:`SubpageState` (``None`` when the cell holds
no copy at all), and ``fresh`` whether the copy's data matches the
current memory value.  The simulator's word store is global, so
freshness follows one rule: a ``write`` or ``gsp`` by a cell that did
not already own the subpage makes every other held copy stale; a copy
that turns valid from absent or INVALID is fresh; a dropped copy is
fresh.  Timing is abstracted away: each action is one transition.

Successors are computed from one witness path per state, which is
sound only because the abstraction is a function of the path: every
path reaching a state gives every action the same successor
(``tests/analysis/test_modelcheck.py`` replays every schedule to a
bound to pin that).

Invariants verified in every reachable state
--------------------------------------------
1. at most one cell holds an EXCLUSIVE or ATOMIC copy;
2. the directory entry agrees with every cell's local cache
   (``Directory.state_in`` == the cell's copy state);
3. no valid (readable) copy is stale — a non-owner ``write`` or
   ``gsp`` left no other copy readable.  The freshness rule counts any
   copy that turns valid as fresh, so a snarfed place-holder is fresh
   by definition here; snarf safety (no snarf while an owner holds the
   subpage) is checked by ``tests/coherence/test_snarf.py::TestSnarfGuard``;
4. every reachable state can drain to quiescence (a path exists to a
   state with no ATOMIC holder — no cell can wedge the subpage lock).

Every per-cell change is also checked against
:func:`repro.coherence.states.legal_transition`; a ``gsp`` actor's
step reads as ``→ EXCLUSIVE → ATOMIC``, the fill-then-lock the
protocol performs in one call.  A mutated protocol (tests monkeypatch
one :class:`CoherenceProtocol` method) is caught by a violation here,
by the pinned state counts, or by a named check in
``tests/coherence``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.coherence.litmus import SCHEDULE_OPS, run_step, schedule_machine
from repro.coherence.states import SubpageState, legal_transition
from repro.errors import ConfigError, ProtocolError, ReproError, SimulationError
from repro.machine.ksr import KsrMachine
from repro.memory.address import subpage_of

__all__ = [
    "ACTIONS",
    "InvariantViolation",
    "CellCopy",
    "ModelState",
    "CoherenceModel",
    "ModelCheckResult",
    "ModelChecker",
]


class InvariantViolation(ReproError):
    """A protocol transition broke a checked invariant."""


#: One cell's view: (coherence state or ``None`` if absent, data fresh?)
CellCopy = tuple[Optional[SubpageState], bool]
#: Full abstract machine state: (subpage ever created?, per-cell copies).
ModelState = tuple[bool, tuple[CellCopy, ...]]

#: Action kinds: the program-visible schedule ops plus page replacement.
ACTIONS = SCHEDULE_OPS + ("evict",)

#: (action kind, acting cell id)
Action = tuple[str, int]

_OWNED = (SubpageState.EXCLUSIVE, SubpageState.ATOMIC)


def _owner(copies: tuple[CellCopy, ...]) -> Optional[int]:
    for c, (st, _fresh) in enumerate(copies):
        if st in _OWNED:
            return c
    return None


class CoherenceModel:
    """The real protocol's transition relation on one subpage.

    Successors (and violations) are memoized per instance, keyed by
    ``(state, action)``, and each state remembers the witness path that
    first produced it; a test that monkeypatches the protocol builds a
    fresh instance and so never reads a clean table.
    """

    def __init__(self, n_cells: int):
        if n_cells < 2:
            raise ConfigError("model checking needs at least 2 cells")
        self.n_cells = n_cells
        self._paths: dict[ModelState, tuple[Action, ...]] = {self.initial(): ()}
        self._successors: dict[tuple[ModelState, Action], Union[ModelState, ReproError]] = {}

    def initial(self) -> ModelState:
        """The pristine state: no directory entry, no cell holds a copy."""
        return (False, tuple((None, True) for _ in range(self.n_cells)))

    def enabled(self, state: ModelState) -> list[Action]:
        """Actions a program may issue with an observable effect.

        Identity transitions (local cache hits, re-locking an already
        atomic subpage) and blocked requests (another cell holds the
        subpage atomic — the hardware retries, so no state change) are
        omitted: they never change the reachable set.
        """
        _created, copies = state
        owner = _owner(copies)
        atomic = owner is not None and copies[owner][0] is SubpageState.ATOMIC
        actions: list[Action] = []
        for c, (st, _fresh) in enumerate(copies):
            blocked = atomic and owner != c
            if not blocked and (st is None or not st.valid):
                actions.append(("read", c))
            if not blocked and owner != c:
                actions.append(("write", c))
            if not blocked and st is not SubpageState.ATOMIC:
                actions.append(("gsp", c))
            if st is SubpageState.ATOMIC:
                actions.append(("rsp", c))
            if owner == c and not atomic:
                actions.append(("poststore", c))
            if st is not None and st is not SubpageState.ATOMIC:
                actions.append(("evict", c))
        return actions

    def apply(self, state: ModelState, action: Action) -> ModelState:
        """Run ``action`` from ``state`` on the real protocol, verify the
        invariants, return the successor.

        Raises :class:`InvariantViolation` or the protocol's own
        :class:`~repro.errors.ProtocolError` when the transition breaks
        the protocol rules.
        """
        key = (state, action)
        outcome = self._successors.get(key)
        if outcome is None:
            outcome = self._successors[key] = self._replay(state, action)
        if isinstance(outcome, ReproError):
            raise outcome.with_traceback(None)
        self._paths.setdefault(outcome, self._paths[state] + (action,))
        return outcome

    def _replay(self, state: ModelState, action: Action) -> Union[ModelState, ReproError]:
        path = self._paths.get(state)
        if path is None:
            raise ConfigError(f"state {state} was not reached by this model")
        try:
            return self.walk(path + (action,))[-1]
        except (InvariantViolation, ProtocolError) as exc:
            return exc

    def walk(self, path: tuple[Action, ...]) -> list[ModelState]:
        """Replay ``path`` on a fresh machine; the state after each action.

        Every step is checked (legal per-cell moves, the invariants);
        the first that breaks a rule raises :class:`InvariantViolation`
        or the protocol's :class:`~repro.errors.ProtocolError`.
        """
        machine, addrs = schedule_machine(self.n_cells, 1)
        subpage_id = subpage_of(addrs[0])
        state = self.initial()
        states: list[ModelState] = []
        for index, action in enumerate(path):
            kind, cell = action
            try:
                if kind == "evict":
                    machine.protocol.evict(machine.cells[cell], subpage_id)
                else:
                    run_step(machine, addrs, index, (kind, cell, 0, index + 1))
            except SimulationError as exc:
                raise InvariantViolation(f"{kind}({cell}) did not complete: {exc}") from None
            state = self._abstract(machine, subpage_id, state, action)
            self.check_state(machine, subpage_id, state)
            states.append(state)
        return states

    def _abstract(
        self, machine: KsrMachine, subpage_id: int, state: ModelState, action: Action
    ) -> ModelState:
        """The machine's subpage as a :data:`ModelState`, each per-cell
        change checked against the legal-transition relation."""
        kind, actor = action
        _created, before = state
        stales = kind in ("write", "gsp") and before[actor][0] not in _OWNED
        copies: list[CellCopy] = []
        for c, (old, fresh) in enumerate(before):
            new = machine.cells[c].local_cache.state_of(subpage_id)
            if new is not None and new is not old:
                via = SubpageState.EXCLUSIVE
                moves = (
                    ((old, via), (via, new))
                    if c == actor and kind == "gsp" and new is SubpageState.ATOMIC
                    else ((old, new),)
                )
                for a, b in moves:
                    if not legal_transition(a, b):
                        raise InvariantViolation(
                            f"illegal per-cell transition {a} -> {b} on cell {c}"
                        )
            if new is None or (new.valid and (old is None or old is SubpageState.INVALID)):
                fresh = True
            elif stales and c != actor:
                fresh = False
            copies.append((new, fresh))
        created = machine.protocol.directory.entry(subpage_id).created
        return (created, tuple(copies))

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_state(self, machine: KsrMachine, subpage_id: int, state: ModelState) -> None:
        """Raise :class:`InvariantViolation` unless all invariants hold
        on ``machine``'s directory and caches (abstracted as ``state``)."""
        directory = machine.protocol.directory
        directory.entry(subpage_id).check()
        _created, copies = state
        owners = [c for c, (st, _fresh) in enumerate(copies) if st in _OWNED]
        if len(owners) > 1:
            raise InvariantViolation(f"multiple exclusive owners: {owners}")
        for c, (st, fresh) in enumerate(copies):
            dir_view = directory.state_in(subpage_id, c)
            if dir_view != st:
                raise InvariantViolation(
                    f"directory says cell {c} is {dir_view}, cache says {st}"
                )
            if st is not None and st.valid and not fresh:
                raise InvariantViolation(
                    f"cell {c} holds a valid but stale copy ({st.name})"
                )

    @staticmethod
    def quiescent(state: ModelState) -> bool:
        """No cell holds the subpage atomic (the lock can always drain)."""
        _, copies = state
        return all(st is not SubpageState.ATOMIC for st, _ in copies)


@dataclass
class Violation:
    """One invariant violation found during exploration."""

    state: ModelState
    action: Optional[Action]
    message: str
    trace: tuple[Action, ...] = ()

    def __str__(self) -> str:
        path = " -> ".join(f"{k}({c})" for k, c in self.trace) or "<initial>"
        act = f"{self.action[0]}({self.action[1]})" if self.action else "<check>"
        return f"{act} after [{path}]: {self.message}"


@dataclass
class ModelCheckResult:
    """Outcome of one exhaustive exploration."""

    n_cells: int
    n_states: int
    n_transitions: int
    violations: list[Violation] = field(default_factory=list)
    #: Reachable states with no path back to quiescence (should be empty).
    non_drainable: list[ModelState] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.non_drainable

    def summary(self) -> str:
        """One-paragraph human-readable result, counterexamples included."""
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"modelcheck[{self.n_cells} cells]: {status} — "
            f"{self.n_states} states, {self.n_transitions} transitions, "
            f"{len(self.violations)} violation(s), "
            f"{len(self.non_drainable)} non-drainable state(s)"
        ]
        for v in self.violations[:10]:
            lines.append(f"  violation: {v}")
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


class ModelChecker:
    """BFS over the protocol's reachable abstract state space."""

    #: Safety valve against a broken model exploding the state space.
    MAX_STATES = 200_000

    def __init__(self, n_cells: int, model: Optional[CoherenceModel] = None):
        self.model = model if model is not None else CoherenceModel(n_cells)
        self.n_cells = self.model.n_cells

    def run(self) -> ModelCheckResult:
        """Explore exhaustively; collect violations instead of raising."""
        model = self.model
        init = model.initial()
        # parent pointers for counterexample traces
        parents: dict[ModelState, tuple[Optional[ModelState], Optional[Action]]] = {
            init: (None, None)
        }
        edges: dict[ModelState, list[ModelState]] = {init: []}
        violations: list[Violation] = []
        queue: deque[ModelState] = deque([init])
        n_transitions = 0
        while queue:
            state = queue.popleft()
            for action in model.enabled(state):
                n_transitions += 1
                try:
                    new = model.apply(state, action)
                except (InvariantViolation, ProtocolError) as exc:
                    violations.append(
                        Violation(state, action, str(exc), self._trace(parents, state))
                    )
                    continue
                edges[state].append(new)
                if new not in parents:
                    parents[new] = (state, action)
                    edges.setdefault(new, [])
                    queue.append(new)
                    if len(parents) > self.MAX_STATES:
                        raise ConfigError(
                            f"state space exceeded {self.MAX_STATES} states; "
                            "the protocol relation is broken"
                        )
        non_drainable = self._non_drainable(edges)
        for stuck in non_drainable:
            # Quiescence failures carry the same counterexample context
            # as transition violations: the witness path that reaches
            # the wedged state (there is, by definition, no drain path
            # to show).
            violations.append(
                Violation(
                    stuck,
                    None,
                    "no drain path to quiescence: every reachable successor "
                    "keeps an ATOMIC holder",
                    self._trace(parents, stuck),
                )
            )
        return ModelCheckResult(
            n_cells=self.n_cells,
            n_states=len(parents),
            n_transitions=n_transitions,
            violations=violations,
            non_drainable=non_drainable,
        )

    def drain_path(self, state: ModelState) -> tuple[Action, ...]:
        """Shortest witness path from ``state`` to a quiescent state.

        The quiescence invariant only proves such a path *exists*; this
        surfaces it, so callers (scenario lowering, counterexample
        display) can actually terminate a run in a drained state.
        Raises :class:`InvariantViolation` naming the wedged state when
        no drain path exists.
        """
        model = self.model
        if model.quiescent(state):
            return ()
        seen: set[ModelState] = {state}
        queue: deque[tuple[ModelState, tuple[Action, ...]]] = deque([(state, ())])
        while queue:
            cursor, path = queue.popleft()
            for action in model.enabled(cursor):
                try:
                    new = model.apply(cursor, action)
                except (InvariantViolation, ProtocolError):
                    continue
                if new in seen:
                    continue
                witness = path + (action,)
                if model.quiescent(new):
                    return witness
                seen.add(new)
                queue.append((new, witness))
                if len(seen) > self.MAX_STATES:
                    raise ConfigError(
                        f"drain search exceeded {self.MAX_STATES} states; "
                        "the protocol relation is broken"
                    )
        raise InvariantViolation(
            f"state {state} cannot drain to quiescence: no enabled action "
            "sequence releases the ATOMIC holder"
        )

    @staticmethod
    def _trace(
        parents: dict[ModelState, tuple[Optional[ModelState], Optional[Action]]],
        state: ModelState,
    ) -> tuple[Action, ...]:
        path: list[Action] = []
        cursor: Optional[ModelState] = state
        while cursor is not None:
            parent, action = parents[cursor]
            if action is not None:
                path.append(action)
            cursor = parent
        return tuple(reversed(path))

    def _non_drainable(self, edges: dict[ModelState, list[ModelState]]) -> list[ModelState]:
        """Reachable states from which no quiescent state is reachable."""
        can_drain: set[ModelState] = {s for s in edges if self.model.quiescent(s)}
        # reverse fixpoint: a state drains if any successor drains
        changed = True
        while changed:
            changed = False
            for state, succs in edges.items():
                if state in can_drain:
                    continue
                if any(s in can_drain for s in succs):
                    can_drain.add(state)
                    changed = True
        return [s for s in edges if s not in can_drain]


def check_protocol(n_cells: int) -> ModelCheckResult:
    """Convenience wrapper: explore the stock protocol for ``n_cells``."""
    return ModelChecker(n_cells).run()
