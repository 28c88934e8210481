"""Exhaustive state-space checking of the ALLCACHE coherence protocol.

The simulator's protocol is exercised by litmus tests and fuzzing, but
those only sample interleavings.  This module *enumerates*: it builds an
abstract transition model of the protocol for one subpage and a handful
of cells, BFS-explores every reachable state, and verifies the paper's
correctness-critical invariants in each one.

The abstraction
---------------
A state is ``(created, ((copy_state, fresh), ...))`` — one entry per
cell.  ``copy_state`` is the cell's :class:`SubpageState` (or ``None``
when the cell holds no copy at all) and ``fresh`` records whether the
copy's data matches the current memory value (writes by other cells
make a copy stale).  Timing is abstracted away entirely: each protocol
operation (read miss, write/upgrade, ``get_subpage``, ``release``,
``poststore``, eviction) becomes one atomic transition.

The transitions are *extracted from*, not re-implemented beside, the
coherence layer:

* every per-cell state change is validated against
  :func:`repro.coherence.states.legal_transition`;
* the directory bookkeeping replays the exact
  :class:`repro.coherence.directory.Directory` call sequence that
  :mod:`repro.coherence.protocol` performs (``invalidate_others`` then
  ``record_fill_exclusive``, ``demote_owner`` then
  ``record_fill_shared``, ...), so :class:`DirectoryEntry.check` and
  the directory/cache agreement check run against the real code.

Invariants verified in every reachable state
--------------------------------------------
1. at most one cell holds an EXCLUSIVE or ATOMIC copy;
2. the directory entry agrees with every cell's cache state
   (``Directory.state_in`` == the cell's copy state);
3. no valid (readable) copy is stale — in particular a snarfed
   place-holder always revalidated from current data;
4. every reachable state can drain to quiescence (a path exists to a
   state with no ATOMIC holder — no cell can wedge the subpage lock).

Deliberately broken models (tests subclass :class:`CoherenceModel` and
damage one primitive) must produce at least one reported violation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.coherence.directory import Directory
from repro.coherence.states import SubpageState, legal_transition
from repro.errors import ConfigError, ProtocolError, ReproError

__all__ = [
    "InvariantViolation",
    "CellCopy",
    "ModelState",
    "CoherenceModel",
    "ModelCheckResult",
    "ModelChecker",
]

#: The single abstract subpage the model reasons about.
SUBPAGE = 0


class InvariantViolation(ReproError):
    """An abstract protocol transition broke a checked invariant."""


#: One cell's view: (coherence state or ``None`` if absent, data fresh?)
CellCopy = tuple[Optional[SubpageState], bool]
#: Full abstract machine state: (subpage ever created?, per-cell copies).
ModelState = tuple[bool, tuple[CellCopy, ...]]

#: Action kinds, one per protocol entry point the model abstracts.
ACTIONS = ("read", "write", "gsp", "rsp", "poststore", "evict")

#: (action kind, acting cell id)
Action = tuple[str, int]


class _Cells:
    """Mutable per-cell copies during one transition, with every state
    change validated against the protocol's legal-transition relation."""

    def __init__(self, copies: tuple[CellCopy, ...]):
        self.states: list[Optional[SubpageState]] = [c[0] for c in copies]
        self.fresh: list[bool] = [c[1] for c in copies]

    def set_state(self, cell_id: int, new: SubpageState, *, fresh: bool) -> None:
        old = self.states[cell_id]
        if not legal_transition(old, new):
            raise InvariantViolation(
                f"illegal per-cell transition {old} -> {new} on cell {cell_id}"
            )
        self.states[cell_id] = new
        self.fresh[cell_id] = fresh

    def drop(self, cell_id: int) -> None:
        self.states[cell_id] = None
        self.fresh[cell_id] = True  # vacuous: no data held

    def stale_others(self, keep_cell: int) -> None:
        """A write by ``keep_cell`` made every other copy's data stale."""
        for c in range(len(self.fresh)):
            if c != keep_cell and self.states[c] is not None:
                self.fresh[c] = False

    def owner(self) -> Optional[int]:
        for c, st in enumerate(self.states):
            if st in (SubpageState.EXCLUSIVE, SubpageState.ATOMIC):
                return c
        return None

    def snapshot(self) -> tuple[CellCopy, ...]:
        return tuple(zip(self.states, self.fresh))


class CoherenceModel:
    """Abstract transition model of the protocol for one subpage.

    The primitive steps (``_invalidate_others``, ``_snarf_placeholders``,
    ...) are separate methods so tests can subclass and deliberately
    break one of them; the checker must then report violations.
    """

    def __init__(self, n_cells: int):
        if n_cells < 2:
            raise ConfigError("model checking needs at least 2 cells")
        self.n_cells = n_cells

    # ------------------------------------------------------------------
    # State plumbing
    # ------------------------------------------------------------------

    def initial(self) -> ModelState:
        """The pristine state: no directory entry, no cell holds a copy."""
        return (False, tuple((None, True) for _ in range(self.n_cells)))

    def _directory_for(self, created: bool, cells: _Cells) -> Directory:
        """Rebuild a real :class:`Directory` mirroring the cell states."""
        directory = Directory()
        entry = directory.entry(SUBPAGE)
        for c, st in enumerate(cells.states):
            if st is None:
                continue
            if st is SubpageState.INVALID:
                entry.placeholder_mask |= 1 << c
            else:
                entry.sharer_mask |= 1 << c
            if st in (SubpageState.EXCLUSIVE, SubpageState.ATOMIC):
                entry.owner = c
                entry.atomic = st is SubpageState.ATOMIC
        entry.created = created
        return directory

    # ------------------------------------------------------------------
    # Enabled actions
    # ------------------------------------------------------------------

    def enabled(self, state: ModelState) -> list[Action]:
        """Actions with an observable effect in ``state``.

        Identity transitions (local cache hits, re-locking an already
        atomic subpage) and blocked requests (another cell holds the
        subpage atomic — the hardware retries, so no state change) are
        omitted: they never change the reachable set.
        """
        created, copies = state
        cells = _Cells(copies)
        owner = cells.owner()
        atomic = owner is not None and cells.states[owner] is SubpageState.ATOMIC
        actions: list[Action] = []
        for c in range(self.n_cells):
            st = cells.states[c]
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
        """Apply ``action``, verify the invariants, return the new state.

        Raises :class:`InvariantViolation` (or lets the directory's own
        :class:`~repro.errors.ProtocolError` escape) when the transition
        breaks the protocol rules.
        """
        kind, cell_id = action
        created, copies = state
        cells = _Cells(copies)
        directory = self._directory_for(created, cells)
        handler = getattr(self, f"_do_{kind}")
        created = handler(directory, cells, cell_id, created)
        self.check_state(directory, cells)
        return (created, cells.snapshot())

    # ------------------------------------------------------------------
    # Transitions (each mirrors the protocol.py call sequence)
    # ------------------------------------------------------------------

    def _do_read(self, d: Directory, cells: _Cells, c: int, created: bool) -> bool:
        entry = d.entry(SUBPAGE)
        if not entry.has_valid_copy and not entry.created:
            # COMA cold first touch: allocate locally, straight to EXCLUSIVE.
            cells.set_state(c, SubpageState.EXCLUSIVE, fresh=True)
            d.record_fill_exclusive(SUBPAGE, c)
            return True
        owner = cells.owner()
        if owner is not None and owner != c:
            # acquire_shared demotes the responding owner to SHARED.
            cells.set_state(owner, SubpageState.SHARED, fresh=cells.fresh[owner])
            d.demote_owner(SUBPAGE)
        cells.set_state(c, SubpageState.SHARED, fresh=True)
        d.record_fill_shared(SUBPAGE, c)
        self._snarf_placeholders(d, cells)
        return True

    def _do_write(self, d: Directory, cells: _Cells, c: int, created: bool) -> bool:
        entry = d.entry(SUBPAGE)
        if not entry.has_valid_copy and not entry.placeholders and not entry.created:
            cells.set_state(c, SubpageState.EXCLUSIVE, fresh=True)
            d.record_fill_exclusive(SUBPAGE, c)
            return True
        self._invalidate_others(d, cells, c)
        cells.set_state(c, SubpageState.EXCLUSIVE, fresh=True)
        d.record_fill_exclusive(SUBPAGE, c)
        cells.stale_others(c)
        return True

    def _do_gsp(self, d: Directory, cells: _Cells, c: int, created: bool) -> bool:
        entry = d.entry(SUBPAGE)
        if entry.owner == c:
            # Upgrade the held EXCLUSIVE copy in place.
            d.set_atomic(SUBPAGE, c, True)
            cells.set_state(c, SubpageState.ATOMIC, fresh=cells.fresh[c])
            return created
        if not entry.has_valid_copy and not entry.placeholders and not entry.created:
            cells.set_state(c, SubpageState.EXCLUSIVE, fresh=True)
        else:
            self._invalidate_others(d, cells, c)
            cells.set_state(c, SubpageState.EXCLUSIVE, fresh=True)
            cells.stale_others(c)
        # The combined fill-and-lock is EXCLUSIVE then ATOMIC: the cell
        # first obtains the only valid copy, then the lock bit.
        cells.set_state(c, SubpageState.ATOMIC, fresh=True)
        d.record_fill_exclusive(SUBPAGE, c, atomic=True)
        return True

    def _do_rsp(self, d: Directory, cells: _Cells, c: int, created: bool) -> bool:
        entry = d.entry(SUBPAGE)
        if entry.owner != c or not entry.atomic:
            raise InvariantViolation(
                f"cell {c} releasing subpage it does not hold atomic"
            )
        d.set_atomic(SUBPAGE, c, False)
        cells.set_state(c, SubpageState.EXCLUSIVE, fresh=cells.fresh[c])
        return created

    def _do_poststore(self, d: Directory, cells: _Cells, c: int, created: bool) -> bool:
        entry = d.entry(SUBPAGE)
        if entry.owner != c or entry.atomic:
            raise InvariantViolation(
                f"poststore by cell {c} without non-atomic ownership"
            )
        cells.set_state(c, SubpageState.SHARED, fresh=cells.fresh[c])
        d.demote_owner(SUBPAGE)
        self._snarf_placeholders(d, cells)
        return created

    def _do_evict(self, d: Directory, cells: _Cells, c: int, created: bool) -> bool:
        if cells.states[c] is SubpageState.ATOMIC:
            raise InvariantViolation(f"random replacement evicted atomic copy of cell {c}")
        d.drop_copy(SUBPAGE, c)
        cells.drop(c)
        return created

    # ------------------------------------------------------------------
    # Overridable primitives (broken in tests to prove the checker bites)
    # ------------------------------------------------------------------

    def _invalidate_others(self, d: Directory, cells: _Cells, keep_cell: int) -> None:
        """Every other valid copy becomes a stale place-holder."""
        losers = d.invalidate_others(SUBPAGE, keep_cell)
        for loser in losers:
            cells.set_state(loser, SubpageState.INVALID, fresh=False)

    def _snarf_placeholders(self, d: Directory, cells: _Cells) -> None:
        """Place-holders revalidate from the passing response packet.

        Mirrors ``CoherenceProtocol._snarf_placeholders`` including its
        guard: with an exclusive owner present the circulating packet
        may be stale and must not revive anybody.
        """
        entry = d.entry(SUBPAGE)
        if entry.owner is not None:
            return
        for holder in sorted(entry.placeholders):
            cells.set_state(holder, SubpageState.SHARED, fresh=True)
        entry.sharer_mask |= entry.placeholder_mask
        entry.placeholder_mask = 0
        entry.check()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_state(self, d: Directory, cells: _Cells) -> None:
        """Raise :class:`InvariantViolation` unless all invariants hold."""
        entry = d.entry(SUBPAGE)
        entry.check()
        owners = [
            c
            for c, st in enumerate(cells.states)
            if st in (SubpageState.EXCLUSIVE, SubpageState.ATOMIC)
        ]
        if len(owners) > 1:
            raise InvariantViolation(f"multiple exclusive owners: {owners}")
        for c, st in enumerate(cells.states):
            dir_view = d.state_in(SUBPAGE, c)
            if dir_view != st:
                raise InvariantViolation(
                    f"directory says cell {c} is {dir_view}, cache says {st}"
                )
            if st is not None and st.valid and not cells.fresh[c]:
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
    """BFS over the abstract protocol model's reachable state space."""

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
                            "the abstract model is broken"
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
                        "the abstract model is broken"
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
    """Convenience wrapper: explore the stock model for ``n_cells``."""
    return ModelChecker(n_cells).run()
