"""The mutant ledger: every protocol mutant and the check that catches it.

Each mutant re-spells one line of ``coherence/protocol.py`` the way a
real regression would, and is monkeypatched onto
:class:`CoherenceProtocol` for one test.  The model checker runs that
very protocol, so there is no model copy for a mutant to disagree
with: a mutant is caught either by the model checker (an invariant,
a legal-transition check or the drain analysis) or by a named check
in ``tests/coherence`` that pins what the protocol must do.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable

import pytest

import repro.coherence.protocol as protocol_module
from repro.analysis.modelcheck import check_protocol
from repro.coherence.protocol import CoherenceProtocol
from repro.errors import ReproError
from tests.coherence import test_protocol, test_snarf


def mutate_protocol(monkeypatch, method: str, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in one :class:`CoherenceProtocol`
    method's source and monkeypatch the recompiled method in."""
    source = textwrap.dedent(inspect.getsource(getattr(CoherenceProtocol, method)))
    assert old in source, f"mutation anchor vanished from {method}: {old!r}"
    code = compile(
        source.replace(old, new),
        f"<mutant of CoherenceProtocol.{method}>",
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, vars(protocol_module), namespace)
    monkeypatch.setattr(CoherenceProtocol, method, namespace[method])


def model_check_is_clean() -> None:
    """The model checker: invariants, legal moves and drain analysis."""
    result = check_protocol(2)
    assert result.ok, result.summary()


@dataclass(frozen=True)
class Mutant:
    id: str
    method: str
    old: str
    new: str
    #: A check that fails on the mutant; on the real protocol it passes
    #: as a tier-1 test of its own.
    check: Callable[[], None]


LEDGER = [
    Mutant(
        "cold-read-fills-shared",
        "acquire_shared",
        "subpage_id, SubpageState.EXCLUSIVE, demand=True",
        "subpage_id, SubpageState.SHARED, demand=True",
        test_protocol.TestCopyStates().test_cold_read_allocates_exclusive,
    ),
    Mutant(
        "gsp-loses-atomic",
        "get_subpage",
        "atomic=True",
        "atomic=False",
        test_protocol.TestCopyStates().test_get_subpage_holds_atomic_until_release,
    ),
    Mutant(
        "rsp-demotes-to-shared",
        "release_subpage",
        "local_cache.set_state(subpage_id, SubpageState.EXCLUSIVE)",
        "local_cache.set_state(subpage_id, SubpageState.SHARED)\n"
        "    self.directory.demote_owner(subpage_id)",
        test_protocol.TestCopyStates().test_get_subpage_holds_atomic_until_release,
    ),
    Mutant(
        "rsp-is-a-noop",
        "release_subpage",
        "self.directory.set_atomic(subpage_id, cell_id, False)",
        "return",
        model_check_is_clean,
    ),
    Mutant(
        "snarf-disabled",
        "_snarf_placeholders",
        "if not self.config.enable_snarfing:",
        "if True:",
        test_protocol.TestSnarfing().test_snarf_counter_incremented,
    ),
    Mutant(
        "skip-invalidation",
        "acquire_exclusive",
        "self._invalidate_others(subpage_id, cell_id)",
        "pass",
        model_check_is_clean,
    ),
    Mutant(
        "snarfs-past-owner",
        "_snarf_placeholders",
        "if entry.owner is not None:",
        "if False:",
        test_snarf.TestSnarfGuard().test_no_snarf_while_an_owner_holds_the_subpage,
    ),
    Mutant(
        "never-releases",
        "release_subpage",
        "if entry.owner != cell_id or not entry.atomic:",
        "if True:",
        model_check_is_clean,
    ),
    Mutant(
        "drop-release-set_atomic",
        "release_subpage",
        "self.directory.set_atomic(subpage_id, cell_id, False)",
        "pass",
        model_check_is_clean,
    ),
    Mutant(
        "flip-owner-demote-guard",
        "_complete_poststore",
        "if entry.owner is not None and entry.owner != cell_id:",
        "if entry.owner is not None and entry.owner == cell_id:",
        test_protocol.TestPoststore().test_poststore_demotes_issuer_to_shared,
    ),
    Mutant(
        "widen-exclusive-to-atomic",
        "acquire_exclusive",
        "atomic=atomic,",
        "atomic=True,",
        model_check_is_clean,
    ),
]

#: Mutants the ledger does not run here, and why.
NOT_RUN_HERE = {
    # The real fill installs ATOMIC in one call from SHARED/INVALID/
    # absent; the model checker reads that step as -> EXCLUSIVE ->
    # ATOMIC, so the "one-step fill" is the protocol, not a mutant.
    "single-step-atomic-fill": "retired",
    # Damages ScenarioModel.read_value (the data spec), not the
    # protocol; the differential oracle catches it there.
    "reads-observe-stale-value": "tests/analysis/test_scenarios_mutation.py",
}


def test_ledger_covers_all_thirteen_mutants():
    ids = [m.id for m in LEDGER] + list(NOT_RUN_HERE)
    assert len(ids) == len(set(ids)) == 13


@pytest.mark.parametrize("mutant", LEDGER, ids=[m.id for m in LEDGER])
def test_mutant_is_caught(mutant, monkeypatch):
    mutate_protocol(monkeypatch, mutant.method, mutant.old, mutant.new)
    with pytest.raises((AssertionError, ReproError)):
        mutant.check()
