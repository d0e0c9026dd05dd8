"""Unit tests for repro.engine.reduction.

Covers the symmetry machinery (group/stabilizer computation, canonical
representatives, refusal of unsound permutations on asymmetric wiring),
the ample-set POR counters, the audit/compare helpers on instances small
enough to explore both graphs, the supporting fingerprint changes, and
the CLI flags.
"""

import copy

import pytest

from repro.__main__ import main
from repro.analysis import DeterministicSystemView, analyze_valence, find_hook
from repro.engine import (
    Canonicalizer,
    ExplorationEngine,
    ReductionConfig,
    audit_reduction,
    build_reduced_view,
    compare_reduction,
)
from repro.protocols import (
    delegation_consensus_system,
    grouped_delegation_system,
    last_writer_register_system,
    min_register_consensus_system,
    tob_delegation_system,
)
from repro.engine import Budget


def _root(system, proposals=None):
    if proposals is None:
        proposals = {
            endpoint: index % 2
            for index, endpoint in enumerate(system.process_ids)
        }
    return system.initialization(proposals).final_state


class TestReductionConfig:
    def test_from_name(self):
        assert ReductionConfig.from_name("none") == ReductionConfig()
        assert ReductionConfig.from_name("symmetry").symmetry
        assert ReductionConfig.from_name("por").por
        full = ReductionConfig.from_name("full")
        assert full.symmetry and full.por and full.enabled
        assert not ReductionConfig.from_name("none").enabled

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            ReductionConfig.from_name("fast")


class TestCanonicalizer:
    def test_tob4_group_and_stabilizer(self):
        system = tob_delegation_system(4, resilience=1)
        root = _root(system)  # inputs 0,1,0,1: two interchangeable pairs
        canonicalizer = Canonicalizer(system, root)
        assert canonicalizer.group_size == 24  # all of S_4 respects the wiring
        assert canonicalizer.stabilizer_size == 4  # 2! x 2! fix the inputs
        assert canonicalizer.canon(root) == root

    def test_canon_is_idempotent_and_orbit_invariant(self):
        system = tob_delegation_system(2, resilience=1)
        root = _root(system, {0: 0, 1: 0})  # equal inputs: full stabilizer
        canonicalizer = Canonicalizer(system, root)
        assert canonicalizer.permuters, "equal inputs must leave a nontrivial group"
        view = DeterministicSystemView(system)
        frontier, states = [root], {root}
        while frontier and len(states) < 40:
            for _, _, post in view.successors(frontier.pop()):
                if post not in states:
                    states.add(post)
                    frontier.append(post)
        for state in states:
            representative = canonicalizer.canon(state)
            assert canonicalizer.canon(representative) == representative
            for permuter in canonicalizer.permuters:
                assert canonicalizer.canon(permuter.apply(state)) == representative

    def test_crossed_wiring_yields_trivial_group(self):
        # min-register and last-writer processes read the peer's register:
        # their symmetry keys differ per process, so no permutation is
        # sound and the canonicalizer must refuse all of them.
        for system in (min_register_consensus_system(), last_writer_register_system()):
            canonicalizer = Canonicalizer(system, _root(system))
            assert not canonicalizer.permuters
            assert canonicalizer.group_size == 1
            assert canonicalizer.reason

    def test_cross_group_permutations_refused(self):
        # Two delegation groups over separate consensus objects: swapping
        # processes across groups is unsound (it would not preserve the
        # services' endpoint sets) and must be filtered out, leaving only
        # the 2! x 2! within-group permutations.
        system = grouped_delegation_system([2, 2])
        canonicalizer = Canonicalizer(system, _root(system, {e: 0 for e in range(4)}))
        assert canonicalizer.group_size == 4


class TestReducedView:
    def test_counters_and_shrinkage(self):
        system = delegation_consensus_system(3, resilience=1)
        root = _root(system)
        view = build_reduced_view(
            DeterministicSystemView(system), root, ReductionConfig.from_name("full")
        )
        from repro.analysis import explore

        graph = explore(view, root, budget=Budget(max_states=100_000))
        assert view.canonicalizer.orbit_hits > 0
        assert view.pruned_tasks > 0
        full = explore(DeterministicSystemView(system), root, budget=Budget(max_states=100_000))
        assert len(graph.states) < len(full.states)

    def test_disabled_config_builds_passthrough(self):
        system = delegation_consensus_system(2, resilience=1)
        root = _root(system)
        view = build_reduced_view(
            DeterministicSystemView(system), root, ReductionConfig()
        )
        assert view.canonicalizer is None and not view.por
        assert view.successors(root) == view.base.successors(root)


class TestAuditAndCompare:
    @pytest.mark.parametrize("mode", ["symmetry", "por", "full"])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: delegation_consensus_system(3, resilience=1),
            lambda: tob_delegation_system(2, resilience=1),
        ],
        ids=["delegation-3", "tob-2"],
    )
    def test_audit_passes(self, factory, mode):
        system = factory()
        comparison = audit_reduction(
            system, _root(system), ReductionConfig.from_name(mode)
        )
        assert comparison.reduced_states <= comparison.full_states

    def test_audit_requires_enabled_config(self):
        system = delegation_consensus_system(2, resilience=1)
        with pytest.raises(ValueError):
            audit_reduction(system, _root(system), ReductionConfig())

    def test_compare_reports_committed_ratio(self):
        system = delegation_consensus_system(3, resilience=1)
        comparison = compare_reduction(
            system, _root(system), ReductionConfig.from_name("full")
        )
        assert comparison.state_ratio >= 3.0
        assert comparison.full_states == 188 and comparison.reduced_states == 50
        assert comparison.orbit_hits > 0 and comparison.pruned_tasks > 0


class TestAnalysisIntegration:
    def test_find_hook_refuses_por(self):
        system = delegation_consensus_system(2, resilience=1)
        root = _root(system)
        analysis = analyze_valence(
            system, root, reduction=ReductionConfig.from_name("por")
        )
        with pytest.raises(ValueError, match="partial-order"):
            find_hook(analysis, root)

    def test_symmetry_analysis_preserves_valence(self):
        system = delegation_consensus_system(3, resilience=1)
        root = _root(system)
        plain = analyze_valence(system, root)
        reduced = analyze_valence(
            system, root, reduction=ReductionConfig.from_name("symmetry")
        )
        assert len(reduced.graph.states) < len(plain.graph.states)
        for state in plain.graph.states:
            assert reduced.valence(state) == plain.valence(state)


class TestFingerprintSupport:
    def test_state_index_interned_returns_first_seen(self):
        # The classic loop's state index is the graph's position dict:
        # a state equal to a discovered one resolves to the first-seen
        # object, and every edge references that object.
        system = delegation_consensus_system(2, resilience=0)
        view = DeterministicSystemView(system)
        graph = ExplorationEngine().explore(view, _root(system))
        first = graph.order[1]
        duplicate = copy.deepcopy(first)
        assert duplicate == first and duplicate is not first
        assert graph.order[graph.position[duplicate]] is first
        interned = {id(state) for state in graph.order}
        assert all(
            id(successor) in interned
            for state in graph.order
            for _, _, successor in graph.successors(state)
        )


class TestCli:
    def test_stats_compare_reduction(self, capsys):
        assert main(["stats", "delegation", "-n", "3", "--compare-reduction"]) == 0
        out = capsys.readouterr().out
        assert "Full:    188 states" in out
        assert "Reduced: 50 states" in out
        assert "Ratio:" in out

    def test_refute_with_reduction_flag(self, capsys):
        assert main(["refute", "delegation", "-n", "2", "--reduction", "full"]) == 0
        assert "refuted:   True" in capsys.readouterr().out

    def test_audit_reduction_flag(self, capsys):
        code = main(
            ["refute", "delegation", "-n", "2", "--reduction", "full",
             "--audit-reduction"]
        )
        assert code == 0
        assert "Reduction audit OK" in capsys.readouterr().out
