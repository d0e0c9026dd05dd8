"""Unit tests for the end-to-end boosting adversary pipeline."""

import pytest

from repro.analysis import (
    TerminationViolation,
    Verdict,
    bounded_undecided_run,
    default_resilience,
    refute_candidate,
)
from repro.protocols import (
    delegation_consensus_system,
    min_register_consensus_system,
    tob_delegation_system,
)
from repro.engine import Budget


class TestDefaultResilience:
    def test_min_over_services(self):
        assert default_resilience(delegation_consensus_system(3, resilience=1)) == 1

    def test_registers_only_means_zero(self):
        assert default_resilience(min_register_consensus_system()) == 0


class TestRefuteCandidate:
    def test_delegation_two_processes(self):
        verdict = refute_candidate(delegation_consensus_system(2, resilience=0))
        assert verdict.refuted
        assert verdict.mechanism == "similarity-termination"
        assert isinstance(verdict.refutation, TerminationViolation)
        assert verdict.refutation.exact

    def test_delegation_three_processes_f1(self):
        verdict = refute_candidate(delegation_consensus_system(3, resilience=1))
        assert verdict.refuted
        assert len(verdict.refutation.victims) == 2  # f + 1

    def test_tob_candidate(self):
        verdict = refute_candidate(
            tob_delegation_system(2, resilience=0), budget=Budget(max_states=400_000)
        )
        assert verdict.refuted
        assert verdict.mechanism == "similarity-termination"

    def test_verdict_carries_whole_pipeline(self):
        verdict = refute_candidate(delegation_consensus_system(2, resilience=0))
        assert verdict.lemma4 is not None and verdict.lemma4.bivalent is not None
        assert verdict.hook is not None
        assert verdict.lemma8 is not None
        assert verdict.lemma8.violation is not None
        assert verdict.detail

    def test_univalent_candidate_reports_dodge(self):
        # The min-register protocol is univalent everywhere; the valence
        # pipeline cannot engage and says so (the direct liveness attack
        # is the tool for it — see test_refutation).
        verdict = refute_candidate(min_register_consensus_system())
        assert not verdict.refuted
        assert verdict.mechanism == "no-bivalent-initialization"

    def test_explicit_resilience_overrides_default(self):
        verdict = refute_candidate(
            delegation_consensus_system(3, resilience=1), resilience=1
        )
        assert verdict.refuted


class TestBoundedAdversary:
    def test_failure_free_avoidance_is_eventually_forced(self):
        # Matches the paper: on a safe candidate, the failure-free Fig. 3
        # construction terminates — decision avoidance alone cannot stall
        # forever; indefinite stalling needs the failure-based attacks.
        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        run = bounded_undecided_run(
            system, root, budget=Budget(max_transitions=2_000)
        )
        assert run.decided
        assert 0 < run.steps < 2_000

    def test_postpones_at_least_as_long_as_round_robin(self):
        from repro.ioa import RoundRobinScheduler, run as drive

        system = delegation_consensus_system(2, resilience=0)
        root = system.initialization({0: 0, 1: 1}).final_state
        eager = drive(
            system,
            RoundRobinScheduler(),
            max_steps=500,
            start=root,
            stop=lambda e: bool(system.decisions(e.final_state)),
        )
        adversarial = bounded_undecided_run(
            system, root, budget=Budget(max_transitions=500)
        )
        assert adversarial.steps >= len(eager)
        assert adversarial.visited_states >= 1
