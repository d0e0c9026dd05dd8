"""Unit tests for the Lemma 6/7 constructive refutation engine."""

import pytest

from repro.analysis import (
    TerminationViolation,
    analyze_valence,
    choose_victims_for_process,
    choose_victims_for_service,
    find_hook,
    lemma8_case_analysis,
    liveness_attack,
    refute_from_similarity,
    run_silenced,
    scan_for_similarity_violations,
    silenced_services_for,
)
from repro.protocols import (
    delegation_consensus_system,
    min_register_consensus_system,
    tob_delegation_system,
)
from repro.engine import Budget, BudgetExhausted


class TestVictimSelection:
    def test_process_victims_include_j(self):
        system = delegation_consensus_system(4, resilience=1)
        victims = choose_victims_for_process(system, j=2, resilience=1)
        assert 2 in victims
        assert len(victims) == 2

    def test_process_victims_require_enough_processes(self):
        system = delegation_consensus_system(2, resilience=0)
        with pytest.raises(ValueError):
            choose_victims_for_process(system, j=0, resilience=2)

    def test_service_victims_small_service_fully_failed(self):
        # |J_k| <= f + 1: J_k must be a subset of J.
        system = tob_delegation_system(3, resilience=1)
        # tob has endpoints (0,1,2); take a 2-endpoint sub-case via the
        # delegation system instead:
        system = delegation_consensus_system(4, resilience=1)
        # shrink: pretend service endpoints are all four; |Jk| = 4 > f+1=2
        victims = choose_victims_for_service(system, k="cons", resilience=1)
        assert len(victims) == 2
        assert victims <= set(system.service("cons").endpoints)

    def test_service_victims_large_quota(self):
        system = delegation_consensus_system(3, resilience=2)
        victims = choose_victims_for_service(system, k="cons", resilience=2)
        # |Jk| = 3 <= f+1 = 3: all endpoints of the service fail.
        assert victims == frozenset({0, 1, 2})


class TestSilencedServices:
    def test_service_silenced_beyond_resilience(self):
        system = delegation_consensus_system(3, resilience=1)
        silenced = silenced_services_for(system, frozenset({0, 1}))
        assert "cons" in silenced

    def test_service_not_silenced_within_resilience(self):
        system = delegation_consensus_system(3, resilience=1)
        silenced = silenced_services_for(system, frozenset({0}))
        assert "cons" not in silenced

    def test_also_parameter(self):
        system = delegation_consensus_system(3, resilience=2)
        silenced = silenced_services_for(system, frozenset({0}), also=("cons",))
        assert "cons" in silenced


class TestRunSilenced:
    def test_fails_victims_first(self):
        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        result = run_silenced(system, root, {0, 1}, {"cons"}, max_steps=200)
        failed_action_count = sum(
            1 for step in result.execution.steps if step.action.kind == "fail"
        )
        assert failed_action_count == 2
        assert result.execution.steps[0].action.kind == "fail"
        assert result.execution.steps[1].action.kind == "fail"

    def test_silenced_service_takes_only_dummies(self):
        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        result = run_silenced(system, root, {0, 1}, {"cons"}, max_steps=500)
        for step in result.execution.steps:
            assert step.action.kind not in ("perform", "respond"), (
                f"silenced service acted: {step.action}"
            )

    def test_cycle_detection_is_exact(self):
        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        result = run_silenced(system, root, {0, 1}, {"cons"}, max_steps=100_000)
        assert result.cycle_found
        assert result.decision is None
        assert result.cycle_length > 0

    def test_unsilenced_run_decides(self):
        system = delegation_consensus_system(3, resilience=2)
        root = system.initialization({0: 1, 1: 1, 2: 1}).final_state
        # One failure, service survives (f = 2): survivors decide.
        result = run_silenced(system, root, {0}, set(), max_steps=5000)
        assert result.decision is not None
        decider, value = result.decision
        assert decider in (1, 2)
        assert value == 1


class TestRefuteFromSimilarity:
    def refutable_violation(self, system, proposals):
        root = system.initialization(proposals).final_state
        analysis = analyze_valence(system, root, budget=Budget(max_states=400_000))
        hook, _ = find_hook(analysis, root)
        report = lemma8_case_analysis(system, analysis, hook)
        assert report.violation is not None
        return report.violation

    def test_delegation_refuted_by_termination(self):
        system = delegation_consensus_system(2, resilience=0)
        violation = self.refutable_violation(system, {0: 0, 1: 1})
        outcome = refute_from_similarity(system, violation, resilience=0)
        assert isinstance(outcome, TerminationViolation)
        assert outcome.exact
        assert len(outcome.victims) == 1
        assert outcome.survivors

    def test_budget_deadline_bounds_each_stage(self):
        """The post-exploration stages each start a fresh deadline from
        ``budget=``, as ``refute_candidate`` hands them its own."""
        system = delegation_consensus_system(2, resilience=0)
        root = system.initialization({0: 0, 1: 1}).final_state
        analysis = analyze_valence(system, root)
        violation = self.refutable_violation(system, {0: 0, 1: 1})
        expired = Budget(deadline_seconds=1e-9)
        stages = [
            lambda: find_hook(analysis, root, budget=expired),
            lambda: refute_from_similarity(
                system, violation, resilience=0, budget=expired
            ),
            lambda: liveness_attack(system, root, victims=[1], budget=expired),
        ]
        for stage in stages:
            with pytest.raises(BudgetExhausted) as info:
                stage()
            assert info.value.resource == "deadline"

    def test_tob_refuted_by_termination(self):
        system = tob_delegation_system(2, resilience=0)
        violation = self.refutable_violation(system, {0: 0, 1: 1})
        outcome = refute_from_similarity(system, violation, resilience=0)
        assert isinstance(outcome, TerminationViolation)
        assert outcome.exact

    def test_victim_count_is_f_plus_one(self):
        system = delegation_consensus_system(3, resilience=1)
        violation = self.refutable_violation(system, {0: 0, 1: 1, 2: 0})
        outcome = refute_from_similarity(system, violation, resilience=1)
        assert isinstance(outcome, TerminationViolation)
        assert len(outcome.victims) == 2


class TestLivenessAttack:
    def test_min_register_attack(self):
        system = min_register_consensus_system()
        root = system.initialization({0: 0, 1: 1}).final_state
        outcome = liveness_attack(system, root, victims=[1], horizon=50_000)
        assert outcome is not None
        assert outcome.exact
        assert outcome.survivors == frozenset({0})

    def test_attack_fails_against_wait_free_object(self):
        # Wait-free service: survivors decide, the attack returns None.
        system = delegation_consensus_system(3, resilience=2)
        root = system.initialization({0: 0, 1: 1, 2: 1}).final_state
        outcome = liveness_attack(system, root, victims=[0, 1], horizon=50_000)
        assert outcome is None

    def test_attack_succeeds_beyond_wait_free_resilience(self):
        # Even wait-free objects go silent when ALL endpoints fail; but
        # then there are no survivors to betray, so attack against a
        # proper subset is what matters: f-resilient with f+1 victims.
        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 1}).final_state
        outcome = liveness_attack(system, root, victims=[0, 1], horizon=50_000)
        assert outcome is not None
        assert outcome.description.startswith("direct liveness attack")


class TestWitnessFairness:
    """The 'exact infinite fair execution' claim, certified mechanically:
    the cycle found by the silencing runner, packaged as a lasso, passes
    the I/O-automaton fairness check of Section 2.1.1."""

    def test_silenced_cycle_is_a_fair_lasso(self):
        from repro.ioa import lasso_is_fair

        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        result = run_silenced(system, root, {0, 1}, {"cons"}, max_steps=100_000)
        assert result.cycle_found
        lasso = result.as_lasso()
        assert len(lasso.cycle) == result.cycle_length
        assert lasso_is_fair(lasso, system)

    def test_no_decision_anywhere_on_the_cycle(self):
        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        result = run_silenced(system, root, {0, 1}, {"cons"}, max_steps=100_000)
        lasso = result.as_lasso()
        for step in lasso.cycle:
            assert not system.decisions(step.post)

    def test_as_lasso_requires_a_cycle(self):
        import pytest as _pytest

        system = delegation_consensus_system(3, resilience=2)
        root = system.initialization({0: 1, 1: 1, 2: 1}).final_state
        result = run_silenced(system, root, {0}, set(), max_steps=5000)
        assert not result.cycle_found
        with _pytest.raises(ValueError):
            result.as_lasso()

    def test_min_register_cycle_is_fair(self):
        from repro.ioa import lasso_is_fair

        system = min_register_consensus_system()
        root = system.initialization({0: 0, 1: 1}).final_state
        result = run_silenced(system, root, {1}, set(), max_steps=50_000)
        assert result.cycle_found
        assert lasso_is_fair(result.as_lasso(), system)
