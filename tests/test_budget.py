"""Resource guards: deadlines, byte caps and graceful degradation."""

import numpy as np
import pytest

from repro.api import build_index, similarity_join
from repro.core.csj import LEAF_WINDOW, csj, make_window, ncsj, tree_task_delta
from repro.core.egrid import egrid_join
from repro.core.frontier import traverse
from repro.core.groups import apply_events
from repro.core.partitioned import pbsm_join
from repro.core.results import CountingSink, TextSink
from repro.core.ssj import ssj
from repro.core.verify import brute_force_links
from repro.datasets import load_dataset
from repro.errors import BudgetExceededError
from repro.index.packed import pack_index
from repro.io.writer import line_bytes, width_for
from repro.resilience.budget import Budget
from repro.stats.counters import JoinStats


class TestBudgetMechanics:
    def test_inactive_by_default(self):
        budget = Budget()
        assert not budget.active
        for _ in range(1000):
            budget.check(JoinStats())  # never trips

    def test_bytes_breach(self):
        budget = Budget(max_output_bytes=100, check_every=1)
        stats = JoinStats()
        stats.bytes_written = 101
        with pytest.raises(BudgetExceededError) as info:
            budget.check(stats)
        assert info.value.kind == "output_bytes"
        assert info.value.limit == 100
        assert info.value.actual == 101

    def test_groups_breach(self):
        budget = Budget(max_groups=5, check_every=1)
        stats = JoinStats()
        stats.groups_emitted = 6
        with pytest.raises(BudgetExceededError) as info:
            budget.enforce(stats)
        assert info.value.kind == "groups"

    def test_deadline_breach(self):
        budget = Budget(deadline_seconds=0.0, check_every=1).start()
        with pytest.raises(BudgetExceededError) as info:
            budget.enforce(JoinStats())
        assert info.value.kind == "deadline"
        assert budget.remaining_seconds() < 0

    def test_counter_limits_checked_every_call(self):
        # No cadence window for counters: a small run with huge leaves
        # must not slip past the byte cap between sparse checks.
        budget = Budget(max_output_bytes=1, check_every=10_000)
        stats = JoinStats()
        stats.bytes_written = 999
        with pytest.raises(BudgetExceededError):
            budget.check(stats)

    def test_deadline_clock_amortised(self):
        budget = Budget(deadline_seconds=0.0, check_every=8).start()
        stats = JoinStats()
        with pytest.raises(BudgetExceededError):
            budget.check(stats)  # call 0 reads the clock
        later = Budget(deadline_seconds=0.0, check_every=8).start()
        with pytest.raises(BudgetExceededError):
            later.check(stats)  # call 0 again
        # After the raise the counter advanced; calls 1..7 skip the clock.
        for _ in range(7):
            later.check(stats)
        with pytest.raises(BudgetExceededError):
            later.check(stats)  # call 8 reads it again

    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError):
            Budget(check_every=0)


@pytest.fixture
def pts():
    return np.random.default_rng(5).random((400, 2))


def _tight_bytes():
    return Budget(max_output_bytes=200, check_every=1)


class TestGracefulDegradation:
    def test_ssj_byte_breach_falls_back_to_estimate(self, pts):
        tree = build_index(pts, bulk="str")
        result = ssj(tree, 0.1, budget=_tight_bytes())
        assert result.estimated
        assert result.stats.links_emitted > 0  # the estimate, not a crash
        assert result.summary()["estimated"] is True

    def test_ssj_estimate_tracks_true_count(self, pts):
        tree = build_index(pts, bulk="str")
        exact = len(brute_force_links(pts, 0.1))
        result = ssj(tree, 0.1, budget=_tight_bytes())
        # The analytic estimator is coarse but must be the right magnitude.
        assert 0.2 * exact < result.stats.links_emitted < 5 * exact

    def test_ssj_under_budget_runs_exactly(self, pts):
        tree = build_index(pts, bulk="str")
        result = ssj(tree, 0.05, budget=Budget(max_output_bytes=10**9))
        assert not result.estimated
        assert result.stats.links_emitted == len(brute_force_links(pts, 0.05))

    @pytest.mark.parametrize("algo", ["csj", "egrid-csj", "pbsm-csj"])
    def test_compact_byte_breach_raises_with_valid_partial(self, pts, algo):
        with pytest.raises(BudgetExceededError) as info:
            similarity_join(pts, 0.1, algorithm=algo, g=10, budget=_tight_bytes())
        partial = info.value.partial
        assert partial is not None
        assert partial.stats.bytes_written >= 200
        # Theorem 2 on the prefix: every implied pair truly qualifies.
        exact = brute_force_links(pts, 0.1)
        assert partial.expanded_links() <= exact
        assert len(partial.expanded_links()) > 0

    def test_deadline_breach_stops_cleanly(self, pts):
        budget = Budget(deadline_seconds=0.0, check_every=1)
        with pytest.raises(BudgetExceededError) as info:
            csj(build_index(pts, bulk="str"), 0.1, g=10, budget=budget)
        assert info.value.kind == "deadline"
        assert info.value.partial is not None

    def test_egrid_deadline(self, pts):
        with pytest.raises(BudgetExceededError):
            egrid_join(
                pts, 0.1, compact=False,
                budget=Budget(deadline_seconds=0.0, check_every=1),
            )

    def test_pbsm_deadline(self, pts):
        with pytest.raises(BudgetExceededError):
            pbsm_join(
                pts, 0.1, compact=False,
                budget=Budget(deadline_seconds=0.0, check_every=1),
            )

    def test_unlimited_budget_changes_nothing(self, pts):
        tree = build_index(pts, bulk="str")
        plain = csj(tree, 0.07, g=10)
        budgeted = csj(tree, 0.07, g=10, budget=Budget())
        assert budgeted.expanded_links() == plain.expanded_links()
        assert budgeted.stats.groups_emitted == plain.stats.groups_emitted


class TestSerialBreachPoint:
    """Serial tree joins see a byte breach up to one leaf window late.

    The traversal checks the budget while the sink still lacks the
    pending window, so the run stops at the first check after the window
    that crossed the cap is applied.  The output is then a prefix of the
    unbudgeted output, cut at a unit boundary, and between the unit that
    crossed the cap and the last unit applied lie at most the links of
    one window.
    """

    def test_ncsj_byte_breach_is_a_prefix_within_one_window(self, tmp_path):
        eps = 0.125
        pts = load_dataset("sierpinski3d", 2000, seed=0)
        tree = build_index(pts, "rstar", max_entries=8, bulk="str")
        width = width_for(len(pts))
        full_path = tmp_path / "full.txt"
        with TextSink(str(full_path), id_width=width) as sink:
            ncsj(tree, eps, sink=sink)
        full = full_path.read_bytes()

        # Bytes written after each unit, units applied one by one.
        packed = pack_index(tree)
        counting = CountingSink(id_width=width)
        window = make_window(0, eps, counting, tree.metric)
        ends = []
        for unit in traverse(packed, eps, True):
            events, _ = tree_task_delta(pts, tree.metric, eps, 0, packed, unit)
            apply_events(events, counting, window)
            ends.append(counting.stats.bytes_written)
        assert ends[-1] == len(full)

        cap = len(full) // 3
        budget = Budget(max_output_bytes=cap, check_every=1)
        part_path = tmp_path / "part.txt"
        with TextSink(str(part_path), id_width=width) as sink:
            with pytest.raises(BudgetExceededError) as info:
                ncsj(tree, eps, sink=sink, budget=budget)
        written = info.value.partial.stats.bytes_written
        part = part_path.read_bytes()
        assert len(part) == written > cap
        assert full.startswith(part)
        crossing = next(i for i, end in enumerate(ends) if end > cap)
        last = ends.index(written)  # the last unit that wrote bytes
        assert last >= crossing
        assert ends[last - 1] - ends[crossing] <= LEAF_WINDOW * line_bytes(2, width)


class TestRunnerIntegration:
    def test_experiment_runner_estimates_over_budget(self, pts):
        from repro.experiments.runner import ExperimentConfig, run_algorithm

        tree = build_index(pts, bulk="str")
        config = ExperimentConfig(iterations=1, ssj_byte_budget=100)
        row = run_algorithm("ssj", tree, 0.1, config=config)
        assert row["estimated"] is True

    def test_experiment_runner_exact_under_budget(self, pts):
        from repro.experiments.runner import ExperimentConfig, run_algorithm

        tree = build_index(pts, bulk="str")
        config = ExperimentConfig(iterations=1)
        row = run_algorithm("csj", tree, 0.05, config=config)
        assert row["estimated"] is False
