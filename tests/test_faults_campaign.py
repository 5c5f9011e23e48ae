"""Campaign registry and ``faults``/``svd`` CLI exit-code contracts."""

import json

import pytest

from repro.cli import main
from repro.faults.campaign import (
    ORDERINGS,
    CampaignCase,
    campaign_cases,
    render_survival_matrix,
    run_campaign,
    single_fault_plan,
)
from repro.faults.plan import FAULT_KINDS


class TestCampaignRegistry:
    def test_quick_grid_is_kinds_by_orderings(self):
        cases = campaign_cases(quick=True)
        assert len(cases) == len(FAULT_KINDS) * len(ORDERINGS)
        assert all(c.n == 8 and c.kernel == "reference" for c in cases)

    def test_full_grid_adds_sizes_and_gram(self):
        cases = campaign_cases(quick=False)
        assert len(cases) == len(FAULT_KINDS) * len(ORDERINGS) * 3 * 3
        assert {c.n for c in cases} == {8, 16, 32}
        assert {c.kernel for c in cases} == {"reference", "batched", "gram"}
        # hybrid needs >= 8 schedule units: gram at n=8 must use b=1
        for c in cases:
            if c.kernel == "gram":
                assert c.block_size == (1 if c.n == 8 else 2)

    def test_every_registered_plan_has_exactly_one_fault(self):
        for case in campaign_cases(quick=False):
            plan = single_fault_plan(case)
            assert len(plan.faults) == 1
            assert plan.faults[0].kind == case.kind

    def test_quick_campaign_all_survive(self):
        outcomes = run_campaign(quick=True)
        casualties = [o for o in outcomes if not o.survived]
        assert not casualties, render_survival_matrix(outcomes)
        # every case paid a recovery price and logged its injection
        assert all(o.event_counts.get("injected", 0) >= 1 for o in outcomes)
        assert all(o.overhead > 1.0 for o in outcomes)

    def test_survival_matrix_renders(self):
        outcomes = run_campaign(quick=True)
        text = render_survival_matrix(outcomes)
        assert "survival matrix" in text
        for ordering in ORDERINGS:
            assert ordering in text
        assert "survived" in text


class TestFaultsCLI:
    def test_quick_campaign_exits_zero(self, capsys):
        assert main(["faults", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "survival matrix" in out

    def test_json_output_is_valid(self, capsys):
        assert main(["faults", "--quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["cases"]) == len(FAULT_KINDS) * len(ORDERINGS)
        assert all(c["survived"] for c in doc["cases"])


class TestSvdCLIExitCodes:
    def test_converged_run_exits_zero(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16",
                   "--ordering", "fat_tree", "--topology", "perfect"])
        assert rc == 0

    def test_non_convergence_exits_one(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16", "--serial",
                   "--ordering", "fat_tree", "--max-sweeps", "1"])
        assert rc == 1
        assert "NOT CONVERGED" in capsys.readouterr().out

    def test_fault_injection_run(self, capsys):
        rc = main(["svd", "--m", "24", "--n", "16",
                   "--ordering", "fat_tree", "--topology", "perfect",
                   "--fault", "crash"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault log" in out and "remap" in out

    def test_unknown_fault_kind_is_usage_error(self, capsys):
        rc = main(["svd", "--fault", "gremlin"])
        assert rc == 2
        assert "unknown fault kind" in capsys.readouterr().out

    def test_bad_max_sweeps_is_usage_error(self, capsys):
        assert main(["svd", "--max-sweeps", "0"]) == 2
