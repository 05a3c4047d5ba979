"""The invariant linter: each rule against bad fixtures, allowlists,
waivers, and a clean run over the shipped tree."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.lint import LINT_RULES, lint_source, run_lint


def rules_hit(source: str, path: str = "repro/attacks/example.py"):
    return [finding.rule for finding in lint_source(source, path=path)]


class TestFacadeTLBConstruction:
    def test_direct_construction_is_flagged(self):
        source = "tlb = SetAssociativeTLB(config)\n"
        assert rules_hit(source) == ["facade-tlb-construction"]

    def test_every_design_class_is_guarded(self):
        for name in (
            "SetAssociativeTLB",
            "StaticPartitionTLB",
            "RandomFillTLB",
            "DynamicPartitionTLB",
            "TwoLevelTLB",
            "TLBHierarchy",
        ):
            assert rules_hit(f"x = {name}(config)\n"), name

    def test_make_hierarchy_is_the_sanctioned_multi_level_path(self):
        # The factory call itself is clean; direct TLBHierarchy
        # construction outside repro.tlb / the kinds factories is not.
        assert rules_hit("tlb = make_hierarchy(spec)\n") == []
        assert rules_hit("tlb = TLBHierarchy(levels)\n") == [
            "facade-tlb-construction"
        ]
        assert rules_hit(
            "tlb = TLBHierarchy(levels)\n",
            path="repro/security/kinds.py",
        ) == []

    def test_construction_inside_repro_tlb_is_allowed(self):
        source = "tlb = SetAssociativeTLB(config)\n"
        assert rules_hit(source, path="repro/tlb/factory.py") == []

    def test_the_registered_factory_module_is_allowed(self):
        source = "tlb = RandomFillTLB(config)\n"
        assert rules_hit(source, path="repro/security/kinds.py") == []

    def test_factory_calls_are_not_flagged(self):
        source = "tlb = make_tlb(TLBKind.SA, config)\n"
        assert rules_hit(source) == []


class TestFacadeWalkerConstruction:
    def test_direct_construction_is_flagged(self):
        source = "walker = PageTableWalker(auto_map=True)\n"
        assert rules_hit(source) == ["facade-walker-construction"]

    def test_repro_mmu_and_the_memory_system_are_allowed(self):
        source = "walker = PageTableWalker()\n"
        assert rules_hit(source, path="repro/mmu/walker.py") == []
        assert rules_hit(source, path="repro/sim/system.py") == []


class TestDeterministicSim:
    def test_global_random_calls_are_flagged(self):
        assert rules_hit("x = random.random()\n") == ["deterministic-sim"]
        assert rules_hit("x = random.choice(items)\n") == [
            "deterministic-sim"
        ]

    def test_wall_clock_reads_are_flagged(self):
        assert rules_hit("t = time.time()\n") == ["deterministic-sim"]
        assert rules_hit("t = time.perf_counter()\n") == [
            "deterministic-sim"
        ]
        assert rules_hit("t = datetime.now()\n") == ["deterministic-sim"]

    def test_seedless_random_instance_is_flagged(self):
        assert rules_hit("rng = random.Random()\n") == ["deterministic-sim"]
        assert rules_hit("rng = Random()\n") == ["deterministic-sim"]

    def test_seeded_random_instance_is_fine(self):
        assert rules_hit("rng = random.Random(7)\n") == []

    def test_bound_rng_methods_are_fine(self):
        assert rules_hit("x = rng.random()\n") == []

    def test_the_runner_layer_is_exempt(self):
        source = "t = time.time()\n"
        assert rules_hit(source, path="repro/runner/telemetry.py") == []

    def test_the_serve_layer_is_exempt(self):
        source = "t = time.time()\n"
        assert rules_hit(source, path="repro/serve/app.py") == []


class TestSimIsolation:
    def test_socket_use_in_sim_code_is_flagged(self):
        assert rules_hit("s = socket.socket()\n") == ["sim-isolation"]
        assert rules_hit(
            "s = socket.create_connection(('h', 80))\n"
        ) == ["sim-isolation"]

    def test_asyncio_servers_in_sim_code_are_flagged(self):
        source = "server = asyncio.start_server(cb, host, port)\n"
        assert rules_hit(source) == ["sim-isolation"]

    def test_the_serve_package_is_allowed(self):
        assert rules_hit(
            "s = socket.socket()\n", path="repro/serve/app.py"
        ) == []
        assert rules_hit(
            "server = asyncio.start_server(cb, host, port)\n",
            path="repro/serve/app.py",
        ) == []

    def test_the_runner_is_not_exempt_from_isolation(self):
        assert rules_hit(
            "s = socket.socket()\n", path="repro/runner/scheduler.py"
        ) == ["sim-isolation"]

    def test_benign_asyncio_calls_are_fine(self):
        assert rules_hit("asyncio.run(main())\n") == []
        assert rules_hit("lock = asyncio.Lock()\n") == []


class TestFrozenEventDataclasses:
    def test_unfrozen_event_dataclass_is_flagged(self):
        source = (
            "@dataclass\n"
            "class AccessEvent:\n"
            "    vpn: int\n"
        )
        assert rules_hit(source) == ["frozen-event-dataclasses"]

    def test_frozen_without_slots_is_flagged(self):
        source = (
            "@dataclass(frozen=True)\n"
            "class AccessEvent:\n"
            "    vpn: int\n"
        )
        assert rules_hit(source) == ["frozen-event-dataclasses"]

    def test_frozen_slotted_event_dataclass_is_fine(self):
        source = (
            "@dataclass(frozen=True, slots=True)\n"
            "class AccessEvent:\n"
            "    vpn: int\n"
        )
        assert rules_hit(source) == []

    def test_non_dataclass_event_class_is_ignored(self):
        source = "class FakeEvent:\n    pass\n"
        assert rules_hit(source) == []


class TestNoSnapshotMutation:
    def test_assignment_into_a_snapshot_is_flagged(self):
        source = "tlb.stats.snapshot().misses = 0\n"
        assert rules_hit(source) == ["no-snapshot-mutation"]

    def test_subscript_assignment_into_entries_is_flagged(self):
        source = "tlb.entries()[0].vpn = 0xDEAD\n"
        assert "no-snapshot-mutation" in rules_hit(source)

    def test_mutator_call_on_a_snapshot_is_flagged(self):
        source = "tlb.entries()[0].invalidate()\n"
        assert rules_hit(source) == ["no-snapshot-mutation"]

    def test_mutating_live_state_is_fine(self):
        assert rules_hit("entry.invalidate()\n") == []
        assert rules_hit("snapshot = tlb.entries()\n") == []


class TestCertifiableHierarchy:
    """Hierarchies come from declarative specs, never raw level lists,
    so `python -m repro certify` can reach every design."""

    def test_literal_level_list_to_the_factory_is_flagged(self):
        source = "tlb = make_hierarchy([l1, l2])\n"
        assert rules_hit(source) == ["certifiable-hierarchy"]
        assert rules_hit("tlb = make_hierarchy(levels=[l1, l2])\n") == [
            "certifiable-hierarchy"
        ]

    def test_literal_level_list_to_the_constructor_is_flagged(self):
        # Flagged even where facade construction itself is sanctioned.
        source = "tlb = TLBHierarchy([l1, l2])\n"
        assert "certifiable-hierarchy" in rules_hit(source)
        assert rules_hit(source, path="repro/tlb/other.py") == []

    def test_inline_spec_outside_the_catalogs_is_flagged(self):
        source = "spec = HierarchySpec(levels=(l1, l2))\n"
        assert rules_hit(source) == ["certifiable-hierarchy"]

    def test_spec_passing_is_fine(self):
        assert rules_hit("tlb = make_hierarchy(spec)\n") == []
        assert rules_hit(
            "spec = HierarchySpec.from_dict(payload)\n"
        ) == []
        assert rules_hit(
            "spec = HierarchySpec(levels=levels)\n"
        ) == []

    def test_the_spec_catalogs_are_allowed(self):
        source = "spec = HierarchySpec(levels=(l1, l2))\n"
        for path in (
            "repro/tlb/spec.py",
            "repro/ablations/hierarchy.py",
            "repro/analysis/certify_gate.py",
        ):
            assert rules_hit(source, path=path) == [], path


class TestAllocationFreeRunKernel:
    def kernel(self, body: str) -> str:
        return (
            "def translate_slice(self, vpns, start, stop, asid, translator):\n"
            f"{body}"
        )

    def test_result_construction_is_flagged(self):
        source = self.kernel("    return AccessResult(hit=False)\n")
        assert rules_hit(source) == ["allocation-free-run-kernel"]

    def test_event_construction_is_flagged(self):
        source = self.kernel("    bus.publish(TLBAccessEvent(vpn=vpn))\n")
        assert rules_hit(source) == ["allocation-free-run-kernel"]

    def test_snapshot_is_flagged(self):
        source = self.kernel("    state = self.stats.snapshot()\n")
        assert rules_hit(source) == ["allocation-free-run-kernel"]

    def test_comprehensions_are_flagged(self):
        source = self.kernel("    keys = [e.vpn for e in entries]\n")
        assert rules_hit(source) == ["allocation-free-run-kernel"]

    def test_loose_tuple_construction_is_flagged(self):
        source = self.kernel("    pair = (vpn, asid)\n")
        assert rules_hit(source) == ["allocation-free-run-kernel"]

    def test_non_allocating_tuple_positions_are_fine(self):
        source = self.kernel(
            "    cycles, misses = probe(vpn)\n"
            "    entry = index.get((vpn, asid, 0))\n"
            "    index_get = index.get\n"
            "    entry = index_get((vpn, asid, 0))\n"
            "    index.pop((vpn, asid, 0), None)\n"
            "    index[(vpn, asid, 0)] = entry\n"
            "    return cycles, misses\n"
        )
        assert rules_hit(source) == []

    def test_only_kernel_functions_are_guarded(self):
        source = (
            "def _handle_miss(self, vpn, asid, translator):\n"
            "    return AccessResult(hit=False)\n"
        )
        assert rules_hit(source) == []


class TestWaivers:
    def test_a_matching_waiver_suppresses_the_finding(self):
        source = (
            "tlb = SetAssociativeTLB(config)"
            "  # invariant: allow facade-tlb-construction\n"
        )
        assert rules_hit(source) == []

    def test_a_waiver_for_another_rule_does_not(self):
        source = (
            "tlb = SetAssociativeTLB(config)"
            "  # invariant: allow deterministic-sim\n"
        )
        assert rules_hit(source) == ["facade-tlb-construction"]


class TestRunLint:
    def test_rule_registry_has_the_documented_names(self):
        assert [rule.name for rule in LINT_RULES] == [
            "facade-tlb-construction",
            "facade-walker-construction",
            "deterministic-sim",
            "sim-isolation",
            "frozen-event-dataclasses",
            "no-snapshot-mutation",
            "certifiable-hierarchy",
            "allocation-free-run-kernel",
        ]

    def test_the_shipped_tree_is_clean(self):
        package_root = Path(repro.__file__).parent
        assert run_lint([package_root]) == []

    def test_findings_are_sorted_and_described(self):
        source = (
            "walker = PageTableWalker()\n"
            "tlb = SetAssociativeTLB(config)\n"
        )
        findings = lint_source(source, path="repro/attacks/example.py")
        assert [f.line for f in findings] == [1, 2]
        assert "example.py:1" in findings[0].describe()
