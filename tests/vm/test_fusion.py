"""Unit tests for the decoded tier's superinstruction fusion.

The decoder's peephole fuses compare+branch pairs, single-use
producer→consumer chains and phi parallel copies into flat closures.
These tests pin the observable surface: the per-function fusion
counters, the ``decode.fuse`` telemetry event, and the invariant that
fusion never changes block weights (the step/OSR accounting unit) or
results.
"""

from repro.ir import parse_module
from repro.obs import Telemetry, events
from repro.shootout import SUITE, compile_benchmark
from repro.vm import ExecutionEngine
from repro.vm.decode import decode_function

LOOP = """
define i64 @sumto(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  %c = icmp sle i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %acc1
}
"""

#: straight-line producer chain: %a feeds only %b, %b feeds only the ret
CHAIN = """
define i64 @chain(i64 %n) {
entry:
  %a = add i64 %n, 1
  %b = mul i64 %a, 3
  ret i64 %b
}
"""

#: a fused switch value (%k feeds only the switch) and phi-carrying
#: switch edges
SWITCH = """
define i64 @pick(i64 %x) {
entry:
  %k = and i64 %x, 3
  switch i64 %k, label %dflt [ i64 0, label %join i64 2, label %two ]
two:
  br label %join
dflt:
  br label %join
join:
  %r = phi i64 [ 10, %entry ], [ 20, %two ], [ %x, %dflt ]
  ret i64 %r
}
"""


def _decode(text, name):
    module = parse_module(text)
    engine = ExecutionEngine(module, tier="decoded")
    return decode_function(module.get_function(name), engine)


class TestFusionCounters:
    def test_cmp_br_and_phi_copies_counted(self):
        # one icmp feeding the conditional branch; two phi-carrying
        # edges (entry->loop and loop->loop); no single-use chains
        # (%acc1 and %i1 both have two users)
        decoded = _decode(LOOP, "sumto")
        assert decoded.fusion == {"cmp_br": 1, "op_chain": 0, "phi_copy": 2}

    def test_op_chains_counted(self):
        # %a -> %b is one chain link, %b -> ret another
        decoded = _decode(CHAIN, "chain")
        assert decoded.fusion == {"cmp_br": 0, "op_chain": 2, "phi_copy": 0}

    def test_switch_value_and_edges_fused(self):
        decoded = _decode(SWITCH, "pick")
        assert decoded.fusion == {"cmp_br": 0, "op_chain": 1, "phi_copy": 3}
        results = [
            ExecutionEngine(parse_module(SWITCH), tier=tier).run("pick", x)
            for tier in ("decoded", "interp") for x in range(6)
        ]
        assert results[:6] == results[6:] == [10, 1, 20, 3, 10, 5]

    def test_block_weights_unchanged_by_fusion(self):
        # fused superinstructions still account for every original
        # instruction: the step limit and OSR hot counters charge each
        # block its non-phi instructions plus the terminator
        for text, name in ((LOOP, "sumto"), (CHAIN, "chain")):
            decoded = _decode(text, name)
            func = decoded.func
            assert [b[2] for b in decoded.blocks] == [
                len(block.instructions) - block.first_non_phi_index
                for block in func.blocks
            ]
            # fusion really happened: fewer step closures than the
            # weights charge for
            assert sum(len(b[0]) + 1 for b in decoded.blocks) < sum(
                b[2] for b in decoded.blocks)

    def test_branchy_shootout_program_fuses(self):
        # a compare/branch-heavy program exercises both headline shapes,
        # and the fused closures compute the tree-walker's result
        bench = SUITE["fannkuch"]
        engine = ExecutionEngine(
            compile_benchmark(bench, "unoptimized"), tier="decoded")
        oracle = ExecutionEngine(
            compile_benchmark(bench, "unoptimized"), tier="interp")
        assert engine.run(bench.entry, 4) == oracle.run(bench.entry, 4)
        totals = {"cmp_br": 0, "op_chain": 0}
        for per_func in engine.stats_snapshot()["fusion"].values():
            for key in totals:
                totals[key] += per_func[key]
        assert totals["cmp_br"] > 0, totals
        assert totals["op_chain"] > 0, totals


class TestEngineSurface:
    def test_stats_snapshot_exposes_fusion(self):
        engine = ExecutionEngine(parse_module(LOOP), tier="decoded")
        assert engine.run("sumto", 10) == 55
        fusion = engine.stats_snapshot()["fusion"]
        assert fusion["sumto"] == {"cmp_br": 1, "op_chain": 0, "phi_copy": 2}

    def test_decode_fuse_event_carries_counters(self):
        tel = Telemetry()
        engine = ExecutionEngine(parse_module(LOOP), tier="decoded",
                                 telemetry=tel)
        assert engine.run("sumto", 10) == 55
        assert events.validate_events(tel.events) == []
        fuses = [e for e in tel.events if e["name"] == events.DECODE_FUSE]
        assert len(fuses) == 1
        assert fuses[0]["args"]["function"] == "sumto"
        assert fuses[0]["args"]["cmp_br"] == 1
        assert fuses[0]["args"]["phi_copy"] == 2

    def test_decode_fuse_counted_without_telemetry(self):
        engine = ExecutionEngine(parse_module(LOOP), tier="decoded")
        assert engine.run("sumto", 10) == 55
        assert engine.metrics.counter(events.DECODE_FUSE) == 1

    def test_no_event_when_nothing_fuses(self):
        # a function with no fusible shapes stays silent
        tel = Telemetry()
        engine = ExecutionEngine(
            parse_module("define i64 @id(i64 %x) {\nentry:\n  ret i64 %x\n}"),
            tier="decoded", telemetry=tel)
        assert engine.run("id", 7) == 7
        assert not [e for e in tel.events
                    if e["name"] == events.DECODE_FUSE]
