"""The frontend's entry-block alloca rule and the semantics it keeps.

Every scalar local gets its alloca at the top of the entry block, so
mem2reg promotes loop-body scalars too.  A declaration without an
initializer stores zero at the declaration site, which keeps the old
per-pass re-zeroing of a re-executed alloca.  Arrays keep their alloca at
the declaration.
"""

import pytest

from repro.frontend import compile_c
from repro.shootout.harness import all_benchmarks
from repro.transform import PassManager
from repro.vm import ExecutionEngine

UNINITIALIZED_IN_LOOP = r"""
long loop_locals(long n) {
    long acc = 0;
    long i;
    for (i = 0; i < n; i++) {
        int x;
        double d;
        long *p;
        acc = acc * 3 + x + (long)d;
        if (p == 0) acc = acc + 7;
        x = x + (int)i + 1;
        d = d + 2.5;
        acc = acc + x + (long)d;
    }
    return acc;
}
"""

SELF_REFERENCING_INIT = r"""
long self_init(long n) {
    long acc = 0;
    long i;
    for (i = 0; i < n; i++) {
        long y = y + i;
        acc = acc * 2 + y;
    }
    return acc;
}
"""

N = 25


def _loop_locals_reference(n):
    acc = 0
    for i in range(n):
        acc = acc * 3 + 7          # x, d and p read as zero on every pass
        acc = acc + (i + 1) + 2    # x = i + 1, d = 2.5 truncates to 2
    return acc


def _self_init_reference(n):
    acc = 0
    for i in range(n):
        acc = acc * 2 + i          # y starts from zero on every pass
    return acc


def _optimized(source):
    module = compile_c(source)
    PassManager.pipeline("optimized").run_module(module)
    return module


@pytest.mark.parametrize("source,entry,reference", [
    (UNINITIALIZED_IN_LOOP, "loop_locals", _loop_locals_reference),
    (SELF_REFERENCING_INIT, "self_init", _self_init_reference),
], ids=["uninitialized", "self-referencing-init"])
class TestLoopBodyLocalsStartAtZero:
    def test_tree_walker_without_passes(self, source, entry, reference):
        engine = ExecutionEngine(compile_c(source), tier="interp")
        assert engine.run(entry, N) == reference(N)

    @pytest.mark.parametrize("tier", ["decoded", "jit", "tiered"])
    def test_optimized_tiers(self, source, entry, reference, tier):
        engine = ExecutionEngine(_optimized(source), tier=tier,
                                 call_threshold=2)
        for _ in range(4):
            assert engine.run(entry, N) == reference(N)

    def test_speculative(self, source, entry, reference):
        module = _optimized(source)
        engine = ExecutionEngine(module, tier="speculative",
                                 call_threshold=2)
        for _ in range(8):
            assert engine.run(entry, N) == reference(N)
        state = engine.spec_manager.state_for(module.get_function(entry))
        assert state.active_version is not None, "never speculated"


def _defined_functions(module):
    return [f for f in module.functions if not f.is_declaration]


def _allocas(func):
    for block in func.blocks:
        for inst in block.instructions:
            if inst.opcode == "alloca":
                yield block, inst


def _is_array(alloca):
    return alloca.allocated_type.is_aggregate or alloca.count != 1


@pytest.mark.parametrize("program", list(all_benchmarks()),
                         ids=lambda b: b.name)
class TestEntryAllocaInvariant:
    def test_scalar_allocas_in_entry_block(self, program):
        module = compile_c(program.source)
        for func in _defined_functions(module):
            misplaced = [inst.name for block, inst in _allocas(func)
                         if block is not func.entry and not _is_array(inst)]
            assert misplaced == [], (func.name, misplaced)

    def test_no_scalar_alloca_survives_optimized(self, program):
        module = _optimized(program.source)
        for func in _defined_functions(module):
            left = [inst.name for _, inst in _allocas(func)
                    if not _is_array(inst)]
            assert left == [], (func.name, left)


def test_array_alloca_stays_at_declaration():
    module = compile_c(r"""
    long f(long n) {
        long s = 0;
        long i;
        for (i = 0; i < n; i++) {
            long a[4];
            long t;
            s = s + a[0];
            a[0] = i;
            t = i;
            s = s + t;
        }
        return s;
    }
    """)
    func = module.get_function("f")
    placed = {inst.name: block for block, inst in _allocas(func)}
    assert placed["t"] is func.entry
    assert placed["a"] is not func.entry
    assert ExecutionEngine(module, tier="interp").run("f", 5) == 10
