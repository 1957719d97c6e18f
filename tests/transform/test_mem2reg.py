"""mem2reg (SSA construction) tests."""

import pytest

from repro.ir import parse_function, parse_module, verify_function
from repro.ir import types as T
from repro.ir.instructions import AllocaInst, LoadInst, PhiInst, StoreInst
from repro.transform.mem2reg import is_promotable, promote_memory_to_registers
from repro.vm import ExecutionEngine


def allocas_of(func):
    return [i for i in func.instructions() if isinstance(i, AllocaInst)]


STRAIGHT = """
define i64 @f(i64 %n) {
entry:
  %x = alloca i64
  store i64 %n, i64* %x
  %v = load i64, i64* %x
  %v2 = add i64 %v, 1
  store i64 %v2, i64* %x
  %v3 = load i64, i64* %x
  ret i64 %v3
}
"""

DIAMOND = """
define i64 @f(i64 %n) {
entry:
  %x = alloca i64
  store i64 0, i64* %x
  %c = icmp sgt i64 %n, 5
  br i1 %c, label %big, label %small
big:
  store i64 100, i64* %x
  br label %join
small:
  store i64 7, i64* %x
  br label %join
join:
  %v = load i64, i64* %x
  ret i64 %v
}
"""

LOOP = """
define i64 @f(i64 %n) {
entry:
  %acc = alloca i64
  %i = alloca i64
  store i64 0, i64* %acc
  store i64 0, i64* %i
  br label %head
head:
  %iv = load i64, i64* %i
  %c = icmp slt i64 %iv, %n
  br i1 %c, label %body, label %out
body:
  %a = load i64, i64* %acc
  %a2 = add i64 %a, %iv
  store i64 %a2, i64* %acc
  %i2 = add i64 %iv, 1
  store i64 %i2, i64* %i
  br label %head
out:
  %r = load i64, i64* %acc
  ret i64 %r
}
"""

#: %t is written before it is read on every pass of the inner loop, so
#: its phis at both loop headers would only feed each other
NESTED_SCRATCH = """
define i64 @f(i64 %n) {
entry:
  %acc = alloca i64
  %i = alloca i64
  %j = alloca i64
  %t = alloca i64
  store i64 0, i64* %acc
  store i64 0, i64* %i
  br label %outer
outer:
  %iv = load i64, i64* %i
  %c = icmp slt i64 %iv, %n
  br i1 %c, label %outer.body, label %out
outer.body:
  store i64 0, i64* %j
  br label %inner
inner:
  %jv = load i64, i64* %j
  %d = icmp slt i64 %jv, %n
  br i1 %d, label %inner.body, label %outer.step
inner.body:
  %p = mul i64 %iv, %jv
  store i64 %p, i64* %t
  %tv = load i64, i64* %t
  %a = load i64, i64* %acc
  %a2 = add i64 %a, %tv
  store i64 %a2, i64* %acc
  %j2 = add i64 %jv, 1
  store i64 %j2, i64* %j
  br label %inner
outer.step:
  %i2 = add i64 %iv, 1
  store i64 %i2, i64* %i
  br label %outer
out:
  %r = load i64, i64* %acc
  ret i64 %r
}
"""


class TestPromotion:
    def test_straight_line(self):
        func = parse_function(STRAIGHT)
        promoted = promote_memory_to_registers(func)
        assert promoted == 1
        verify_function(func)
        assert allocas_of(func) == []
        assert not any(isinstance(i, (LoadInst, StoreInst))
                       for i in func.instructions())

    def test_straight_line_semantics(self):
        module = parse_module(STRAIGHT)
        func = module.get_function("f")
        engine = ExecutionEngine(module)
        before = engine.run("f", 10)
        promote_memory_to_registers(func)
        engine.invalidate(func)
        assert engine.run("f", 10) == before == 11

    def test_diamond_inserts_phi(self):
        func = parse_function(DIAMOND)
        promote_memory_to_registers(func)
        verify_function(func)
        join = func.get_block("join")
        assert len(join.phis) == 1
        phi = join.phis[0]
        values = sorted(v.value for v, _ in phi.incoming)
        assert values == [7, 100]

    def test_diamond_semantics(self):
        module = parse_module(DIAMOND)
        engine = ExecutionEngine(module)
        assert engine.run("f", 10) == 100
        promote_memory_to_registers(module.get_function("f"))
        engine.invalidate(module.get_function("f"))
        assert engine.run("f", 10) == 100
        assert engine.run("f", 1) == 7

    def test_loop_carried_phis(self):
        func = parse_function(LOOP)
        promote_memory_to_registers(func)
        verify_function(func)
        head = func.get_block("head")
        assert len(head.phis) == 2
        assert allocas_of(func) == []

    def test_dead_phi_web_pruned(self):
        module = parse_module(NESTED_SCRATCH)
        func = module.get_function("f")
        promote_memory_to_registers(func)
        verify_function(func)
        phis = {phi.name for block in func.blocks for phi in block.phis}
        assert not any(name.startswith("t.") for name in phis), phis
        assert ExecutionEngine(module).run("f", 4) == sum(
            i * j for i in range(4) for j in range(4))

    def test_loop_semantics(self):
        module = parse_module(LOOP)
        engine = ExecutionEngine(module)
        promote_memory_to_registers(module.get_function("f"))
        engine.invalidate(module.get_function("f"))
        assert engine.run("f", 10) == sum(range(10))

    def test_load_before_store_yields_undef_not_crash(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca i64
  %v = load i64, i64* %x
  store i64 1, i64* %x
  ret i64 %v
}
""")
        promote_memory_to_registers(func)
        verify_function(func)

    def test_only_filter(self):
        func = parse_function(LOOP)
        target = allocas_of(func)[0]
        promoted = promote_memory_to_registers(func, only={target})
        assert promoted == 1
        assert len(allocas_of(func)) == 1


class TestPromotability:
    def test_escaped_alloca_not_promotable(self):
        func = parse_function("""
declare void @sink(i64* %p)

define i64 @f() {
entry:
  %x = alloca i64
  store i64 1, i64* %x
  call void @sink(i64* %x)
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        alloca = allocas_of(func)[0]
        assert not is_promotable(alloca)
        assert promote_memory_to_registers(func) == 0

    def test_gep_addressed_alloca_not_promotable(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca [4 x i64]
  %p = getelementptr [4 x i64], [4 x i64]* %x, i64 0, i64 1
  store i64 1, i64* %p
  %v = load i64, i64* %p
  ret i64 %v
}
""")
        assert promote_memory_to_registers(func) == 0

    def test_multi_count_alloca_not_promotable(self):
        func = parse_function("""
define i64 @f() {
entry:
  %x = alloca i64, i64 4
  store i64 1, i64* %x
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        assert promote_memory_to_registers(func) == 0

    def test_stored_pointer_not_promotable(self):
        func = parse_function("""
define i64 @f() {
entry:
  %cell = alloca i64*
  %x = alloca i64
  store i64* %x, i64** %cell
  store i64 3, i64* %x
  %v = load i64, i64* %x
  ret i64 %v
}
""")
        allocas = allocas_of(func)
        x = next(a for a in allocas if a.name == "x")
        assert not is_promotable(x)
        # the cell itself holds only loads/stores of whole values: promotable
        cell = next(a for a in allocas if a.name == "cell")
        assert is_promotable(cell)
